"""GRQ — Generalized Regular Queries (Section 4): membership, binary
encoding, containment (Theorem 8 class)."""

from .containment import NotGRQError, grq_contained
from .encoding import (
    encode_cq,
    encode_head,
    encode_instance,
    position_label,
)
from .membership import GRQReport, check_grq, is_graph_grq, is_grq
from .to_rq import grq_to_rq

__all__ = [
    "NotGRQError",
    "grq_contained",
    "encode_cq",
    "encode_head",
    "encode_instance",
    "position_label",
    "grq_to_rq",
    "GRQReport",
    "check_grq",
    "is_graph_grq",
    "is_grq",
]
