"""The two language-inclusion kernels agree on the smoke workload.

The engine always runs the default search; the subset and antichain
kernels stay parameters of the RPQ and 2RPQ towers, where the kernel
ablation (A8) and this guard exercise them.  For every RPQ and 2RPQ pair
of ``benchmarks/workloads/batch_smoke.ndjson``, the tower gives one
verdict under both kernels, and that verdict is the engine's.
"""

from __future__ import annotations

import pathlib

from repro.cache import clear_caches
from repro.core.engine import check_containment
from repro.rpq.containment import rpq_contained, two_rpq_contained
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.serve.protocol import parse_workload

WORKLOAD = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "workloads"
    / "batch_smoke.ndjson"
)


def _tower(q1: TwoRPQ, q2: TwoRPQ, kernel: str):
    """The tower the engine dispatches the pair to, run on *kernel*."""
    if q1.is_one_way() and q2.is_one_way():
        return rpq_contained(RPQ(q1.regex), RPQ(q2.regex), kernel=kernel)
    return two_rpq_contained(TwoRPQ(q1.regex), TwoRPQ(q2.regex), kernel=kernel)


def test_kernels_agree_with_the_engine_on_the_smoke_workload():
    parsed = parse_workload(WORKLOAD.read_text())
    assert not parsed.failures
    pairs = [
        (request.id, request.left, request.right)
        for request in parsed.requests
        if isinstance(request.left, TwoRPQ) and isinstance(request.right, TwoRPQ)
    ]
    one_way = [pair for pair in pairs if pair[1].is_one_way() and pair[2].is_one_way()]
    assert one_way and len(one_way) < len(pairs)  # both towers are covered
    disagreements = {}
    for pair_id, q1, q2 in pairs:
        clear_caches()
        verdicts = {"engine": check_containment(q1, q2).verdict}
        for kernel in ("subset", "antichain"):
            clear_caches()
            result = _tower(q1, q2, kernel)
            assert result.details["kernel"]["selected"] == kernel, pair_id
            verdicts[kernel] = result.verdict
        if len(set(verdicts.values())) != 1:
            disagreements[pair_id] = verdicts
    assert not disagreements, disagreements
