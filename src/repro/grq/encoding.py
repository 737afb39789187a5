"""Encoding arbitrary-arity relations by binary relations (Theorem 8).

The paper reduces GRQ containment to RQ containment by "encoding
relations of arbitrary arity by binary relations" [48].  The encoding
implemented here is the standard reification: a fact ``R(a1, .., ak)``
becomes a fresh fact node ``f`` with binary edges ``R#i(f, a_i)`` for
each position ``i``; a k-ary atom in a query becomes a fresh existential
variable with k binary atoms.

The encoding preserves homomorphisms in both directions (fact nodes map
to fact nodes because only they have outgoing ``R#i`` edges for every
position of ``R``), hence preserves CQ/UCQ containment — benchmark E8
verifies this empirically on random query pairs.
"""

from __future__ import annotations

import itertools

from ..cq.syntax import CQ, Atom, Var, is_var
from ..graphdb.database import GraphDatabase
from ..relational.instance import Instance


def position_label(predicate: str, position: int) -> str:
    """The binary edge label for position *position* of *predicate*."""
    return f"{predicate}#{position}"


def encode_instance(instance: Instance) -> GraphDatabase:
    """Reify every fact of *instance* as a fact node with position edges."""
    graph = GraphDatabase()
    for constant in instance.active_domain:
        graph.add_node(("c", constant))
    for index, (predicate, row) in enumerate(sorted(instance.facts(), key=repr)):
        fact_node = ("f", predicate, row)
        graph.add_node(fact_node)
        for position, value in enumerate(row):
            graph.add_edge(fact_node, position_label(predicate, position), ("c", value))
    return graph


def encode_cq(cq: CQ) -> CQ:
    """Reify every atom of *cq*: same head, binary body over ``R#i`` labels.

    Constants in atoms are kept as (tagged) constants so the encoding
    composes with :func:`encode_instance`.
    """
    counter = itertools.count()
    atoms: list[Atom] = []
    for atom in cq.body:
        fact_var = Var(f"__fact{next(counter)}")
        for position, term in enumerate(atom.args):
            value = term if is_var(term) else ("c", term)
            atoms.append(Atom(position_label(atom.predicate, position), (fact_var, value)))
    # Head variables stay; but the frozen-constant tagging must match
    # encode_instance, which wraps constants in ("c", _).  Variables map
    # to variables, so the head is unchanged.
    return CQ(cq.head_vars, tuple(atoms))


def encode_head(head: tuple) -> tuple:
    """Encode a constant tuple the way :func:`encode_instance` tags it."""
    return tuple(("c", value) for value in head)
