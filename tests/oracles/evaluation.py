"""Object-state graph evaluation (oracles for the snapshot engine).

2RPQ answers come from one product BFS per source node over
``(graph node, automaton state)`` pairs, navigating with
:meth:`GraphDatabase.successors` (which resolves inverse letters), with
no snapshot, bitset or cache involved.  UC2RPQ answers materialize every
regular atom through that BFS and join with the CQ evaluator.
"""

from __future__ import annotations

from collections import deque

from repro.automata.nfa import NFA
from repro.cq.evaluation import evaluate_cq, satisfies
from repro.cq.syntax import CQ, Atom
from repro.crpq.syntax import C2RPQ, UC2RPQ
from repro.graphdb.database import GraphDatabase, Node
from repro.relational.instance import Instance


def targets_from(nfa: NFA, db: GraphDatabase, source: Node) -> frozenset[Node]:
    """Nodes reachable from *source* along words of L(nfa)."""
    if source not in db.nodes:
        return frozenset()
    start = {(source, state) for state in nfa.initial}
    seen = set(start)
    queue = deque(start)
    found: set[Node] = set()
    while queue:
        node, state = queue.popleft()
        if state in nfa.final:
            found.add(node)
        for symbol in nfa.alphabet:
            next_states = nfa.successors(state, symbol)
            if not next_states:
                continue
            for neighbor in db.successors(node, symbol):
                for next_state in next_states:
                    config = (neighbor, next_state)
                    if config not in seen:
                        seen.add(config)
                        queue.append(config)
    return frozenset(found)


def evaluate_nfa_on_graph(nfa: NFA, db: GraphDatabase) -> frozenset[tuple[Node, Node]]:
    """All pairs (x, y) connected by a semipath spelling a word of L(nfa)."""
    return frozenset(
        (source, target)
        for source in db.nodes
        for target in targets_from(nfa, db, source)
    )


def witness_semipath(
    nfa: NFA, db: GraphDatabase, source: Node, target: Node
) -> tuple | None:
    """A shortest conforming semipath ``(y0, p1, y1, ..., pn, yn)`` or None."""
    if source not in db.nodes or target not in db.nodes:
        return None
    start = [(source, state) for state in nfa.initial]
    parents: dict[tuple, tuple | None] = {config: None for config in start}
    queue = deque(start)
    hit = next(
        (config for config in start if config[1] in nfa.final and config[0] == target),
        None,
    )
    while queue and hit is None:
        node, state = queue.popleft()
        for symbol in nfa.alphabet:
            next_states = nfa.successors(state, symbol)
            if not next_states:
                continue
            for neighbor in db.successors(node, symbol):
                for next_state in next_states:
                    config = (neighbor, next_state)
                    if config in parents:
                        continue
                    parents[config] = ((node, state), symbol)
                    if neighbor == target and next_state in nfa.final:
                        hit = config
                        break
                    queue.append(config)
                if hit is not None:
                    break
            if hit is not None:
                break
    if hit is None:
        return None
    steps: list = []
    cursor: tuple = hit
    while parents[cursor] is not None:
        previous, symbol = parents[cursor]  # type: ignore[misc]
        steps.append((symbol, cursor[0]))
        cursor = previous
    path: list = [cursor[0]]
    for symbol, node in reversed(steps):
        path.append(symbol)
        path.append(node)
    return tuple(path)


def _instantiate(query: C2RPQ, db: GraphDatabase) -> tuple[CQ, Instance]:
    """Materialize every regular atom with :func:`evaluate_nfa_on_graph`."""
    instance = Instance()
    atoms = []
    for index, atom in enumerate(query.atoms):
        relation = f"__atom{index}"
        instance.declare(relation, 2)
        for pair in evaluate_nfa_on_graph(atom.query.nfa, db):
            instance.add(relation, pair)
        atoms.append(Atom(relation, (atom.source, atom.target)))
    return CQ(query.head_vars, tuple(atoms)), instance


def _disjuncts(query: UC2RPQ | C2RPQ) -> UC2RPQ:
    return query if isinstance(query, UC2RPQ) else UC2RPQ((query,))


def evaluate_uc2rpq(
    query: UC2RPQ | C2RPQ, db: GraphDatabase
) -> frozenset[tuple[Node, ...]]:
    """The answer relation Q(D), one disjunct at a time."""
    answers: set[tuple[Node, ...]] = set()
    for disjunct in _disjuncts(query):
        answers |= evaluate_cq(*_instantiate(disjunct, db))
    return frozenset(answers)


def satisfies_uc2rpq(
    query: UC2RPQ | C2RPQ, db: GraphDatabase, head: tuple[Node, ...]
) -> bool:
    """Membership test ``head in Q(D)``."""
    return any(
        satisfies(*_instantiate(disjunct, db), head) for disjunct in _disjuncts(query)
    )
