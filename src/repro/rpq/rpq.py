"""Regular path queries and their two-way extension (Section 3.1).

An RPQ is a regular expression over the edge alphabet Sigma; its answer
over a graph database D is the set of node pairs connected by a directed
path spelling a word of the language.  A 2RPQ additionally uses inverse
letters ``r-`` and is evaluated over *semipaths* — navigations that may
traverse edges backwards.

Evaluation is a product construction over ``(node, automaton state)``
configurations, run **set-at-a-time** against a compiled
:class:`repro.graphdb.snapshot.GraphSnapshot`: the automaton and the
per-symbol adjacency are compiled once per snapshot and memoized on it
with the all-pairs answer, keyed by the automaton object, and a single
multi-source frontier BFS answers the query for every source
simultaneously.  Single-source queries and witness semipaths run on the
same compiled context.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.alphabet import base_symbol
from ..automata.dfa import reduce_nfa
from ..automata.indexed import IndexedNFA, bits
from ..automata.nfa import NFA, Word
from ..cache import regex_nfa_cache
from ..graphdb.database import GraphDatabase, Node
from ..graphdb.snapshot import (
    GraphSnapshot,
    reach_all_sources,
    reach_from_source,
    witness_path,
)
from ..obs.metrics import counter
from ..obs.trace import maybe_span
from ..automata.regex import Regex, parse_regex

_EVAL_BFS_RUNS = counter("evaluation.bfs_runs")
_EVAL_QUERIES = counter("evaluation.queries")


def _compiled(regex: Regex) -> NFA:
    """Reduced NFA for a regex (cached; regexes are frozen dataclasses)."""
    return regex_nfa_cache.get_or_compute(regex, lambda: reduce_nfa(regex.to_nfa()))


class _EvalContext:
    """One automaton compiled against one snapshot, memoized on it.

    Holds the NFA itself, so the memo key ``id(nfa)`` stays unique while
    the entry lives, and no reference to the snapshot, so the memo forms
    no cycle.  ``pairs`` is the all-pairs answer once computed.
    """

    __slots__ = ("nfa", "compiled", "adjacency", "pairs")

    def __init__(self, nfa: NFA, snapshot: GraphSnapshot) -> None:
        self.nfa = nfa
        self.compiled = IndexedNFA.from_nfa(nfa)
        self.adjacency = snapshot.adjacency_for(self.compiled.symbols)
        self.pairs: frozenset[tuple[Node, Node]] | None = None


def _context(nfa: NFA, snapshot: GraphSnapshot) -> _EvalContext:
    """The compiled evaluation context for *nfa* on *snapshot* (memoized)."""
    return snapshot.memoized(("context", id(nfa)), lambda: _EvalContext(nfa, snapshot))


def evaluate_nfa_on_graph(
    nfa: NFA, db: GraphDatabase, tracer=None, meter=None
) -> frozenset[tuple[Node, Node]]:
    """All pairs (x, y) connected by a semipath spelling a word of L(nfa)."""
    _EVAL_QUERIES.inc()
    snapshot = db.snapshot(tracer=tracer)
    context = _context(nfa, snapshot)
    if context.pairs is not None:
        return context.pairs
    nodes = snapshot.nodes
    with maybe_span(
        tracer,
        "eval-bfs",
        mode="all-sources",
        nodes=len(nodes),
        states=context.compiled.num_states,
    ) as span:
        answers, configs = reach_all_sources(
            context.compiled, context.adjacency, len(nodes), meter=meter
        )
        span.count("configs", configs)
    _EVAL_BFS_RUNS.inc()
    context.pairs = frozenset(
        (nodes[source], nodes[target])
        for target in range(len(nodes))
        for source in bits(answers[target])
    )
    return context.pairs


def targets_from(
    nfa: NFA, db: GraphDatabase, source: Node, tracer=None, meter=None
) -> frozenset[Node]:
    """Nodes reachable from *source* along words of L(nfa) (product BFS)."""
    snapshot = db.snapshot(tracer=tracer)
    source_id = snapshot.node_index.get(source)
    if source_id is None:
        return frozenset()
    context = _context(nfa, snapshot)
    if context.pairs is not None:
        # The all-pairs answer is already memoized on this snapshot:
        # slice it instead of re-running any BFS.
        return frozenset(y for x, y in context.pairs if x == source)
    nodes = snapshot.nodes
    with maybe_span(tracer, "eval-bfs", mode="single-source", nodes=len(nodes)):
        mask = reach_from_source(
            context.compiled, context.adjacency, len(nodes), source_id, meter=meter
        )
    _EVAL_BFS_RUNS.inc()
    return frozenset(nodes[i] for i in bits(mask))


@dataclass(frozen=True)
class TwoRPQ:
    """A two-way regular path query: a regex over Sigma±.

    >>> q = TwoRPQ.parse("worksAt worksAt-")   # colleagues
    """

    regex: Regex

    @classmethod
    def parse(cls, text: str) -> "TwoRPQ":
        return cls(parse_regex(text))

    @property
    def nfa(self) -> NFA:
        return _compiled(self.regex)

    def base_symbols(self) -> frozenset[str]:
        """The underlying database relations the query mentions."""
        return frozenset(base_symbol(symbol) for symbol in self.regex.symbols())

    def evaluate(
        self, db: GraphDatabase, tracer=None, meter=None
    ) -> frozenset[tuple[Node, Node]]:
        """The answer set Q(D) (pairs connected by a conforming semipath)."""
        return evaluate_nfa_on_graph(self.nfa, db, tracer=tracer, meter=meter)

    def matches(
        self, db: GraphDatabase, source: Node, target: Node, tracer=None, meter=None
    ) -> bool:
        return target in self.targets(db, source, tracer=tracer, meter=meter)

    def targets(
        self, db: GraphDatabase, source: Node, tracer=None, meter=None
    ) -> frozenset[Node]:
        return targets_from(self.nfa, db, source, tracer=tracer, meter=meter)

    def witness_semipath(
        self, db: GraphDatabase, source: Node, target: Node, tracer=None, meter=None
    ) -> tuple | None:
        """A concrete semipath ``(y0, p1, y1, ..., pn, yn)`` or None.

        The returned alternating node/label sequence conforms to the
        query (its label word is in L(Q)) and is shortest among
        conforming semipaths — the explanation facility for query
        answers ("why is this pair in the result?").

        It runs against the same compiled snapshot context as
        ``targets``/``matches`` (shortest by BFS parent backtracking).
        """
        snapshot = db.snapshot(tracer=tracer)
        source_id = snapshot.node_index.get(source)
        target_id = snapshot.node_index.get(target)
        if source_id is None or target_id is None:
            return None
        context = _context(self.nfa, snapshot)
        with maybe_span(tracer, "eval-bfs", mode="witness", nodes=snapshot.num_nodes):
            steps = witness_path(
                context.compiled,
                context.adjacency,
                snapshot.num_nodes,
                source_id,
                target_id,
                meter=meter,
            )
        if steps is None:
            return None
        symbols = context.compiled.symbols
        path: list = [source]
        for symbol_id, node_id in steps:
            path.append(symbols[symbol_id])
            path.append(snapshot.nodes[node_id])
        return tuple(path)

    def is_one_way(self) -> bool:
        return not self.regex.uses_inverse()

    def accepts_word(self, word: Word) -> bool:
        """Membership in the *language* (not the query): w in L(Q)."""
        return self.nfa.accepts(word)

    def __str__(self) -> str:
        return str(self.regex)


@dataclass(frozen=True)
class RPQ(TwoRPQ):
    """A (one-way) regular path query: inverse letters are rejected.

    >>> q = RPQ.parse("knows+")
    """

    def __post_init__(self) -> None:
        if self.regex.uses_inverse():
            raise ValueError(
                f"RPQ may not use inverse letters; got {self.regex}. "
                "Use TwoRPQ for two-way navigation."
            )

    def as_two_way(self) -> TwoRPQ:
        return TwoRPQ(self.regex)
