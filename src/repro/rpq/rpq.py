"""Regular path queries and their two-way extension (Section 3.1).

An RPQ is a regular expression over the edge alphabet Sigma; its answer
over a graph database D is the set of node pairs connected by a directed
path spelling a word of the language.  A 2RPQ additionally uses inverse
letters ``r-`` and is evaluated over *semipaths* — navigations that may
traverse edges backwards.

Evaluation is a product construction over ``(node, automaton state)``
configurations, run against a compiled
:class:`repro.graphdb.snapshot.GraphSnapshot`: the automaton and the
per-symbol adjacency are compiled once per snapshot and memoized on it
with the all-pairs answer, keyed by the query's regex (or, for a raw
automaton, by the automaton object).  Every read runs one layered
product search per source node, set-at-a-time over node bitsets: the
all-pairs answer runs it from every source and keeps one target row per
source, a single-source read runs it once (or reads the source's row
once the all-pairs answer exists), and a witness semipath runs it to
the end and walks back through its layers, all under the same meter
contract.  Only the single-source read uses the snapshot's loop-closure
index: a state that loops on a symbol set whose closure the snapshot
has bought closes its frontier with one OR of the closure rows, and the
read pays rent towards the sets not bought yet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.alphabet import base_symbol
from ..automata.dfa import reduce_nfa
from ..automata.indexed import IndexedNFA, select
from ..automata.nfa import NFA, Word
from ..cache import regex_nfa_cache
from ..graphdb.database import GraphDatabase, Node
from ..graphdb.snapshot import (
    GraphSnapshot,
    loop_symbols,
    reach_all_sources,
    reach_from_source,
    witness_path,
)
from ..obs.metrics import counter
from ..obs.trace import maybe_span
from ..automata.regex import Regex, parse_regex

_EVAL_BFS_RUNS = counter("evaluation.bfs_runs")
_EVAL_QUERIES = counter("evaluation.queries")


def _compiled(regex: Regex, meter=None, tracer=None) -> NFA:
    """Reduced NFA for a regex (cached; regexes are frozen dataclasses).

    The containment towers pass their request's meter, which both
    compilation stages poll for its deadline, and their tracer, which
    gets one ``compile`` span tagged with the trimmed NFA's states
    (``nfa_states``), the subset construction's (``dfa_states``, None
    when it stopped at the cap) and ``capped``; a cache hit tags only
    ``cache="hit"`` and the result's ``states``.
    """
    if tracer is None:
        return regex_nfa_cache.get_or_compute(
            regex, lambda: reduce_nfa(regex.to_nfa(meter=meter), meter=meter)
        )
    stats: dict = {}
    with tracer.span("compile") as span:
        nfa = regex_nfa_cache.get_or_compute(
            regex,
            lambda: reduce_nfa(regex.to_nfa(meter=meter), meter=meter, stats=stats),
        )
        span.annotate(cache="miss" if stats else "hit", states=nfa.num_states, **stats)
    return nfa


class _EvalContext:
    """One automaton compiled against one snapshot, memoized on it.

    Holds the NFA itself, so the memo key ``id(nfa)`` of a raw automaton
    stays unique while the entry lives, and no reference to the
    snapshot, so the memo forms no cycle.  ``loops[state]`` is the
    symbol set *state* loops on (None when it has no self-loop), the key
    of its closure rows in the snapshot's loop-closure index, and
    ``looping`` tells whether any state has one.  Once the all-pairs
    answer is computed, ``rows[x]`` is the bitset of the target ids
    answering source ``x`` and ``pairs`` the answer set.
    """

    __slots__ = ("nfa", "compiled", "adjacency", "loops", "looping", "rows", "pairs")

    def __init__(self, nfa: NFA, snapshot: GraphSnapshot) -> None:
        self.nfa = nfa
        self.compiled = IndexedNFA.from_nfa(nfa)
        self.adjacency = snapshot.adjacency_for(self.compiled.symbols)
        self.loops = loop_symbols(self.compiled)
        self.looping = any(self.loops)
        self.rows: list[int] | None = None
        self.pairs: frozenset[tuple[Node, Node]] | None = None


def _context(nfa: NFA, snapshot: GraphSnapshot) -> _EvalContext:
    """The compiled evaluation context for a raw *nfa* on *snapshot*."""
    return snapshot.memoized(("context", id(nfa)), lambda: _EvalContext(nfa, snapshot))


def _regex_context(regex: Regex, snapshot: GraphSnapshot) -> _EvalContext:
    """The compiled evaluation context for a query's *regex* on *snapshot*.

    Keyed by the regex, so a recompiled automaton for the same regex
    (after ``clear_caches()`` or an LRU eviction) reuses the entry.
    """
    return snapshot.memoized(
        ("regex-context", regex), lambda: _EvalContext(_compiled(regex), snapshot)
    )


def evaluate_nfa_on_graph(
    nfa: NFA, db: GraphDatabase, tracer=None, meter=None
) -> frozenset[tuple[Node, Node]]:
    """All pairs (x, y) connected by a semipath spelling a word of L(nfa)."""
    snapshot = db.snapshot(tracer=tracer)
    return _all_pairs(_context(nfa, snapshot), snapshot, tracer, meter)


def _all_pairs(
    context: _EvalContext, snapshot: GraphSnapshot, tracer, meter
) -> frozenset[tuple[Node, Node]]:
    _EVAL_QUERIES.inc()
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
        rows, configs = reach_all_sources(
            context.compiled, context.adjacency, len(nodes), meter=meter
        )
        span.count("configs", configs)
    _EVAL_BFS_RUNS.inc()
    context.rows = rows
    context.pairs = frozenset(
        (source, target) for source, row in zip(nodes, rows) for target in select(nodes, row)
    )
    return context.pairs


def targets_from(
    nfa: NFA, db: GraphDatabase, source: Node, tracer=None, meter=None
) -> frozenset[Node]:
    """Nodes reachable from *source* along words of L(nfa) (product BFS)."""
    snapshot = db.snapshot(tracer=tracer)
    return _targets(_context(nfa, snapshot), snapshot, source, tracer, meter)


def _targets(
    context: _EvalContext, snapshot: GraphSnapshot, source: Node, tracer, meter
) -> frozenset[Node]:
    source_id = snapshot.node_index.get(source)
    if source_id is None:
        return frozenset()
    nodes = snapshot.nodes
    rows = context.rows
    if rows is not None:
        # The all-pairs answer is already memoized on this snapshot:
        # read the source's target row instead of re-running any BFS.
        return frozenset(select(nodes, rows[source_id]))
    # Looping states whose set the snapshot has built close their
    # frontiers with its rows; the others pay rent towards a build.
    closures = visited = None
    closed: list[int] = []
    if context.looping:
        closures, visited = snapshot.loop_closures(context.loops), []
        closed = [state for state, closure in enumerate(closures) if closure is not None]
    with maybe_span(
        tracer, "eval-bfs", mode="single-source", nodes=len(nodes), closed=closed
    ):
        mask = reach_from_source(
            context.compiled,
            context.adjacency,
            len(nodes),
            source_id,
            meter=meter,
            closures=closures,
            visited=visited,
        )
    _EVAL_BFS_RUNS.inc()
    if visited:
        snapshot.pay_rent(context.loops, visited)
    return frozenset(select(nodes, mask))


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

    def compile(self, meter=None, tracer=None) -> NFA:
        """:attr:`nfa`, compiled under a request's meter and tracer."""
        return _compiled(self.regex, meter, tracer)

    def base_symbols(self) -> frozenset[str]:
        """The underlying database relations the query mentions."""
        return frozenset(base_symbol(symbol) for symbol in self.regex.symbols())

    def evaluate(
        self, db: GraphDatabase, tracer=None, meter=None
    ) -> frozenset[tuple[Node, Node]]:
        """The answer set Q(D) (pairs connected by a conforming semipath)."""
        snapshot = db.snapshot(tracer=tracer)
        return _all_pairs(_regex_context(self.regex, snapshot), snapshot, tracer, meter)

    def matches(
        self, db: GraphDatabase, source: Node, target: Node, tracer=None, meter=None
    ) -> bool:
        return target in self.targets(db, source, tracer=tracer, meter=meter)

    def targets(
        self, db: GraphDatabase, source: Node, tracer=None, meter=None
    ) -> frozenset[Node]:
        snapshot = db.snapshot(tracer=tracer)
        return _targets(_regex_context(self.regex, snapshot), snapshot, source, tracer, meter)

    def witness_semipath(
        self, db: GraphDatabase, source: Node, target: Node, tracer=None, meter=None
    ) -> tuple | None:
        """A concrete semipath ``(y0, p1, y1, ..., pn, yn)`` or None.

        The returned alternating node/label sequence conforms to the
        query (its label word is in L(Q)) and is shortest among
        conforming semipaths — the explanation facility for query
        answers ("why is this pair in the result?").

        It runs the single-source kernel of ``targets``/``matches`` on
        the same compiled snapshot context, keeping its frontier layers,
        and walks back from the first layer that accepts *target*, so it
        is shortest.  *meter* is charged as by an uncached ``targets``
        read from *source*: its deadline is checked once per (state,
        layer), and one ``configs`` unit is spent per (state, node)
        first reached, initial configurations free.
        """
        snapshot = db.snapshot(tracer=tracer)
        source_id = snapshot.node_index.get(source)
        target_id = snapshot.node_index.get(target)
        if source_id is None or target_id is None:
            return None
        context = _regex_context(self.regex, snapshot)
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
