"""Compiled graph snapshots: the set-at-a-time evaluation substrate.

Query evaluation used to recompile the world on every call: each
``evaluate()`` re-interned the graph's nodes, re-resolved every inverse
letter through the backward index, and rebuilt a per-symbol adjacency
table — then threw all of it away.  A :class:`GraphSnapshot` holds that
compilation for **one database revision**: stable insertion-order node
ids and per-label forward/backward adjacency as bitset rows.

Beside the adjacency rows a snapshot holds its **loop-closure index**
(:attr:`GraphSnapshot.closures`): for a set of symbols that some
automaton state loops on (``knows`` in ``knows+``, ``(a, b)`` in
``(a|b)*``, inverse letters included), one more row list whose row
``x`` is the bitset of nodes reachable from ``x`` by words over the
set, ``x`` included.  It is graph structure, not derived answers:
single-source reads close a looping state's frontier with one OR of its
rows, and each write patches it as it patches the adjacency rows.

The snapshot also owns everything derived from it (its :attr:`memo`):
compiled evaluation contexts and all-pairs answers
(:mod:`repro.rpq.rpq`), C2RPQ instantiations
(:mod:`repro.crpq.evaluation`) and label relations (:meth:`relation`).
The snapshot object is the only identity of that state: nothing hashes
the graph's content, and derived state lives exactly as long as a
caller holds the snapshot.

The module also hosts the evaluation kernel that runs against a
snapshot (the counterpart of the containment kernels in
:mod:`repro.automata.indexed`): one product search, :func:`_search`,
from one source node, one frontier layer at a time with one node bitset
per automaton state, over a move table built once per read.  Three
reads share it, under one meter contract:

- :func:`reach_from_source` runs it once, for ``targets``/``matches``
  when no all-pairs answer is memoized, with the loop closures the
  snapshot has built for the query's looping states;
- :func:`reach_all_sources` runs it once per source over one move
  table and returns one target row per source, for ``evaluate``;
- :func:`witness_path` runs :func:`reach_from_source` with its layers
  kept, and no closures, so each layer is one true depth, and walks
  back through them to a shortest witness, so a witness costs one
  single-source read plus the walk.

Closures are bought by rent-or-buy (:meth:`GraphSnapshot.pay_rent`): a
symbol set is built once the single-source reads of this snapshot and
the snapshots it was patched from have reached as many configurations
in states looping on it as the snapshot has nodes and edges, so a fresh
database's first read never builds one.

Lifecycle: :meth:`repro.graphdb.database.GraphDatabase.snapshot` builds
a snapshot (:meth:`GraphSnapshot.from_database`) when it has none.  A
new edge whose endpoints and label the snapshot already holds, written
after a read has taken the snapshot, derives the next snapshot from it
copy-on-write (:meth:`GraphSnapshot.with_edge`): the new object shares
every row list except the label's forward and backward rows and the
closure rows the edge changes, and starts with an empty memo.  Any
other write drops the snapshot: one that finds it unread (so a run of
writes with no read between them costs at most one patch and one
rebuild), a new node, and an edge that brings a node or a label.
Either way the next read sees a new snapshot object and can never be
served an answer derived from the database as it was before the write,
and a reader still holding an old snapshot keeps its rows, its
closures, its memo and its answers.  Writes assume one writer and no
read running concurrently with a write.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Sequence

from ..automata.alphabet import base_symbol, inverse, is_inverse
from ..automata.indexed import IndexedNFA, bits, members, select
from ..obs.metrics import counter
from ..obs.trace import maybe_span

if TYPE_CHECKING:  # pragma: no cover
    from .database import GraphDatabase, Node

__all__ = [
    "GraphSnapshot",
    "loop_symbols",
    "reach_all_sources",
    "reach_from_source",
    "witness_path",
]

_SNAPSHOT_BUILDS = counter("evaluation.snapshot_builds")
_SNAPSHOT_PATCHES = counter("evaluation.snapshot_patches")
_CLOSURE_BUILDS = counter("evaluation.closure_builds")
_CLOSURE_PATCHES = counter("evaluation.closure_patches")

#: A symbol set an automaton state loops on, sorted (:func:`loop_symbols`).
LoopSet = tuple[str, ...]


class GraphSnapshot:
    """A graph database compiled to dense integer node ids + bitset rows.

    Attributes:
        nodes: the node objects, ``nodes[i]`` for node id ``i`` —
            **insertion order** of the source database, so ids are
            stable across runs for the same construction sequence
            (never ``sorted(key=repr)``, which is memory-address
            nondeterministic for default-``repr`` objects).
        node_index: node object -> node id.
        labels: the base-label alphabet, sorted (label id = index).
        forward: ``forward[label_id][node_id]`` — successor bitset.
        backward: ``backward[label_id][node_id]`` — predecessor bitset.
            A patched snapshot shares the rows and indexes a write did
            not touch with the snapshot it came from, so none of them
            is mutated once the snapshot is built.
        closures: the loop-closure index, ``closures[symbols][x]`` — the
            bitset of nodes reachable from ``x`` by words over the
            sorted symbol set *symbols* (``x`` included); the members of
            one strongly connected component share one row object when
            built.  Filled by :meth:`closure` and carried into each
            patched snapshot, patched where the new edge changes it;
            like the adjacency rows, no row list is mutated once stored.
        memo: what readers derive from this snapshot, filled through
            :meth:`memoized`: ``("context", id(nfa))`` → a compiled
            evaluation context that holds the NFA itself (so the id is
            not reused while the entry lives), ``("instance", query
            key)`` → a C2RPQ's ``(CQ, Instance)``, ``("relation",
            label)`` → ``r(D)``.  No value refers back to the snapshot,
            so a dropped snapshot is freed by reference counting alone,
            even with the cyclic collector off.  ``memo.clear()``
            forgets the derived state and keeps the compiled graph.
    """

    __slots__ = (
        "nodes",
        "node_index",
        "labels",
        "label_index",
        "forward",
        "backward",
        "num_nodes",
        "num_edges",
        "closures",
        "memo",
        "_rent",
        "_zeros",
    )

    def __init__(
        self,
        nodes: tuple,
        node_index: dict,
        labels: tuple[str, ...],
        label_index: dict[str, int],
        forward: list[list[int]],
        backward: list[list[int]],
        num_edges: int,
        closures: dict[LoopSet, list[int]] | None = None,
        rent: dict[LoopSet, int] | None = None,
    ) -> None:
        self.nodes = nodes
        self.node_index = node_index
        self.labels = labels
        self.label_index = label_index
        self.forward = forward
        self.backward = backward
        self.num_nodes = len(nodes)
        self.num_edges = num_edges
        self.closures: dict[LoopSet, list[int]] = {} if closures is None else closures
        self.memo: dict = {}
        # Configurations reached in states looping on each unbuilt set.
        self._rent: dict[LoopSet, int] = {} if rent is None else rent
        self._zeros = [0] * self.num_nodes  # shared empty row; never mutated

    @classmethod
    def from_database(cls, db: "GraphDatabase", tracer=None) -> "GraphSnapshot":
        """Compile *db* (one ``snapshot-build`` span, one counter bump)."""
        with maybe_span(
            tracer, "snapshot-build", nodes=db.num_nodes, edges=db.num_edges
        ):
            nodes = db.nodes_in_order()
            index = {node: i for i, node in enumerate(nodes)}
            labels = tuple(sorted(db.labels))
            label_index = {label: i for i, label in enumerate(labels)}
            n = len(nodes)
            forward = [[0] * n for _ in labels]
            backward = [[0] * n for _ in labels]
            for source, label, target in db.edges():
                row = label_index[label]
                s, t = index[source], index[target]
                forward[row][s] |= 1 << t
                backward[row][t] |= 1 << s
            _SNAPSHOT_BUILDS.inc()
            return cls(nodes, index, labels, label_index, forward, backward, db.num_edges)

    # -- copy-on-write patches ---------------------------------------------------

    def with_edge(
        self, source: "Node", label: str, target: "Node", num_edges: int
    ) -> "GraphSnapshot | None":
        """This snapshot plus the new edge ``label(source, target)``,
        copy-on-write, for a database now holding *num_edges* edges; None
        when the snapshot lacks an endpoint or the label.

        The result shares every row list except *label*'s forward and
        backward rows and the closure rows the edge changes, carries this
        snapshot's closures and rent, and its memo starts empty.  For
        each closure whose set holds *label*, the edge is one more step
        ``source -> target`` (``target -> source`` for ``label-``), and
        :func:`_grown` applies it.  This snapshot, its closures, its memo
        and everything derived from it are left unchanged.
        """
        node_index = self.node_index
        row = self.label_index.get(label)
        if row is None or source not in node_index or target not in node_index:
            return None
        _SNAPSHOT_PATCHES.inc()
        s, t = node_index[source], node_index[target]
        forward, backward = list(self.forward), list(self.backward)
        forward[row] = list(forward[row])
        forward[row][s] |= 1 << t
        backward[row] = list(backward[row])
        backward[row][t] |= 1 << s
        closures = dict(self.closures)
        if closures:
            changed, inverse_label = False, inverse(label)
            for symbols, rows in self.closures.items():
                grown = rows
                if label in symbols:
                    grown = _grown(grown, s, t)
                if inverse_label in symbols:
                    grown = _grown(grown, t, s)
                if grown is not rows:
                    closures[symbols], changed = grown, True
            if changed:
                _CLOSURE_PATCHES.inc()
        return GraphSnapshot(
            self.nodes, node_index, self.labels, self.label_index,
            forward, backward, num_edges, closures, dict(self._rent),
        )

    # -- symbol resolution -------------------------------------------------------

    def rows_for(self, symbol: str) -> Sequence[int]:
        """The adjacency bitset rows one navigation step of *symbol* reads.

        Inverse letters resolve through the backward index; symbols the
        database never mentions get a shared all-zeros row (do not
        mutate the returned list).
        """
        if is_inverse(symbol):
            row = self.label_index.get(base_symbol(symbol))
            return self.backward[row] if row is not None else self._zeros
        row = self.label_index.get(symbol)
        return self.forward[row] if row is not None else self._zeros

    def adjacency_for(self, symbols: Iterable[str]) -> list[Sequence[int]]:
        """Per-symbol adjacency rows, aligned with *symbols*' order —
        the pre-resolved table the evaluation kernels run against."""
        return [self.rows_for(symbol) for symbol in symbols]

    # -- the loop-closure index ---------------------------------------------------

    def closure(self, symbols: LoopSet) -> list[int]:
        """The closure rows of the sorted symbol set *symbols*: row ``x``
        is the bitset of nodes reachable from ``x`` by words over it,
        ``x`` included.

        Built on first use from the union of the symbols' adjacency rows
        (:func:`_closure_rows`, counted by ``evaluation.closure_builds``)
        and kept in :attr:`closures`.  Unlocked like :meth:`memoized`:
        racing readers may each build it, and each stores a complete list.
        """
        rows = self.closures.get(symbols)
        if rows is None:
            tables = self.adjacency_for(symbols)
            steps = tables[0] if len(tables) == 1 else [reduce(or_, row) for row in zip(*tables)]
            rows = self.closures[symbols] = _closure_rows(steps)
            _CLOSURE_BUILDS.inc()
        return rows

    def loop_closures(self, loops: Sequence[LoopSet | None]) -> list[list[int] | None]:
        """Per automaton state, the built closure rows of the set it loops
        on (*loops*, from :func:`loop_symbols`), or None."""
        closures = self.closures
        return [closures.get(symbols) for symbols in loops]

    def pay_rent(self, loops: Sequence[LoopSet | None], visited: Sequence[int]) -> None:
        """Rent-or-buy for the closure index: charge each unbuilt set the
        configurations a single-source read reached (*visited*, one node
        bitset per state) in the states looping on it, and build the set
        once its rent reaches ``num_nodes + num_edges``, about what one
        build costs.  Sets already built are not charged.  The rent moves
        into each patched snapshot, so it counts this snapshot's reads and
        those of the snapshots it was patched from.
        """
        rent, price = self._rent, self.num_nodes + self.num_edges
        for symbols, reached in zip(loops, visited):
            if symbols is not None and symbols not in self.closures:
                rent[symbols] = rent.get(symbols, 0) + reached.bit_count()
                if rent[symbols] >= price:
                    self.closure(symbols)

    def memoized(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """``memo[key]``, computed and stored on first use.

        Unlocked: threads racing on one key may each compute it, and the
        last assignment wins.  A value is complete before it is stored
        (a context's answer set is assigned once, when complete), so no
        reader sees a partial or wrong value.
        """
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = compute()
        return value

    def relation(self, label: str) -> frozenset:
        """The binary relation ``r(D)`` for a (possibly inverse) label,
        materialized once per snapshot and memoized."""
        rows, nodes = self.rows_for(label), self.nodes
        return self.memoized(
            ("relation", label),
            lambda: frozenset(
                (nodes[source], nodes[target])
                for source in range(self.num_nodes)
                for target in bits(rows[source])
            ),
        )

    def __repr__(self) -> str:
        return (
            f"GraphSnapshot(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"labels={len(self.labels)})"
        )


# --- the loop-closure index -------------------------------------------------------


def loop_symbols(nfa: IndexedNFA) -> list[LoopSet | None]:
    """Per state of *nfa*, the sorted symbols it loops on, or None."""
    loops: list[LoopSet | None] = [None] * nfa.num_states
    for symbol, successors in zip(nfa.symbols, nfa.delta):
        for state, targets in enumerate(successors):
            if targets >> state & 1:
                looped = loops[state]
                loops[state] = (symbol,) if looped is None else tuple(sorted((*looped, symbol)))
    return loops


def _closure_rows(steps: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure of the graph whose successor bitset
    of node ``x`` is ``steps[x]``: row ``x`` holds every node reachable
    from ``x``, ``x`` included.

    One iterative Tarjan pass.  Tarjan finishes the strongly connected
    components in reverse topological order, so when a component is
    popped every component it points to already has its row, and the
    component's row is its members ORed once with those rows.  Its
    members share that one int.  A node with no successors is a
    component of its own, finished up front.  A node is on the Tarjan
    stack while it is numbered (``order``) and has no row yet.
    """
    num_nodes = len(steps)
    rows = [0 if step else 1 << node for node, step in enumerate(steps)]
    order = [0 if step else -1 for step in steps]  # DFS number, from 1; 0 = unseen
    low = [0] * num_nodes
    stack: list[int] = []
    seen = 0
    for root in range(num_nodes):
        if order[root]:
            continue
        seen += 1
        order[root] = low[root] = seen
        stack.append(root)
        work = [(root, iter(members(steps[root])))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if not order[successor]:
                    seen += 1
                    order[successor] = low[successor] = seen
                    stack.append(successor)
                    work.append((successor, iter(members(steps[successor]))))
                    break
                if not rows[successor] and order[successor] < low[node]:
                    low[node] = order[successor]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] != order[node]:
                    continue
                component, inside = [], 0
                while True:
                    member = stack.pop()
                    component.append(member)
                    inside |= 1 << member
                    if member == node:
                        break
                exits = reduce(or_, select(steps, inside), 0) & ~inside
                row = reduce(or_, select(rows, exits), inside)
                for member in component:
                    rows[member] = row
    return rows


def _grown(rows: list[int], source: int, target: int) -> list[int]:
    """Closure *rows* after one more step ``source -> target``: the
    semi-naive delta ``D = rows[target] & ~rows[source]`` ORed into every
    row holding *source* (each such row already holds ``rows[source]``);
    *rows* itself when ``D`` is empty."""
    delta = rows[target] & ~rows[source]
    if not delta:
        return rows
    bit = 1 << source
    return [row | delta if row & bit else row for row in rows]


# --- evaluation kernels -----------------------------------------------------------


#: Per automaton state, one ``(adjacency rows, successor states)`` pair
#: for each symbol the state moves on, in symbol order.
_Moves = list[list[tuple[Sequence[int], list[int]]]]

#: Per automaton state, the closure rows of the set it loops on, or None.
_Closures = Sequence[list[int] | None]


def _move_table(
    nfa: IndexedNFA, adjacency: Sequence[Sequence[int]], closures: _Closures | None = None
) -> _Moves:
    """What :func:`_search` reads, built once per read.  A state with
    closure rows loses its self-loop moves: its closure replaces them."""
    num_states = nfa.num_states
    moves: _Moves = [[] for _ in range(num_states)]
    kept = [-1] * num_states  # per state, the successor states it keeps
    for state, closure in enumerate(closures or ()):
        if closure is not None:
            kept[state] = ~(1 << state)
    for rows, successors in zip(adjacency, nfa.delta):
        for state in range(num_states):
            targets = successors[state] & kept[state]
            if targets:
                moves[state].append((rows, members(targets)))
    return moves


def _search(
    moves: _Moves,
    initial: list[int],
    source: int,
    meter=None,
    layers: list[list[int]] | None = None,
    closures: _Closures | None = None,
) -> list[int]:
    """The product search from *source*, one frontier layer at a time:
    ``visited[state]`` is the bitset of nodes reached in *state*
    (the initial configurations included).

    For each state with a non-empty frontier and each symbol the state
    moves on, the adjacency rows of the frontier nodes are ORed together
    once (a one-node frontier reads its row directly) and the result
    goes to every successor state.  A state with closure rows first
    closes its frontier with one OR of those rows, so its self-loop
    moves (left out of *moves*) have nothing left to reach.  *meter*
    has its deadline checked once per (state, layer), before that
    state's ORs, and is charged one ``"configs"`` unit per (state, node)
    as the node is first reached in the state, so a closed search
    charges what the plain one does.  *layers*, when a list, receives
    each depth's frontier; closures make one layer span many depths.
    """
    num_states = len(moves)
    visited = [0] * num_states
    frontier = [0] * num_states
    for state in initial:
        visited[state] = frontier[state] = 1 << source
    active = initial
    while active:
        if layers is not None:
            layers.append(frontier)
        reached = [0] * num_states
        next_active: list[int] = []
        for state in active:
            if meter is not None:
                meter.check_deadline()
            layer = frontier[state]
            node = -1 if layer & (layer - 1) else layer.bit_length() - 1
            closure = closures[state] if closures is not None else None
            if closure is not None:
                step = closure[node] if node >= 0 else reduce(or_, select(closure, layer), 0)
                fresh = step & ~visited[state]
                if fresh:
                    visited[state] |= fresh
                    layer |= fresh
                    node = -1
                    if meter is not None:
                        meter.charge("configs", fresh.bit_count())
            for rows, successors in moves[state]:
                step = rows[node] if node >= 0 else reduce(or_, select(rows, layer), 0)
                if not step:
                    continue
                for next_state in successors:
                    fresh = step & ~visited[next_state]
                    if fresh:
                        visited[next_state] |= fresh
                        if not reached[next_state]:
                            next_active.append(next_state)
                        reached[next_state] |= fresh
                        if meter is not None:
                            meter.charge("configs", fresh.bit_count())
        frontier, active = reached, next_active
    return visited


def reach_all_sources(
    nfa: IndexedNFA,
    adjacency: Sequence[Sequence[int]],
    num_nodes: int,
    meter=None,
) -> tuple[list[int], int]:
    """All-pairs answers: one :func:`_search` per source over one move
    table, each under the single-source meter contract.

    *adjacency* is ``adjacency[symbol_id][node_id]``, successor bitsets
    with inverse letters pre-resolved (:meth:`GraphSnapshot.adjacency_for`).
    Returns ``(rows, configs)``: ``rows[source_id]`` is the bitset of
    target ids ``y`` with a conforming semipath ``source -> y``, and
    ``configs`` the newly reached (state, node) pairs summed over
    sources, initial configurations free (what *meter* was charged).
    """
    moves = _move_table(nfa, adjacency)
    initial, final = members(nfa.initial), members(nfa.final)
    rows: list[int] = []
    reached = 0
    for source in range(num_nodes):
        visited = _search(moves, initial, source, meter)
        found = 0
        for state in final:
            found |= visited[state]
        rows.append(found)
        reached += sum(map(int.bit_count, visited))
    return rows, reached - len(initial) * num_nodes


def reach_from_source(
    nfa: IndexedNFA,
    adjacency: Sequence[Sequence[int]],
    num_nodes: int,
    source: int,
    meter=None,
    layers: list[list[int]] | None = None,
    closures: _Closures | None = None,
    visited: list[int] | None = None,
) -> int:
    """Single-source product BFS: bitset of nodes reachable from *source*
    along words of the language (the ``targets``/``matches`` kernel).

    One :func:`_search` under its meter contract.  *closures*, when
    given, holds per state the closure rows of the symbols it loops on
    (:meth:`GraphSnapshot.loop_closures`) or None; the states that have
    rows close their frontiers with them.  When *layers* is a list (and
    *closures* is None), it receives each depth's frontier in order:
    ``layers[d][state]`` is the bitset of nodes first reached in *state*
    by a semipath of length ``d`` (:func:`witness_path` backtracks
    through them).  When *visited* is a list, it receives the node
    bitset each state reached (what :meth:`GraphSnapshot.pay_rent`
    charges).
    """
    reached = _search(
        _move_table(nfa, adjacency, closures),
        members(nfa.initial),
        source,
        meter,
        layers,
        closures,
    )
    if visited is not None:
        visited.extend(reached)
    found = 0
    for state in bits(nfa.final):
        found |= reached[state]
    return found


def witness_path(
    nfa: IndexedNFA,
    adjacency: Sequence[Sequence[int]],
    num_nodes: int,
    source: int,
    target: int,
    meter=None,
) -> list[tuple[int, int]] | None:
    """A shortest conforming semipath ``source -> target``, or None.

    Returns the step list ``[(symbol_id, node_id), ...]`` (the start
    node is *source* itself).  :func:`reach_from_source` runs to the
    end under *meter*, keeping its frontier layers; the first depth
    whose final states hold *target* is the witness length.  Each step
    back picks any configuration of the layer before that moves to the
    current one.  One exists because every configuration of a layer was
    first reached from the layer before, so the walk reaches *source*
    in an initial state after exactly that many steps.
    """
    layers: list[list[int]] = []
    reach_from_source(nfa, adjacency, num_nodes, source, meter, layers)
    goal = 1 << target
    for depth, frontier in enumerate(layers):
        state = next((state for state in bits(nfa.final) if frontier[state] & goal), None)
        if state is not None:
            break
    else:
        return None
    steps: list[tuple[int, int]] = []
    node = target
    for frontier in reversed(layers[:depth]):
        row, state, previous = next(
            (row, before, previous)
            for row, successors in enumerate(nfa.delta)
            for before, after in enumerate(successors)
            if after >> state & 1
            for previous in bits(frontier[before])
            if adjacency[row][previous] >> node & 1
        )
        steps.append((row, node))
        node = previous
    steps.reverse()
    return steps
