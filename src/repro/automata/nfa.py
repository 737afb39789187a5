"""Nondeterministic finite-state automata over symbol alphabets.

An :class:`NFA` here is the paper's tuple ``A = (Sigma, S, S0, rho, F)``:
states are arbitrary hashable objects, ``rho`` maps ``(state, symbol)``
to a set of successor states, and words are tuples of symbols.

The module provides the classical constructions the containment
pipelines of Sections 3.2 and 3.4 rely on: product (step 4 of the
paper's algorithm), union, concatenation, Kleene star, reversal,
trimming, emptiness with shortest-witness extraction (step 5), and
bounded word enumeration used by the brute-force oracles in the test
suite and benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping

State = Hashable
Word = tuple[str, ...]

EPSILON = None  # transition label for epsilon moves in intermediate automata


@dataclass(frozen=True)
class NFA:
    """A nondeterministic finite automaton without epsilon moves.

    Attributes:
        alphabet: the symbols the automaton may read.
        states: all states (superset of those mentioned in transitions).
        initial: the set S0 of initial states.
        final: the set F of accepting states.
        transitions: mapping ``(state, symbol) -> frozenset of states``.
    """

    alphabet: tuple[str, ...]
    states: frozenset
    initial: frozenset
    final: frozenset
    transitions: Mapping[tuple[State, str], frozenset]

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(
        cls,
        alphabet: Iterable[str],
        states: Iterable[State],
        initial: Iterable[State],
        final: Iterable[State],
        transitions: Iterable[tuple[State, str, State]],
    ) -> "NFA":
        """Build an NFA from an edge list of ``(source, symbol, target)``."""
        table: dict[tuple[State, str], set] = {}
        for source, symbol, target in transitions:
            table.setdefault((source, symbol), set()).add(target)
        frozen = {key: frozenset(value) for key, value in table.items()}
        state_set = frozenset(states)
        init = frozenset(initial)
        fin = frozenset(final)
        alpha = tuple(dict.fromkeys(alphabet))
        missing = (init | fin | {s for s, _ in frozen} | set().union(*frozen.values())
                   if frozen else init | fin) - state_set
        if missing:
            raise ValueError(f"transitions mention unknown states: {missing!r}")
        return cls(alpha, state_set, init, fin, frozen)

    def successors(self, state: State, symbol: str) -> frozenset:
        """rho(state, symbol): the set of possible successor states."""
        return self.transitions.get((state, symbol), frozenset())

    # -- the ImplicitNFA protocol ---------------------------------------------
    # A materialized NFA is trivially an implicit one, so the on-the-fly
    # searches of :mod:`repro.automata.onthefly` consume it directly.

    def initial_states(self) -> frozenset:
        return self.initial

    def successor_states(self, state: State, symbol: str) -> frozenset:
        return self.transitions.get((state, symbol), frozenset())

    def is_final(self, state: State) -> bool:
        return state in self.final

    def edges(self) -> Iterator[tuple[State, str, State]]:
        """Iterate over all transitions as ``(source, symbol, target)``."""
        for (source, symbol), targets in self.transitions.items():
            for target in targets:
                yield source, symbol, target

    @property
    def num_states(self) -> int:
        return len(self.states)

    # -- language operations -------------------------------------------------

    def accepts(self, word: Word) -> bool:
        """Decide whether *word* is in L(A) by forward subset simulation."""
        current = set(self.initial)
        for symbol in word:
            nxt: set = set()
            for state in current:
                nxt |= self.successors(state, symbol)
            current = nxt
            if not current:
                return False
        return bool(current & self.final)

    def product(self, other: "NFA") -> "NFA":
        """Intersection automaton A x B (reachable part only).

        This is step 4 of the paper's containment algorithm; the state
        space is the reachable subset of pairs, so the quadratic blow-up
        is an upper bound, not a certainty.
        """
        from .indexed import product_nfa

        return product_nfa(self, other)

    def union(self, other: "NFA") -> "NFA":
        """Disjoint union: L = L(self) | L(other)."""
        alphabet = tuple(dict.fromkeys(self.alphabet + other.alphabet))
        tag = lambda index, state: (index, state)  # noqa: E731 - local tagging
        states = [tag(0, s) for s in self.states] + [tag(1, s) for s in other.states]
        initial = [tag(0, s) for s in self.initial] + [tag(1, s) for s in other.initial]
        final = [tag(0, s) for s in self.final] + [tag(1, s) for s in other.final]
        transitions = [
            (tag(0, a), sym, tag(0, b)) for a, sym, b in self.edges()
        ] + [
            (tag(1, a), sym, tag(1, b)) for a, sym, b in other.edges()
        ]
        return NFA.build(alphabet, states, initial, final, transitions)

    def reverse(self) -> "NFA":
        """Automaton for the reversed language (arrows flipped)."""
        transitions = [(b, sym, a) for a, sym, b in self.edges()]
        return NFA.build(self.alphabet, self.states, self.final, self.initial, transitions)

    def trim(self) -> "NFA":
        """Restrict to states both reachable and co-reachable."""
        from .indexed import IndexedNFA, bits

        compiled = IndexedNFA.from_nfa(self)
        names = compiled.state_names
        live = {names[i] for i in bits(compiled.live_mask())}
        transitions = [
            (a, sym, b) for a, sym, b in self.edges() if a in live and b in live
        ]
        return NFA.build(
            self.alphabet,
            live,
            self.initial & live,
            self.final & live,
            transitions,
        )

    def is_empty(self) -> bool:
        """True iff L(A) is empty (no accepting state is reachable)."""
        return self.shortest_word() is None

    def shortest_word(self) -> Word | None:
        """A shortest word in L(A), or None if the language is empty.

        BFS from the initial states; this is step 5 of the paper's
        containment algorithm and doubles as counterexample extraction.
        """
        from .indexed import IndexedNFA

        return IndexedNFA.from_nfa(self).shortest_word()

    def enumerate_words(self, max_length: int) -> Iterator[Word]:
        """Yield every word of L(A) of length <= max_length, shortest first.

        Used by brute-force oracles; exponential in *max_length*.
        """
        for length in range(max_length + 1):
            for word in itertools.product(self.alphabet, repeat=length):
                if self.accepts(word):
                    yield word

    def words_of_length(self, length: int) -> Iterator[Word]:
        """All words of L(A) of exactly *length*, with dead-branch pruning.

        A DFS over prefixes that tracks the reachable state set and
        abandons a prefix as soon as the set dies; output cost is
        proportional to the number of live prefixes rather than
        ``|alphabet| ** length``.  Expansion-based containment uses this
        to enumerate the words of 2RPQ atoms.
        """
        def recurse(prefix: list[str], states: set) -> Iterator[Word]:
            if len(prefix) == length:
                if states & self.final:
                    yield tuple(prefix)
                return
            for symbol in self.alphabet:
                nxt: set = set()
                for state in states:
                    nxt |= self.successors(state, symbol)
                if nxt:
                    prefix.append(symbol)
                    yield from recurse(prefix, nxt)
                    prefix.pop()

        yield from recurse([], set(self.initial))

    def language_is_finite(self) -> bool:
        """True iff L(A) is finite (no cycle on a live path of the trim)."""
        live = self.trim()
        # DFS cycle detection over live states.
        color: dict[State, int] = {}
        order: dict[State, list[State]] = {}
        for a, _sym, b in live.edges():
            order.setdefault(a, []).append(b)

        def has_cycle(state: State) -> bool:
            color[state] = 1
            for nxt in order.get(state, ()):
                mark = color.get(nxt, 0)
                if mark == 1:
                    return True
                if mark == 0 and has_cycle(nxt):
                    return True
            color[state] = 2
            return False

        return not any(
            has_cycle(state) for state in live.states if color.get(state, 0) == 0
        )

    def longest_word_length(self) -> int | None:
        """Length of the longest word when L(A) is finite, else None."""
        if not self.language_is_finite():
            return None
        live = self.trim()
        if live.is_empty():
            return 0
        # Longest path in a DAG of live states, from initial to final.
        depth: dict[State, int] = {}

        def longest(state: State) -> int:
            if state in depth:
                return depth[state]
            best = 0 if state in live.final else -(10**9)
            for symbol in live.alphabet:
                for nxt in live.successors(state, symbol):
                    best = max(best, 1 + longest(nxt))
            depth[state] = best
            return best

        return max(longest(state) for state in live.initial)

    def renumber(self) -> "NFA":
        """Return an isomorphic NFA with states 0..n-1 (stable ordering)."""
        order = {state: index for index, state in enumerate(sorted(self.states, key=repr))}
        transitions = [(order[a], sym, order[b]) for a, sym, b in self.edges()]
        return NFA.build(
            self.alphabet,
            range(len(order)),
            [order[s] for s in self.initial],
            [order[s] for s in self.final],
            transitions,
        )

    def map_symbols(self, mapping: Callable[[str], str]) -> "NFA":
        """Relabel every transition symbol through *mapping*."""
        transitions = [(a, mapping(sym), b) for a, sym, b in self.edges()]
        alphabet = tuple(dict.fromkeys(mapping(sym) for sym in self.alphabet))
        return NFA.build(alphabet, self.states, self.initial, self.final, transitions)


def from_epsilon_nfa(
    alphabet: Iterable[str],
    states: Iterable[State],
    initial: Iterable[State],
    final: Iterable[State],
    transitions: Iterable[tuple[State, str | None, State]],
) -> NFA:
    """Eliminate epsilon transitions (labelled ``None``) and build an NFA.

    Standard epsilon-closure elimination: the epsilon closure of the
    initial set becomes initial, a state is accepting when its closure
    meets the accepting set, and each symbol transition is
    post-composed with the epsilon closure of its target; the result is
    trimmed.  States are interned to ints and handed to
    :func:`epsilon_free`.
    """
    names = list(states)
    index = {state: i for i, state in enumerate(names)}
    return epsilon_free(
        alphabet,
        len(names),
        [index[state] for state in initial],
        [index[state] for state in final],
        [(index[source], symbol, index[target]) for source, symbol, target in transitions],
        names,
    )


def epsilon_free(
    alphabet: Iterable[str],
    num_states: int,
    initial: Iterable[int],
    final: Iterable[int],
    edges: Iterable[tuple[int, str | None, int]],
    names: list | None = None,
    meter=None,
) -> NFA:
    """The trimmed epsilon-free NFA of an epsilon-NFA on int states.

    States are ``0 .. num_states - 1``, rendered as ``names[i]`` (the
    ints themselves when *names* is None); an edge labelled ``EPSILON``
    is an epsilon move.  Works on int arrays, with no per-state
    closure set: a state survives trimming when the initial states
    reach it along edges of any label, and either its epsilon closure
    meets *final* or one of its own labelled edges leads to a state from
    which *final* is reachable.  Epsilon closures are then computed
    only for the targets of the surviving states' labelled edges.  The
    result equals closure elimination followed by :meth:`NFA.trim`.

    Edges stay in one list, threaded into per-state linked lists in
    both directions (``head[state]`` is a state's last edge, ``link[e]``
    the edge before ``e``), so no per-state container is allocated.  An
    optional :class:`repro.budget.BudgetMeter` checks its deadline every
    64 states a reachability pass visits and is polled once per
    closure, so a long regex cannot hold a deadline-bounded check past
    its deadline.
    """
    n = num_states
    edges = list(edges)
    out_head, out_link = [-1] * n, [-1] * len(edges)
    in_head, in_link = [-1] * n, [-1] * len(edges)
    for index, (source, _symbol, target) in enumerate(edges):
        out_link[index] = out_head[source]
        out_head[source] = index
        in_link[index] = in_head[target]
        in_head[target] = index
        if meter is not None and not index & 1023:
            meter.check_deadline()
    outgoing = (edges, out_head, out_link, 2)
    incoming = (edges, in_head, in_link, 0)
    initial, final = list(initial), list(final)
    reached = _marked(initial, outgoing, False, n, meter)
    productive = _marked(final, incoming, False, n, meter)
    accepting = _marked(final, incoming, True, n, meter)
    live = bytearray(accepting)
    for source, symbol, target in edges:
        if symbol is not EPSILON and productive[target]:
            live[source] = 1
    for state in range(n):
        if not reached[state]:
            live[state] = 0

    stamp = [0] * n
    generation = 0

    def closure(seeds: list[int]) -> list[int]:
        """Live states epsilon-reachable from *seeds*, ascending."""
        nonlocal generation
        generation += 1
        stack = []
        for seed in seeds:
            if stamp[seed] != generation:
                stamp[seed] = generation
                stack.append(seed)
        if meter is not None:
            meter.poll()
        members = []
        while stack:
            state = stack.pop()
            if live[state]:
                members.append(state)
            index = out_head[state]
            while index >= 0:
                _source, symbol, nxt = edges[index]
                index = out_link[index]
                if symbol is EPSILON and stamp[nxt] != generation:
                    stamp[nxt] = generation
                    stack.append(nxt)
        members.sort()
        return members

    name = (lambda state: state) if names is None else names.__getitem__
    table: dict[tuple[State, str], frozenset] = {}
    closures: dict[int, frozenset] = {}
    for source, symbol, target in edges:
        if symbol is EPSILON or not live[source]:
            continue
        targets = closures.get(target)
        if targets is None:
            targets = closures[target] = frozenset(map(name, closure([target])))
        if targets:
            key = (name(source), symbol)
            known = table.get(key)
            table[key] = targets if known is None else known | targets
    return NFA(
        tuple(dict.fromkeys(alphabet)),
        frozenset(name(state) for state in range(n) if live[state]),
        frozenset(map(name, closure(initial))),
        frozenset(name(state) for state in range(n) if live[state] and accepting[state]),
        table,
    )


def _marked(
    seeds: Iterable[int], threads: tuple, epsilon_only: bool, n: int, meter
) -> bytearray:
    """Flags of the states reachable from *seeds* along *threads*.

    *threads* is ``(edges, head, link, end)`` as built in
    :func:`epsilon_free`: a visit follows ``edge[end]`` of each edge
    threaded from the state, only the epsilon edges when
    *epsilon_only*.
    """
    edges, head, link, end = threads
    seen = bytearray(n)
    stack = []
    for seed in seeds:
        if not seen[seed]:
            seen[seed] = 1
            stack.append(seed)
    visits = 0
    while stack:
        visits += 1
        if meter is not None and not visits & 63:
            meter.check_deadline()
        index = head[stack.pop()]
        while index >= 0:
            edge = edges[index]
            index = link[index]
            if epsilon_only and edge[1] is not EPSILON:
                continue
            nxt = edge[end]
            if not seen[nxt]:
                seen[nxt] = 1
                stack.append(nxt)
    return seen
