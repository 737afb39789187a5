"""Object-state automaton constructions (oracles for the bitset kernels).

Each function takes and returns the object-level :class:`NFA` /
:class:`DFA` types and renders its result exactly as the production
kernel does (subset states as frozensets of NFA states, minimized states
as frozensets of DFA states, product states as pairs), so tests can
compare the two with ``==``.  :func:`find_accepted_word` and
:func:`implicit_accepts` work on any implicit automaton (the
``initial_states`` / ``successor_states`` / ``is_final`` protocol of
:mod:`repro.automata.onthefly`).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Hashable, Iterable, Sequence

from repro.automata.dfa import DFA
from repro.automata.dfa import determinize as production_determinize
from repro.automata.nfa import EPSILON, NFA, Word

State = Hashable


def determinize(nfa: NFA, alphabet: Iterable[str] | None = None) -> DFA:
    """Subset construction; the result is complete over *alphabet*."""
    alpha = tuple(dict.fromkeys(alphabet)) if alphabet is not None else nfa.alphabet
    initial = frozenset(nfa.initial)
    states: set[frozenset] = {initial}
    transitions: dict[tuple[frozenset, str], frozenset] = {}
    queue = deque([initial])
    while queue:
        subset = queue.popleft()
        for symbol in alpha:
            nxt: set = set()
            for state in subset:
                nxt |= nfa.successors(state, symbol)
            target = frozenset(nxt)
            transitions[(subset, symbol)] = target
            if target not in states:
                states.add(target)
                queue.append(target)
    final = frozenset(subset for subset in states if subset & nfa.final)
    return DFA(alpha, frozenset(states), initial, final, transitions)


def minimize(dfa: DFA) -> DFA:
    """Hopcroft partition refinement over frozenset blocks."""
    reachable = _reachable(dfa)
    final = frozenset(s for s in reachable if s in dfa.final)
    non_final = frozenset(reachable - final)
    partition: set[frozenset] = {block for block in (final, non_final) if block}
    worklist: deque[frozenset] = deque(partition)
    # Precompute reverse transitions per symbol for splitting.
    reverse: dict[str, dict[State, set]] = {symbol: {} for symbol in dfa.alphabet}
    for (source, symbol), target in dfa.transitions.items():
        if source in reachable:
            reverse[symbol].setdefault(target, set()).add(source)
    while worklist:
        splitter = worklist.popleft()
        for symbol in dfa.alphabet:
            predecessors: set = set()
            for state in splitter:
                predecessors |= reverse[symbol].get(state, set())
            if not predecessors:
                continue
            new_partition: set[frozenset] = set()
            for block in partition:
                inside = block & predecessors
                outside = block - predecessors
                if inside and outside:
                    new_partition.add(frozenset(inside))
                    new_partition.add(frozenset(outside))
                    if block in worklist:
                        worklist.remove(block)
                        worklist.append(frozenset(inside))
                        worklist.append(frozenset(outside))
                    else:
                        smaller = min((inside, outside), key=len)
                        worklist.append(frozenset(smaller))
                else:
                    new_partition.add(block)
            partition = new_partition
    block_of = {state: block for block in partition for state in block}
    transitions = {
        (block, symbol): block_of[dfa.step(next(iter(block)), symbol)]
        for block in partition
        for symbol in dfa.alphabet
    }
    final_blocks = frozenset(block for block in partition if block & dfa.final)
    return DFA(
        dfa.alphabet,
        frozenset(partition),
        block_of[dfa.initial],
        final_blocks,
        transitions,
    )


def reduce_nfa(nfa: NFA) -> NFA:
    """The object-level reduction pipeline :func:`repro.automata.dfa.reduce_nfa`
    replaced: trim, determinize, minimize, trim again, keep the smaller
    of the two automata, renumber.  Runs the full subset construction
    (no cap)."""
    trimmed = nfa.trim()
    if trimmed.num_states == 0:
        return trimmed
    minimized = production_determinize(trimmed).minimize().to_nfa().trim()
    chosen = minimized if minimized.num_states < trimmed.num_states else trimmed
    return chosen.renumber()


def _reachable(dfa: DFA) -> set:
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        state = queue.popleft()
        for symbol in dfa.alphabet:
            nxt = dfa.step(state, symbol)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def product(left: NFA, right: NFA) -> NFA:
    """Intersection automaton over the shared symbols (reachable pairs)."""
    alphabet = tuple(sym for sym in left.alphabet if sym in set(right.alphabet))
    initial = {(p, q) for p in left.initial for q in right.initial}
    states: set = set(initial)
    transitions: list[tuple[State, str, State]] = []
    queue = deque(initial)
    while queue:
        p, q = queue.popleft()
        for symbol in alphabet:
            for p2 in left.successors(p, symbol):
                for q2 in right.successors(q, symbol):
                    pair = (p2, q2)
                    transitions.append(((p, q), symbol, pair))
                    if pair not in states:
                        states.add(pair)
                        queue.append(pair)
    final = {(p, q) for (p, q) in states if p in left.final and q in right.final}
    return NFA.build(alphabet, states, initial, final, transitions)


def trim(nfa: NFA) -> NFA:
    """Restrict to states both reachable and co-reachable."""
    live = _closure(nfa, nfa.initial, forward=True) & _closure(
        nfa, nfa.final, forward=False
    )
    transitions = [
        (a, sym, b) for a, sym, b in nfa.edges() if a in live and b in live
    ]
    return NFA.build(
        nfa.alphabet, live, nfa.initial & live, nfa.final & live, transitions
    )


def _closure(nfa: NFA, seeds: Iterable[State], forward: bool) -> set:
    successors: dict[State, set] = {}
    for a, _sym, b in nfa.edges():
        if forward:
            successors.setdefault(a, set()).add(b)
        else:
            successors.setdefault(b, set()).add(a)
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        for nxt in successors.get(state, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def shortest_word(nfa: NFA) -> Word | None:
    """A shortest accepted word by BFS with parent pointers, or None."""
    return find_accepted_word([nfa], nfa.alphabet)


def containment_counterexample(
    left: NFA, right: NFA, alphabet: Sequence[str]
) -> Word | None:
    """Lemma 1 materialized: complement *right*, intersect, search.

    Determinizes *right* completely, flips its accepting set, builds the
    full product with *left* and returns a shortest word of it.
    """
    complement = determinize(right, alphabet).complement().to_nfa()
    return shortest_word(product(left, complement))


def from_epsilon_nfa(
    alphabet: Iterable[str],
    states: Iterable[State],
    initial: Iterable[State],
    final: Iterable[State],
    transitions: Iterable[tuple[State, str | None, State]],
) -> NFA:
    """Epsilon elimination with per-state BFS closures, then :func:`trim`."""
    eps: dict[State, set] = {}
    labelled: list[tuple[State, str, State]] = []
    for source, symbol, target in transitions:
        if symbol is EPSILON:
            eps.setdefault(source, set()).add(target)
        else:
            labelled.append((source, symbol, target))

    def closure(seed: State) -> set:
        seen = {seed}
        queue = deque([seed])
        while queue:
            state = queue.popleft()
            for nxt in eps.get(state, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    states = list(states)
    closures = {state: closure(state) for state in states}
    final_set = frozenset(final)
    new_final = {state for state, close in closures.items() if close & final_set}
    new_initial = set(initial)
    for init in list(new_initial):
        new_initial |= closures[init]
    new_transitions = [
        (source, symbol, reachable)
        for source, symbol, target in labelled
        for reachable in closures[target]
    ]
    return trim(NFA.build(alphabet, states, new_initial, new_final, new_transitions))


def find_accepted_word(machines: Sequence, alphabet: Sequence[str]) -> Word | None:
    """A shortest word every implicit machine accepts, or None.

    Breadth-first search over tuples of machine states with parent
    pointers: the reference for
    :func:`repro.automata.onthefly.find_accepted_word`.
    """

    def accepted(tup: tuple) -> bool:
        return all(machine.is_final(state) for machine, state in zip(machines, tup))

    initial = list(
        itertools.product(*(list(machine.initial_states()) for machine in machines))
    )
    parents: dict[tuple, tuple[tuple, str] | None] = {tup: None for tup in initial}
    queue = deque(initial)
    hit = next((tup for tup in initial if accepted(tup)), None)
    while queue and hit is None:
        tup = queue.popleft()
        for symbol in alphabet:
            pools = [
                list(machine.successor_states(state, symbol))
                for machine, state in zip(machines, tup)
            ]
            for nxt in itertools.product(*pools):
                if nxt in parents:
                    continue
                parents[nxt] = (tup, symbol)
                if accepted(nxt):
                    hit = nxt
                    break
                queue.append(nxt)
            if hit is not None:
                break
    if hit is None:
        return None
    word: list[str] = []
    cursor = hit
    while parents[cursor] is not None:
        cursor, symbol = parents[cursor]  # type: ignore[misc]
        word.append(symbol)
    return tuple(reversed(word))


def implicit_accepts(machine, word: Word) -> bool:
    """Whether an implicit machine accepts *word* (on-the-fly subset run)."""
    states = set(machine.initial_states())
    for symbol in word:
        states = {
            nxt for state in states for nxt in machine.successor_states(state, symbol)
        }
    return any(machine.is_final(state) for state in states)
