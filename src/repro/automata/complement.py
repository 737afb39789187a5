"""Lemma 4: single-exponential complementation of 2NFAs (Vardi 1989).

A word ``w = a1 .. an`` on the marked tape ``⊢ a1 .. an ⊣`` is *rejected*
by a 2NFA ``A = (Sigma, S, S0, rho, F)`` iff there is a family of sets
``T_0, .., T_{n+1} ⊆ S`` such that

1. ``S0 ⊆ T_0``  (the initial configurations are covered),
2. the family is *closed*: for every position p, every ``s in T_p`` and
   every move ``(s', d) in rho(s, tape[p])`` with ``0 <= p+d <= n+1``,
   we have ``s' in T_{p+d}``, and
3. ``T_{n+1}`` contains no final state (no accepting configuration).

If such a family exists, induction along any run shows every reachable
configuration ``(s, p)`` has ``s in T_p``, so no run accepts.  If ``w``
is rejected, the family ``T_p = { s : (s, p) reachable }`` works.  The
closure condition only couples *adjacent* sets, so a one-way NFA whose
states are pairs ``(T_{p-1}, T_p)`` can guess and verify the family left
to right: ``2^{O(|S|)}`` states.  This is the paper's Lemma 4.

The module offers the materialized NFA (for small inputs and the E4
benchmark) and a lazy version exposing the implicit-automaton protocol
used by the on-the-fly product-emptiness search of Theorem 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..budget import BudgetMeter
from .alphabet import LEFT_MARKER, RIGHT_MARKER
from .nfa import NFA
from .two_nfa import TwoNFA


def _move_targets(two_nfa: TwoNFA, states: frozenset, tape_symbol: object) -> dict[int, set]:
    """Successor states of *states* on *tape_symbol*, bucketed by direction."""
    buckets: dict[int, set] = {-1: set(), 0: set(), 1: set()}
    for state in states:
        for successor, direction in two_nfa.moves(state, tape_symbol):
            buckets[direction].add(successor)
    return buckets


@dataclass
class LazyComplement:
    """Implicit NFA for the complement of a 2NFA's language (Lemma 4).

    States are pairs ``(T_prev, T_cur)`` of frozensets of 2NFA states;
    after reading ``j`` letters a state asserts ``T_prev = T_j`` and
    ``T_cur = T_{j+1}`` for some valid prefix of a closed family.

    Successor enumeration yields candidate ``T_next`` supersets of the
    forced forward successors in order of increasing size, so that an
    on-the-fly search visits the most constrained (and usually
    sufficient) guesses first.
    """

    two_nfa: TwoNFA

    def __post_init__(self) -> None:
        self._all_states = tuple(sorted(self.two_nfa.states, key=repr))

    # -- implicit-automaton protocol ------------------------------------------

    def initial_states(self) -> Iterator[tuple[frozenset, frozenset]]:
        """All pairs ``(T_0, T_1)`` satisfying coverage and closure at ⊢."""
        initial = frozenset(self.two_nfa.initial)
        for t0 in self._supersets(initial):
            buckets = _move_targets(self.two_nfa, t0, LEFT_MARKER)
            # Left moves at the left marker fall off the tape: vacuous.
            if not buckets[0] <= t0:
                continue
            for t1 in self._supersets(frozenset(buckets[1])):
                yield (t0, t1)

    def successor_states(
        self, state: tuple[frozenset, frozenset], symbol: str
    ) -> Iterator[tuple[frozenset, frozenset]]:
        t_prev, t_cur = state
        buckets = _move_targets(self.two_nfa, t_cur, symbol)
        if not buckets[-1] <= t_prev or not buckets[0] <= t_cur:
            return
        for t_next in self._supersets(frozenset(buckets[1])):
            yield (t_cur, t_next)

    def is_final(self, state: tuple[frozenset, frozenset]) -> bool:
        t_prev, t_cur = state
        if t_cur & self.two_nfa.final:
            return False
        buckets = _move_targets(self.two_nfa, t_cur, RIGHT_MARKER)
        # Right moves at the right marker fall off the tape: vacuous.
        return buckets[-1] <= t_prev and buckets[0] <= t_cur

    # Note: pointwise subset ordering on (T_prev, T_cur) pairs is NOT a
    # sound simulation relation in either direction (a smaller T_prev can
    # violate a backward-closure obligation that a larger one satisfies,
    # and a larger T_cur can hit the final-state exclusion), so the
    # on-the-fly search performs no subsumption pruning.

    # -- helpers ---------------------------------------------------------------

    def _supersets(self, seed: frozenset) -> Iterator[frozenset]:
        """All supersets of *seed* within S, smallest first."""
        rest = [state for state in self._all_states if state not in seed]
        for size in range(len(rest) + 1):
            for extra in itertools.combinations(rest, size):
                yield seed | frozenset(extra)


def complement_two_nfa(
    two_nfa: TwoNFA,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> NFA:
    """Materialize Lemma 4's complement NFA (reachable part only).

    Args:
        two_nfa: the automaton to complement.
        meter: optional :class:`repro.budget.BudgetMeter`; the
            construction charges one ``"states"`` unit per materialized
            state and polls the wall-clock deadline per transition, so a
            ``max_states`` limit raises
            :class:`repro.budget.BudgetExhausted` once the reachable
            state space outgrows it.
        tracer: optional :class:`repro.obs.trace.Tracer`; records a
            ``lemma4-complement`` span with state/transition counts
            (set once on exit, never inside the BFS loop).

    Returns:
        An :class:`NFA` with ``L = Sigma* - L(two_nfa)`` over the 2NFA's
        alphabet.
    """
    if tracer is not None:
        with tracer.span(
            "lemma4-complement", two_nfa_states=two_nfa.num_states
        ) as span:
            return _complement_two_nfa(two_nfa, meter, span)
    return _complement_two_nfa(two_nfa, meter, None)


def _complement_two_nfa(
    two_nfa: TwoNFA,
    meter: BudgetMeter | None,
    span,
) -> NFA:
    lazy = LazyComplement(two_nfa)
    from collections import deque

    initial = []
    for state in lazy.initial_states():
        if meter is not None:
            meter.poll()
        initial.append(state)
    states: set = set(initial)
    if meter is not None:
        meter.charge("states", len(states))
    transitions: list[tuple[object, str, object]] = []
    queue = deque(initial)
    while queue:
        state = queue.popleft()
        for symbol in two_nfa.alphabet:
            for target in lazy.successor_states(state, symbol):
                if meter is not None:
                    meter.poll()
                transitions.append((state, symbol, target))
                if target not in states:
                    states.add(target)
                    if meter is not None:
                        meter.charge("states")
                    queue.append(target)
    final = [state for state in states if lazy.is_final(state)]
    if span is not None:
        span.count("states", len(states))
        span.count("transitions", len(transitions))
    return NFA.build(two_nfa.alphabet, states, initial, final, transitions)


def lemma4_state_bound(two_nfa: TwoNFA) -> int:
    """The 2^{O(n)} bound of Lemma 4, instantiated as 4^n (pairs of subsets)."""
    return 4 ** two_nfa.num_states
