"""On-the-fly product emptiness (steps 4-5 of the paper's algorithm).

The paper's PSPACE upper bounds hinge on never materializing the
exponential complement automaton: "we construct A on the fly,
constructing states only as we search for a path from a start state to a
final state".  This module implements that search generically over
*implicit automata* — objects exposing initial states, successor states,
and a final-state test — so the same code runs the RPQ pipeline
(NFA x complement-DFA) and the 2RPQ pipeline (NFA x Lemma-4 complement).

The search is a breadth-first exploration of the product configuration
space, which returns a *shortest* accepted word; containment refutations
therefore come with minimal counterexample words.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

from ..budget import BudgetMeter
from .nfa import NFA, Word


class ImplicitNFA(Protocol):
    """The protocol on-the-fly searches consume.

    :class:`repro.automata.nfa.NFA` and
    :class:`repro.automata.indexed.IndexedNFA` implement it directly
    (the latter with plain-int states), as do the lazy complement
    constructions in :mod:`repro.automata.complement` and
    :mod:`repro.automata.shepherdson`.
    """

    def initial_states(self) -> Iterable: ...

    def successor_states(self, state, symbol: str) -> Iterable: ...

    def is_final(self, state) -> bool: ...


@dataclass
class SearchStats:
    """Instrumentation for the benchmarks (explored state counts)."""

    explored: int = 0
    frontier_peak: int = 0


def find_accepted_word(
    machines: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    stats: SearchStats | None = None,
    meter: BudgetMeter | None = None,
    tracer=None,
    kernel: str = "auto",
    kernel_stats: dict | None = None,
) -> Word | None:
    """Shortest word accepted by *every* machine, or None if none exists.

    Args:
        machines: implicit automata to intersect.
        alphabet: symbols to search over.
        stats: optional :class:`SearchStats` to fill in.
        meter: optional :class:`repro.budget.BudgetMeter`; the search
            charges one ``"configs"`` unit per product configuration and
            polls the wall-clock deadline, raising
            :class:`repro.budget.BudgetExhausted` cooperatively (a
            ``max_configs`` limit is how a caller caps the search).
            Because every implicit machine here has a finite state
            space, the search always terminates without a meter as well.
        tracer: optional :class:`repro.obs.trace.Tracer`; records the
            search as one ``product-search`` span (kernel choice and
            witness length as tags, configurations as a counter — set
            once on exit, never inside the BFS loop).
        kernel: ``"subset" | "antichain" | "auto"``.  On the bitset
            path, ``"antichain"`` (and the default ``"auto"``) quotients
            the first machine by simulation equivalence and prunes
            freshly discovered first-machine states that are simulated
            by an already-seen sibling at the same rest-configuration —
            a simulator accepts every suffix the pruned state would, so
            verdicts and shortest-witness lengths are unchanged.  The
            generic fallback ignores the option (recorded honestly in
            *kernel_stats*).
        kernel_stats: optional dict filled with the selected kernel and
            its pruning statistics.

    Returns:
        The shortest word in the intersection, or None.

    When the first machine is a materialized :class:`NFA` and no stats
    object is attached, the search dispatches to a bitset kernel that
    tracks that machine's states as a big-int set per configuration of
    the remaining machines — successor computations of the (expensive,
    lazily complemented) other machines then run once per configuration
    and symbol instead of once per product state.  Every other input
    (a first machine that is only implicit, or a *stats* object to
    fill) runs the generic search in :func:`_generic_find_accepted_word`.
    """
    from .antichain import resolve_kernel

    resolved = resolve_kernel(kernel)
    use_bitset = stats is None and bool(machines) and isinstance(machines[0], NFA)
    if not use_bitset:
        # The generic object-tuple search has no macrostate to subsume
        # against; record the honest fallback.
        resolved = "subset"
        if kernel_stats is not None:
            kernel_stats.update(selected="subset", search="generic")
    elif kernel_stats is not None:
        kernel_stats["selected"] = resolved
    if tracer is None:
        if use_bitset:
            return _bitset_find_accepted_word(
                machines[0], list(machines[1:]), alphabet, meter,
                kernel=resolved, kernel_stats=kernel_stats,
            )
        return _generic_find_accepted_word(machines, alphabet, stats, meter)
    with tracer.span(
        "product-search",
        machines=len(machines),
        kernel=f"bitset-{resolved}" if use_bitset else "generic",
    ) as span:
        if use_bitset:
            word = _bitset_find_accepted_word(
                machines[0], list(machines[1:]), alphabet, meter,
                span=span, tracer=tracer, kernel=resolved,
                kernel_stats=kernel_stats,
            )
        else:
            word = _generic_find_accepted_word(
                machines, alphabet, stats, meter, span=span
            )
        span.annotate(witness_length=None if word is None else len(word))
        return word


def _generic_find_accepted_word(
    machines: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    stats: SearchStats | None = None,
    meter: BudgetMeter | None = None,
    span=None,
) -> Word | None:
    """The object-tuple BFS behind :func:`find_accepted_word`."""
    parents: dict[tuple, tuple[tuple, str] | None] = {}
    try:
        return _generic_search(machines, alphabet, stats, meter, parents)
    finally:
        if span is not None:
            span.count("configs", len(parents))


def _generic_search(
    machines: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    stats: SearchStats | None,
    meter: BudgetMeter | None,
    parents: dict,
) -> Word | None:
    initial: list[tuple] = []
    seeds = [_polled(machine.initial_states(), meter) for machine in machines]
    if any(not seed for seed in seeds):
        return None
    initial = list(_cartesian(seeds))

    parents.update({tup: None for tup in initial})
    queue: deque[tuple] = deque(initial)

    def accepted(tup: tuple) -> bool:
        return all(machine.is_final(state) for machine, state in zip(machines, tup))

    if meter is not None:
        meter.charge("configs", len(initial))
    hit = next((tup for tup in initial if accepted(tup)), None)
    while queue and hit is None:
        tup = queue.popleft()
        if stats is not None:
            stats.explored += 1
            stats.frontier_peak = max(stats.frontier_peak, len(queue))
        if meter is not None:
            meter.poll()
        for symbol in alphabet:
            successor_sets = [
                _polled(machine.successor_states(state, symbol), meter)
                for machine, state in zip(machines, tup)
            ]
            if any(not successors for successors in successor_sets):
                continue
            for nxt in _cartesian(successor_sets):
                if meter is not None:
                    meter.poll()
                if nxt in parents:
                    continue
                parents[nxt] = (tup, symbol)
                if meter is not None:
                    meter.charge("configs")
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


def _cartesian(pools: Sequence[Sequence]) -> Iterator[tuple]:
    """itertools.product over possibly lazy pools (already materialized)."""
    import itertools

    return itertools.product(*pools)


def _polled(iterable: Iterable, meter: BudgetMeter | None) -> list:
    """Materialize *iterable*, polling the deadline per element.

    Lazy complement constructions can yield exponentially many successor
    candidates for a single (state, symbol) pair; polling inside the
    materialization keeps the wall-clock deadline cooperative even when
    no new configuration is being discovered.
    """
    if meter is None:
        return list(iterable)
    out = []
    for item in iterable:
        meter.poll()
        out.append(item)
    return out


def _bitset_find_accepted_word(
    first: NFA,
    rest: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    meter: BudgetMeter | None = None,
    span=None,
    tracer=None,
    kernel: str = "antichain",
    kernel_stats: dict | None = None,
) -> Word | None:
    """Bitset kernel behind :func:`find_accepted_word` (same contract).

    A layered BFS over configurations of the *rest* machines, each
    carrying the bitset of *first*-machine states reachable alongside
    it; a product state ``(l, rest-tuple)`` is explored at most once
    (bit ``l`` enters the tuple's mask once), so the budget and the
    shortest-word guarantee match the generic search exactly.
    """
    from .antichain import record_search

    counted = [0, 0]  # configs, subsumption hits
    try:
        return _bitset_search(
            first, rest, alphabet, meter, counted, tracer, kernel
        )
    finally:
        record_search(kernel, counted[1])
        if kernel_stats is not None:
            kernel_stats["configs"] = counted[0]
            if kernel == "antichain":
                kernel_stats["subsumption_hits"] = counted[1]
        if span is not None:
            span.count("configs", counted[0])
            if kernel == "antichain":
                span.count("subsumption_hits", counted[1])


def _bitset_search(
    first: NFA,
    rest: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    meter: BudgetMeter | None,
    counted: list,
    tracer=None,
    kernel: str = "antichain",
) -> Word | None:
    from .indexed import IndexedNFA, bits

    alpha = tuple(dict.fromkeys(alphabet))
    left = IndexedNFA.from_nfa(first, alpha)
    simulated_by: list[int] | None = None
    if kernel == "antichain":
        from .antichain import simulation_preorder, simulation_quotient
        from ..obs.trace import maybe_span

        with maybe_span(tracer, "simulation", side="left", states=left.num_states) as sp:
            info = simulation_preorder(left, meter)
            quotient = simulation_quotient(left, info, meter)
            if quotient.num_states < left.num_states:
                left = quotient
                info = simulation_preorder(left, meter)
            if not info.is_identity:
                simulated_by = info.sim_by
            sp.annotate(quotient_states=left.num_states, passes=info.passes)
    if not left.initial:
        return None
    seeds = [_polled(machine.initial_states(), meter) for machine in rest]
    if any(not seed for seed in seeds):
        return None
    layer0: dict[tuple, int] = {
        others: left.initial for others in _cartesian(seeds)
    }
    seen: dict[tuple, int] = dict(layer0)
    final_mask = left.final

    def accepting_bit(others: tuple, mask: int) -> int | None:
        hit = mask & final_mask
        if hit and all(m.is_final(s) for m, s in zip(rest, others)):
            return next(bits(hit))
        return None

    for others, mask in layer0.items():
        if accepting_bit(others, mask) is not None:
            return ()

    total = counted[0] = sum(mask.bit_count() for mask in layer0.values())
    if meter is not None:
        meter.charge("configs", total)
    layers = [layer0]
    hit: tuple[tuple, int] | None = None
    while hit is None:
        frontier = layers[-1]
        if not frontier:
            return None
        next_layer: dict[tuple, int] = {}
        for others, mask in frontier.items():
            if meter is not None:
                meter.poll()
            for row, symbol in enumerate(left.symbols):
                image = left.successor_mask(mask, row)
                if not image:
                    continue
                successor_sets = [
                    _polled(machine.successor_states(state, symbol), meter)
                    for machine, state in zip(rest, others)
                ]
                if any(not successors for successors in successor_sets):
                    continue
                for next_others in _cartesian(successor_sets):
                    base = seen.get(next_others, 0)
                    fresh = image & ~base
                    if not fresh:
                        continue
                    if simulated_by is not None:
                        # Drop a fresh first-machine state when a sibling
                        # (seen earlier, or kept in this very step) at the
                        # same rest-configuration simulates it: the
                        # simulator accepts every suffix it would, at a
                        # depth no greater, so verdict and shortest-witness
                        # length are unchanged.  Mutually-simulating pairs
                        # keep the smaller index.
                        for state in bits(fresh):
                            dominators = (
                                (base | fresh) & simulated_by[state] & ~(1 << state)
                            )
                            for dom in bits(dominators):
                                if not ((simulated_by[dom] >> state) & 1) or dom < state:
                                    fresh &= ~(1 << state)
                                    counted[1] += 1
                                    break
                        if not fresh:
                            continue
                    seen[next_others] = base | fresh
                    next_layer[next_others] = next_layer.get(next_others, 0) | fresh
                    total = counted[0] = total + fresh.bit_count()
                    if meter is not None:
                        meter.charge("configs", fresh.bit_count())
                    bit = accepting_bit(next_others, fresh)
                    if bit is not None:
                        hit = (next_others, bit)
                        break
                if hit is not None:
                    break
            if hit is not None:
                break
        layers.append(next_layer)
    # Backtrack a witness through the BFS layers.
    others, cursor = hit
    word: list[str] = []
    for depth in range(len(layers) - 1, 0, -1):
        found = False
        for prev_others, prev_mask in layers[depth - 1].items():
            for row, symbol in enumerate(left.symbols):
                if not ((left.successor_mask(prev_mask, row) >> cursor) & 1):
                    continue
                if any(
                    state not in machine.successor_states(prev_state, symbol)
                    for machine, prev_state, state in zip(rest, prev_others, others)
                ):
                    continue
                cursor = next(
                    index
                    for index in bits(prev_mask)
                    if (left.delta[row][index] >> cursor) & 1
                )
                word.append(symbol)
                others = prev_others
                found = True
                break
            if found:
                break
        assert found, "BFS layer invariant: every state has a predecessor"
    return tuple(reversed(word))


def intersection_is_empty(
    machines: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    meter: BudgetMeter | None = None,
) -> bool:
    """True iff the machines' languages have empty intersection."""
    return find_accepted_word(machines, alphabet, meter=meter) is None
