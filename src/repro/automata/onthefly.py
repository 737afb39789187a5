"""On-the-fly product emptiness (steps 4-5 of the paper's algorithm).

The paper's PSPACE upper bounds hinge on never materializing the
exponential complement automaton: "we construct A on the fly,
constructing states only as we search for a path from a start state to a
final state".  This module implements that search for a materialized
NFA intersected with *implicit automata* — objects exposing initial
states, successor states, and a final-state test — so the same code runs
the 2RPQ pipeline against the Shepherdson and the Lemma 4 complements.
(The RPQ pipeline's product with a complement-DFA has its own kernels,
behind :func:`repro.automata.dfa.containment_counterexample`.)

The search is a breadth-first exploration of the product configuration
space, which returns a *shortest* accepted word; containment refutations
therefore come with minimal counterexample words.
"""

from __future__ import annotations

from contextlib import nullcontext
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


def find_accepted_word(
    machines: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    meter: BudgetMeter | None = None,
    tracer=None,
    kernel: str = "auto",
    kernel_stats: dict | None = None,
) -> Word | None:
    """Shortest word accepted by *every* machine, or None if none exists.

    Args:
        machines: a materialized :class:`NFA` followed by the implicit
            automata to intersect it with.
        alphabet: symbols to search over.
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
        kernel: ``"subset" | "antichain" | "auto"``.  ``"antichain"``
            (and the default ``"auto"``) quotients the first machine by
            simulation equivalence and prunes freshly discovered
            first-machine states that are simulated by an already-seen
            sibling at the same rest-configuration — a simulator accepts
            every suffix the pruned state would, so verdicts and
            shortest-witness lengths are unchanged.
        kernel_stats: optional dict filled with the selected kernel and
            its counters (``configs``, plus ``subsumption_hits`` on the
            antichain kernel), also when the meter runs out.

    Returns:
        The shortest word in the intersection, or None.

    Raises:
        TypeError: when the first machine is not a materialized NFA.

    The search tracks the first machine's states as a big-int set per
    configuration of the remaining machines, so successor computations
    of the (expensive, lazily complemented) other machines run once per
    configuration and symbol instead of once per product state.
    """
    from .antichain import record_search, resolve_kernel

    if not machines or not isinstance(machines[0], NFA):
        raise TypeError("find_accepted_word needs an NFA as its first machine")
    selected = resolve_kernel(kernel)
    if kernel_stats is not None:
        kernel_stats["selected"] = selected
    counted = [0, 0]  # configs, subsumption hits
    word = None
    scope = nullcontext() if tracer is None else tracer.span(
        "product-search", machines=len(machines), kernel=f"bitset-{selected}"
    )
    with scope as span:
        try:
            word = _bitset_search(
                machines[0], machines[1:], alphabet, meter, counted, tracer,
                selected,
            )
        finally:
            record_search(selected, counted[1])
            if kernel_stats is not None:
                kernel_stats["configs"] = counted[0]
                if selected == "antichain":
                    kernel_stats["subsumption_hits"] = counted[1]
            if span is not None:
                span.count("configs", counted[0])
                if selected == "antichain":
                    span.count("subsumption_hits", counted[1])
        if span is not None:
            span.annotate(witness_length=None if word is None else len(word))
    return word


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


def _bitset_search(
    first: NFA,
    rest: Sequence[ImplicitNFA],
    alphabet: Sequence[str],
    meter: BudgetMeter | None,
    counted: list,
    tracer,
    kernel: str,
) -> Word | None:
    """The layered BFS behind :func:`find_accepted_word`.

    Runs over configurations of the *rest* machines, each carrying the
    bitset of *first*-machine states reachable alongside it; a product
    state ``(l, rest-tuple)`` is explored at most once (bit ``l`` enters
    the tuple's mask once).  ``counted`` receives the configurations
    discovered (``counted[0]``, exactly what the meter was charged) and
    the subsumption hits (``counted[1]``).
    """
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
