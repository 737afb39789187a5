"""Antichain containment kernel with simulation-quotient preprocessing.

The subset kernel in :mod:`repro.automata.indexed` decides
``L(left) ⊆ L(right)`` by BFS over configurations ``(q, S)`` — a left
state paired with a right macrostate from the incremental subset
construction — and dedupes them with a plain visited set.  On the hard
expression families (long distinguishing suffixes, union towers) the
reachable macrostates blow up exponentially even though most of them
are *subsumed* by smaller ones that refute at least as easily.

This module implements the standard remedy (De Wulf–Doyen–Henzinger–
Raskin antichains, strengthened with simulation subsumption à la
Abdulla et al., "When Simulation Meets Antichains"):

1. :func:`simulation_preorder` — a Henzinger–Henzinger–Kopke-style
   fixpoint over the bitset representation computing, for every state
   ``q``, the bitset of states that simulate ``q``.
2. :func:`simulation_quotient` — merge mutually-simulating states
   (language-preserving) so every downstream construction starts from a
   smaller automaton.
3. :func:`antichain_containment_search` — the subsumption-pruned
   replacement for ``_containment_search``: a new configuration
   ``(q, S)`` is discarded when some kept ``(q, S')`` *dominates* it,
   i.e. every ``s' ∈ S'`` is simulated by some ``s ∈ S`` (plain
   ``S' ⊆ S`` is the reflexive special case and is tested first).

Why discarding dominated configurations preserves counterexamples: if
``(q, S)`` refutes via a word ``w`` (``q`` reaches a final left state
while ``S``'s image avoids right-final states), then for any dominating
``(q, S')`` the image of ``S'`` under ``w`` is element-wise simulated
by the image of ``S`` — and a simulator of a final state is final, so
``S'``'s image avoids final states too and ``(q, S')`` refutes with the
same ``w``.  Because kept dominators are discovered at a BFS depth no
greater than the discarded configuration's (candidates are inserted
smallest-macrostate-first within a layer), the shortest-witness length
is exactly preserved, matching the subset kernel bit for bit.

Budget semantics mirror the subset kernel: one ``"configs"`` charge per
*kept* configuration, deadline polls at loop heads (the simulation
fixpoint polls the deadline but charges no counters, so counter-budget
degradation is identical across kernels and the engine's two-key cache
stays correct).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from ..obs.metrics import counter as _metric_counter
from ..obs.trace import maybe_span
from .indexed import IndexedNFA, bits
from .nfa import NFA, Word

__all__ = [
    "KERNELS",
    "SimulationInfo",
    "antichain_containment_search",
    "resolve_kernel",
    "simulation_preorder",
    "simulation_quotient",
]

#: The three-valued kernel option understood across the engine surface.
KERNELS = ("subset", "antichain", "auto")

#: Above this state count the fixpoint is skipped (identity preorder):
#: the cubic refinement would dwarf the search it is meant to speed up,
#: and antichain search degrades gracefully to pure ⊆-subsumption.
_SIM_STATE_LIMIT = 512

#: Module-level metric handles (hoisted; see obs/metrics.py).
_ANTICHAIN_SEARCHES = _metric_counter("kernel.antichain.searches")
_SUBSET_SEARCHES = _metric_counter("kernel.subset.searches")
_SUBSUMPTION_HITS = _metric_counter("kernel.antichain.subsumption_hits")


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel name and resolve ``"auto"`` (to ``"antichain"``).

    Raises ValueError on anything outside :data:`KERNELS` — eagerly, so
    a typo fails before any search work starts.
    """
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    return "antichain" if kernel == "auto" else kernel


def record_search(selected: str, subsumption_hits: int = 0) -> None:
    """Bump the per-kernel usage metrics (called once per search)."""
    if selected == "antichain":
        _ANTICHAIN_SEARCHES.inc()
        if subsumption_hits:
            _SUBSUMPTION_HITS.inc(subsumption_hits)
    else:
        _SUBSET_SEARCHES.inc()


# --- simulation preorder --------------------------------------------------------


@dataclass
class SimulationInfo:
    """Result of :func:`simulation_preorder`.

    Attributes:
        sim_by: ``sim_by[q]`` is the bitset of states ``p`` with
            ``p ⪰ q`` (``p`` simulates ``q``); always contains ``q``.
        passes: refinement passes until the fixpoint stabilized
            (0 when the computation was skipped for size).
    """

    sim_by: list[int]
    passes: int

    @property
    def pairs(self) -> int:
        """Number of ``p ⪰ q`` pairs, identity included."""
        return sum(mask.bit_count() for mask in self.sim_by)

    @property
    def is_identity(self) -> bool:
        return all(mask == 1 << q for q, mask in enumerate(self.sim_by))


def simulation_preorder(nfa: IndexedNFA, meter=None) -> SimulationInfo:
    """The (forward) simulation preorder of *nfa* as per-state bitsets.

    ``p`` simulates ``q`` iff ``q`` final implies ``p`` final and every
    transition ``q -a-> q'`` is matched by some ``p -a-> p'`` with
    ``p'`` simulating ``q'``.  Computed as a greatest-fixpoint
    refinement over candidate bitsets (HHK-style, specialized to the
    big-int representation): each pass intersects ``sim_by[q]`` with the
    set of states that can match each of ``q``'s transitions, where the
    per-(symbol, target) "matching predecessors" masks are memoized per
    pass.

    An optional :class:`repro.budget.BudgetMeter` is polled at loop
    heads — the fixpoint charges no counters, so counter budgets behave
    identically whether or not this preprocessing runs.
    """
    n = nfa.num_states
    if n == 0:
        return SimulationInfo([], 0)
    if n > _SIM_STATE_LIMIT:
        return SimulationInfo([1 << q for q in range(n)], 0)
    full = (1 << n) - 1
    final = nfa.final
    num_symbols = len(nfa.symbols)
    sim_by = [full if not (final >> q) & 1 else final for q in range(n)]
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        if meter is not None:
            meter.check_deadline()
        # Matching-predecessor masks, memoized for this pass: all p with
        # some a-successor inside the current sim_by[target].
        matchers: dict[tuple[int, int], int] = {}
        for q in range(n):
            mask = sim_by[q]
            if mask == 1 << q:
                continue
            if meter is not None:
                meter.poll()
            for row in range(num_symbols):
                targets = nfa.delta[row][q]
                if not targets:
                    continue
                for target in bits(targets):
                    key = (row, target)
                    allowed = matchers.get(key)
                    if allowed is None:
                        wanted = sim_by[target]
                        allowed = 0
                        for p in range(n):
                            if nfa.delta[row][p] & wanted:
                                allowed |= 1 << p
                        matchers[key] = allowed
                    mask &= allowed
                    if mask == 1 << q:
                        break
                if mask == 1 << q:
                    break
            if mask != sim_by[q]:
                sim_by[q] = mask | (1 << q)
                changed = True
    return SimulationInfo(sim_by, passes)


# --- simulation quotient --------------------------------------------------------


def simulation_quotient(
    nfa: IndexedNFA, info: SimulationInfo | None = None, meter=None
) -> IndexedNFA:
    """Merge mutually-simulating states (a language-preserving shrink).

    States ``p, q`` with ``p ⪰ q`` and ``q ⪰ p`` accept the same
    language and can be collapsed; transitions are unioned over class
    members, a class is initial/final iff some member is (mutual
    simulation makes finality class-uniform).  Returns *nfa* itself when
    no pair is mergeable, so callers can cheaply detect a no-op.
    """
    if info is None:
        info = simulation_preorder(nfa, meter)
    sim_by = info.sim_by
    n = nfa.num_states
    class_of = [-1] * n
    reps: list[int] = []
    for q in range(n):
        if class_of[q] >= 0:
            continue
        index = len(reps)
        reps.append(q)
        for r in bits(sim_by[q]):
            if class_of[r] < 0 and (sim_by[r] >> q) & 1:
                class_of[r] = index
    m = len(reps)
    if m == n:
        return nfa

    def project(mask: int) -> int:
        out = 0
        for q in bits(mask):
            out |= 1 << class_of[q]
        return out

    num_symbols = len(nfa.symbols)
    delta = [[0] * m for _ in range(num_symbols)]
    for row in range(num_symbols):
        source_row = nfa.delta[row]
        target_row = delta[row]
        for q in range(n):
            targets = source_row[q]
            if targets:
                target_row[class_of[q]] |= project(targets)
    names = tuple(nfa.state_names[rep] for rep in reps)
    return IndexedNFA(
        nfa.symbols, m, delta, project(nfa.initial), project(nfa.final), names
    )


# --- the antichain containment search -------------------------------------------


def antichain_containment_search(
    left: NFA,
    right: NFA,
    alphabet: Sequence[str],
    meter=None,
    tracer=None,
    stats: dict[str, Any] | None = None,
) -> Word | None:
    """A shortest word in ``L(left) - L(right)``, or None if contained.

    The antichain replacement for the subset kernel's
    ``_containment_search`` (same contract, same budget semantics; see
    the module docstring for the subsumption invariant).  With a
    *tracer*, the preprocessing and the search record ``simulation``
    and ``antichain-search`` spans.  *stats* (if given) is filled in
    place — including on a :class:`repro.budget.BudgetExhausted` unwind
    — with ``configs``, ``subsumption_hits``, ``antichain_peak`` and a
    ``simulation`` preprocessing summary, so bounded verdicts still
    report honest kernel accounting.
    :func:`repro.automata.dfa.containment_counterexample` is the entry
    point that also reports the search to spans and metrics.
    """
    if stats is None:
        stats = {}
    alpha = tuple(dict.fromkeys(alphabet))
    compiled_left = IndexedNFA.from_nfa(left, alpha)
    compiled_right = IndexedNFA.from_nfa(right, alpha)

    with maybe_span(
        tracer, "simulation", side="left", states=compiled_left.num_states
    ) as span:
        left_before = compiled_left.num_states
        left_info = simulation_preorder(compiled_left, meter)
        compiled_left = simulation_quotient(compiled_left, left_info, meter)
        span.annotate(
            quotient_states=compiled_left.num_states, passes=left_info.passes
        )
    with maybe_span(
        tracer, "simulation", side="right", states=compiled_right.num_states
    ) as span:
        right_before = compiled_right.num_states
        right_info = simulation_preorder(compiled_right, meter)
        quotient = simulation_quotient(compiled_right, right_info, meter)
        if quotient.num_states < compiled_right.num_states:
            # Recompute the preorder on the (smaller) quotient: the
            # search subsumes against *its* states, so the relation must
            # be native to the automaton actually being stepped.
            compiled_right = quotient
            right_info = simulation_preorder(compiled_right, meter)
        span.annotate(
            quotient_states=compiled_right.num_states,
            passes=right_info.passes,
            sim_pairs=right_info.pairs,
        )
    stats["simulation"] = {
        "left_states": [left_before, compiled_left.num_states],
        "right_states": [right_before, compiled_right.num_states],
        "right_sim_pairs": right_info.pairs,
    }

    counters = {"configs": 0, "subsumption_hits": 0, "antichain_peak": 0}
    try:
        with maybe_span(tracer, "antichain-search"):
            return _frontier_search(
                compiled_left, compiled_right, right_info.sim_by, alpha, meter,
                counters,
            )
    finally:
        stats.update(counters)


def _frontier_search(
    left: IndexedNFA,
    right: IndexedNFA,
    sim_by: list[int],
    alpha: tuple[str, ...],
    meter,
    counters: dict[str, int],
) -> Word | None:
    """Layered BFS over ``(q, S)`` with a subsumption-pruned frontier."""
    left_final = left.final
    right_final = right.final
    num_symbols = len(alpha)

    def minimize(mask: int) -> int:
        """Drop macrostate elements simulated by a sibling.

        ``s`` is redundant inside ``S`` when some other ``s'' ∈ S``
        simulates it — ``L(s) ⊆ L(s'')`` keeps both the acceptance test
        and the final-avoidance test unchanged.  Mutually-simulating
        siblings (possible even after quotienting, since merging adds
        transitions) are broken by keeping the smaller index.
        """
        out = mask
        for s in bits(mask):
            if not (out >> s) & 1:
                continue
            for d in bits(out & sim_by[s] & ~(1 << s)):
                if not ((sim_by[d] >> s) & 1) or d < s:
                    out &= ~(1 << s)
                    break
        return out

    def dominates(kept: int, mask: int) -> bool:
        """Does kept ``(q, kept)`` subsume a candidate ``(q, mask)``?

        True when every element of *kept* is simulated by some element
        of *mask* (``kept ⊆ mask`` is the reflexive fast path).
        """
        missing = kept & ~mask
        if not missing:
            return True
        for s in bits(missing):
            if not (mask & sim_by[s]):
                return False
        return True

    parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {}
    antichain: dict[int, list[int]] = {}
    step_memo: dict[tuple[int, int], int] = {}
    hit: tuple[int, int] | None = None

    def insert(state: int, mask: int, parent) -> bool:
        """Keep a candidate unless subsumed; True when it was kept."""
        nonlocal hit
        config = (state, mask)
        if config in parents:
            return False
        kept_masks = antichain.get(state)
        if kept_masks is not None:
            for kept in kept_masks:
                if dominates(kept, mask):
                    counters["subsumption_hits"] += 1
                    return False
            kept_masks.append(mask)
        else:
            kept_masks = antichain[state] = [mask]
        if len(kept_masks) > counters["antichain_peak"]:
            counters["antichain_peak"] = len(kept_masks)
        parents[config] = parent
        counters["configs"] += 1
        if meter is not None:
            meter.charge("configs")
        if ((left_final >> state) & 1) and not (mask & right_final):
            hit = config
        return True

    start_mask = minimize(right.initial)
    layer: list[tuple[int, int]] = []
    for state in bits(left.initial):
        if insert(state, start_mask, None) and hit is None:
            layer.append((state, start_mask))
        if hit is not None:
            break
    while hit is None and layer:
        if meter is not None:
            meter.poll()
        candidates: list[tuple[int, int, tuple[tuple[int, int], int]]] = []
        for config in layer:
            state, mask = config
            if meter is not None:
                meter.poll()
            for row in range(num_symbols):
                left_targets = left.delta[row][state]
                if not left_targets:
                    continue
                key = (mask, row)
                next_mask = step_memo.get(key)
                if next_mask is None:
                    next_mask = minimize(right.successor_mask(mask, row))
                    step_memo[key] = next_mask
                for next_state in bits(left_targets):
                    candidates.append((next_state, next_mask, (config, row)))
        # Insert the smallest macrostates first: within a BFS layer all
        # candidates sit at the same depth, so order cannot perturb the
        # shortest witness, but minimal elements kept early subsume the
        # rest of the layer instead of the other way around.
        candidates.sort(key=lambda item: item[1].bit_count())
        layer = []
        for next_state, next_mask, parent in candidates:
            if insert(next_state, next_mask, parent):
                layer.append((next_state, next_mask))
            if hit is not None:
                break
    if hit is None:
        return None
    word: list[str] = []
    cursor: tuple[int, int] = hit
    while parents[cursor] is not None:
        cursor, row = parents[cursor]  # type: ignore[misc]
        word.append(alpha[row])
    return tuple(reversed(word))
