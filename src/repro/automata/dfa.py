"""Deterministic finite automata: determinization, complement, minimization.

Step 2 of the paper's RPQ-containment algorithm complements an NFA via
the subset construction (the "exponential blow-up" the paper mentions);
this module implements that step plus Hopcroft minimization, which the
benchmarks use to report canonical sizes, and language-level decision
procedures (`contains`, `equivalent`) that serve as ground-truth oracles
for the on-the-fly pipeline.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from .nfa import NFA, Word

State = Hashable


@dataclass(frozen=True)
class DFA:
    """A complete deterministic automaton.

    Every state has exactly one successor per alphabet symbol (a sink
    state is added during construction when needed), which makes
    complementation a matter of flipping the accepting set.
    """

    alphabet: tuple[str, ...]
    states: frozenset
    initial: State
    final: frozenset
    transitions: Mapping[tuple[State, str], State]

    def step(self, state: State, symbol: str) -> State:
        return self.transitions[(state, symbol)]

    def accepts(self, word: Word) -> bool:
        state = self.initial
        for symbol in word:
            state = self.step(state, symbol)
        return state in self.final

    @property
    def num_states(self) -> int:
        return len(self.states)

    def complement(self) -> "DFA":
        """The DFA for the complement language (flip accepting states)."""
        return DFA(
            self.alphabet,
            self.states,
            self.initial,
            frozenset(self.states - self.final),
            self.transitions,
        )

    def to_nfa(self) -> NFA:
        transitions = [
            (source, symbol, target)
            for (source, symbol), target in self.transitions.items()
        ]
        return NFA.build(self.alphabet, self.states, [self.initial], self.final, transitions)

    def is_empty(self) -> bool:
        return self.to_nfa().is_empty()

    def minimize(self) -> "DFA":
        """Hopcroft partition refinement; returns the canonical minimal DFA.

        States of the result are frozensets (the equivalence blocks); the
        refinement runs on the bitset kernel
        :func:`repro.automata.indexed.minimize_dfa`.
        """
        from .indexed import minimize_dfa

        return minimize_dfa(self)


def determinize(
    nfa: NFA, alphabet: Iterable[str] | None = None, tracer=None
) -> DFA:
    """Subset construction (the paper's step 2); result is complete.

    Args:
        nfa: the automaton to determinize.
        alphabet: symbols of the result; defaults to the NFA's alphabet.
            Supplying a larger alphabet matters for complementation,
            where "complement" must be taken relative to the full
            Sigma* (or Sigma±*) of the containment problem.
        tracer: optional :class:`repro.obs.trace.Tracer`; records a
            ``determinize`` span with input/output state counts.

    The subset construction runs on the bitset kernel.
    """
    from .indexed import IndexedNFA

    alpha = tuple(dict.fromkeys(alphabet)) if alphabet is not None else nfa.alphabet
    scope = nullcontext() if tracer is None else tracer.span(
        "determinize", nfa_states=nfa.num_states
    )
    with scope as span:
        result = IndexedNFA.from_nfa(nfa, alpha).determinize().to_dfa()
        if span is not None:
            span.annotate(dfa_states=result.num_states)
    return result


def complement_nfa(
    nfa: NFA, alphabet: Iterable[str] | None = None, tracer=None
) -> NFA:
    """NFA for the complement of L(nfa) relative to *alphabet*.

    Determinize, complete, flip finals, and return as an NFA.  This is
    the classical exponential complementation the paper contrasts with
    Lemma 4's two-way construction.
    """
    return determinize(nfa, alphabet, tracer=tracer).complement().to_nfa()


#: ``reduce_nfa`` stops the subset construction once the DFA has more
#: than this many times the trimmed NFA's states, and keeps the trimmed
#: NFA: a minimal DFA that small is rare past that point, and the
#: construction itself is the exponential step the searches avoid.
SUBSET_CAP_FACTOR = 4


def reduce_nfa(nfa: NFA, meter=None, stats: dict | None = None) -> NFA:
    """A smaller NFA for the same language, when one is cheaply available.

    Trims dead states, then tries determinize + Hopcroft-minimize (over
    the NFA's own alphabet) and keeps whichever result has fewer states,
    renumbered ``0 .. n-1`` in ``repr`` order of the state names.
    Thompson-constructed automata typically shrink by 2-4x, which matters
    a lot downstream: the fold and complementation constructions are
    (singly and exponentially) sensitive to input state counts.

    Runs on the indexed kernels from start to finish.  The subset
    construction stops once it passes :data:`SUBSET_CAP_FACTOR` times
    the trimmed NFA's states, and the trimmed NFA is kept.  Frozenset
    names are built only for the live blocks of a minimal DFA that
    wins, to number them as ``renumber()`` would, so the result equals
    ``determinize(trimmed).minimize().to_nfa().trim().renumber()`` then.
    An optional :class:`repro.budget.BudgetMeter` is polled for its
    deadline in every stage; *stats* (if given) receives
    ``nfa_states`` (trimmed), ``dfa_states`` (None when capped) and
    ``capped``.
    """
    from .indexed import IndexedNFA, hopcroft, members

    compiled = IndexedNFA.from_nfa(nfa)
    compiled = compiled.restricted(compiled.live_mask(meter))
    size = compiled.num_states
    dfa = None
    if size:
        dfa = compiled.determinize(SUBSET_CAP_FACTOR * size, meter)
    if stats is not None:
        stats.update(
            nfa_states=size,
            dfa_states=None if dfa is None else dfa.num_states,
            capped=bool(size) and dfa is None,
        )
    if dfa is None:
        return compiled.numbered_nfa(nfa.transitions)
    block_of, representative = hopcroft(dfa.delta, dfa.num_states, dfa.final, meter)
    final = dfa.final
    # A minimal complete DFA has at most one dead block: the rejecting
    # block that every symbol maps back to itself.
    dead = next(
        (
            block
            for block, state in enumerate(representative)
            if not (final >> state) & 1
            and all(block_of[row[state]] == block for row in dfa.delta)
        ),
        None,
    )
    if len(representative) - (dead is not None) >= size:
        return compiled.numbered_nfa(nfa.transitions)
    # Name each live block as the object-level pipeline would: a
    # frozenset of subset states, each a frozenset of NFA state names,
    # built in the same insertion order (repr order at both levels);
    # then number the blocks in repr order of those names, as
    # NFA.renumber() does.
    nfa_names = compiled.state_names
    subsets: dict[int, list[frozenset]] = {}
    for state, mask in enumerate(dfa.subset_masks):
        if meter is not None:
            meter.poll()
        block = block_of[state]
        if block != dead:
            subsets.setdefault(block, []).append(
                frozenset([nfa_names[i] for i in members(mask)])
            )
    names: dict[int, str] = {}
    for block, inner in subsets.items():
        if meter is not None:
            meter.poll()
        names[block] = repr(frozenset(sorted(inner, key=repr)))
    number = {block: index for index, block in enumerate(sorted(names, key=names.get))}
    transitions = {}
    for block, index in number.items():
        if meter is not None:
            meter.poll()
        state = representative[block]
        for symbol, row in zip(dfa.symbols, dfa.delta):
            target = block_of[row[state]]
            if target != dead:
                transitions[(index, symbol)] = frozenset((number[target],))
    return NFA(
        nfa.alphabet,
        frozenset(range(len(number))),
        frozenset((number[block_of[dfa.initial]],)),
        frozenset(
            index for block, index in number.items() if (final >> representative[block]) & 1
        ),
        transitions,
    )


def nfa_contains(left: NFA, right: NFA, alphabet: Iterable[str] | None = None) -> bool:
    """Decide L(left) ⊆ L(right) by intersecting with the complement."""
    if alphabet is None:
        alphabet = tuple(dict.fromkeys(left.alphabet + right.alphabet))
    witness = containment_counterexample(left, right, alphabet)
    return witness is None


def containment_counterexample(
    left: NFA,
    right: NFA,
    alphabet: Iterable[str] | None = None,
    meter=None,
    tracer=None,
    kernel: str = "auto",
    kernel_stats: dict | None = None,
) -> Word | None:
    """A shortest word in L(left) - L(right), or None if contained.

    The Lemma 1 search.  The complement automaton is never
    materialized: the search runs over ``(left state, right subset
    bitset)`` configurations, determinizing the right side
    incrementally.  *kernel* (``"subset" | "antichain" | "auto"``)
    selects between the plain visited-set search
    (``indexed._containment_search``) and the simulation-subsumption
    antichain search (:mod:`repro.automata.antichain`, also what
    ``"auto"`` picks).  Both return shortest witnesses, so verdicts and
    witness lengths agree bit for bit.

    An optional :class:`repro.budget.BudgetMeter` bounds the search
    (configs budget + deadline).  However the search ends, this function
    reports it once: *kernel_stats* (if given) receives the selected
    kernel and its counters, the kernel usage metrics are bumped, and an
    optional :class:`repro.obs.trace.Tracer` records one
    ``emptiness-search`` span (counters set on exit, never inside the
    BFS loop; the antichain kernel nests ``simulation`` and
    ``antichain-search`` child spans).
    """
    from .antichain import antichain_containment_search, record_search, resolve_kernel
    from .indexed import _containment_search

    selected = resolve_kernel(kernel)
    if alphabet is None:
        alphabet = tuple(dict.fromkeys(left.alphabet + right.alphabet))
    stats = {} if kernel_stats is None else kernel_stats
    stats["selected"] = selected
    witness = None
    scope = nullcontext() if tracer is None else tracer.span(
        "emptiness-search",
        kernel="antichain" if selected == "antichain" else "incremental-determinization",
        left_states=left.num_states,
        right_states=right.num_states,
    )
    with scope as span:
        try:
            if selected == "antichain":
                witness = antichain_containment_search(
                    left, right, alphabet, meter, tracer, stats
                )
            else:
                witness = _containment_search(left, right, alphabet, meter, stats)
        finally:
            record_search(selected, stats.get("subsumption_hits", 0))
            if span is not None:
                span.count("configs", stats.get("configs", 0))
                if selected == "antichain":
                    span.count("subsumption_hits", stats.get("subsumption_hits", 0))
                    span.annotate(antichain_peak=stats.get("antichain_peak", 0))
                else:
                    span.count("subset_steps", stats.get("subset_steps", 0))
        if span is not None:
            span.annotate(witness_length=None if witness is None else len(witness))
    return witness


def nfa_equivalent(left: NFA, right: NFA, alphabet: Iterable[str] | None = None) -> bool:
    """Decide L(left) = L(right)."""
    if alphabet is None:
        alphabet = tuple(dict.fromkeys(left.alphabet + right.alphabet))
    return nfa_contains(left, right, alphabet) and nfa_contains(right, left, alphabet)
