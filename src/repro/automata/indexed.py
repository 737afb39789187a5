"""Integer-indexed automaton kernels (the bitset hot-path layer).

Every containment pipeline in the package bottoms out in the same few
automaton operations — epsilon closure, subset construction, product
reachability, emptiness with witness extraction.  The object-level
types of :mod:`repro.automata.nfa` / :mod:`repro.automata.dfa` keep
dict-of-frozenset tables keyed by arbitrary hashable states, and their
operations run here, *compiled*: states and symbols are interned to
dense integers, transition tables are per-symbol adjacency arrays, and
state *sets* are Python big-int bitsets, so the inner loops become
integer OR/AND/shift operations instead of frozenset hashing and set
unions.

Design contract:

- Every kernel renders its result exactly as the textbook object-state
  construction would; the tests in ``tests/automata/test_indexed*.py``
  compare them against the reference implementations in
  ``tests/oracles/automata.py`` on hand-built and random automata.
- :class:`IndexedNFA` satisfies the
  :class:`repro.automata.onthefly.ImplicitNFA` protocol directly (its
  states are plain ints), so on-the-fly product searches can consume it
  without an adapter.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Hashable, Iterable, Iterator, Sequence

from .nfa import NFA, Word

# --- bitset helpers ------------------------------------------------------------


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: int) -> list[int]:
    """``list(bits(mask))``, without the generator's per-item cost."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def select(items: Sequence, mask: int) -> Iterator:
    """``items[i]`` for each set bit ``i`` of *mask*, ascending.

    A mask with more than one bit in 16 set is read off its binary
    digits by ``itertools.compress``, in C; a sparser one through
    :func:`members`.  For a 700-node frontier of a 1,166-node graph
    that is about 8 µs instead of 90 µs, and the split ran 20,000-op
    eval-mutate-style loops of single-source reads and writes about 20%
    faster than ``compress`` alone (2-vCPU VM).
    """
    if mask.bit_count() << 4 < len(items):
        return map(items.__getitem__, members(mask))
    return compress(items, bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS))


def _mask_of(indices: Iterable[int]) -> int:
    out = 0
    for index in indices:
        out |= 1 << index
    return out


def _closure_mask(seeds: int, adjacency: Sequence[int], meter=None) -> int:
    """Bitset transitive closure: all indices reachable from *seeds*.

    An optional meter is polled for its deadline once per BFS layer.
    """
    reached = seeds
    frontier = seeds
    while frontier:
        if meter is not None:
            meter.poll()
        step = 0
        for index in bits(frontier):
            step |= adjacency[index]
        frontier = step & ~reached
        reached |= frontier
    return reached


# --- the compiled automata ------------------------------------------------------


class IndexedNFA:
    """An NFA compiled to dense integer states and bitset transitions.

    Attributes:
        symbols: the interned symbol order (index = symbol id).
        num_states: states are ``0 .. num_states - 1``.
        delta: ``delta[symbol_id][state]`` is the successor bitset.
        initial / final: bitsets of initial / accepting states.
        state_names: original state objects, ``state_names[i]`` for state
            ``i`` (used to map results back to the object layer).
    """

    __slots__ = ("symbols", "symbol_index", "num_states", "delta",
                 "initial", "final", "state_names")

    def __init__(
        self,
        symbols: tuple[str, ...],
        num_states: int,
        delta: list[list[int]],
        initial: int,
        final: int,
        state_names: tuple[Hashable, ...] | None = None,
    ) -> None:
        self.symbols = symbols
        self.symbol_index = {symbol: i for i, symbol in enumerate(symbols)}
        self.num_states = num_states
        self.delta = delta
        self.initial = initial
        self.final = final
        self.state_names = (
            state_names if state_names is not None else tuple(range(num_states))
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_nfa(cls, nfa: NFA, alphabet: Iterable[str] | None = None) -> "IndexedNFA":
        """Intern an object-level :class:`NFA` (stable state ordering).

        Args:
            nfa: the automaton to compile.
            alphabet: symbol order of the result; defaults to the NFA's
                alphabet.  Symbols outside the NFA's alphabet get empty
                transition rows (useful for complementation relative to a
                larger Sigma).
        """
        symbols = (
            tuple(dict.fromkeys(alphabet)) if alphabet is not None else nfa.alphabet
        )
        names = tuple(sorted(nfa.states, key=repr))
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        symbol_index = {symbol: i for i, symbol in enumerate(symbols)}
        delta = [[0] * n for _ in symbols]
        for (source, symbol), targets in nfa.transitions.items():
            row = symbol_index.get(symbol)
            if row is None:
                continue
            delta[row][index[source]] |= _mask_of(index[t] for t in targets)
        initial = _mask_of(index[s] for s in nfa.initial)
        final = _mask_of(index[s] for s in nfa.final)
        return cls(symbols, n, delta, initial, final, names)

    @classmethod
    def build(
        cls,
        symbols: Iterable[str],
        num_states: int,
        edges: Iterable[tuple[int, str, int]],
        initial: Iterable[int],
        final: Iterable[int],
    ) -> "IndexedNFA":
        """Build directly from integer states and an edge list."""
        syms = tuple(dict.fromkeys(symbols))
        symbol_index = {symbol: i for i, symbol in enumerate(syms)}
        delta = [[0] * num_states for _ in syms]
        for source, symbol, target in edges:
            delta[symbol_index[symbol]][source] |= 1 << target
        return cls(syms, num_states, delta, _mask_of(initial), _mask_of(final))

    def to_nfa(self) -> NFA:
        """Decompile to the object layer, restoring original state names."""
        names = self.state_names
        transitions = [
            (names[source], self.symbols[row], names[target])
            for row in range(len(self.symbols))
            for source in range(self.num_states)
            for target in bits(self.delta[row][source])
        ]
        return NFA.build(
            self.symbols,
            names,
            [names[i] for i in bits(self.initial)],
            [names[i] for i in bits(self.final)],
            transitions,
        )

    # -- the ImplicitNFA protocol (states are ints) ----------------------------

    def initial_states(self) -> Iterator[int]:
        return bits(self.initial)

    def successor_states(self, state: int, symbol: str) -> Iterator[int]:
        row = self.symbol_index.get(symbol)
        if row is None:
            return iter(())
        return bits(self.delta[row][state])

    def is_final(self, state: int) -> bool:
        return bool((self.final >> state) & 1)

    # -- kernels ---------------------------------------------------------------

    def successor_mask(self, mask: int, symbol_id: int) -> int:
        """One subset-construction step: rho(mask, symbol) as a bitset."""
        row = self.delta[symbol_id]
        out = 0
        for index in bits(mask):
            out |= row[index]
        return out

    def accepts(self, word: Word) -> bool:
        current = self.initial
        for symbol in word:
            row = self.symbol_index.get(symbol)
            if row is None:
                return False
            current = self.successor_mask(current, row)
            if not current:
                return False
        return bool(current & self.final)

    def reachable_mask(self, meter=None) -> int:
        """Bitset of states reachable from the initial set.

        An optional meter checks its deadline every 1,024 states and is
        polled once per BFS layer.
        """
        adjacency = [0] * self.num_states
        for row in self.delta:
            for index in range(self.num_states):
                adjacency[index] |= row[index]
                if meter is not None and not index & 1023:
                    meter.check_deadline()
        return _closure_mask(self.initial, adjacency, meter)

    def coreachable_mask(self, meter=None) -> int:
        """Bitset of states from which the final set is reachable (polled
        like :meth:`reachable_mask`)."""
        reverse = [0] * self.num_states
        for row in self.delta:
            for source, targets in enumerate(row):
                bit = 1 << source
                while targets:
                    low = targets & -targets
                    reverse[low.bit_length() - 1] |= bit
                    targets ^= low
                if meter is not None and not source & 1023:
                    meter.check_deadline()
        return _closure_mask(self.final, reverse, meter)

    def live_mask(self, meter=None) -> int:
        """States both reachable and co-reachable (the trim kernel)."""
        return self.reachable_mask(meter) & self.coreachable_mask(meter)

    def restricted(self, keep: int) -> "IndexedNFA":
        """The sub-automaton on the states of *keep*, in the same order."""
        if keep == (1 << self.num_states) - 1:
            return self
        kept = list(bits(keep))
        new_index = {old: new for new, old in enumerate(kept)}

        def squeeze(mask: int) -> int:
            out = 0
            for old in bits(mask & keep):
                out |= 1 << new_index[old]
            return out

        return IndexedNFA(
            self.symbols,
            len(kept),
            [[squeeze(row[old]) for old in kept] for row in self.delta],
            squeeze(self.initial),
            squeeze(self.final),
            tuple(self.state_names[old] for old in kept),
        )

    def numbered_nfa(self, keys: Iterable[tuple[Hashable, str]]) -> NFA:
        """The object-level NFA whose states are this automaton's ints.

        *keys* are the ``(state name, symbol)`` keys of the transition
        table this automaton was compiled from; the result lists its
        transitions in their order.  Equal to
        ``self.to_nfa().renumber()`` when the state names are in
        ``repr`` order, as :meth:`from_nfa` interns them.
        """
        number = {name: index for index, name in enumerate(self.state_names)}
        transitions = {}
        for name, symbol in keys:
            state, row = number.get(name), self.symbol_index.get(symbol)
            if state is not None and row is not None:
                targets = self.delta[row][state]
                if targets:
                    transitions[(state, symbol)] = frozenset(members(targets))
        return NFA(
            self.symbols,
            frozenset(range(self.num_states)),
            frozenset(members(self.initial)),
            frozenset(members(self.final)),
            transitions,
        )

    def is_empty(self) -> bool:
        """True iff no accepting state is reachable."""
        return not (self.reachable_mask() & self.final)

    def shortest_word(self) -> Word | None:
        """A shortest accepted word, or None (layered bitset BFS)."""
        if self.initial & self.final:
            return ()
        layers = [self.initial]
        seen = self.initial
        num_symbols = len(self.symbols)
        while True:
            frontier = layers[-1]
            if not frontier:
                return None
            step = 0
            for row in range(num_symbols):
                step |= self.successor_mask(frontier, row)
            new = step & ~seen
            if not new:
                return None
            seen |= new
            layers.append(new)
            if new & self.final:
                break
        # Backtrack a witness through the BFS layers.
        cursor = next(bits(layers[-1] & self.final))
        word: list[str] = []
        for depth in range(len(layers) - 1, 0, -1):
            previous = layers[depth - 1]
            for row in range(num_symbols):
                found = False
                for source in bits(previous):
                    if (self.delta[row][source] >> cursor) & 1:
                        word.append(self.symbols[row])
                        cursor = source
                        found = True
                        break
                if found:
                    break
        return tuple(reversed(word))

    def determinize(
        self, max_states: int | None = None, meter=None
    ) -> "IndexedDFA | None":
        """Subset construction; the result is complete over ``symbols``.

        DFA state ``i`` stands for the NFA-state bitset
        ``subset_masks[i]``; the empty subset is the (reachable) sink.
        Returns None as soon as the construction would pass *max_states*
        states.  An optional meter is polled for its deadline once per
        DFA state.
        """
        initial = self.initial
        index_of: dict[int, int] = {initial: 0}
        subset_masks: list[int] = [initial]
        num_symbols = len(self.symbols)
        delta: list[list[int]] = [[] for _ in range(num_symbols)]
        position = 0
        while position < len(subset_masks):
            if meter is not None:
                meter.poll()
            states = members(subset_masks[position])
            for row, successors in enumerate(self.delta):
                target_mask = 0
                for state in states:
                    target_mask |= successors[state]
                target = index_of.get(target_mask)
                if target is None:
                    target = len(subset_masks)
                    if max_states is not None and target >= max_states:
                        return None
                    index_of[target_mask] = target
                    subset_masks.append(target_mask)
                delta[row].append(target)
            position += 1
        final = _mask_of(
            i for i, mask in enumerate(subset_masks) if mask & self.final
        )
        return IndexedDFA(
            self.symbols, len(subset_masks), delta, 0, final,
            tuple(subset_masks), self.state_names,
        )

    def product(self, other: "IndexedNFA") -> "IndexedNFA":
        """Intersection automaton (reachable pairs only).

        Both operands must share a symbol order (build them with the
        same ``alphabet`` argument); pair states are encoded as
        ``i * other.num_states + j`` during the BFS and named
        ``(self.state_names[i], other.state_names[j])`` in the result.
        """
        if self.symbols != other.symbols:
            raise ValueError("product operands must share a symbol order")
        width = other.num_states
        num_symbols = len(self.symbols)
        code_of: dict[int, int] = {}
        names: list[tuple] = []
        edges: list[tuple[int, int, int]] = []  # (source, symbol_id, target)

        def intern(code: int) -> int:
            dense = code_of.get(code)
            if dense is None:
                dense = len(names)
                code_of[code] = dense
                i, j = divmod(code, width)
                names.append((self.state_names[i], other.state_names[j]))
            return dense

        queue: deque[int] = deque()
        for i in bits(self.initial):
            for j in bits(other.initial):
                code = i * width + j
                if code not in code_of:
                    intern(code)
                    queue.append(code)
        initial_count = len(names)
        while queue:
            code = queue.popleft()
            source = code_of[code]
            i, j = divmod(code, width)
            for row in range(num_symbols):
                left_targets = self.delta[row][i]
                if not left_targets:
                    continue
                right_targets = other.delta[row][j]
                if not right_targets:
                    continue
                for i2 in bits(left_targets):
                    base = i2 * width
                    for j2 in bits(right_targets):
                        next_code = base + j2
                        fresh = next_code not in code_of
                        target = intern(next_code)
                        edges.append((source, row, target))
                        if fresh:
                            queue.append(next_code)
        n = len(names)
        delta = [[0] * n for _ in range(num_symbols)]
        for source, row, target in edges:
            delta[row][source] |= 1 << target
        final = 0
        for code, dense in code_of.items():
            i, j = divmod(code, width)
            if ((self.final >> i) & 1) and ((other.final >> j) & 1):
                final |= 1 << dense
        return IndexedNFA(
            self.symbols, n, delta, _mask_of(range(initial_count)), final,
            tuple(names),
        )


class IndexedDFA:
    """A complete DFA over dense integer states (subset-construction image).

    Attributes:
        delta: ``delta[symbol_id][state]`` is the unique successor state.
        final: bitset of accepting states.
        subset_masks: the NFA-state bitset each DFA state stands for.
        nfa_state_names: the source NFA's state names (for decompiling).
    """

    __slots__ = ("symbols", "symbol_index", "num_states", "delta",
                 "initial", "final", "subset_masks", "nfa_state_names")

    def __init__(
        self,
        symbols: tuple[str, ...],
        num_states: int,
        delta: list[list[int]],
        initial: int,
        final: int,
        subset_masks: tuple[int, ...] | None = None,
        nfa_state_names: tuple[Hashable, ...] | None = None,
    ) -> None:
        self.symbols = symbols
        self.symbol_index = {symbol: i for i, symbol in enumerate(symbols)}
        self.num_states = num_states
        self.delta = delta
        self.initial = initial
        self.final = final
        self.subset_masks = subset_masks
        self.nfa_state_names = nfa_state_names

    def step(self, state: int, symbol_id: int) -> int:
        return self.delta[symbol_id][state]

    def accepts(self, word: Word) -> bool:
        state = self.initial
        for symbol in word:
            state = self.delta[self.symbol_index[symbol]][state]
        return bool((self.final >> state) & 1)

    def complement(self) -> "IndexedDFA":
        """Flip the accepting set (the DFA is complete by construction)."""
        all_states = (1 << self.num_states) - 1
        return IndexedDFA(
            self.symbols, self.num_states, self.delta, self.initial,
            all_states & ~self.final, self.subset_masks, self.nfa_state_names,
        )

    def is_empty(self) -> bool:
        adjacency = [0] * self.num_states
        for row in self.delta:
            for source in range(self.num_states):
                adjacency[source] |= 1 << row[source]
        return not (_closure_mask(1 << self.initial, adjacency) & self.final)

    def to_dfa(self) -> "DFA":
        """Decompile to :class:`repro.automata.dfa.DFA`.

        When this DFA came from :meth:`IndexedNFA.determinize`, states
        are rendered as frozensets of the source NFA's state names —
        exactly what the textbook subset construction produces.
        """
        from .dfa import DFA

        if self.subset_masks is not None and self.nfa_state_names is not None:
            names: list[Hashable] = [
                frozenset(self.nfa_state_names[i] for i in bits(mask))
                for mask in self.subset_masks
            ]
        else:
            names = list(range(self.num_states))
        transitions = {
            (names[source], self.symbols[row]): names[self.delta[row][source]]
            for row in range(len(self.symbols))
            for source in range(self.num_states)
        }
        return DFA(
            self.symbols,
            frozenset(names),
            names[self.initial],
            frozenset(names[i] for i in bits(self.final)),
            transitions,
        )


# --- kernels behind the object-level operations ---------------------------------


def product_nfa(left: NFA, right: NFA) -> NFA:
    """Indexed kernel behind :meth:`repro.automata.nfa.NFA.product`."""
    alphabet = tuple(
        symbol for symbol in left.alphabet if symbol in set(right.alphabet)
    )
    compiled = IndexedNFA.from_nfa(left, alphabet).product(
        IndexedNFA.from_nfa(right, alphabet)
    )
    return compiled.to_nfa()


def _containment_search(
    left: NFA, right: NFA, alphabet: Sequence[str], meter, stats: dict
) -> Word | None:
    """The subset kernel: a shortest word in ``L(left) - L(right)``, or None.

    A BFS over configurations ``(left state, right subset bitset)`` —
    i.e. the product of ``left`` with the complement of ``right``'s
    subset construction, explored on the fly so the exponential
    determinization is never materialized beyond its reachable-under-
    ``left`` part.  Subset steps are memoized per (bitset, symbol),
    which is exactly incremental determinization.

    The meter (optional) is charged one ``"configs"`` unit per
    configuration; *stats* receives ``configs`` (the same count) and
    ``subset_steps`` (memoized subset steps), also when the meter runs
    out.  :func:`repro.automata.dfa.containment_counterexample` is the
    entry point.
    """
    alpha = tuple(dict.fromkeys(alphabet))
    compiled_left = IndexedNFA.from_nfa(left, alpha)
    compiled_right = IndexedNFA.from_nfa(right, alpha)
    right_final = compiled_right.final

    def accepted(state: int, mask: int) -> bool:
        return bool((compiled_left.final >> state) & 1) and not (mask & right_final)

    start_mask = compiled_right.initial
    initial = [(state, start_mask) for state in bits(compiled_left.initial)]
    parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {
        config: None for config in initial
    }
    subset_step: dict[tuple[int, int], int] = {}
    try:
        if meter is not None:
            meter.charge("configs", len(initial))
        hit = next((config for config in initial if accepted(*config)), None)
        queue = deque(initial)
        num_symbols = len(alpha)
        while queue and hit is None:
            config = queue.popleft()
            state, mask = config
            if meter is not None:
                meter.poll()
            for row in range(num_symbols):
                left_targets = compiled_left.delta[row][state]
                if not left_targets:
                    continue
                key = (mask, row)
                next_mask = subset_step.get(key)
                if next_mask is None:
                    next_mask = compiled_right.successor_mask(mask, row)
                    subset_step[key] = next_mask
                for next_state in bits(left_targets):
                    next_config = (next_state, next_mask)
                    if next_config in parents:
                        continue
                    parents[next_config] = (config, row)
                    if meter is not None:
                        meter.charge("configs")
                    if accepted(next_state, next_mask):
                        hit = next_config
                        break
                    queue.append(next_config)
                if hit is not None:
                    break
    finally:
        stats["configs"] = len(parents)
        stats["subset_steps"] = len(subset_step)
    if hit is None:
        return None
    word: list[str] = []
    cursor: tuple[int, int] = hit
    while parents[cursor] is not None:
        cursor, row = parents[cursor]  # type: ignore[misc]
        word.append(alpha[row])
    return tuple(reversed(word))


def hopcroft(
    delta: Sequence[Sequence[int]], num_states: int, final: int, meter=None
) -> tuple[list[int], list[int]]:
    """The coarsest partition of a complete DFA's states (Hopcroft).

    *delta* is ``delta[symbol_id][state] -> state`` over states
    ``0 .. num_states - 1``, which must all be reachable, and *final*
    the accepting bitset.  Returns ``(block_of, representative)``:
    ``block_of[state]`` is the block id of each state and
    ``representative[block]`` one member of each block.

    O(|Sigma| n log n): blocks are contiguous ranges of one element
    array, a splitter's predecessors come from inverse transition
    lists, only the blocks they touch are split (by moving the touched
    states to the front of their range), and worklist membership is a
    flag per block.  An optional meter is polled for its deadline once
    per splitter.
    """
    inverse = []
    for row in delta:
        predecessors: list[list[int]] = [[] for _ in range(num_states)]
        for source, target in enumerate(row):
            predecessors[target].append(source)
        inverse.append(predecessors)
        if meter is not None:
            meter.check_deadline()
    accepting = [state for state in range(num_states) if (final >> state) & 1]
    rejecting = [state for state in range(num_states) if not (final >> state) & 1]
    elements: list[int] = []
    begin: list[int] = []
    end: list[int] = []
    block_of = [0] * num_states
    for part in sorted((part for part in (accepting, rejecting) if part), key=len):
        for state in part:
            block_of[state] = len(begin)
        begin.append(len(elements))
        elements += part
        end.append(len(elements))
    position = [0] * num_states
    for index, state in enumerate(elements):
        position[state] = index
    marked = [0] * len(begin)
    # Splitting by the smaller initial block (block 0) is enough.
    worklist = [0] if len(begin) == 2 else []
    waiting = [block in worklist for block in range(len(begin))]
    while worklist:
        if meter is not None:
            meter.poll()
        splitter = worklist.pop()
        waiting[splitter] = False
        members = elements[begin[splitter]:end[splitter]]
        for predecessors in inverse:
            touched = []
            for target in members:
                for state in predecessors[target]:
                    block = block_of[state]
                    done = marked[block]
                    if not done:
                        touched.append(block)
                    # Move *state* to the front of its block's range.
                    slot = begin[block] + done
                    here = position[state]
                    other = elements[slot]
                    elements[slot] = state
                    position[state] = slot
                    elements[here] = other
                    position[other] = here
                    marked[block] = done + 1
            for block in touched:
                size, inside = end[block] - begin[block], marked[block]
                marked[block] = 0
                if inside == size:
                    continue
                fresh = len(begin)
                begin.append(begin[block])
                end.append(begin[block] + inside)
                begin[block] += inside
                marked.append(0)
                for index in range(begin[fresh], end[fresh]):
                    block_of[elements[index]] = fresh
                if waiting[block] or inside <= size - inside:
                    waiting.append(True)
                    worklist.append(fresh)
                else:
                    waiting.append(False)
                    waiting[block] = True
                    worklist.append(block)
    return block_of, [elements[first] for first in begin]


def minimize_dfa(dfa: "DFA") -> "DFA":
    """Indexed Hopcroft refinement behind :meth:`DFA.minimize`.

    Interns the reachable states, refines with :func:`hopcroft`, and
    renders each block as a frozenset of original states, as textbook
    refinement over frozenset blocks does (partition refinement
    computes the unique coarsest partition, so the automaton is the
    same either way).  Block members are inserted in ``repr`` order, so
    a block's own ``repr`` (which :meth:`NFA.renumber` sorts by) does
    not depend on the refinement order.
    """
    from .dfa import DFA

    symbols = dfa.alphabet
    transitions = dfa.transitions
    names = [dfa.initial]
    index = {dfa.initial: 0}
    delta: list[list[int]] = [[] for _ in symbols]
    for name in names:  # grows while iterating: a BFS over reachable states
        for row, symbol in zip(delta, symbols):
            target = transitions[(name, symbol)]
            number = index.get(target)
            if number is None:
                number = index[target] = len(names)
                names.append(target)
            row.append(number)
    final = _mask_of(index[state] for state in dfa.final if state in index)
    block_of, representative = hopcroft(delta, len(names), final)
    members: list[list] = [[] for _ in representative]
    for number, name in enumerate(names):
        members[block_of[number]].append(name)
    block_names = [frozenset(sorted(block, key=repr)) for block in members]
    return DFA(
        symbols,
        frozenset(block_names),
        block_names[block_of[0]],
        frozenset(
            block_names[block]
            for block, state in enumerate(representative)
            if (final >> state) & 1
        ),
        {
            (block_names[block], symbol): block_names[block_of[row[state]]]
            for block, state in enumerate(representative)
            for symbol, row in zip(symbols, delta)
        },
    )
