"""Seeded benchmark inputs, each with a verdict the benchmark can justify.

Nothing here calls the containment engine or the automata kernels.
Every expected verdict follows from how the pair was built:

- HOLDS by monotone widening: the right side is the left side with an
  atom replaced by a union containing it, ``?`` or ``*`` added, or a
  disjunct added at the top.
- HOLDS by the paper's ``Q ⊆ Q·Q⁻·Q`` for 2RPQs, with ``Q⁻`` spelled
  out letter by letter (the regex grammar has no inverse of a group).
- REFUTED when every word on the left uses a letter that the right side
  never mentions (on a canonical path database the right side cannot
  cross that edge, in either direction).
- REFUTED by a witness word, for one-way pairs: a word of the left side
  that Python ``re`` rejects on the right side.
- Blow-ups ``P (x|y)* x (x|y)^n S`` against the same shape with ``m``:
  containment holds exactly when ``n == m``.
- RQ pairs with a TC-free path ``w`` on the left and a one-way regex
  ``R`` on the right: on the canonical path database of ``w`` the only
  directed path between the answer nodes spells ``w``, so containment
  holds exactly when ``re`` accepts ``w`` on ``R``.

Queries are built from the simple-fragment factors (``a``, ``a*``,
``a+``, ``a?``, ``a1|…|ak``, ``(a1|…|ak)*``) that Figueira et al.,
*Containment of Simple Conjunctive Regular Path Queries*
(arXiv:2003.04411), find dominate real query logs.  That paper names
the shapes, not how often each occurs: every share below (``SHAPES``,
``CYCLE`` and the verdict splits) is a placeholder, chosen by hand, until
a real query log is in the repository to measure them from.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Iterator

# --- regex AST ---------------------------------------------------------------
#
# A small AST of the benchmark's own, so that the reference never goes
# through the program's parser:
#   ("sym", "knows") or ("sym", "knows-")   a letter (trailing '-' = inverse)
#   ("alt", ("a", "b", ...))                a union of letters
#   ("star" | "plus" | "opt", node)
#   ("cat", (node, ...))
#   ("or", (node, ...))                     a union of terms

VOCABULARY = (
    "knows", "follows", "likes", "worksAt", "livesIn", "partOf", "memberOf",
    "authorOf", "cites", "reviews", "manages", "reportsTo", "studiedAt",
    "locatedIn", "owns", "sells", "buys", "ships", "hosts", "links",
    "mentions", "replyOf", "hasTag", "hasType", "subClassOf", "sameAs",
    "near", "borders", "flowsInto", "connects", "dependsOn", "imports",
    "calls", "extends", "implements", "contains", "produces", "consumes",
    "treats", "causes",
)

#: Factor shapes of the simple fragment, with placeholder weights (no
#: query log in the repository measures them yet).
SHAPES = (("a", 35), ("a*", 15), ("a+", 15), ("a?", 10), ("alt", 15), ("alt*", 10))


def inverse_letter(letter: str) -> str:
    return letter[:-1] if letter.endswith("-") else letter + "-"


def base_letter(letter: str) -> str:
    return letter[:-1] if letter.endswith("-") else letter


def letters_of(node: tuple) -> set[str]:
    kind = node[0]
    if kind == "sym":
        return {node[1]}
    if kind == "alt":
        return set(node[1])
    if kind in ("star", "plus", "opt"):
        return letters_of(node[1])
    return set().union(*(letters_of(child) for child in node[1]))


def render(node: tuple) -> str:
    """The program's regex syntax for *node*."""
    kind = node[0]
    if kind == "sym":
        return node[1]
    if kind == "alt":
        return "(" + "|".join(node[1]) + ")"
    if kind in ("star", "plus", "opt"):
        inner = render(node[1])
        if node[1][0] in ("cat", "or"):
            inner = f"({inner})"
        return inner + {"star": "*", "plus": "+", "opt": "?"}[kind]
    if kind == "cat":
        return " ".join(
            f"({render(child)})" if child[0] == "or" else render(child)
            for child in node[1]
        )
    return " | ".join(render(child) for child in node[1])


def invert(node: tuple) -> tuple:
    """The AST of the inverse language: reverse, and invert each letter."""
    kind = node[0]
    if kind == "sym":
        return ("sym", inverse_letter(node[1]))
    if kind == "alt":
        return ("alt", tuple(inverse_letter(letter) for letter in node[1]))
    if kind in ("star", "plus", "opt"):
        return (kind, invert(node[1]))
    if kind == "cat":
        return ("cat", tuple(invert(child) for child in reversed(node[1])))
    return ("or", tuple(invert(child) for child in node[1]))


class Matcher:
    """Python ``re`` over words of letters: each letter becomes one char."""

    def __init__(self) -> None:
        self._chars: dict[str, str] = {}

    def char(self, letter: str) -> str:
        if letter not in self._chars:
            self._chars[letter] = chr(0x4E00 + len(self._chars))
        return self._chars[letter]

    def pattern(self, node: tuple) -> str:
        kind = node[0]
        if kind == "sym":
            return self.char(node[1])
        if kind == "alt":
            return "[" + "".join(self.char(letter) for letter in node[1]) + "]"
        if kind in ("star", "plus", "opt"):
            return "(?:" + self.pattern(node[1]) + ")" + {
                "star": "*", "plus": "+", "opt": "?"
            }[kind]
        if kind == "cat":
            return "".join(self.pattern(child) for child in node[1])
        return "(?:" + "|".join(self.pattern(child) for child in node[1]) + ")"

    def accepts(self, node: tuple, word: tuple[str, ...]) -> bool:
        text = "".join(self.char(letter) for letter in word)
        return re.fullmatch(self.pattern(node), text) is not None


def sample_word(rng: random.Random, node: tuple) -> tuple[str, ...]:
    """A random word of the language of *node* (short repetitions)."""
    kind = node[0]
    if kind == "sym":
        return (node[1],)
    if kind == "alt":
        return (rng.choice(node[1]),)
    if kind in ("star", "plus", "opt"):
        low = 1 if kind == "plus" else 0
        high = 1 if kind == "opt" else 3
        word: tuple[str, ...] = ()
        for _ in range(rng.randint(low, high)):
            word += sample_word(rng, node[1])
        return word
    if kind == "cat":
        word = ()
        for child in node[1]:
            word += sample_word(rng, child)
        return word
    return sample_word(rng, rng.choice(node[1]))


# --- simple-fragment queries ------------------------------------------------------


def _letter(rng: random.Random, pool: tuple[str, ...], inverse_share: float) -> str:
    letter = rng.choice(pool)
    return inverse_letter(letter) if rng.random() < inverse_share else letter


def _factor(rng: random.Random, pool: tuple[str, ...], inverse_share: float = 0.0) -> tuple:
    shape = rng.choices([s for s, _ in SHAPES], [w for _, w in SHAPES])[0]
    if shape.startswith("alt"):
        size = rng.randint(2, 3)
        letters: list[str] = []
        while len(letters) < size:
            letter = _letter(rng, pool, inverse_share)
            if letter not in letters:
                letters.append(letter)
        node: tuple = ("alt", tuple(letters))
        return ("star", node) if shape == "alt*" else node
    sym = ("sym", _letter(rng, pool, inverse_share))
    return {"a": sym, "a*": ("star", sym), "a+": ("plus", sym), "a?": ("opt", sym)}[
        shape
    ]


def _query(
    rng: random.Random, pool: tuple[str, ...], inverse_share: float = 0.0,
    low: int = 1, high: int = 4,
) -> tuple:
    return ("cat", tuple(
        _factor(rng, pool, inverse_share) for _ in range(rng.randint(low, high))
    ))


def _widen_factor(rng: random.Random, factor: tuple, pool: tuple[str, ...]) -> tuple:
    """A factor whose language contains *factor*'s."""
    kind = factor[0]
    extra = rng.choice(pool)
    if kind == "sym":
        if extra == factor[1]:
            return ("star", factor)
        return rng.choice([("alt", (factor[1], extra)), ("opt", factor), ("star", factor)])
    if kind == "alt":
        if extra in factor[1]:
            return ("star", factor)
        return rng.choice([("alt", factor[1] + (extra,)), ("star", factor), ("opt", factor)])
    inner = factor[1]
    if kind in ("plus", "opt"):
        return ("star", inner)
    # star: widen what is starred
    if inner[0] == "sym" and extra != inner[1]:
        return ("star", ("alt", (inner[1], extra)))
    if inner[0] == "alt" and extra not in inner[1]:
        return ("star", ("alt", inner[1] + (extra,)))
    return factor


def widen(rng: random.Random, query: tuple, pool: tuple[str, ...]) -> tuple:
    """Monotone widening: one or two factors widened, maybe a disjunct."""
    factors = list(query[1])
    for index in rng.sample(range(len(factors)), min(len(factors), rng.randint(1, 2))):
        factors[index] = _widen_factor(rng, factors[index], pool)
    wider: tuple = ("cat", tuple(factors))
    if rng.random() < 0.25:
        wider = ("or", (wider, _query(rng, pool, low=1, high=2)))
    return wider


def _narrow(rng: random.Random, query: tuple) -> tuple | None:
    """A plausible non-superset of *query* (verdict settled by a witness)."""
    factors = list(query[1])
    index = rng.randrange(len(factors))
    factor = factors[index]
    kind = factor[0]
    if kind == "star":
        factors[index] = rng.choice([("plus", factor[1]), ("opt", factor[1]), factor[1]])
    elif kind in ("plus", "opt"):
        factors[index] = factor[1]
    elif kind == "alt" and len(factor[1]) > 1:
        kept = list(factor[1])
        kept.remove(rng.choice(kept))
        factors[index] = ("alt", tuple(kept)) if len(kept) > 1 else ("sym", kept[0])
    elif len(factors) > 1:
        other = rng.choice([i for i in range(len(factors)) if i != index])
        factors[index], factors[other] = factors[other], factors[index]
    else:
        return None
    return ("cat", tuple(factors))


# --- containment pairs ----------------------------------------------------------------


@dataclass(frozen=True)
class Pair:
    """One containment request with its justified expected verdict."""

    kind: str  # rpq | 2rpq | rq | blowup-small | blowup-big
    left: str  # kind:spec, as sent on the wire
    right: str
    expected: str  # "holds" | "refuted"
    reason: str  # which rule justifies *expected*
    #: The languages behind one-way pairs (for the tests); None otherwise.
    left_ast: tuple | None = None
    right_ast: tuple | None = None

    def frame(self, request_id: str, deadline_ms: float | None = None) -> dict:
        frame = {"id": request_id, "request_id": request_id,
                 "left": self.left, "right": self.right}
        if deadline_ms is not None:
            frame["deadline_ms"] = deadline_ms
        return frame


def _rpq_pair(rng: random.Random, matcher: Matcher) -> Pair | None:
    roll = rng.random()
    if roll < 0.5:
        left = _query(rng, VOCABULARY)
        right = widen(rng, left, VOCABULARY)
        return Pair("rpq", f"rpq:{render(left)}", f"rpq:{render(right)}",
                    "holds", "widening", left, right)
    if roll < 0.75:
        return _fresh_letter_pair(rng, "rpq", 0.0)
    left = _query(rng, VOCABULARY, low=2)
    right = _narrow(rng, left)
    if right is None:
        return None
    for _ in range(20):
        word = sample_word(rng, left)
        if not matcher.accepts(right, word):
            return Pair("rpq", f"rpq:{render(left)}", f"rpq:{render(right)}",
                        "refuted", "witness:" + " ".join(word), left, right)
    return None


def _fresh_letter_pair(rng: random.Random, kind: str, inverse_share: float) -> Pair:
    """REFUTED: a mandatory letter on the left that the right never mentions."""
    letter = rng.choice(VOCABULARY)
    pool = tuple(symbol for symbol in VOCABULARY if symbol != letter)
    rest = _query(rng, pool, inverse_share, low=1, high=3)
    mandatory = ("sym", inverse_letter(letter) if inverse_share else letter)
    if rng.random() < 0.4:
        mandatory = ("plus", mandatory)
    factors = list(rest[1])
    factors.insert(rng.randint(0, len(factors)), mandatory)
    left = ("cat", tuple(factors))
    right = widen(rng, rest, pool)
    assert letter not in {base_letter(symbol) for symbol in letters_of(right)}
    one_way = not inverse_share
    return Pair(kind, f"rpq:{render(left)}", f"rpq:{render(right)}",
                "refuted", f"fresh-letter:{letter}",
                left if one_way else None, right if one_way else None)


def _two_rpq_pair(rng: random.Random) -> Pair:
    if rng.random() < 0.75:
        query = _query(rng, VOCABULARY, inverse_share=0.3, low=1, high=3)
        if not any(symbol.endswith("-") for symbol in letters_of(query)):
            factors = list(query[1])
            factors[0] = ("sym", inverse_letter(rng.choice(VOCABULARY)))
            query = ("cat", tuple(factors))
        right = ("cat", (query, invert(query), query))
        return Pair("2rpq", f"rpq:{render(query)}", f"rpq:{render(right)}",
                    "holds", "q-qinv-q")
    return _fresh_letter_pair(rng, "2rpq", 0.3)


def _rq_pair(rng: random.Random, matcher: Matcher) -> Pair | None:
    factors = list(_query(rng, VOCABULARY, low=2, high=4)[1])
    index = rng.randrange(len(factors))
    base = factors[index]
    if base[0] in ("star", "plus", "opt"):
        base = base[1]
    factors[index] = ("plus", base)  # at least one transitive closure
    right = ("cat", tuple(factors))
    word = sample_word(rng, right)
    holds = rng.random() < 0.5
    if not holds:
        letters = sorted(letters_of(right))
        for _ in range(20):
            mutated = list(word)
            position = rng.randrange(len(mutated))
            if rng.random() < 0.5 and len(mutated) > 1:
                del mutated[position]
            else:
                mutated[position] = rng.choice(letters)
            if not matcher.accepts(right, tuple(mutated)):
                word = tuple(mutated)
                break
        else:
            return None
    if not word:
        return None
    if matcher.accepts(right, word) != holds:
        return None
    text = " ".join(word)
    if len(word) >= 2 and rng.random() < 0.5:
        cut = rng.randint(1, len(word) - 1)
        body = f"[{' '.join(word[:cut])}](x, z), [{' '.join(word[cut:])}](z, y)"
    else:
        body = f"[{text}](x, y)"
    return Pair("rq", f"rq:ans(x, y) :- {body}.", f"rq:ans(x, y) :- [{render(right)}](x, y).",
                "holds" if holds else "refuted", "word:" + text,
                ("cat", tuple(("sym", letter) for letter in word)), right)


def _blowup_pair(rng: random.Random, kind: str, tag: str) -> Pair:
    """``P (x|y)* x (x|y)^n S`` vs the same with ``m``: holds iff n == m."""
    sizes = (4, 5) if kind == "blowup-small" else (9,)
    n, m = rng.choice(sizes), rng.choice(sizes)
    x, y = rng.sample(VOCABULARY, 2)

    def side(k: int) -> tuple:
        return ("cat", (("sym", f"pre_{tag}"), ("star", ("alt", (x, y))), ("sym", x),
                        *[("alt", (x, y))] * k, ("sym", f"suf_{tag}")))

    return Pair(kind, f"rpq:{render(side(n))}", f"rpq:{render(side(m))}",
                "holds" if n == m else "refuted", f"blowup:n={n},m={m}", side(n), side(m))


#: The class of each position in a 50-item cycle of the cold stream.  The
#: shares are placeholders, chosen by hand to give mostly RPQ and 2RPQ
#: pairs, a minority of RQ pairs and a few percent of blow-ups; no query
#: log in the repository gives the real ones.  A fixed cycle (not a per-item
#: coin) keeps the share of each class the same in every run, so the
#: expensive blow-ups cannot make one seed look slower than another.
_CYCLE = (["blowup-big", "blowup-small"] + ["rq"] * 6 + ["2rpq"] * 10 + ["rpq"] * 32)
random.Random(0).shuffle(_CYCLE)
CYCLE = tuple(_CYCLE)


def cold_pairs(seed: int) -> Iterator[Pair]:
    """The serve-cold stream: endless, and it never repeats a pair."""
    rng = random.Random(f"cold:{seed}")
    matcher = Matcher()
    salt = f"{rng.getrandbits(32):08x}"
    seen: set[tuple[str, str]] = set()
    position = 0
    while True:
        kind = CYCLE[position % len(CYCLE)]
        pair: Pair | None
        if kind.startswith("blowup"):
            pair = _blowup_pair(rng, kind, f"{salt}_{position}")
        elif kind == "rq":
            pair = _rq_pair(rng, matcher)
        elif kind == "2rpq":
            pair = _two_rpq_pair(rng)
        else:
            pair = _rpq_pair(rng, matcher)
        if pair is None or (pair.left, pair.right) in seen:
            continue
        seen.add((pair.left, pair.right))
        position += 1
        yield pair


def hot_pairs(seed: int, count: int) -> list[Pair]:
    """The serve-hot set: the first *count* cold pairs that fit a limit.

    Big blow-ups are left out: they answer INCONCLUSIVE past the
    deadline, which the engine does not cache, so they could never hit.
    """
    pairs: list[Pair] = []
    for pair in cold_pairs(seed):
        if pair.kind != "blowup-big":
            pairs.append(pair)
        if len(pairs) == count:
            return pairs
    raise AssertionError("unreachable: the cold stream is endless")


# --- eval-mutate ----------------------------------------------------------------------

#: The named 2RPQs of eval-mutate; ``reference_targets`` evaluates each by hand.
NAMED_QUERIES = {
    "friends-of-friends": "knows knows",
    "reachable": "knows+",
    "colleagues": "worksAt worksAt-",
    "region": "livesIn partOf+",
    "co-knowers": "knows knows-",
    "network-employers": "knows* worksAt",
}


@dataclass(frozen=True)
class EvalInputs:
    edges: tuple[tuple[str, str, str], ...]
    people: tuple[str, ...]
    ops: tuple[tuple, ...]  # ("read", name, source) | ("write", source, label, target)


#: ``social_network``'s own seed.  The graph's shape (who the hubs are,
#: how far ``knows+`` reaches) sets what a read costs, and one shape per
#: benchmark seed made the seeds' costs differ by about 6%; so the shape
#: is fixed, and the benchmark seed relabels its nodes and draws the
#: operation log.
GRAPH_SHAPE_SEED = 0


def eval_inputs(seed: int, people: int, ops: int, write_every: int,
                part: int = 0) -> EvalInputs:
    """A seeded social network plus a read/write operation log.

    *part* (one of the run's parts, see ``eval_mutate``) draws other
    inputs from the same seed.

    The network is ``social_network(people, seed=GRAPH_SHAPE_SEED)`` with
    its nodes relabelled by a seeded permutation within each kind
    (people, organizations, cities, countries).  ``people[i]`` is the
    image of the generator's ``p<i>``.  Every *write_every*-th operation
    is an ``add_edge`` of an edge the graph does not have yet, so each
    write changes the snapshot.
    """
    from repro.graphdb.generators import social_network

    rng = random.Random(f"eval:{seed}:{part}")
    graph = social_network(people, seed=GRAPH_SHAPE_SEED)
    # Sorted: edges() walks sets of str, whose order changes with the
    # interpreter's hash seed.
    shape = sorted(graph.edges())
    by_kind: dict[str, list[str]] = {}
    for node in sorted({node for s, _, t in shape for node in (s, t)}):
        by_kind.setdefault(node.rstrip("0123456789"), []).append(node)
    relabel: dict[str, str] = {}
    for nodes in by_kind.values():
        images = list(nodes)
        rng.shuffle(images)
        relabel.update(zip(nodes, images))
    edges = tuple(sorted((relabel[s], label, relabel[t]) for s, label, t in shape))
    persons = tuple(relabel[f"p{i}"] for i in range(people))
    orgs = sorted({t for _, label, t in edges if label == "worksAt"})
    cities = sorted({t for _, label, t in edges if label == "livesIn"})
    present = set(edges)
    names = tuple(NAMED_QUERIES)
    log: list[tuple] = []
    for index in range(ops):
        if index % write_every == write_every - 1:
            while True:
                roll = rng.random()
                source = rng.choice(persons)
                if roll < 0.8:
                    edge = (source, "knows", rng.choice(persons))
                elif roll < 0.9:
                    edge = (source, "worksAt", rng.choice(orgs))
                else:
                    edge = (source, "livesIn", rng.choice(cities))
                if edge[0] != edge[2] and edge not in present:
                    break
            present.add(edge)
            log.append(("write",) + edge)
        else:
            log.append(("read", rng.choice(names), rng.choice(persons)))
    return EvalInputs(edges, persons, tuple(log))


class ReferenceGraph:
    """Plain-dict adjacency with one hand-written function per named query."""

    def __init__(self, edges) -> None:
        self.out: dict[str, dict[str, set]] = {}
        self.inn: dict[str, dict[str, set]] = {}
        for source, label, target in edges:
            self.add_edge(source, label, target)

    def add_edge(self, source: str, label: str, target: str) -> None:
        self.out.setdefault(label, {}).setdefault(source, set()).add(target)
        self.inn.setdefault(label, {}).setdefault(target, set()).add(source)

    def _step(self, nodes, label: str, backward: bool = False) -> set:
        table = (self.inn if backward else self.out).get(label, {})
        found: set = set()
        for node in nodes:
            found |= table.get(node, set())
        return found

    def _plus(self, nodes, label: str) -> set:
        seen: set = set()
        frontier = self._step(nodes, label)
        while frontier:
            seen |= frontier
            frontier = self._step(frontier, label) - seen
        return seen

    def targets(self, name: str, source: str) -> set:
        if name == "friends-of-friends":
            return self._step(self._step({source}, "knows"), "knows")
        if name == "reachable":
            return self._plus({source}, "knows")
        if name == "colleagues":
            return self._step(self._step({source}, "worksAt"), "worksAt", backward=True)
        if name == "region":
            return self._plus(self._step({source}, "livesIn"), "partOf")
        if name == "co-knowers":
            return self._step(self._step({source}, "knows"), "knows", backward=True)
        if name == "network-employers":
            return self._step({source} | self._plus({source}, "knows"), "worksAt")
        raise KeyError(name)


def encode_frames(pairs, deadline_ms: float | None = None) -> bytes:
    """The exact bytes a run sends for *pairs* (used by the tests)."""
    return b"".join(
        (json.dumps(pair.frame(f"m-{i}", deadline_ms), sort_keys=True) + "\n").encode()
        for i, pair in enumerate(pairs)
    )
