"""Tests of the benchmark's inputs and references (no engine involved).

    python3 -m pytest perfbench/test_inputs.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import inputs  # noqa: E402

COLD_ITEMS = 600


def _cold(seed: int) -> list[inputs.Pair]:
    return list(itertools.islice(inputs.cold_pairs(seed), COLD_ITEMS))


def _eval_bytes(seed: int) -> bytes:
    data = inputs.eval_inputs(seed, people=200, ops=500, write_every=10)
    return json.dumps([data.edges, data.ops]).encode()


def _digest(seed: int) -> str:
    """One hash over every workload's inputs for *seed*."""
    digest = hashlib.sha256()
    digest.update(inputs.encode_frames(_cold(seed), 150.0))
    digest.update(inputs.encode_frames(inputs.hot_pairs(seed, 300)))
    digest.update(_eval_bytes(seed))
    return digest.hexdigest()


def _digest_in_process(seed: int, hash_seed: str) -> str:
    """``_digest(seed)`` computed by a fresh interpreter with *hash_seed*."""
    code = ("import sys; sys.path[:0] = [sys.argv[1]]; "
            "from perfbench import test_inputs; "
            "print(test_inputs._digest(int(sys.argv[2])))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", code, ROOT, str(seed)], env=env,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_one_seed_gives_byte_identical_inputs():
    # Separate interpreters with different hash seeds: set and dict order
    # must not leak into the inputs.
    assert _digest_in_process(3, "1") == _digest_in_process(3, "2") == _digest(3)


def test_another_seed_gives_other_inputs():
    assert inputs.encode_frames(_cold(3)) != inputs.encode_frames(_cold(4))
    assert inputs.encode_frames(inputs.hot_pairs(3, 300)) != inputs.encode_frames(
        inputs.hot_pairs(4, 300))
    assert _eval_bytes(3) != _eval_bytes(4)


def test_cold_stream_never_repeats_and_keeps_its_mix():
    pairs = _cold(5)
    assert len({(p.left, p.right) for p in pairs}) == len(pairs)
    for start in range(0, COLD_ITEMS, len(inputs.CYCLE)):
        kinds = [p.kind for p in pairs[start:start + len(inputs.CYCLE)]]
        assert kinds == list(inputs.CYCLE)


def test_no_holds_pair_has_a_witness_that_re_accepts():
    matcher = inputs.Matcher()
    rng = random.Random(0)
    checked = 0
    for seed in range(3):
        for pair in _cold(seed):
            if pair.expected != "holds" or pair.left_ast is None:
                continue
            for _ in range(30):
                word = inputs.sample_word(rng, pair.left_ast)
                assert matcher.accepts(pair.right_ast, word), (pair, word)
            checked += 1
    assert checked > 300


def test_refuted_pairs_carry_their_justification():
    matcher = inputs.Matcher()
    for pair in _cold(1):
        if pair.expected != "refuted":
            continue
        rule, _, detail = pair.reason.partition(":")
        if rule == "witness":
            word = tuple(detail.split())
            assert matcher.accepts(pair.left_ast, word)
            assert not matcher.accepts(pair.right_ast, word)
        elif rule == "fresh-letter":
            right_letters = {inputs.base_letter(symbol)
                             for symbol in pair.right.split(":", 1)[1]
                             .replace("(", " ").replace(")", " ").replace("|", " ")
                             .replace("*", " ").replace("+", " ").replace("?", " ").split()}
            assert detail not in right_letters
        elif rule == "word":
            assert not matcher.accepts(pair.right_ast, tuple(detail.split()))
        else:
            assert rule == "blowup" and pair.left != pair.right


def test_q_qinv_q_spells_the_inverse_letter_by_letter():
    query = ("cat", (("sym", "a"), ("star", ("alt", ("b", "c-"))), ("plus", ("sym", "d"))))
    assert inputs.render(inputs.invert(query)) == "d-+ (b-|c)* a-"
    assert inputs.invert(inputs.invert(query)) == query


def test_reference_graph_queries_by_hand():
    graph = inputs.ReferenceGraph([
        ("p0", "knows", "p1"), ("p1", "knows", "p2"), ("p2", "knows", "p0"),
        ("p0", "worksAt", "o0"), ("p3", "worksAt", "o0"), ("p1", "worksAt", "o1"),
        ("p0", "livesIn", "c0"), ("c0", "partOf", "k0"), ("k0", "partOf", "k1"),
    ])
    assert graph.targets("friends-of-friends", "p0") == {"p2"}
    assert graph.targets("reachable", "p0") == {"p0", "p1", "p2"}
    assert graph.targets("colleagues", "p0") == {"p0", "p3"}
    assert graph.targets("region", "p0") == {"k0", "k1"}
    assert graph.targets("co-knowers", "p0") == {"p0"}
    assert graph.targets("network-employers", "p3") == {"o0"}
    assert graph.targets("network-employers", "p0") == {"o0", "o1"}
