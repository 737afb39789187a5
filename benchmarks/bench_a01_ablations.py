"""A1 — ablations of the implementation's own design choices.

Three switches DESIGN.md calls out, each measured on/off:

1. **NFA reduction before folding** (Theorem 5 pipeline): Thompson
   automata carry 2-4x redundant states, and the downstream
   constructions are exponential in state count.
2. **Head-projection pruning in CQ evaluation**: once the head variables
   are bound and the tuple is known, the remaining subtree is witness
   search, not enumeration.
3. **RQ algebraic simplification** before evaluation/containment.
"""

import random
import statistics
import time

from repro.automata.dfa import reduce_nfa
from repro.automata.fold import fold_two_nfa
from repro.automata.regex import random_regex
from repro.automata.shepherdson import LazyShepherdsonComplement
from repro.automata.onthefly import find_accepted_word
from repro.automata.alphabet import Alphabet
from repro.cq.evaluation import bindings, evaluate_cq
from repro.cq.syntax import cq_from_strings
from repro.relational.generators import random_instance
from repro.rq.evaluation import evaluate_rq
from repro.rq.generators import random_rq
from repro.rq.optimize import simplify
from repro.graphdb.generators import random_graph


def test_a1_nfa_reduction(benchmark, report, once_benchmark):
    """Theorem 5 pipeline with raw Thompson NFAs vs reduced NFAs."""
    rng = random.Random(9)
    sigma_pm = Alphabet(("a", "b")).two_way
    pairs = [
        (
            random_regex(rng, ("a", "b"), 2, allow_inverse=True),
            random_regex(rng, ("a", "b"), 2, allow_inverse=True),
        )
        for _ in range(8)
    ]

    def run():
        rows = []
        for reduce in (False, True):
            times = []
            fold_states = []
            for r1, r2 in pairs:
                n1 = reduce_nfa(r1.to_nfa()) if reduce else r1.to_nfa().trim()
                n2 = reduce_nfa(r2.to_nfa()) if reduce else r2.to_nfa().trim()
                if n1.num_states == 0 or n2.num_states == 0:
                    continue
                folded = fold_two_nfa(n2, sigma_pm)
                fold_states.append(folded.num_states)
                start = time.perf_counter()
                find_accepted_word(
                    [n1, LazyShepherdsonComplement(folded)], sigma_pm
                )
                times.append(time.perf_counter() - start)
            rows.append(
                [
                    "reduced" if reduce else "raw Thompson",
                    f"{statistics.mean(fold_states):.1f}",
                    f"{statistics.median(times) * 1000:.2f}",
                ]
            )
        return rows

    rows = once_benchmark(benchmark, run)
    report(
        "A1",
        "Theorem 5 pipeline: NFA reduction ablation",
        ["input automata", "mean fold-2NFA states", "median ms/check"],
        rows,
        note="the constructions downstream are exponential in state count",
    )
    assert float(rows[1][1]) <= float(rows[0][1])


def test_a1_cq_head_pruning(benchmark, report, once_benchmark):
    """evaluate_cq's prune vs raw binding enumeration on redundant CQs."""
    query = cq_from_strings(
        "x,z",
        ["E(x,y)", "E(y,z)", "E(x,u1)", "E(u2,z)", "E(x,u3)", "E(u4,z)"],
    )
    db = random_instance({"E": 2}, 15, 60, seed=4)

    def run():
        start = time.perf_counter()
        pruned = evaluate_cq(query, db)
        pruned_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        naive = frozenset(
            tuple(b[v] for v in query.head_vars) for b in bindings(query, db)
        )
        naive_ms = (time.perf_counter() - start) * 1000
        assert pruned == naive
        return [[len(pruned), f"{pruned_ms:.1f}", f"{naive_ms:.1f}",
                 f"{naive_ms / max(pruned_ms, 1e-9):.1f}x"]]

    rows = once_benchmark(benchmark, run)
    report(
        "A1",
        "CQ evaluation: head-projection pruning ablation",
        ["answers", "pruned ms", "full-enumeration ms", "speedup"],
        rows,
        note="redundant atoms cost a witness check instead of a product",
    )
    assert float(rows[0][3].rstrip("x")) >= 1.0


def test_a1_rq_simplifier(benchmark, report, once_benchmark):
    """Evaluating random RQ terms raw vs simplified."""
    rng = random.Random(21)
    terms = [random_rq(rng, ("a", "b"), 5) for _ in range(30)]
    db = random_graph(6, 14, ("a", "b"), seed=2)

    def run():
        raw_sizes = [t.size() for t in terms]
        simplified = [simplify(t) for t in terms]
        simp_sizes = [t.size() for t in simplified]
        start = time.perf_counter()
        for term in terms:
            evaluate_rq(term, db)
        raw_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        for term in simplified:
            evaluate_rq(term, db)
        simp_ms = (time.perf_counter() - start) * 1000
        return [[
            f"{statistics.mean(raw_sizes):.1f}",
            f"{statistics.mean(simp_sizes):.1f}",
            f"{raw_ms:.1f}",
            f"{simp_ms:.1f}",
        ]]

    rows = once_benchmark(benchmark, run)
    report(
        "A1",
        "RQ simplifier ablation (30 random terms, one graph)",
        ["mean size raw", "mean size simplified", "eval raw ms", "eval simplified ms"],
        rows,
        note="identity rewrites only; gains come from dropped duplicate work",
    )
    assert float(rows[0][1]) <= float(rows[0][0])

