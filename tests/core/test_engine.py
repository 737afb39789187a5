"""Tests for the unified containment engine."""

import pytest

from repro.budget import Budget
from repro.core.engine import check_containment, check_equivalence
from repro.core.witness import verify_counterexample
from repro.cq.syntax import UCQ, cq_from_strings
from repro.crpq.syntax import C2RPQ, paper_example_1
from repro.datalog.parser import parse_program
from repro.datalog.syntax import transitive_closure_program
from repro.report import Verdict
from repro.rpq.rpq import RPQ, TwoRPQ
from repro.rq.syntax import TransitiveClosure, edge, triangle_plus


class TestSameClassDispatch:
    def test_rpq_pair(self):
        result = check_containment(RPQ.parse("a a"), RPQ.parse("a+"))
        assert result.method == "rpq-language" and result.holds

    def test_two_rpq_pair(self):
        result = check_containment(TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"))
        assert result.method.startswith("2rpq-fold") and result.holds

    def test_one_way_pair_of_two_rpqs_uses_lemma1(self):
        result = check_containment(TwoRPQ.parse("a"), TwoRPQ.parse("a|b"))
        assert result.method == "rpq-language"

    def test_uc2rpq_pair(self):
        triangle, union = paper_example_1()
        assert check_containment(triangle, union).holds
        assert not check_containment(union, triangle).holds

    def test_rq_pair(self):
        result = check_containment(edge("e", "x", "y"), TransitiveClosure(edge("e", "x", "y")))
        assert result.verdict is Verdict.HOLDS

    def test_cq_pair(self):
        small = cq_from_strings("x", ["e(x,y)", "e(y,z)"])
        big = cq_from_strings("x", ["e(x,y)"])
        assert check_containment(small, big).method == "ucq-homomorphism"
        assert not check_containment(big, small).holds

    def test_grq_pair(self):
        left = transitive_closure_program("edge", "tc")
        right = transitive_closure_program("edge", "tc", left_linear=False)
        result = check_containment(left, right, budget=Budget(max_expansions=25))
        assert result.method == "grq-expansion" and result.holds

    def test_general_datalog_pair(self):
        nonlinear = parse_program(
            """
            t(x, y) :- e(x, y).
            t(x, z) :- t(x, y), t(y, z).
            """
        )
        linear = parse_program(
            """
            t(x, y) :- e(x, y).
            t(x, z) :- t(x, y), e(y, z).
            """
        )
        result = check_containment(nonlinear, linear, budget=Budget(max_expansions=25))
        assert result.method == "expansion-vs-evaluation" and result.holds


class TestMixedClassDispatch:
    def test_rpq_vs_rq(self):
        result = check_containment(TwoRPQ.parse("r r"), triangle_plus())
        assert result.verdict is Verdict.REFUTED
        assert verify_counterexample(TwoRPQ.parse("r r"), triangle_plus(), result)

    def test_two_rpq_vs_uc2rpq(self):
        triangle, _ = paper_example_1()
        single = TwoRPQ.parse("r")
        # triangle ⊑ r (an r-edge from x to y is part of the pattern).
        assert check_containment(triangle, single).holds

    def test_graph_query_vs_datalog(self):
        tc = transitive_closure_program("e", "tc")
        assert check_containment(TwoRPQ.parse("e e"), tc).holds
        result = check_containment(
            tc, TwoRPQ.parse("e e"), budget=Budget(max_expansions=15)
        )
        assert result.verdict is Verdict.REFUTED

    def test_cq_vs_datalog(self):
        tc = transitive_closure_program("e", "tc")
        path2 = cq_from_strings("x,z", ["e(x,y)", "e(y,z)"])
        assert check_containment(path2, tc).verdict is Verdict.HOLDS
        result = check_containment(tc, path2, budget=Budget(max_expansions=15))
        assert result.verdict is Verdict.REFUTED

    def test_ucq_vs_nonrecursive_program(self):
        program = parse_program("p(x, z) :- e(x, y), e(y, z).")
        path2 = cq_from_strings("x,z", ["e(x,y)", "e(y,z)"])
        assert check_containment(UCQ((path2,)), program).holds
        assert check_containment(program, UCQ((path2,))).verdict is Verdict.HOLDS


class TestEquivalence:
    def test_equivalent_rpqs(self):
        assert check_equivalence(RPQ.parse("a a*"), RPQ.parse("a+"))

    def test_inequivalent(self):
        assert not check_equivalence(RPQ.parse("a"), RPQ.parse("a+"))


class TestOptionsForwarding:
    def test_method_option(self):
        result = check_containment(
            TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), method="lemma4-onthefly"
        )
        assert result.method == "2rpq-fold-lemma4-onthefly"

    def test_expansion_budget_option(self):
        tc = transitive_closure_program("e", "tc")
        result = check_containment(tc, tc, budget=Budget(max_expansions=5))
        assert result.details["expansions_checked"] <= 5


def _class_matrix():
    """One containment pair per query class, with any arguments it needs."""
    triangle, union = paper_example_1()
    return {
        "rpq": (RPQ.parse("a a"), RPQ.parse("a+"), {}),
        "2rpq": (TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), {}),
        "uc2rpq": (triangle, union, {}),
        "rq": (
            edge("e", "x", "y"),
            TransitiveClosure(edge("e", "x", "y")),
            {},
        ),
        "datalog": (
            transitive_closure_program("e", "tc"),
            transitive_closure_program("e", "tc", left_linear=False),
            {"budget": Budget(max_expansions=25)},
        ),
    }


class TestDetailsNormalization:
    """Every engine result carries both ``cache`` and ``budget`` keys."""

    @pytest.mark.parametrize("label", list(_class_matrix()))
    @pytest.mark.parametrize(
        "budget", [None, Budget(max_expansions=50)], ids=["no-budget", "budget"]
    )
    def test_details_carry_cache_and_budget(self, label, budget):
        q1, q2, options = _class_matrix()[label]
        if budget is not None:
            options = {**options, "budget": budget}
        result = check_containment(q1, q2, **options)
        assert "cache" in result.details, label
        assert "budget" in result.details, label
        assert "spend" in result.details["budget"], label


class TestKernelDetails:
    """Every engine result reports the requested/selected kernel."""

    #: Classes whose dispatch actually runs a language-inclusion search;
    #: the rest accept the option for uniformity and select nothing.
    SEARCHING = {"rpq", "2rpq"}

    @pytest.mark.parametrize("label", list(_class_matrix()))
    @pytest.mark.parametrize("kernel", ["subset", "antichain", "auto"])
    def test_kernel_details_matrix(self, label, kernel):
        from repro.cache import clear_caches

        clear_caches()
        q1, q2, options = _class_matrix()[label]
        result = check_containment(q1, q2, kernel=kernel, **options)
        info = result.details["kernel"]
        assert info["requested"] == kernel, label
        if label in self.SEARCHING:
            expected = "antichain" if kernel == "auto" else kernel
            assert info["selected"] == expected, label
            assert info["configs"] >= 0, label
        else:
            assert info["selected"] is None, label

    @pytest.mark.parametrize("label", list(_class_matrix()))
    def test_kernel_defaults_to_auto(self, label):
        from repro.cache import clear_caches

        clear_caches()
        q1, q2, options = _class_matrix()[label]
        result = check_containment(q1, q2, **options)
        assert result.details["kernel"]["requested"] == "auto", label

    def test_cache_hits_inherit_kernel_details(self):
        from repro.cache import clear_caches

        clear_caches()
        q1, q2 = RPQ.parse("a a"), RPQ.parse("a+")
        cold = check_containment(q1, q2, kernel="antichain")
        warm = check_containment(q1, q2, kernel="antichain")
        assert cold.details["cache"] == "miss"
        assert warm.details["cache"] == "hit"
        assert warm.details["kernel"] == cold.details["kernel"]

    def test_cached_results_are_keyed_by_kernel(self):
        from repro.cache import clear_caches

        clear_caches()
        q1, q2 = RPQ.parse("a a"), RPQ.parse("a+")
        anti = check_containment(q1, q2, kernel="antichain")
        sub = check_containment(q1, q2, kernel="subset")
        assert anti.verdict == sub.verdict
        # A subset request must never be served a cached antichain
        # result (its kernel stats would lie about what ran).
        assert sub.details["kernel"]["selected"] == "subset"

    def test_unknown_kernel_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            check_containment(RPQ.parse("a"), RPQ.parse("a"), kernel="bogus")

    def test_subset_and_antichain_verdicts_agree_across_matrix(self):
        from repro.cache import clear_caches

        for label, (q1, q2, options) in _class_matrix().items():
            verdicts = {}
            for kernel in ("subset", "antichain"):
                clear_caches()
                verdicts[kernel] = check_containment(
                    q1, q2, kernel=kernel, **options
                ).verdict
            assert verdicts["subset"] == verdicts["antichain"], label

    def test_inconclusive_escalation_result_carries_kernel(self):
        # A zero deadline spends the escalation budget before round 0:
        # the engine fabricates the INCONCLUSIVE result itself, which
        # must carry the kernel key like every other result.
        tc = transitive_closure_program("e", "tc")
        result = check_containment(
            tc, tc, budget=Budget.auto(deadline_ms=0.0), kernel="antichain"
        )
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.details["kernel"]["requested"] == "antichain"
        assert result.details["kernel"]["selected"] is None

    def test_bounded_rpq_result_carries_kernel(self):
        q1 = RPQ.parse("(a|b)* a (a|b) (a|b) (a|b)")
        q2 = RPQ.parse("(a|b)* a (a|b) (a|b) (a|b) (a|b)")
        result = check_containment(
            q1, q2, budget=Budget(max_configs=2), kernel="antichain"
        )
        info = result.details["kernel"]
        assert info["requested"] == "antichain"
        assert info["selected"] == "antichain"


class TestLongRegexes:
    """Long words and alternations check, twice: the second run's cache
    lookup compares two separately parsed (deep) query keys."""

    @pytest.mark.parametrize(
        "text,verdict",
        [
            (" ".join(["a"] * 1000), Verdict.REFUTED),
            ("|".join(["a"] * 1000), Verdict.HOLDS),
            ("a" + "*" * 1000, Verdict.REFUTED),
            ("(" * 1000 + "a" + ")" * 1000, Verdict.HOLDS),
        ],
        ids=["word", "alternatives", "stacked-stars", "parentheses"],
    )
    def test_checks_from_fresh_parses(self, text, verdict):
        for _ in range(2):
            assert check_containment(RPQ.parse(text), RPQ.parse("a")).verdict is verdict


class TestTracing:
    """``trace=True`` returns a span tree covering every pipeline stage."""

    STAGES = {
        "rpq": {"emptiness-search"},
        "2rpq": {"fold", "product-search"},
        "uc2rpq": {"disjunct-expansions"},
        "rq": {"translate-datalog", "expansion-loop"},
        "datalog": {"grq-membership", "expansion-loop"},
    }

    @pytest.mark.parametrize("label", list(_class_matrix()))
    def test_trace_covers_the_pipeline_stages(self, label):
        from repro.cache import clear_caches
        from repro.obs.export import flatten_trace

        clear_caches()  # a cache hit would (correctly) skip the tower stages
        q1, q2, options = _class_matrix()[label]
        result = check_containment(q1, q2, trace=True, **options)
        tree = result.details["trace"]
        assert tree["name"] == "check-containment"
        names = {key.rsplit("/", 1)[-1].split("#")[0] for key in flatten_trace(tree)}
        assert self.STAGES[label] <= names, (label, sorted(names))
        assert any(e["name"] == "cache" for e in tree.get("events", ()))
        assert tree["tags"]["q1_class"]

    def test_trace_is_never_cached(self):
        from repro.cache import clear_caches

        clear_caches()
        q1, q2 = RPQ.parse("a"), RPQ.parse("a|b")
        traced = check_containment(q1, q2, trace=True)
        assert traced.details["trace"] is not None
        cached = check_containment(q1, q2)
        assert "trace" not in cached.details
        assert cached.details["cache"] == "hit"

    def test_trace_false_adds_no_trace_key(self):
        result = check_containment(RPQ.parse("a"), RPQ.parse("a|b"))
        assert "trace" not in result.details

    def test_caller_supplied_tracer_is_reused(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        check_containment(RPQ.parse("a a"), RPQ.parse("a+"), trace=tracer)
        assert tracer.root is not None
        assert tracer.root.name == "check-containment"
