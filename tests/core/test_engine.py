"""Tests for the unified containment engine."""

import pytest

from repro.automata.antichain import resolve_kernel
from repro.budget import Budget
from repro.core.engine import check_containment, check_equivalence
from repro.core.witness import verify_counterexample
from repro.cq.syntax import UCQ, cq_from_strings
from repro.crpq.syntax import C2RPQ, paper_example_1
from repro.datalog.parser import parse_program
from repro.datalog.syntax import transitive_closure_program
from repro.report import Verdict
from repro.rpq.containment import rpq_contained, two_rpq_contained
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

    def test_cross_tower_pair_passes_the_front_door_once(self):
        from repro.cache import cache_stats, clear_caches
        from repro.obs.metrics import metrics_snapshot

        def delta(name, field="value"):
            return after.get(name, {}).get(field, 0) - before.get(name, {}).get(field, 0)

        def spans_named(tree, name):
            own = 1 if tree["name"] == name else 0
            return own + sum(spans_named(c, name) for c in tree.get("children", ()))

        clear_caches()
        tc = transitive_closure_program("a", "tc")
        before = metrics_snapshot()
        result = check_containment(RPQ.parse("a a"), tc, trace=True)
        after = metrics_snapshot()
        assert result.verdict is Verdict.HOLDS
        assert delta("engine.checks") == 1
        assert delta("engine.check_ms", "count") == 1
        assert delta("engine.verdict.holds") == 1
        assert delta("cache.containment.misses") == 1
        assert cache_stats()["containment"]["size"] == 1
        tree = result.details["trace"]
        assert spans_named(tree, "check-containment") == 1
        assert tree["tags"] == {
            "q1_class": "RPQ", "q2_class": "GRQ", "common_class": "GRQ"
        }
        # What the pass cached carries no trace for a later hit to return.
        again = check_containment(RPQ.parse("a a"), tc)
        assert again.details["cache"] == "hit" and "trace" not in again.details

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
        # The engine always runs the Shepherdson fold and takes no
        # method; the 2RPQ tower still forwards the one it is given.
        q1, q2 = TwoRPQ.parse("p"), TwoRPQ.parse("p p- p")
        assert check_containment(q1, q2).method == "2rpq-fold-shepherdson"
        result = two_rpq_contained(q1, q2, method="lemma4-onthefly")
        assert result.method == "2rpq-fold-lemma4-onthefly"
        with pytest.raises(TypeError, match="method"):
            check_containment(q1, q2, method="lemma4-onthefly")

    def test_expansion_budget_option(self):
        tc = transitive_closure_program("e", "tc")
        result = check_containment(tc, tc, budget=Budget(max_expansions=5))
        assert result.details["expansions_checked"] <= 5


def _class_matrix():
    """One containment pair per query class, with any budget it needs."""
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
        q1, q2, kwargs = _class_matrix()[label]
        if budget is not None:
            kwargs = {**kwargs, "budget": budget}
        result = check_containment(q1, q2, **kwargs)
        assert "cache" in result.details, label
        assert "budget" in result.details, label
        assert "spend" in result.details["budget"], label


class TestKernelDetails:
    """Every engine result reports the kernel the engine selected."""

    #: Classes whose dispatch actually runs a language-inclusion search;
    #: the rest select nothing.
    SEARCHING = {"rpq": rpq_contained, "2rpq": two_rpq_contained}

    @pytest.mark.parametrize("label", list(_class_matrix()))
    @pytest.mark.parametrize("kernel", ["subset", "antichain", "auto"])
    def test_kernel_details_matrix(self, label, kernel):
        # The kernel is a tower parameter: a searching class's tower
        # reports the kernel it resolved and its counters, and gives the
        # engine's verdict.  The other classes take a kernel nowhere,
        # and the engine's result selects none.
        from repro.cache import clear_caches

        clear_caches()
        q1, q2, kwargs = _class_matrix()[label]
        engine = check_containment(q1, q2, **kwargs)
        if label in self.SEARCHING:
            clear_caches()
            result = self.SEARCHING[label](q1, q2, kernel=kernel, **kwargs)
            info = result.details["kernel"]
            assert info["selected"] == resolve_kernel(kernel), label
            assert info["configs"] >= 0, label
            assert result.verdict is engine.verdict, label
        else:
            assert engine.details["kernel"] == {"selected": None}, label

    @pytest.mark.parametrize("label", list(_class_matrix()))
    def test_kernel_defaults_to_auto(self, label):
        # The engine takes no kernel: it runs what ``auto`` resolves to
        # and reports only that choice.
        from repro.cache import clear_caches

        clear_caches()
        q1, q2, kwargs = _class_matrix()[label]
        result = check_containment(q1, q2, **kwargs)
        info = result.details["kernel"]
        assert "requested" not in info, label
        if label in self.SEARCHING:
            assert info["selected"] == resolve_kernel("auto") == "antichain", label
            assert info["configs"] >= 0, label
        else:
            assert info == {"selected": None}, label

    def test_unknown_kernel_rejected_eagerly(self):
        # A kernel typo fails in the caller's frame: the towers reject
        # the value, and the engine rejects the keyword itself.
        with pytest.raises(ValueError, match="unknown kernel"):
            rpq_contained(RPQ.parse("a"), RPQ.parse("a"), kernel="bogus")
        with pytest.raises(ValueError, match="unknown kernel"):
            two_rpq_contained(TwoRPQ.parse("a"), TwoRPQ.parse("a"), kernel="bogus")
        with pytest.raises(TypeError, match="kernel"):
            check_containment(RPQ.parse("a"), RPQ.parse("a"), kernel="bogus")

    def test_cache_hits_inherit_kernel_details(self):
        from repro.cache import clear_caches

        clear_caches()
        q1, q2 = RPQ.parse("a a"), RPQ.parse("a+")
        cold = check_containment(q1, q2)
        warm = check_containment(q1, q2)
        assert cold.details["cache"] == "miss"
        assert warm.details["cache"] == "hit"
        assert warm.details["kernel"] == cold.details["kernel"]
        assert warm.details["kernel"]["selected"] == "antichain"

    def test_subset_and_antichain_verdicts_agree_across_matrix(self):
        # The kernels are a tower parameter: each searching tower gives
        # the same verdict under both, and the engine's verdict with it.
        from repro.cache import clear_caches

        for label, tower in self.SEARCHING.items():
            q1, q2, _ = _class_matrix()[label]
            clear_caches()
            verdicts = {"engine": check_containment(q1, q2).verdict}
            for kernel in ("subset", "antichain"):
                clear_caches()
                result = tower(q1, q2, kernel=kernel)
                assert result.details["kernel"]["selected"] == kernel, label
                assert result.details["kernel"]["configs"] >= 0, label
                verdicts[kernel] = result.verdict
            assert len(set(verdicts.values())) == 1, (label, verdicts)

    def test_inconclusive_escalation_result_carries_kernel(self):
        # A zero deadline spends the escalation budget before round 0:
        # the engine fabricates the INCONCLUSIVE result itself, which
        # must carry the kernel key like every other result.
        tc = transitive_closure_program("e", "tc")
        result = check_containment(tc, tc, budget=Budget.auto(deadline_ms=0.0))
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.details["kernel"] == {"selected": None}

    def test_bounded_rpq_result_carries_kernel(self):
        q1 = RPQ.parse("(a|b)* a (a|b) (a|b) (a|b)")
        q2 = RPQ.parse("(a|b)* a (a|b) (a|b) (a|b) (a|b)")
        result = check_containment(q1, q2, budget=Budget(max_configs=2))
        assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
        info = result.details["kernel"]
        assert "requested" not in info
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
        "rpq": {"compile", "emptiness-search"},
        "2rpq": {"compile", "fold", "product-search"},
        "uc2rpq": {"disjunct-expansions"},
        "rq": {"translate-datalog", "expansion-loop"},
        "datalog": {"grq-membership", "expansion-loop"},
    }

    @pytest.mark.parametrize("label", list(_class_matrix()))
    def test_trace_covers_the_pipeline_stages(self, label):
        from repro.cache import clear_caches
        from repro.obs.export import flatten_trace

        clear_caches()  # a cache hit would (correctly) skip the tower stages
        q1, q2, kwargs = _class_matrix()[label]
        result = check_containment(q1, q2, trace=True, **kwargs)
        tree = result.details["trace"]
        assert tree["name"] == "check-containment"
        names = {key.rsplit("/", 1)[-1].split("#")[0] for key in flatten_trace(tree)}
        assert self.STAGES[label] <= names, (label, sorted(names))
        assert any(e["name"] == "cache" for e in tree.get("events", ()))
        assert tree["tags"]["q1_class"]

    def test_each_side_compiles_in_a_tagged_span(self):
        from repro.cache import clear_caches

        clear_caches()
        window = " ".join(["(a|b)"] * 6)
        q1, q2 = RPQ.parse("a b*"), RPQ.parse(f"(a|b)* a {window}")
        tree = check_containment(q1, q2, trace=True).details["trace"]
        spans = [child for child in tree["children"] if child["name"] == "compile"]
        assert [span["tags"]["capped"] for span in spans] == [False, True]
        small, blowup = (span["tags"] for span in spans)
        assert small["cache"] == "miss" and small["dfa_states"] >= 1
        assert blowup["dfa_states"] is None and blowup["states"] == blowup["nfa_states"]
        again = check_containment(q2, q1, trace=True).details["trace"]
        tags = [c["tags"] for c in again["children"] if c["name"] == "compile"]
        assert [tag["cache"] for tag in tags] == ["hit", "hit"]

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
