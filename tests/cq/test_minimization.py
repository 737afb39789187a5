"""Tests for CQ core computation (minimization)."""

from repro.core.engine import check_equivalence
from repro.cq.minimization import is_minimal, minimize_cq
from repro.cq.syntax import cq_from_strings


class TestMinimize:
    def test_redundant_sibling_atom_removed(self):
        redundant = cq_from_strings("x", ["E(x,y)", "E(x,z)"])
        core = minimize_cq(redundant)
        assert len(core.body) == 1
        assert check_equivalence(core, redundant)

    def test_already_minimal_untouched(self):
        path2 = cq_from_strings("x,z", ["E(x,y)", "E(y,z)"])
        assert minimize_cq(path2) == path2
        assert is_minimal(path2)

    def test_cycle_folds_onto_smaller_cycle(self):
        """A 6-cycle body with a 3-cycle core (classic example)."""
        six = cq_from_strings(
            "",
            ["E(a,b)", "E(b,c)", "E(c,d)", "E(d,e)", "E(e,f)", "E(f,a)",
             "E(a,d)", "E(d,a)"],  # chords making it fold to the 2-cycle
        )
        core = minimize_cq(six)
        assert len(core.body) < len(six.body)
        assert check_equivalence(core, six)

    def test_head_variables_protected(self):
        """Atoms carrying the only occurrence of a head variable stay."""
        cq = cq_from_strings("x,z", ["E(x,y)", "E(y,z)", "E(x,w)"])
        core = minimize_cq(cq)
        head_vars = set(core.head_vars)
        body_vars = {v for atom in core.body for v in atom.variables()}
        assert head_vars <= body_vars
        assert check_equivalence(core, cq)

    def test_core_is_unique_in_size(self):
        """Minimizing twice (or from different orders) gives the same size."""
        cq = cq_from_strings("x", ["E(x,y)", "E(x,z)", "E(z,w)", "E(y,u)"])
        once = minimize_cq(cq)
        twice = minimize_cq(once)
        assert len(once.body) == len(twice.body)

    def test_ucq_minimization_prunes_and_preserves(self):
        from repro.cq.minimization import minimize_ucq
        from repro.cq.syntax import UCQ
        from repro.cq.evaluation import evaluate_ucq
        from repro.relational.generators import random_instance

        union = UCQ(
            (
                cq_from_strings("x,y", ["E(x,y)"]),
                cq_from_strings("x,y", ["E(x,y)", "E(x,w)"]),
                cq_from_strings("x,z", ["E(x,y)", "E(y,z)"]),
            )
        )
        pruned = minimize_ucq(union)
        assert len(pruned) == 2
        for seed in range(3):
            db = random_instance({"E": 2}, 5, 9, seed=seed)
            assert evaluate_ucq(union, db) == evaluate_ucq(pruned, db)

    def test_ucq_minimization_keeps_one_of_equivalent_pair(self):
        from repro.cq.minimization import minimize_ucq
        from repro.cq.syntax import UCQ

        union = UCQ(
            (
                cq_from_strings("x", ["E(x,y)"]),
                cq_from_strings("x", ["E(x,z)"]),
            )
        )
        assert len(minimize_ucq(union)) == 1

    def test_minimization_preserves_semantics_on_instances(self):
        from repro.cq.evaluation import evaluate_cq
        from repro.relational.generators import random_instance

        cq = cq_from_strings("x", ["E(x,y)", "E(x,z)", "E(z,u)"])
        core = minimize_cq(cq)
        for seed in range(4):
            db = random_instance({"E": 2}, 5, 10, seed=seed)
            assert evaluate_cq(cq, db) == evaluate_cq(core, db)
