"""The indexed join against the brute-force relational oracle.

``tests/oracles/relational.py`` answers a CQ by trying every assignment
over the active domain, and a Datalog program by a naive fixpoint built
on that.  Random CQs draw repeated variables, constants, repeated head
variables, an empty declared predicate and an undeclared one; random
instances are built in two halves with the join run between them, so
every check after the second half reads indexes built before it.
``evaluate_cq``, ``satisfies``, ``bindings``, ``homomorphism_to_instance``,
``seminaive_evaluate`` and ``naive_evaluate`` must all agree with the
oracle.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from hypothesis import given, settings, strategies as st

from repro.cq.evaluation import bindings, evaluate_cq, satisfies
from repro.cq.homomorphism import homomorphism_to_instance
from repro.cq.syntax import CQ, Atom, Var
from repro.datalog.evaluation import naive_evaluate, seminaive_evaluate
from repro.datalog.syntax import Program, Rule
from repro.relational.instance import Instance
from tests.oracles import relational as oracle

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

#: EDB predicates and arities; ``Empty`` is declared with no rows and
#: ``Missing`` is never declared.
EDB = {"P": 2, "Q": 1, "R": 3, "Empty": 2, "Missing": 2}
DOMAIN = (0, 1, 2)
VARIABLES = tuple(Var(name) for name in "xyzw")

_term = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(DOMAIN + (7,)))


@st.composite
def _atom(draw, predicates: dict[str, int]) -> Atom:
    predicate = draw(st.sampled_from(sorted(predicates)))
    return Atom(predicate, tuple(draw(_term) for _ in range(predicates[predicate])))


@st.composite
def _cq(draw) -> CQ:
    body = tuple(draw(st.lists(_atom(EDB), min_size=1, max_size=4)))
    variables = sorted({var for atom in body for var in atom.variables()})
    head = draw(st.lists(st.sampled_from(variables), max_size=3)) if variables else []
    return CQ(tuple(head), body)


_fact = st.one_of(
    *(
        st.tuples(st.just(predicate), st.tuples(*[st.sampled_from(DOMAIN)] * arity))
        for predicate, arity in EDB.items()
        if predicate in ("P", "Q", "R")
    )
)
_facts = st.lists(_fact, max_size=14)


def _instance(facts) -> Instance:
    instance = Instance.from_facts(facts)
    instance.declare("Empty", 2)
    return instance


def _grow(instance: Instance, facts) -> Instance:
    for predicate, row in facts:
        instance.add(predicate, row)
    return instance


def _assert_join_agrees(cq: CQ, instance: Instance) -> None:
    expected = oracle.evaluate_cq(cq, instance)
    assert evaluate_cq(cq, instance) == expected
    variables = sorted(cq.variables())
    assert Counter(
        tuple(binding[var] for var in variables) for binding in bindings(cq, instance)
    ) == Counter(
        tuple(assignment[var] for var in variables)
        for assignment in oracle.assignments(cq.body, instance)
    )
    for head in product(DOMAIN + (7,), repeat=cq.arity):
        assert satisfies(cq, instance, head) == (head in expected)
        mapping = homomorphism_to_instance(cq, instance, head)
        if head not in expected:
            assert mapping is None
            continue
        assert mapping is not None
        assert tuple(mapping[var] for var in cq.head_vars) == head
        for atom in cq.body:
            image = tuple(mapping[arg] if isinstance(arg, Var) else arg for arg in atom.args)
            assert (atom.predicate, image) in instance


@SETTINGS
@given(_cq(), _facts, _facts)
def test_cq_join_agrees_with_the_oracle(cq, before, after):
    instance = _instance(before)
    _assert_join_agrees(cq, instance)
    _assert_join_agrees(cq, _grow(instance, after))


#: IDB predicates and arities for random programs.
IDB = {"T": 2, "U": 1}


@st.composite
def _rule(draw, head: str) -> Rule:
    body = tuple(draw(st.lists(_atom({**EDB, **IDB}), min_size=1, max_size=3)))
    variables = sorted({var for atom in body for var in atom.variables()})
    args = [
        draw(st.sampled_from(variables)) if variables and draw(st.booleans())
        else draw(st.sampled_from(DOMAIN))
        for _ in range(IDB[head])
    ]
    return Rule(Atom(head, tuple(args)), body)


@st.composite
def _program(draw) -> Program:
    rules = [draw(_rule("T"))]
    rules += draw(st.lists(st.one_of(_rule("T"), _rule("U")), max_size=3))
    return Program(tuple(rules), "T")


@SETTINGS
@given(_program(), _facts)
def test_datalog_fixpoints_agree_with_the_oracle(program, facts):
    edb = _instance(facts)
    expected = oracle.fixpoint(program, edb)
    assert seminaive_evaluate(program, edb) == expected
    assert naive_evaluate(program, edb) == expected

