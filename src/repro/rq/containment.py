"""RQ containment (Theorem 7 class) via expansions of the Datalog image.

``Q1 ⊑ Q2`` for regular queries is checked by the same two-ingredient
recipe the paper attributes to [11, 13, 20, 48]: quantify over the
canonical databases of ``Q1`` (here: expansions of its Section 4.1
Datalog translation, which unfold transitive closures into explicit
chains) and decide each instance *exactly* by evaluating ``Q2`` over it.

Contract (DESIGN.md §2): refutations are exact counterexample databases;
positive verdicts are exact (HOLDS) when ``Q1`` uses no transitive
closure — its Datalog image is then nonrecursive, so the expansion space
is finite and exhausted — and HOLDS_UP_TO_BOUND otherwise.  The exact
algorithm is 2EXPSPACE-complete (Theorem 7), which no implementation can
run beyond toy sizes; the bound is the calibrated substitute.
"""

from __future__ import annotations

from ..budget import Budget
from ..obs.trace import maybe_span
from ..report import ContainmentResult, Counterexample
from ..datalog.containment import expansion_containment
from ..relational.instance import instance_to_graph
from .evaluation import satisfies_rq
from .syntax import RQ
from .to_datalog import rq_to_datalog

DEFAULT_EXPANSION_BUDGET = 3000
DEFAULT_APPLICATION_BOUND = 20


def rq_contained(
    q1: RQ,
    q2: RQ,
    budget: Budget | None = None,
    tracer=None,
) -> ContainmentResult:
    """Expansion-based containment check for regular queries.

    Args:
        q1, q2: RQ algebra terms of equal arity.
        budget: optional :class:`repro.budget.Budget`.
            ``max_applications`` bounds rule applications per expansion
            of ``q1``'s Datalog image (each transitive-closure unrolling
            step costs one; default :data:`DEFAULT_APPLICATION_BOUND`)
            and ``max_expansions`` the expansions examined (default
            :data:`DEFAULT_EXPANSION_BUDGET`); both are ignored when
            ``q1`` is TC-free, whose expansion space is finite.  The
            deadline interrupts the enumeration cooperatively
            (structured verdict, no exception).
        tracer: optional :class:`repro.obs.trace.Tracer`; records a
            ``translate-datalog`` span for the Section 4.1 translation
            and an ``expansion-loop`` span counting expansions.
    """
    if q1.arity != q2.arity:
        raise ValueError(
            f"containment between arities {q1.arity} and {q2.arity} is ill-typed"
        )
    with maybe_span(tracer, "translate-datalog") as span:
        program = rq_to_datalog(q1)
        span.annotate(rules=len(program.rules))

    def refute(instance, head) -> Counterexample | None:
        graph = instance_to_graph(instance)
        return None if satisfies_rq(q2, graph, head) else Counterexample(graph, head)

    return expansion_containment(
        program,
        "rq-expansion",
        refute,
        budget,
        default_applications=DEFAULT_APPLICATION_BOUND,
        default_expansions=DEFAULT_EXPANSION_BUDGET,
        tracer=tracer,
    )
