"""Evaluation of CQs and UCQs over relational instances.

The engine is one backtracking join with a greedy atom ordering: at
each step it picks the atom with the most already-bound variables,
breaking ties toward the smallest relation.  That is the textbook
strategy the paper's Select-Project-Join reading of CQs suggests, and it
keeps the exponential worst case confined to genuinely hard (cyclic,
high-arity) queries.

The order fixes which positions of each atom are bound when the search
reaches it, so each atom becomes one step (:func:`_plan`): a probe of
the instance's hash index on those positions
(:meth:`repro.relational.instance.Instance.matching`), an equality
check per repeat of an unbound variable, and assignments for the rest.
:func:`_extend` runs the steps over one binding dict updated in place,
for :func:`bindings`, :func:`evaluate_cq`, :func:`satisfies` and
:func:`repro.cq.homomorphism.homomorphism_to_instance` (these two with
the head bound up front) and for Datalog rule application.  A probe
returns rows in the relation's iteration order, so a search meets its
solutions in the order a scan of every row would.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..relational.instance import Instance
from .syntax import CQ, UCQ, Atom, Term, Var, is_var

#: ``(predicate, bound positions, the terms there, ((position,
#: variable), ...) to assign, ((position, earlier position), ...) that
#: must be equal)``.
_Step = tuple[str, tuple[int, ...], tuple[Term, ...], tuple, tuple]


def _order_atoms(body: Sequence[Atom], instance: Instance) -> list[Atom]:
    """Greedy join order: most-bound-variables first, then smallest relation."""
    remaining = list(body)
    ordered: list[Atom] = []
    bound: set[Var] = set()
    while remaining:

        def score(atom: Atom) -> tuple[int, int]:
            bound_count = sum(1 for var in atom.variables() if var in bound)
            constants = sum(1 for arg in atom.args if not is_var(arg))
            return (-(bound_count + constants), instance.size(atom.predicate))

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.variables())
    return ordered


def _plan(ordered: Sequence[Atom], bound: Iterable[Var] = ()) -> list[_Step]:
    """The steps that join *ordered* after the variables in *bound*."""
    bound = set(bound)
    steps: list[_Step] = []
    for atom in ordered:
        positions, key, assign, equal = [], [], [], []
        first: dict[Var, int] = {}
        for position, arg in enumerate(atom.args):
            if not is_var(arg) or arg in bound:
                positions.append(position)
                key.append(arg)
            elif arg in first:
                equal.append((position, first[arg]))
            else:
                first[arg] = position
                assign.append((position, arg))
        bound.update(first)
        steps.append(
            (atom.predicate, tuple(positions), tuple(key), tuple(assign), tuple(equal))
        )
    return steps


def _extend(
    steps: Sequence[_Step], instance: Instance, binding: dict[Var, Term], start: int = 0
) -> Iterator[bool]:
    """Yield True once per extension of *binding* that satisfies
    ``steps[start:]``, with *binding* (updated in place) holding it.

    A constant is its own key value: ``binding.get(term, term)`` reads
    either kind of term.
    """
    if start == len(steps):
        yield True
        return
    predicate, positions, key, assign, equal = steps[start]
    for row in instance.matching(predicate, positions, tuple(map(binding.get, key, key))):
        if equal and any(row[here] != row[there] for here, there in equal):
            continue
        for position, var in assign:
            binding[var] = row[position]
        yield from _extend(steps, instance, binding, start + 1)


def bindings(cq: CQ, instance: Instance) -> Iterator[dict[Var, Term]]:
    """All satisfying assignments of the CQ's variables (may repeat heads)."""
    binding: dict[Var, Term] = {}
    for _ in _extend(_plan(_order_atoms(cq.body, instance)), instance, binding):
        yield dict(binding)


def evaluate_cq(cq: CQ, instance: Instance) -> frozenset[tuple[Term, ...]]:
    """The answer relation ``Q(D)``: head-variable images of all bindings.

    Enumeration prunes subtrees whose head projection is already an
    answer: once every head variable is bound, any completion yields the
    same output tuple, so queries with redundant atoms (the minimization
    example's bread and butter) do not pay a combinatorial price for
    them beyond the first witness.
    """
    ordered = _order_atoms(cq.body, instance)
    steps = _plan(ordered)
    head_vars = cq.head_vars
    # The first step after which every head variable is bound.
    split, bound = 0, set()
    while not bound.issuperset(head_vars):
        bound.update(ordered[split].variables())
        split += 1
    answers: set[tuple[Term, ...]] = set()
    binding: dict[Var, Term] = {}
    for _ in _extend(steps[:split], instance, binding):
        head = tuple(binding[var] for var in head_vars)
        if head not in answers and any(_extend(steps, instance, binding, split)):
            answers.add(head)
    return frozenset(answers)


def evaluate_ucq(ucq: UCQ, instance: Instance) -> frozenset[tuple[Term, ...]]:
    """Union of the disjuncts' answers."""
    answers: set[tuple[Term, ...]] = set()
    for cq in ucq:
        answers |= evaluate_cq(cq, instance)
    return frozenset(answers)


def _first_binding(
    cq: CQ, instance: Instance, head: tuple[Term, ...]
) -> dict[Var, Term] | None:
    """The first satisfying assignment that maps the head to *head*,
    or None: the search runs with the head variables bound up front."""
    if len(head) != cq.arity:
        return None
    binding: dict[Var, Term] = {}
    for var, value in zip(cq.head_vars, head):
        if binding.setdefault(var, value) != value:
            return None
    steps = _plan(_order_atoms(cq.body, instance), binding)
    return binding if any(_extend(steps, instance, binding)) else None


def satisfies(cq: CQ, instance: Instance, head: tuple[Term, ...]) -> bool:
    """Does ``head in Q(D)``?  (Early-exit variant of evaluation.)

    This is the hot path of Chandra-Merlin containment: bind the head
    variables to the candidate tuple up front, then search for any one
    satisfying assignment of the existential variables.
    """
    return _first_binding(cq, instance, head) is not None


def satisfies_ucq(ucq: UCQ, instance: Instance, head: tuple[Term, ...]) -> bool:
    return any(satisfies(cq, instance, head) for cq in ucq)
