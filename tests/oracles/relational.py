"""Brute-force relational evaluation (oracles for the indexed join).

A CQ's answers come from trying every assignment of its variables to the
instance's active domain and keeping those that send every body atom to
a fact of the instance.  A Datalog program's IDB relations come from
applying every rule that way to the facts known so far until no rule
derives a new fact.  No join order, index or backtracking is involved,
and the instance is read only through membership tests.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from repro.cq.syntax import CQ, Atom, Term, Var, is_var
from repro.datalog.syntax import Program
from repro.relational.instance import Instance


def _image(atom: Atom, assignment: dict[Var, Term]) -> tuple:
    return tuple(assignment[arg] if is_var(arg) else arg for arg in atom.args)


def assignments(body: Sequence[Atom], instance: Instance) -> Iterator[dict[Var, Term]]:
    """Every assignment of *body*'s variables to the active domain under
    which each body atom is a fact of *instance*."""
    variables = sorted({var for atom in body for var in atom.variables()})
    domain = sorted(instance.active_domain, key=repr)
    for values in product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all((atom.predicate, _image(atom, assignment)) in instance for atom in body):
            yield assignment


def evaluate_cq(cq: CQ, instance: Instance) -> frozenset[tuple]:
    """The answer relation ``Q(D)``."""
    return frozenset(
        tuple(assignment[var] for var in cq.head_vars)
        for assignment in assignments(cq.body, instance)
    )


def fixpoint(program: Program, edb: Instance) -> dict[str, frozenset[tuple]]:
    """The least fixpoint's IDB relations: each round applies every rule
    to every fact derived so far, until a round derives nothing new."""
    instance = edb.copy()
    derived: dict[str, set[tuple]] = {pred: set() for pred in program.idb_predicates}
    while True:
        new = {
            (rule.head.predicate, _image(rule.head, assignment))
            for rule in program.rules
            for assignment in assignments(rule.body, instance)
        }
        new = {(pred, row) for pred, row in new if row not in derived[pred]}
        if not new:
            return {pred: frozenset(rows) for pred, rows in derived.items()}
        for pred, row in new:
            derived[pred].add(row)
            instance.add(pred, row)
