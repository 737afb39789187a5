"""Bottom-up Datalog evaluation: naive and semi-naive fixpoints.

The paper defines the semantics operationally (Section 2.2):
``P^i(D)`` is what ``i`` rule applications can derive and
``P^inf(D) = U_i P^i(D)``.  The *naive* engine recomputes every rule
body against the full instance each round — a direct transcription of
that definition, and :func:`bounded_evaluate` is the same round loop
stopped after ``i`` rounds.  The *semi-naive* engine is the classical
optimization: each round it only joins rule bodies in which at least one
IDB atom is bound to the facts newly derived in the previous round,
which avoids rediscovering old facts.  Both compute the same fixpoint;
experiment E10 measures the difference.

Every rule application is one run of the CQ join
(:mod:`repro.cq.evaluation`) over one working instance: the EDB copied
once, plus the IDB relations.  Semi-naive installs each round's delta
relations in that instance under shadow names
(:meth:`repro.relational.instance.Instance.install`), so no round copies
the instance, and each relation's join indexes live until it gains a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from ..cq.evaluation import _extend, _order_atoms, _plan
from ..cq.syntax import Atom, is_var
from ..relational.instance import Instance
from .syntax import Program, Rule


@dataclass
class EvaluationStats:
    """Instrumentation for experiment E10."""

    iterations: int = 0
    facts_derived: int = 0
    rule_applications: int = 0
    derivations_per_iteration: list[int] = field(default_factory=list)


def _apply_rule(head: Atom, body: tuple[Atom, ...], instance: Instance) -> set[tuple]:
    """All *head* tuples that one application of ``head :- body`` derives."""
    binding: dict = {}
    return {
        tuple(binding[arg] if is_var(arg) else arg for arg in head.args)
        for _ in _extend(_plan(_order_atoms(body, instance)), instance, binding)
    }


def _seed_instance(program: Program, edb: Instance) -> Instance:
    """A working copy of *edb* with every IDB relation declared.

    Declaring the IDB predicates (empty, at head arity) up front means
    rule bodies mentioning a predicate that never fires see an empty
    relation rather than an unknown name, and an IDB head whose arity
    clashes with an EDB relation of the same name fails loudly here
    instead of corrupting the fixpoint.
    """
    instance = edb.copy()
    for rule in program.rules:
        instance.declare(rule.head.predicate, len(rule.head.args))
    return instance


def _round(
    rules: list[tuple[Rule, tuple[Atom, ...]]],
    idb: dict[str, set[tuple]],
    instance: Instance,
    stats: EvaluationStats | None,
) -> dict[str, set[tuple]]:
    """One round: apply every ``(rule, body)`` to the facts of the rounds
    before it, then commit; returns the new facts per IDB predicate."""
    new: dict[str, set[tuple]] = {pred: set() for pred in idb}
    for rule, body in rules:
        for row in _apply_rule(rule.head, body, instance):
            if row not in idb[rule.head.predicate]:
                new[rule.head.predicate].add(row)
    total = 0
    for pred, rows in new.items():
        idb[pred] |= rows
        for row in rows:
            instance.add(pred, row)
        total += len(rows)
    if stats is not None:
        stats.iterations += 1
        stats.rule_applications += len(rules)
        stats.derivations_per_iteration.append(total)
        stats.facts_derived += total
    return new


def _naive_rounds(
    program: Program,
    edb: Instance,
    stats: EvaluationStats | None = None,
    rounds: int | None = None,
) -> dict[str, set[tuple]]:
    """The naive round loop, to the fixpoint or for at most *rounds*:
    after round ``i`` the IDB holds exactly ``P^i(D)``."""
    instance = _seed_instance(program, edb)
    idb: dict[str, set[tuple]] = {pred: set() for pred in program.idb_predicates}
    rules = [(rule, rule.body) for rule in program.rules]
    for _ in count() if rounds is None else range(rounds):
        if not any(_round(rules, idb, instance, stats).values()):
            break
    return idb


def naive_evaluate(
    program: Program, edb: Instance, stats: EvaluationStats | None = None
) -> dict[str, frozenset[tuple]]:
    """The textbook fixpoint: apply every rule to everything until stable."""
    idb = _naive_rounds(program, edb, stats)
    return {pred: frozenset(rows) for pred, rows in idb.items()}


def _shadow(predicate: str) -> str:
    """The name under which a round's delta of *predicate* is installed."""
    return f"__delta__{predicate}"


def _delta_rules(
    program: Program,
) -> tuple[list[tuple[Rule, tuple[Atom, ...]]], list[tuple[Rule, tuple[Atom, ...]]]]:
    """Semi-naive rewriting: the rules with no IDB body atom, which only
    need to run once (round zero), and one variant ``(rule, body)`` per
    IDB body atom, with that atom renamed to its delta relation."""
    idb = program.idb_predicates
    base: list[tuple[Rule, tuple[Atom, ...]]] = []
    variants: list[tuple[Rule, tuple[Atom, ...]]] = []
    for rule in program.rules:
        positions = [index for index, atom in enumerate(rule.body) if atom.predicate in idb]
        if not positions:
            base.append((rule, rule.body))
        for index in positions:
            body = list(rule.body)
            body[index] = Atom(_shadow(body[index].predicate), body[index].args)
            variants.append((rule, tuple(body)))
    return base, variants


def seminaive_evaluate(
    program: Program, edb: Instance, stats: EvaluationStats | None = None
) -> dict[str, frozenset[tuple]]:
    """Semi-naive (delta-driven) fixpoint; same result, fewer re-joins."""
    instance = _seed_instance(program, edb)
    idb: dict[str, set[tuple]] = {pred: set() for pred in program.idb_predicates}
    base, variants = _delta_rules(program)
    # Round zero runs the rules with no IDB atom; every later round runs
    # the variants over the delta relations: the round before's new facts.
    new = _round(base, idb, instance, stats)
    while any(new.values()):
        for pred, rows in new.items():
            instance.install(_shadow(pred), instance.arity(pred), rows)
        new = _round(variants, idb, instance, stats)
    return {pred: frozenset(rows) for pred, rows in idb.items()}


def evaluate(
    program: Program, edb: Instance, stats: EvaluationStats | None = None
) -> frozenset[tuple]:
    """The program's *goal* relation over *edb*, by the semi-naive
    fixpoint, with optional :class:`EvaluationStats` instrumentation."""
    return seminaive_evaluate(program, edb, stats)[program.goal]


def bounded_evaluate(program: Program, edb: Instance, rounds: int) -> frozenset[tuple]:
    """``P^i(D)``: goal facts derivable within *rounds* naive iterations.

    Implements the paper's stratified approximation semantics
    ``P^inf = U_i P^i`` observably: ``bounded_evaluate`` is monotone in
    *rounds* and reaches the fixpoint value for large enough *rounds*.
    """
    return frozenset(_naive_rounds(program, edb, rounds=rounds)[program.goal])
