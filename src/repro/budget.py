"""The unified resource governor: budgets, meters, and graceful exhaustion.

Every non-trivial containment procedure in the paper's towers is
worst-case (2)EXPSPACE-complete (Theorems 5-8), so any deployment needs
resource limits that *degrade gracefully*: a search that runs out of
budget must report a calibrated bounded verdict with honest spend
accounting, never crash with a raw exception and never silently pretend
exactness (the point Figueira et al., arXiv:2003.04411, make for CRPQ
containment in practice).

Three pieces:

- :class:`Budget` — an immutable, hashable *specification* of limits: a
  wall-clock deadline plus per-resource counters (product
  configurations, materialized states, expansions, total word length,
  rule applications).  Being frozen, it participates in the engine's
  containment-cache keys.
- :class:`BudgetMeter` — the mutable *run* of a budget: procedures and
  kernels charge resources against it at loop heads; exceeding a limit
  (or the deadline) raises :class:`BudgetExhausted`.
- :class:`BudgetExhausted` — the internal control-flow signal.  It
  never escapes the engine: every containment procedure catches it and
  converts it into a structured bounded/inconclusive
  :class:`repro.report.ContainmentResult` via :func:`bounded_result`.

A budget is the only way a limit reaches a check: containment
procedures take ``budget=``, kernels take ``meter=``, and each
procedure's own defaults fill only the fields a caller left unset
(:meth:`Budget.merged`).

Degradation contract (DESIGN.md "Resource governance"):
:func:`bounded_result` is the one builder of an exhausted verdict, for
the engine's procedures and for the batch and serving layers alike.

- an exhausted counter of :data:`RESOURCES` (configs/states/
  expansions/...) yields ``Verdict.HOLDS_UP_TO_BOUND`` — the explored
  part of the search is a genuine bounded-exactness statement;
- any other exhausted resource yields ``Verdict.INCONCLUSIVE``: the
  check's ``deadline``, the batch's ``pool_deadline`` and
  ``start_deadline``, the server's ``admission:<reason>`` — wall-clock
  and queue state say nothing structural about the search space;
- both carry ``details["budget"]`` with exactly the keys ``exhausted``
  (the resource), ``spent``, ``limit`` and ``spend`` (the spend
  snapshot: counters + elapsed ms).  A verdict for a check that never
  ran adds the :func:`not_run_details` blocks that it shares with the
  batch layer's ``ERROR`` verdict.
"""

from __future__ import annotations

import contextlib
import gc
import math
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Mapping

from .report import ContainmentResult, Verdict

#: Resources a meter enforces limits for (``max_<name>`` Budget fields).
RESOURCES = (
    "configs",
    "states",
    "expansions",
    "total_length",
    "applications",
)

#: How often (in charge/poll events) the wall clock is consulted.
_POLL_MASK = 63

#: Default deadline for ``budget="auto"`` staged escalation (engine).
DEFAULT_AUTO_DEADLINE_MS = 2000.0

#: Fraction of the deadline reserved for teardown.  ``deadline_ms`` is a
#: *completion* target: after the cooperative check fires, the engine
#: still has to unwind frames and deallocate the (possibly huge) search
#: containers accumulated up to that point, which costs time roughly
#: proportional to what was built.  Stopping the search slightly early
#: keeps the whole call — including cleanup — inside the deadline.
_DEADLINE_RESERVE_FRACTION = 0.10
_DEADLINE_RESERVE_CAP_MS = 1000.0


class BudgetExhausted(RuntimeError):
    """A search ran out of budget (internal signal; see module docstring).

    Attributes:
        resource: which limit tripped (``"deadline"``, ``"configs"``,
            ``"states"``, ``"expansions"``, ...).
        spent: how much of the resource was consumed.
        limit: the limit that was exceeded (None when unknown).
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        resource: str | None = None,
        spent: float | int | None = None,
        limit: float | int | None = None,
    ) -> None:
        if message is None:
            message = f"budget exhausted: {resource} (spent {spent}, limit {limit})"
        super().__init__(message)
        self.resource = resource
        self.spent = spent
        self.limit = limit


@dataclass(frozen=True)
class Budget:
    """An immutable resource-limit specification (all fields optional).

    Picklability is part of the contract: a ``Budget`` is a frozen
    dataclass of scalars, so it crosses the process boundary intact —
    the batch layer's ``backend="process"`` pools and ``repro serve
    --backend process`` pickle per-request budgets into worker
    processes, where each check builds its own :class:`BudgetMeter`
    (the meter, holding a running clock, never crosses; only the spec
    does).  ``deadline_ms`` is a *duration*: the meter's clock starts
    when the check starts in the worker, so a budget serialized before
    dispatch means the same thing after the hop.

    Attributes:
        deadline_ms: wall-clock budget for the whole check, in
            milliseconds (checked cooperatively at loop heads).
        max_configs: product configurations explored by the on-the-fly
            emptiness searches (RPQ/2RPQ pipelines).
        max_states: states materialized by explicit constructions
            (Lemma 4 complement, Shepherdson tables).
        max_expansions: expansions examined by the expansion-based
            checks (per disjunct for UC2RPQ, overall elsewhere).
        max_total_length: total word length per UC2RPQ expansion.
        max_applications: rule applications per Datalog expansion.
        escalate: engine-level flag — retry with geometrically growing
            limits until the verdict is exact or ``deadline_ms`` is
            spent (see ``check_containment(budget="auto")``).
    """

    deadline_ms: float | None = None
    max_configs: int | None = None
    max_states: int | None = None
    max_expansions: int | None = None
    max_total_length: int | None = None
    max_applications: int | None = None
    escalate: bool = False

    @classmethod
    def auto(cls, deadline_ms: float = DEFAULT_AUTO_DEADLINE_MS, **limits: Any) -> "Budget":
        """The staged-escalation budget behind ``budget="auto"``."""
        return cls(deadline_ms=deadline_ms, escalate=True, **limits)

    def merged(self, **defaults: Any) -> "Budget":
        """A copy whose unset fields are filled from *defaults*.

        Explicit budget fields always win; this is how a procedure's
        defaults, or an escalation round's schedule, fill only the
        limits the caller left open.
        """
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in defaults.items():
            if name not in values:
                raise TypeError(f"unknown budget field {name!r}")
            if values[name] is None:
                values[name] = value
        return Budget(**values)

    def tightened(self, deadline_ms: float | None) -> "Budget":
        """A copy whose deadline is the tighter of ours and *deadline_ms*.

        The serving layer's deadline-inheritance rule (DESIGN.md
        "Serving architecture"): a wire request inherits the server's
        default budget — counters, escalation policy, and all — and may
        only *tighten* the wall-clock deadline, never extend it past
        what the operator configured.  ``None`` inherits unchanged; a
        request deadline tighter than the server's (or a server with no
        deadline at all) adopts the request's.

        Raises ValueError on a non-positive or non-finite deadline — a
        wire request asking for 0 ms (or NaN, which no comparison
        tightens) is a protocol error to surface, not a budget to run.
        """
        if deadline_ms is None:
            return self
        if not 0 < deadline_ms < math.inf:
            raise ValueError(
                f"deadline_ms must be a finite number > 0, not {deadline_ms!r}"
            )
        if self.deadline_ms is not None:
            deadline_ms = min(self.deadline_ms, deadline_ms)
        return replace(self, deadline_ms=deadline_ms)

    def limit(self, resource: str) -> float | int | None:
        """The configured limit for *resource* (None = unbounded)."""
        if resource == "deadline":
            return self.deadline_ms
        return getattr(self, f"max_{resource}")

    @property
    def is_null(self) -> bool:
        """True when no limit at all is configured."""
        return all(getattr(self, f.name) in (None, False) for f in fields(self))

    def start(self) -> "BudgetMeter":
        """Begin a run: the deadline clock starts ticking now."""
        return BudgetMeter(self)


#: The do-nothing budget (never exhausts).
UNLIMITED = Budget()


class BudgetMeter:
    """The mutable spend tracker for one run of a :class:`Budget`.

    Procedures and kernels call :meth:`charge` (enforced counters),
    :meth:`note` (accounting only), and :meth:`poll` /
    :meth:`check_deadline` (wall clock) at loop heads.  All raise
    :class:`BudgetExhausted` on exhaustion — cooperatively, so a caller
    can catch the signal at a clean point and report how far it got.

    Ownership: a meter belongs to the single check that started it —
    each worker in a batch runs its own meter (meters are created
    inside the dispatched procedure, per call, never shared).  The
    frozen :class:`Budget` *specification* is safely shared across
    threads; the mutable meter is not.
    """

    __slots__ = ("budget", "spent", "_start", "_deadline", "_events")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.spent: dict[str, int] = {}
        self._start = time.monotonic()
        if budget.deadline_ms is None:
            self._deadline = None
        else:
            reserve = min(
                budget.deadline_ms * _DEADLINE_RESERVE_FRACTION,
                _DEADLINE_RESERVE_CAP_MS,
            )
            self._deadline = self._start + (budget.deadline_ms - reserve) / 1000.0
        self._events = 0

    def charge(self, resource: str, amount: int = 1) -> None:
        """Consume *amount* of *resource*; raise when the limit is passed."""
        total = self.spent.get(resource, 0) + amount
        self.spent[resource] = total
        limit = self.budget.limit(resource)
        if limit is not None and total > limit:
            raise BudgetExhausted(resource=resource, spent=total, limit=limit)
        self.poll()

    def note(self, resource: str, amount: int = 1) -> None:
        """Account *amount* of *resource* without enforcing a limit."""
        self.spent[resource] = self.spent.get(resource, 0) + amount
        self.poll()

    def poll(self) -> None:
        """Cheap periodic deadline check (every ``_POLL_MASK+1`` events)."""
        if self._deadline is None:
            return
        self._events += 1
        if self._events & _POLL_MASK:
            return
        self.check_deadline()

    def check_deadline(self) -> None:
        """Unconditional deadline check (use at coarse-grained points)."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExhausted(
                resource="deadline",
                spent=round(self.elapsed_ms(), 3),
                limit=self.budget.deadline_ms,
            )

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self._start) * 1000.0

    def spend(self) -> dict[str, Any]:
        """Snapshot of everything consumed so far (for result details)."""
        return {**self.spent, "elapsed_ms": round(self.elapsed_ms(), 3)}


#: Refcount for nested/concurrent :func:`deadline_scope` entries.  The
#: cyclic collector is a process-global switch, so concurrent deadline
#: checks (the batch layer's worker threads) must not re-enable it
#: while a sibling check is still inside its scope: the first scope in
#: disables GC, the last one out restores it.
_GC_SCOPE_LOCK = threading.Lock()
_gc_scope_depth = 0
_gc_was_enabled = False


@contextlib.contextmanager
def deadline_scope(budget: Budget | None) -> Iterator[None]:
    """Suppress cyclic-GC pauses while a deadline-bearing check runs.

    The search containers the kernels build (frozenset pairs, config
    tuples) are acyclic and reclaimed by reference counting; the cyclic
    collector only *scans* them, and a generation-2 pass over a few
    million live objects stalls the interpreter for hundreds of
    milliseconds — silently blowing a cooperative deadline between two
    polls.  Within this scope the cyclic collector is paused (and
    restored on exit, including on :class:`BudgetExhausted` unwinds).
    No-op when *budget* has no deadline or GC is already disabled.

    Thread-safe and re-entrant: overlapping scopes (concurrent batch
    workers, escalation rounds inside an outer scope) refcount the
    toggle, so GC is re-enabled only when the outermost scope exits —
    never mid-flight under a sibling thread's deadline check.
    """
    global _gc_scope_depth, _gc_was_enabled
    if budget is None or budget.deadline_ms is None:
        yield
        return
    with _GC_SCOPE_LOCK:
        if _gc_scope_depth == 0:
            _gc_was_enabled = gc.isenabled()
            if _gc_was_enabled:
                gc.disable()
        _gc_scope_depth += 1
    try:
        yield
    finally:
        with _GC_SCOPE_LOCK:
            _gc_scope_depth -= 1
            if _gc_scope_depth == 0 and _gc_was_enabled:
                gc.enable()


def configured_budget(
    deadline_ms: float | None, *, escalate: bool, max_expansions: int | None
) -> Budget | None:
    """The budget an operator's settings describe (None when nothing is set).

    Shared by ``repro contain``, ``repro batch`` and ``repro serve``.
    With *escalate* it is a :meth:`Budget.auto` budget (default deadline
    when *deadline_ms* is None), whose *max_expansions* stays pinned
    across every round.
    """
    if escalate:
        if deadline_ms is None:
            return Budget.auto(max_expansions=max_expansions)
        return Budget.auto(deadline_ms=deadline_ms, max_expansions=max_expansions)
    if deadline_ms is None and max_expansions is None:
        return None
    return Budget(deadline_ms=deadline_ms, max_expansions=max_expansions)


def not_run_details() -> dict[str, Any]:
    """The ``cache`` and ``kernel`` blocks of a verdict for a check that never ran.

    Shed, starved and failed checks looked nothing up and selected no
    kernel; recording that keeps every result's details the same shape
    as the engine's.
    """
    return {"cache": "bypass", "kernel": {"selected": None}}


def bounded_result(
    method: str,
    exc: BudgetExhausted,
    meter: BudgetMeter | None = None,
    details: Mapping[str, Any] | None = None,
    *,
    spend: Mapping[str, Any] | None = None,
) -> ContainmentResult:
    """The structured verdict for an exhausted check (see module docstring).

    An exhausted counter of :data:`RESOURCES` becomes
    ``HOLDS_UP_TO_BOUND`` — no counterexample exists within the explored
    part of the search, a genuine bounded statement.  Any other resource
    (a deadline of some stage, an admission shed) becomes
    ``INCONCLUSIVE`` — elapsed time and queue state bound nothing
    structural.  ``details["budget"]`` records the resource, its spent
    amount and limit, and the spend snapshot: *meter*'s, else *spend*
    (for a check that no meter ran).
    """
    accounting: dict[str, Any] = {
        "exhausted": exc.resource,
        "spent": exc.spent,
        "limit": exc.limit,
        "spend": meter.spend() if meter is not None else dict(spend or {}),
    }
    merged: dict[str, Any] = {**(details or {}), "budget": accounting}
    if exc.resource not in RESOURCES:
        return ContainmentResult(Verdict.INCONCLUSIVE, method, details=merged)
    bound = exc.limit if exc.limit is not None else exc.spent
    return ContainmentResult(
        Verdict.HOLDS_UP_TO_BOUND,
        method,
        bound=int(bound) if bound is not None else 0,
        details=merged,
    )
