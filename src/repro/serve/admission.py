"""Admission control and load shedding for the serving layer.

The service's overload contract (DESIGN.md "Serving architecture"): a
request that cannot be served within its constraints is *shed* — it
receives a degraded ``INCONCLUSIVE`` response carrying
``details["admission"]`` with spend accounting — and is never answered
with a dropped connection or an unbounded queue wait.  Three shed
reasons:

- ``queue_full`` — admitting the request would push the number of
  admitted-but-unfinished requests past the configured capacity.
  Shedding at the door keeps queue wait (and therefore tail latency)
  bounded: a bounded queue in front of a fixed pool is the whole
  admission policy.
- ``deadline`` — the request was admitted but no worker picked it up
  before its wall-clock deadline expired: the worker returns the batch
  layer's ``start-deadline`` verdict without running the check, and the
  server turns it into this shed on its event loop.  Running it anyway
  could only return after the caller stopped caring.
- ``draining`` — the frame arrived after the server began graceful
  drain (SIGTERM/SIGINT).  It is still *answered* — drain sheds, it
  never drops.

The controller itself is deliberately small: an admitted-but-unfinished
counter against a capacity, mutated only from the event-loop thread
(admit on dispatch, release when the response future resolves, deadline
sheds recorded via :meth:`AdmissionController.record_shed` at the same
point), so it needs no lock.  Every shed verdict, of any reason, is
built on the event loop by :func:`shed_result` through
:func:`repro.budget.bounded_result`, the engine's one builder of
exhausted verdicts — ``details["budget"]`` records ``admission:<reason>``
as the exhausted resource alongside the admission block — so
downstream tooling that reads batch results reads shed responses
unchanged.
"""

from __future__ import annotations

import dataclasses

from ..budget import BudgetExhausted, bounded_result, not_run_details
from ..report import ContainmentResult

__all__ = [
    "SHED_REASONS",
    "AdmissionController",
    "AdmissionPolicy",
    "shed_result",
]

#: Every reason a request can be shed for.
SHED_REASONS = ("queue_full", "deadline", "draining")


@dataclasses.dataclass(frozen=True)
class AdmissionPolicy:
    """Operator-chosen limits for the admission controller.

    Attributes:
        capacity: maximum requests admitted but not yet finished
            (running + queued).  With ``workers`` pool threads, at most
            ``capacity - workers`` requests ever wait in the queue.
        default_deadline_ms: per-request wall-clock deadline applied
            when a frame names none (None = requests without a
            deadline wait and run unbounded).
    """

    capacity: int = 64
    default_deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, not {self.capacity}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0")


class AdmissionController:
    """Bounded-queue admission: admit, count, shed; see module docstring.

    Single-threaded by contract: every mutation happens on the event
    loop (the worker pool never touches it), so reads are always
    consistent without a lock.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self.pending = 0
        self.admitted_total = 0
        self.shed_total = 0

    def try_admit(self, *, draining: bool = False) -> str | None:
        """Admit the request (returns None) or name the shed reason.

        On admission the pending count is taken immediately — the
        caller owns a slot until it calls :meth:`release`.
        """
        if draining:
            self.shed_total += 1
            return "draining"
        if self.pending >= self.policy.capacity:
            self.shed_total += 1
            return "queue_full"
        self.pending += 1
        self.admitted_total += 1
        return None

    def release(self) -> None:
        """Give back one admitted slot (response future resolved)."""
        if self.pending <= 0:
            raise RuntimeError("release() without a matching admission")
        self.pending -= 1

    def record_shed(self) -> None:
        """Count a shed decided outside :meth:`try_admit`.

        Dequeue-deadline sheds are detected in a worker (which returns
        the batch layer's ``start-deadline`` verdict) but *recorded*
        here, from the event loop when the response future resolves —
        keeping every mutation single-threaded and the
        ``shed_total`` surfaced by the health verb consistent with the
        ``serve.shed`` metrics.
        """
        self.shed_total += 1

    def effective_deadline_ms(self, requested: float | None) -> float | None:
        """The deadline a request runs under: its own, or the default.

        A request deadline only *tightens* the policy default, matching
        :meth:`repro.budget.Budget.tightened`.
        """
        if requested is None:
            return self.policy.default_deadline_ms
        if self.policy.default_deadline_ms is None:
            return requested
        return min(requested, self.policy.default_deadline_ms)


def shed_result(
    reason: str,
    *,
    queue_depth: int,
    queue_limit: int,
    waited_ms: float = 0.0,
    deadline_ms: float | None = None,
) -> ContainmentResult:
    """The degraded INCONCLUSIVE verdict for a shed request.

    Always carries ``details["admission"]`` — the shed reason, the
    queue state that forced it, and spend accounting (how long the
    request waited before being shed) — plus the engine's standard
    ``details["budget"]`` block, written by
    :func:`~repro.budget.bounded_result`, so shed responses degrade
    exactly like budget-exhausted checks.
    """
    if reason not in SHED_REASONS:
        raise ValueError(f"unknown shed reason {reason!r}; use one of {SHED_REASONS}")
    waited = round(waited_ms, 3)
    spend = {"queued_ms": waited, "elapsed_ms": waited}
    shed = BudgetExhausted(
        resource=f"admission:{reason}",
        spent=waited,
        limit=deadline_ms if reason == "deadline" else queue_limit,
    )
    admission = {
        "shed": reason,
        "queue_depth": queue_depth,
        "queue_limit": queue_limit,
        "deadline_ms": deadline_ms,
        "spend": spend,
    }
    return bounded_result(
        "serve-admission",
        shed,
        details={"admission": admission, **not_run_details()},
        spend=spend,
    )
