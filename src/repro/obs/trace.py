"""Nested-span tracing for the containment pipelines (zero-dependency).

A :class:`Tracer` records a tree of :class:`Span` objects — one per
pipeline stage (parse/translate, fold, complement, product, emptiness
search, expansion loop) — each carrying a monotonic start/end time,
free-form tags, accumulated counters, and point events (cache hits,
budget exhaustion).  The API is a context manager::

    with tracer.span("determinize", states=nfa.num_states) as sp:
        ...
        sp.count("subsets", len(table))

Pay-for-what-you-use contract: tracing off must cost (nearly)
nothing.  ``tracer=None`` is the one way to switch it off:

- every instrumented signature defaults to ``tracer=None``; search
  boundaries guard with a plain ``tracer is None`` test (one pointer
  test, no span tags built);
- stage-level code uses :func:`maybe_span`, which returns a shared
  no-op scope without allocating when the tracer is ``None``.

Spans always close, including on exception unwinds (``BudgetExhausted``
escaping a kernel still produces a well-formed tree, with the failing
span tagged ``error``).  The clock is :func:`time.perf_counter`;
exported times are milliseconds relative to the root span's start, so
dumps are machine-independent and diffable.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "maybe_span",
]


class Span:
    """One timed stage: a node of the trace tree.

    Attributes:
        name: stage name (see the span taxonomy in DESIGN.md §8).
        tags: free-form labels fixed at creation or via :meth:`annotate`.
        counters: accumulated numeric facts (:meth:`count`).
        events: point-in-time occurrences with their offset from the
            span start (cache outcomes, budget exhaustion).
        children: sub-stages, in execution order.
        start / end: raw :func:`time.perf_counter` seconds; ``end`` is
            ``None`` while the span is open.
    """

    __slots__ = ("name", "tags", "start", "end", "counters", "events", "children")

    def __init__(self, name: str, tags: dict[str, Any] | None = None) -> None:
        self.name = name
        self.tags: dict[str, Any] = tags if tags is not None else {}
        self.start = time.perf_counter()
        self.end: float | None = None
        self.counters: dict[str, float] = {}
        self.events: list[dict[str, Any]] = []
        self.children: list[Span] = []

    # -- recording -------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Accumulate *amount* onto this span's counter *name*."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def annotate(self, **tags: Any) -> None:
        """Attach (or overwrite) tags on this span."""
        self.tags.update(tags)

    def event(self, name: str, **data: Any) -> None:
        """Record a point event at the current time offset."""
        self.events.append(
            {"name": name, "at_ms": (time.perf_counter() - self.start) * 1000.0, **data}
        )

    def close(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    # -- reading ---------------------------------------------------------------

    @property
    def duration_ms(self) -> float:
        """Elapsed milliseconds (up to now, while the span is open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant-or-self span named *name* (pre-order)."""
        return next((span for span in self.walk() if span.name == name), None)

    def to_dict(self, origin: float | None = None) -> dict[str, Any]:
        """JSON-ready tree; times in ms relative to *origin* (root start)."""
        base = self.start if origin is None else origin
        out: dict[str, Any] = {
            "name": self.name,
            "start_ms": round((self.start - base) * 1000.0, 4),
            "duration_ms": round(self.duration_ms, 4),
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.events:
            out["events"] = [
                {**event, "at_ms": round(event["at_ms"], 4)} for event in self.events
            ]
        out["children"] = [child.to_dict(base) for child in self.children]
        return out


class _SpanScope:
    """The ``with`` handle produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.annotate(error=exc_type.__name__)
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Builds a span tree from nested :meth:`span` scopes.

    Spans opened while another is open become its children; with an
    empty stack they become roots (normally there is exactly one root —
    the engine's ``check_containment`` span — and :attr:`root` exposes
    it).  Not thread-safe: one tracer belongs to one check.
    """

    __slots__ = ("roots", "_stack")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **tags: Any) -> _SpanScope:
        """Open a child span of the current one (context manager)."""
        span = Span(name, tags or None)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanScope(self, span)

    def _pop(self, span: Span) -> None:
        span.close()
        # Close any deeper spans left open by a non-local exit; the
        # stack discipline of `with` makes this a no-op normally.
        while self._stack:
            top = self._stack.pop()
            top.close()
            if top is span:
                break

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        """Counter on the current span (no-op with no open span)."""
        if self._stack:
            self._stack[-1].count(name, amount)

    def annotate(self, **tags: Any) -> None:
        """Tags on the current span (no-op with no open span)."""
        if self._stack:
            self._stack[-1].annotate(**tags)

    def event(self, name: str, **data: Any) -> None:
        """Point event on the current span (no-op with no open span)."""
        if self._stack:
            self._stack[-1].event(name, **data)

    @property
    def root(self) -> Span | None:
        """The first root span (the whole check), or None if none opened."""
        return self.roots[0] if self.roots else None

    def to_dict(self) -> dict[str, Any] | None:
        """The root span's tree as a JSON-ready dict (None when empty)."""
        root = self.root
        return root.to_dict() if root is not None else None


class _NullSpan:
    """Inert span: accepts the recording surface, stores nothing."""

    __slots__ = ()

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def annotate(self, **tags: Any) -> None:
        pass

    def event(self, name: str, **data: Any) -> None:
        pass


class _NullScope:
    """Shared no-op ``with`` handle (never allocates per call)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SCOPE = _NullScope()


def maybe_span(tracer: Tracer | None, name: str, **tags: Any):
    """``tracer.span(...)`` that is near-free when tracing is off.

    The stage-boundary idiom: ``with maybe_span(tracer, "fold"):``.
    With ``tracer`` None this returns the shared no-op scope without
    allocating a span or touching the tag kwargs.
    """
    if tracer is None:
        return _NULL_SCOPE
    return tracer.span(name, **tags)
