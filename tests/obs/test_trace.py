"""Tracer/Span semantics: nesting, timing monotonicity, error capture,
and the ``tracer=None`` no-op contract."""

from __future__ import annotations

import time

import pytest

from repro.obs.trace import Span, Tracer, maybe_span


class TestSpanNesting:
    def test_children_attach_to_the_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-2"):
                pass
        root = tracer.root
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child-1", "child-2"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]

    def test_walk_is_preorder_and_find_locates_stages(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                with tracer.span("d"):
                    pass
        assert [s.name for s in tracer.root.walk()] == ["a", "b", "c", "d"]
        assert tracer.root.find("d").name == "d"
        assert tracer.root.find("missing") is None

    def test_sequential_roots_accumulate(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]
        assert tracer.root.name == "first"

    def test_current_tracks_the_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None


class TestTiming:
    def test_durations_are_monotone_in_nesting(self):
        """A parent span can never be shorter than any child."""
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                time.sleep(0.002)
        parent, child = tracer.root, tracer.root.children[0]
        assert parent.end is not None and child.end is not None
        assert parent.start <= child.start
        assert child.end <= parent.end
        assert parent.duration_ms >= child.duration_ms >= 2.0

    def test_open_span_duration_grows(self):
        span = Span("open")
        first = span.duration_ms
        time.sleep(0.001)
        assert span.duration_ms > first
        span.close()
        frozen = span.duration_ms
        assert span.duration_ms == frozen

    def test_close_is_idempotent(self):
        span = Span("s")
        span.close()
        end = span.end
        time.sleep(0.001)
        span.close()
        assert span.end == end

    def test_to_dict_reports_ms_relative_to_origin(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tree = tracer.to_dict()
        assert tree["start_ms"] == 0.0
        child = tree["children"][0]
        assert child["start_ms"] >= 0.0
        assert child["duration_ms"] <= tree["duration_ms"]


class TestRecording:
    def test_counters_accumulate(self):
        span = Span("s")
        span.count("items")
        span.count("items", 4)
        assert span.counters == {"items": 5}

    def test_annotate_and_event(self):
        tracer = Tracer()
        with tracer.span("s", kind="test") as span:
            span.annotate(extra=1)
            span.event("cache", outcome="hit")
        assert span.tags == {"kind": "test", "extra": 1}
        (event,) = span.events
        assert event["name"] == "cache"
        assert event["outcome"] == "hit"
        assert event["at_ms"] >= 0.0

    def test_tracer_level_recording_targets_current_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            tracer.count("n", 2)
            tracer.annotate(tag="v")
            tracer.event("tick")
        assert span.counters == {"n": 2}
        assert span.tags == {"tag": "v"}
        assert span.events[0]["name"] == "tick"
        # With no open span these are silently dropped, not errors.
        tracer.count("n")
        tracer.annotate(tag="w")
        tracer.event("tock")
        assert span.counters == {"n": 2}


class TestErrorUnwind:
    def test_exception_tags_and_closes_the_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer, inner = tracer.root, tracer.root.children[0]
        assert inner.tags["error"] == "ValueError"
        assert outer.tags["error"] == "ValueError"
        assert inner.end is not None and outer.end is not None

    def test_nonlocal_exit_closes_dangling_spans(self):
        tracer = Tracer()
        scope = tracer.span("outer")
        scope.__enter__()
        tracer.span("dangling").__enter__()
        scope.__exit__(None, None, None)
        assert tracer.current is None
        assert all(s.end is not None for s in tracer.root.walk())


class TestTracingOff:
    def test_maybe_span_shares_one_noop_scope(self):
        assert maybe_span(None, "x") is maybe_span(None, "y", tag=1)
