"""Telemetry primitives: access records, the bounded log writer, the
flight recorder (including threaded writers), and the sampler."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.batch import BatchItem
from repro.obs.telemetry import (
    ACCESS_LOG_SCHEMA,
    FLIGHT_SCHEMA,
    AccessLogWriter,
    FlightRecorder,
    Sampler,
    Telemetry,
    TelemetryConfig,
    access_record,
    validate_access_record,
)
from repro.report import ContainmentResult, Verdict


def _item(verdict=Verdict.HOLDS, method="rpq-language", **details):
    details.setdefault("cache", "miss")
    details.setdefault("budget", {"spend": {}})
    result = ContainmentResult(verdict, method, details=details)
    return BatchItem(0, result, 2.5, "pid:1/w0", "rid-1")


class TestAccessRecord:
    def test_contain_record_carries_verdict_and_details(self):
        record = access_record(
            request_id="rid-1",
            op="contain",
            index=3,
            client_id="p1",
            item=_item(kernel={"selected": "antichain", "configs": 3}),
            queued_ms=1.0,
            exec_ms=2.5,
            total_ms=3.5,
            sampled=True,
        )
        assert record["schema"] == ACCESS_LOG_SCHEMA
        assert record["request_id"] == "rid-1"
        assert record["op"] == "contain"
        assert record["id"] == "p1"
        assert record["verdict"] == "holds"
        assert record["method"] == "rpq-language"
        assert record["holds"] is True
        assert record["shed"] is None
        assert record["queued_ms"] == 1.0
        assert record["exec_ms"] == 2.5
        assert record["total_ms"] == 3.5
        assert record["worker"] == "pid:1/w0"
        assert record["sampled"] is True
        assert record["cache"] == "miss"
        assert record["kernel"]["selected"] == "antichain"
        assert validate_access_record(record) == []

    def test_shed_reason_comes_from_admission_details(self):
        item = _item(
            verdict=Verdict.INCONCLUSIVE,
            method="serve-admission",
            admission={"shed": "queue_full", "spend": {}},
        )
        record = access_record(request_id="r", op="contain", index=0, item=item)
        assert record["shed"] == "queue_full"
        assert validate_access_record(record) == []

    def test_error_keeps_type_and_message_but_not_traceback(self):
        item = _item(
            verdict=Verdict.ERROR,
            method="batch-isolated",
            error={
                "type": "ValueError",
                "message": "boom",
                "traceback": "Traceback (most recent call last): ...",
            },
        )
        record = access_record(request_id="r", op="contain", index=0, item=item)
        assert record["error"] == {"type": "ValueError", "message": "boom"}
        assert "traceback" not in json.dumps(record)

    def test_control_record_has_no_verdict(self):
        record = access_record(
            request_id="r", op="health", index=0, exec_ms=0.1, total_ms=0.1
        )
        assert record["verdict"] is None
        assert validate_access_record(record) == []

    def test_record_never_contains_a_trace(self):
        item = _item(trace={"name": "check", "children": []})
        record = access_record(request_id="r", op="contain", index=0, item=item)
        assert "trace" not in record

    def test_negative_timings_clamp_to_zero(self):
        record = access_record(
            request_id="r", op="contain", index=0, item=_item(), queued_ms=-0.2
        )
        assert record["queued_ms"] == 0.0
        assert validate_access_record(record) == []


class TestValidate:
    def test_rejects_non_objects_and_bad_fields(self):
        assert validate_access_record("nope")
        assert validate_access_record({})
        base = access_record(request_id="r", op="contain", index=0, item=_item())
        for key, bad in [
            ("schema", "other/9"),
            ("request_id", ""),
            ("op", "unknown-op"),
            ("index", "zero"),
            ("queued_ms", -1.0),
            ("sampled", "yes"),
            ("verdict", None),
            ("shed", 7),
        ]:
            broken = dict(base)
            broken[key] = bad
            assert validate_access_record(broken), key

    def test_contain_records_must_carry_a_method(self):
        record = access_record(
            request_id="r", op="contain", index=0, item=_item()
        )
        del record["method"]
        problems = validate_access_record(record)
        assert any("method" in problem for problem in problems)


class TestAccessLogWriter:
    def test_writes_one_sorted_json_line_per_record(self, tmp_path):
        path = tmp_path / "access.ndjson"
        writer = AccessLogWriter(str(path))
        for index in range(5):
            assert writer.write(
                access_record(
                    request_id=f"r-{index}", op="contain", index=index,
                    item=_item(),
                )
            )
        writer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert [json.loads(line)["request_id"] for line in lines] == [
            f"r-{index}" for index in range(5)
        ]
        assert writer.stats()["written"] == 5
        assert writer.stats()["dropped"] == 0

    def test_full_queue_drops_and_counts(self, tmp_path):
        # Wedge the drain thread on the first record: serialization
        # goes through ``default=str``, so an unserializable object
        # whose str() parks on an event blocks the writer thread while
        # the producer floods the 2-slot queue.
        gate = threading.Event()

        class Blocker:
            def __str__(self) -> str:
                gate.wait(timeout=10)
                return "unblocked"

        path = tmp_path / "slow.ndjson"
        writer = AccessLogWriter(str(path), queue_size=2)
        writer.write({"n": Blocker()})
        accepted = [writer.write({"n": index}) for index in range(10)]
        gate.set()
        writer.close()
        assert accepted.count(False) >= 1
        assert writer.dropped == accepted.count(False)
        assert writer.written == accepted.count(True) + 1
        lines = path.read_text().splitlines()
        assert len(lines) == writer.written
        assert json.loads(lines[0]) == {"n": "unblocked"}

    def test_close_is_idempotent_and_rejects_late_writes(self, tmp_path):
        writer = AccessLogWriter(str(tmp_path / "x.ndjson"))
        writer.close()
        writer.close()
        assert writer.write({"late": True}) is False
        assert writer.dropped == 1

    def test_queue_size_validated(self, tmp_path):
        with pytest.raises(ValueError, match="queue_size"):
            AccessLogWriter(str(tmp_path / "x"), queue_size=0)


class TestFlightRecorder:
    def test_ring_keeps_only_the_newest_capacity_records(self):
        recorder = FlightRecorder(capacity=3, slow_ms=1000)
        for index in range(7):
            recorder.record({"request_id": f"r-{index}", "total_ms": 1.0})
        entries = recorder.entries()
        assert [e["request_id"] for e in entries] == ["r-4", "r-5", "r-6"]
        assert recorder.recorded_total == 7
        assert recorder.entries(last=2) == entries[-2:]

    def test_retention_policy_shed_error_slow(self):
        recorder = FlightRecorder(capacity=8, slow_ms=100.0)
        trace = {"name": "check", "children": []}
        cases = [
            ({"shed": "queue_full", "total_ms": 1.0}, True),
            ({"verdict": "error", "total_ms": 1.0}, True),
            ({"op": "invalid", "total_ms": 1.0}, True),
            ({"verdict": "holds", "total_ms": 250.0}, True),  # slow
            ({"verdict": "holds", "total_ms": 1.0, "shed": None}, False),
        ]
        for record, expected in cases:
            assert recorder.retains_trace(record) is expected, record
            recorder.record(record, trace)
        entries = recorder.entries()
        assert [("trace" in e) for e in entries] == [
            expected for _, expected in cases
        ]
        assert recorder.retained_traces == 4

    def test_fast_record_without_trace_still_lands_in_ring(self):
        recorder = FlightRecorder(capacity=4, slow_ms=100.0)
        recorder.record({"verdict": "holds", "total_ms": 1.0})
        assert len(recorder.entries()) == 1
        assert recorder.retained_traces == 0

    def test_dump_shape(self):
        recorder = FlightRecorder(capacity=2, slow_ms=50.0)
        recorder.record({"request_id": "r-1", "total_ms": 60.0},
                        {"name": "check"})
        dump = recorder.dump()
        assert dump["schema"] == FLIGHT_SCHEMA
        assert dump["capacity"] == 2
        assert dump["slow_ms"] == 50.0
        assert dump["recorded_total"] == 1
        assert dump["retained_traces"] == 1
        assert dump["entries"][0]["trace"] == {"name": "check"}

    def test_dump_to_file_round_trips(self, tmp_path):
        recorder = FlightRecorder(capacity=2)
        recorder.record({"request_id": "r-1", "total_ms": 1.0})
        path = recorder.dump_to_file(str(tmp_path / "flight.json"))
        dump = json.loads((tmp_path / "flight.json").read_text())
        assert path == str(tmp_path / "flight.json")
        assert dump["entries"][0]["request_id"] == "r-1"

    def test_threaded_writers_lose_no_records_below_capacity(self):
        # 8 threads x 50 records against a big ring: every append must
        # land exactly once (no torn or lost records under the lock).
        recorder = FlightRecorder(capacity=1000, slow_ms=10_000)
        threads = [
            threading.Thread(
                target=lambda w=writer: [
                    recorder.record({"request_id": f"w{w}-{n}", "total_ms": 0.0})
                    for n in range(50)
                ]
            )
            for writer in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        entries = recorder.entries()
        assert recorder.recorded_total == 400
        assert len(entries) == 400
        ids = [e["request_id"] for e in entries]
        assert len(set(ids)) == 400
        # Per-writer order is preserved within the interleaving.
        for writer in range(8):
            mine = [i for i in ids if i.startswith(f"w{writer}-")]
            assert mine == [f"w{writer}-{n}" for n in range(50)]

    def test_threaded_writers_at_capacity_keep_ring_consistent(self):
        # Overflowing ring under contention: the ring ends exactly at
        # capacity, recorded_total counts every append, and every entry
        # is a complete (untorn) record.
        recorder = FlightRecorder(capacity=32, slow_ms=10_000)
        threads = [
            threading.Thread(
                target=lambda w=writer: [
                    recorder.record(
                        {"request_id": f"w{w}-{n}", "total_ms": float(n)}
                    )
                    for n in range(100)
                ]
            )
            for writer in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        entries = recorder.entries()
        assert recorder.recorded_total == 400
        assert len(entries) == 32
        for entry in entries:
            writer, _, n = entry["request_id"].partition("-")
            assert writer.startswith("w")
            assert entry["total_ms"] == float(n)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


class TestSampler:
    def test_rate_zero_never_samples(self):
        sampler = Sampler(0.0)
        assert not any(sampler.sample() for _ in range(100))

    def test_rate_one_always_samples(self):
        sampler = Sampler(1.0)
        assert all(sampler.sample() for _ in range(100))

    def test_stride_is_deterministic_and_starts_at_the_first(self):
        sampler = Sampler(0.25)
        decisions = [sampler.sample() for _ in range(12)]
        assert decisions == [
            True, False, False, False,
            True, False, False, False,
            True, False, False, False,
        ]

    def test_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            Sampler(1.5)


class TestTelemetryFacade:
    def test_observe_fans_out_to_log_ring_and_profile(self, tmp_path):
        path = tmp_path / "access.ndjson"
        telemetry = Telemetry(
            TelemetryConfig(
                access_log=str(path), slow_ms=0.0, sample_rate=1.0
            )
        )
        trace = {"name": "check-containment", "duration_ms": 2.0,
                 "children": []}
        record = access_record(
            request_id="r-1", op="contain", index=0, item=_item(),
            total_ms=2.0, sampled=True,
        )
        assert telemetry.sample() is True
        telemetry.observe(record, trace)
        telemetry.close()
        assert json.loads(path.read_text())["request_id"] == "r-1"
        assert telemetry.recorder.entries()[0]["trace"] == trace
        profile = telemetry.profile_snapshot()
        assert profile["traces"] == 1
        stats = telemetry.stats()
        assert stats["flight_recorder"]["recorded_total"] == 1
        assert stats["access_log"]["written"] == 1

    def test_only_the_flight_recorder_keeps_the_traceback(self, tmp_path):
        path = tmp_path / "access.ndjson"
        telemetry = Telemetry(TelemetryConfig(access_log=str(path)))
        error = {"type": "ValueError", "message": "boom", "index": 0,
                 "traceback": "Traceback (most recent call last): ..."}
        item = _item(verdict=Verdict.ERROR, method="batch-isolated", error=error)
        record = access_record(request_id="r", op="contain", index=0, item=item)
        telemetry.observe(record, error=error)
        telemetry.close()
        assert telemetry.recorder.entries()[0]["error"] == error
        assert json.loads(path.read_text())["error"] == {
            "type": "ValueError", "message": "boom"
        }

    def test_no_log_no_sampling_is_the_cheap_path(self):
        telemetry = Telemetry(TelemetryConfig())
        assert telemetry.log is None
        assert telemetry.sample() is False
        telemetry.observe(
            access_record(request_id="r", op="contain", index=0, item=_item())
        )
        assert telemetry.stats()["access_log"] is None
        assert telemetry.profile_snapshot()["traces"] == 0
        telemetry.close()  # no-op without a log

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sample_rate"):
            TelemetryConfig(sample_rate=2.0)
        with pytest.raises(ValueError, match="slow_ms"):
            TelemetryConfig(slow_ms=-1.0)
        with pytest.raises(ValueError, match="flight_capacity"):
            TelemetryConfig(flight_capacity=0)
