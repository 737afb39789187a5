"""Property tests for the serving wire protocol.

The protocol contract under test (mirroring ``repro batch`` semantics):

- request/response NDJSON frames round-trip on randomized payloads;
- malformed frames are *isolated* — each becomes an error response at
  its own input position, never an abort and never a shifted neighbour;
- input order is always preserved: the parsed requests' indices plus
  the failure positions partition the input line range exactly.

All properties are derandomized so CI replays the same corpus.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget
from repro.core.batch import BatchItem
from repro.report import Verdict
from repro.serve import protocol

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

#: Valid kind:spec strings drawn by the generators (parse quickly).
VALID_SPECS = (
    "rpq:a a",
    "rpq:a+",
    "rpq:(a b)*",
    "rpq:a|b",
    "rpq:p p- p",
    "rq:ans(x, y) :- [e+](x, y).",
    "datalog:q(x,y) :- e(x,y).",
)

#: Frames that must fail parse_frame outright.
MALFORMED_FRAMES = (
    "not json at all",
    "[1, 2, 3]",
    '"just a string"',
    "{}",
    '{"left": "rpq:a"}',
    '{"left": "rpq:a", "right": 17}',
    '{"left": "nosuchkind:a", "right": "rpq:a"}',
    '{"left": "rpq:((", "right": "rpq:a"}',
    '{"left": "rpq:a", "right": "rpq:a", "op": "explode"}',
    '{"left": "rpq:a", "right": "rpq:a", "deadline_ms": -5}',
    '{"left": "rpq:a", "right": "rpq:a", "deadline_ms": true}',
    '{"left": "rpq:a", "right": "rpq:a", "deadline_ms": NaN}',
    '{"left": "rpq:a", "right": "rpq:a", "deadline_ms": Infinity}',
    '{"left": "rpq:a", "right": "rpq:a", "max_expansions": 0}',
)

#: Lines that must each be isolated as a *workload* parse failure —
#: the malformed frames plus control verbs, which are valid frames but
#: not workload lines.
MALFORMED_LINES = MALFORMED_FRAMES + ('{"op": "health"}', '{"op": "metrics"}')

identifiers = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=24),
    st.none(),
    st.booleans(),
)

valid_records = st.fixed_dictionaries(
    {"left": st.sampled_from(VALID_SPECS), "right": st.sampled_from(VALID_SPECS)},
    optional={
        "id": identifiers,
        "deadline_ms": st.floats(min_value=1.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
        "max_expansions": st.integers(min_value=1, max_value=512),
        "unknown_extra": st.integers(),  # unknown keys are ignored
    },
)

#: A workload line paired with whether it must parse.
lines = st.one_of(
    valid_records.map(lambda r: (json.dumps(r), True)),
    st.sampled_from(MALFORMED_LINES).map(lambda l: (l, False)),
)


class TestFrameParsing:
    @SETTINGS
    @given(record=valid_records, index=st.integers(min_value=0, max_value=10**6))
    def test_valid_frame_parses_with_identity_preserved(self, record, index):
        frame = protocol.parse_frame(json.dumps(record), index)
        assert isinstance(frame, protocol.ContainRequest)
        assert frame.index == index
        assert frame.id == record.get("id", index)
        if "deadline_ms" in record:
            assert frame.deadline_ms == pytest.approx(record["deadline_ms"])
        else:
            assert frame.deadline_ms is None
        assert frame.max_expansions == record.get("max_expansions")

    def test_request_budget_inherits_the_base(self):
        frame = protocol.parse_frame(
            '{"left": "rpq:a", "right": "rpq:a", "deadline_ms": 50, '
            '"max_expansions": 5}'
        )
        base = Budget.auto(deadline_ms=200.0, max_expansions=64)
        budget = frame.budget(base)
        assert budget.deadline_ms == 50.0  # tightened, never extended
        assert budget.max_expansions == 5  # the frame's limit replaces
        assert budget.escalate  # the rest of the base carries over
        assert frame.budget(None) == Budget(deadline_ms=50.0, max_expansions=5)
        bare = protocol.parse_frame('{"left": "rpq:a", "right": "rpq:a"}')
        assert bare.budget(base) is base
        assert bare.budget(None) is None

    @SETTINGS
    @given(line=st.sampled_from(MALFORMED_FRAMES))
    def test_malformed_frame_raises_isolatable_error(self, line):
        with pytest.raises(Exception):
            protocol.parse_frame(line, 0)

    @pytest.mark.parametrize(
        "deadline",
        ["1" + "0" * 400, "-1" + "0" * 400, "NaN", "Infinity", "0", "-5"],
        ids=["401-digits", "negative-401-digits", "nan", "inf", "zero", "negative"],
    )
    def test_deadline_that_bounds_nothing_is_a_protocol_error(self, deadline):
        # A 401-digit integer is finite but too large for a float; it is
        # rejected by name, not by float()'s OverflowError.
        line = '{"left": "rpq:a", "right": "rpq:a", "deadline_ms": %s}' % deadline
        with pytest.raises(protocol.ProtocolError, match="deadline_ms"):
            protocol.parse_frame(line, 0)

    def test_control_verbs_parse(self):
        for verb in protocol.CONTROL_VERBS:
            frame = protocol.parse_frame(json.dumps({"op": verb, "id": "x"}), 7)
            assert isinstance(frame, protocol.ControlRequest)
            assert (frame.verb, frame.id, frame.index) == (verb, "x", 7)
            assert frame.last is None
            assert frame.request_id is None

    def test_debug_verb_accepts_last(self):
        frame = protocol.parse_frame('{"op": "debug", "last": 20}', 0)
        assert isinstance(frame, protocol.ControlRequest)
        assert frame.verb == "debug"
        assert frame.last == 20

    @pytest.mark.parametrize("last", [0, -1, 1.5, True, "five"])
    def test_bad_last_rejected(self, last):
        with pytest.raises(protocol.ProtocolError, match="last"):
            protocol.parse_frame(json.dumps({"op": "debug", "last": last}), 0)

    def test_request_id_propagates_on_contain_and_control(self):
        contain = protocol.parse_frame(
            '{"left": "rpq:a", "right": "rpq:a+", "request_id": "trace-7"}', 0
        )
        assert contain.request_id == "trace-7"
        control = protocol.parse_frame(
            '{"op": "health", "request_id": "probe-1"}', 0
        )
        assert control.request_id == "probe-1"

    @pytest.mark.parametrize(
        "request_id", ["", 7, True, {"nested": 1}, "x" * 129]
    )
    def test_bad_request_id_rejected(self, request_id):
        record = {"left": "rpq:a", "right": "rpq:a+", "request_id": request_id}
        with pytest.raises(protocol.ProtocolError, match="request_id"):
            protocol.parse_frame(json.dumps(record), 0)

    def test_error_item_carries_request_id(self):
        item = protocol.error_item(3, ValueError("boom"), "rid-9")
        assert item.request_id == "rid-9"
        assert item.to_dict()["request_id"] == "rid-9"
        plain = protocol.error_item(3, ValueError("boom"))
        assert "request_id" not in plain.to_dict()


#: Regex specs that fill most of one 64 KiB frame (asyncio's line limit).
_DEEP_SPECS = {
    "parentheses": "(" * 30_000 + "a" + ")" * 30_000,
    "word": " ".join(["a"] * 30_000),
    "alternatives": "|".join(["a"] * 30_000),
    "stacked-stars": "a" + "*" * 60_000,
    "right-nested": "(a " * 15_000 + "a" + ")" * 15_000,
    "star-of-concat": "(" * 12_000 + "a" + " b)*" * 12_000,
    "unclosed": "(" * 60_000 + "a",
}


class TestDeepRegexFrames:
    """No regex in one frame makes parse_frame raise RecursionError, and a
    rejected one is a bounded error response."""

    @pytest.mark.parametrize("name", sorted(_DEEP_SPECS))
    def test_parses_or_is_a_bounded_error(self, name):
        line = json.dumps({"op": "contain", "left": f"rpq:{_DEEP_SPECS[name]}", "right": "rpq:a"})
        assert len(line) < 64 * 1024
        try:
            frame = protocol.parse_frame(line, 0)
        except ValueError as exc:
            item = protocol.error_item(0, exc, "r-1")
            wire = protocol.encode_frame(protocol.response_payload(None, item, index=0))
            assert len(wire.encode()) < 4096
        else:
            assert isinstance(frame, protocol.ContainRequest)
            hash(frame.left)


def _rq_chain(rules: int) -> str:
    lines = ["r0(x, y) :- [a](x, y)."]
    lines += [f"r{i}(x, y) :- r{i - 1}(x, z), [a](z, y)." for i in range(1, rules)]
    return "\n".join(lines)


class TestDeepRQFrames:
    def test_chained_rules_are_a_bounded_rq_syntax_error(self):
        """400 rules, each calling the last: refused as the chain is
        folded (the term would be about 800 levels tall)."""
        from repro.rq.parser import RQSyntaxError

        line = json.dumps({"id": 2, "left": f"rq:{_rq_chain(400)}", "right": "rpq:a"})
        with pytest.raises(RQSyntaxError) as caught:
            protocol.parse_frame(line, 1)
        item = protocol.error_item(1, caught.value, "r-1")
        wire = protocol.encode_frame(protocol.response_payload(None, item, index=1))
        assert len(wire.encode()) < 4096


class TestWorkloadOrderPreservation:
    @SETTINGS
    @given(workload=st.lists(lines, max_size=12))
    def test_positions_partition_the_input(self, workload):
        """Requests + failures cover every line at its input position."""
        text = "\n".join(line for line, _ in workload) + "\n"
        parsed = protocol.parse_workload(text)
        assert parsed.count == len(workload)
        request_positions = [request.index for request in parsed.requests]
        failure_positions = sorted(parsed.failures)
        assert sorted(request_positions + failure_positions) == list(
            range(len(workload))
        )
        # Order preserved: requests come back in input order, and each
        # position's validity matches what was generated for it.
        assert request_positions == sorted(request_positions)
        for position, (_, ok) in enumerate(workload):
            assert (position in parsed.failures) == (not ok)

    @SETTINGS
    @given(workload=st.lists(lines, max_size=12), blanks=st.data())
    def test_blank_lines_are_skipped_not_counted(self, workload, blanks):
        padded: list[str] = []
        for line, _ in workload:
            if blanks.draw(st.booleans()):
                padded.append(blanks.draw(st.sampled_from(["", "   ", "\t"])))
            padded.append(line)
        parsed = protocol.parse_workload("\n".join(padded) + "\n")
        assert parsed.count == len(workload)

    @SETTINGS
    @given(workload=st.lists(lines, max_size=12))
    def test_failures_are_error_items_with_traceback(self, workload):
        text = "\n".join(line for line, _ in workload) + "\n"
        parsed = protocol.parse_workload(text)
        for position, item in parsed.failures.items():
            assert isinstance(item, BatchItem)
            assert item.index == position
            assert item.result.verdict is Verdict.ERROR
            error = item.result.details["error"]
            assert error["type"] and error["message"] is not None


class TestResponseRoundTrip:
    @SETTINGS
    @given(
        identifier=identifiers,
        index=st.integers(min_value=0, max_value=10**6),
        payload_extra=st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.one_of(identifiers, st.floats(allow_nan=False, allow_infinity=False)),
            max_size=4,
        ),
    )
    def test_encode_decode_round_trips(self, identifier, index, payload_extra):
        item = protocol.error_item(index, ValueError("boom"))
        payload = protocol.response_payload(identifier, item, index=index)
        payload.update(payload_extra)
        line = protocol.encode_frame(payload)
        assert line.endswith("\n") and "\n" not in line[:-1]
        decoded = json.loads(line)
        assert decoded == json.loads(json.dumps(payload, default=str))
        assert decoded["id"] == identifier
        assert decoded["index"] == index
        assert decoded["verdict"] == "error"

    def test_response_payload_carries_admission_details(self):
        from repro.serve.admission import shed_result

        result = shed_result(
            "queue_full", queue_depth=9, queue_limit=8, waited_ms=1.5
        )
        payload = protocol.response_payload(
            "r1", BatchItem(4, result, 0.0, None), index=4
        )
        assert payload["admission"]["shed"] == "queue_full"
        assert payload["admission"]["spend"]["queued_ms"] == 1.5
        decoded = json.loads(protocol.encode_frame(payload))
        assert decoded["admission"]["queue_limit"] == 8


class TestSharedWithBatch:
    """The workload parser is the one `repro batch` runs on."""

    def test_smoke_workload_parses_fully(self):
        text = pathlib.Path("benchmarks/workloads/batch_smoke.ndjson").read_text()
        parsed = protocol.parse_workload(text)
        assert len(parsed.requests) == 20
        assert not parsed.failures

    def test_query_spec_errors_are_protocol_errors(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_query_spec("rpq")  # no spec at all
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_query_spec("klingon:a b")


class TestFileSpecGating:
    """``@`` file specs are a local convenience, rejected on the wire."""

    def test_wire_frames_reject_file_specs(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("should never be read")
        frame = json.dumps({"left": f"rpq:@{secret}", "right": "rpq:a+"})
        with pytest.raises(protocol.ProtocolError, match="file specs"):
            protocol.parse_frame(frame, 0)
        with pytest.raises(protocol.ProtocolError, match="file specs"):
            protocol.parse_query_spec(f"rpq:@{secret}")
        # The gate fires before any filesystem access: a nonexistent
        # path raises the same ProtocolError, not FileNotFoundError.
        with pytest.raises(protocol.ProtocolError, match="file specs"):
            protocol.parse_query_spec("rpq:@/no/such/file")

    def test_operator_supplied_specs_may_read_files(self, tmp_path):
        query = tmp_path / "q.rpq"
        query.write_text("a a")
        parsed = protocol.parse_query_spec(f"rpq:@{query}", allow_files=True)
        assert parsed is not None
        line = json.dumps({"left": f"rpq:@{query}", "right": "rpq:a+"})
        workload = protocol.parse_workload(line + "\n")  # files on by default
        assert not workload.failures
        assert len(workload.requests) == 1

    def test_workload_parsing_can_disallow_files(self, tmp_path):
        query = tmp_path / "q.rpq"
        query.write_text("a a")
        line = json.dumps({"left": f"rpq:@{query}", "right": "rpq:a+"})
        workload = protocol.parse_workload(line + "\n", allow_files=False)
        assert not workload.requests
        assert 0 in workload.failures  # isolated, not an abort
