"""Every degraded verdict carries one budget block, whoever degraded it.

A bounded or inconclusive answer names the resource that ran out and
accounts for what was spent, in ``details["budget"]`` with exactly the
keys ``exhausted``, ``spent``, ``limit`` and ``spend``.  Each producer
is driven end to end here: a meter inside the engine (a counter and a
deadline), the batch layer's pool deadline and start deadline, the
server's door shed and dequeue shed, and staged escalation that had no
time for a single round.  A verdict for a check that never ran also
carries the same kernel block, ``{"selected": None}``, as the batch
layer's ``ERROR`` verdict.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro.budget import Budget
from repro.core.batch import ContainmentExecutor, check_containment_many
from repro.core.engine import check_containment
from repro.report import Verdict
from repro.rpq.rpq import RPQ, TwoRPQ

from tests.serve.test_server import HOLDS_FRAME, blocking_check, running_server

BUDGET_KEYS = {"exhausted", "spent", "limit", "spend"}
NOT_RUN_KERNEL = {"selected": None}


def assert_budget_block(details, exhausted):
    budget = details["budget"]
    assert set(budget) == BUDGET_KEYS, budget
    assert budget["exhausted"] == exhausted


def test_meter_counter_exhaustion():
    result = check_containment(
        TwoRPQ.parse("p"), TwoRPQ.parse("p p- p"), budget=Budget(max_configs=1)
    )
    assert result.verdict is Verdict.HOLDS_UP_TO_BOUND
    assert_budget_block(result.details, "configs")


def test_meter_deadline_exhaustion():
    # The 2RPQ window family at n = 12, on the engine's default path.
    window = " ".join(["(a|b)"] * 12)
    result = check_containment(
        TwoRPQ.parse(f"(a|b)* a {window}"),
        TwoRPQ.parse(f"(a|b)* a (a|b) {window} (a- a)*"),
        budget=Budget(deadline_ms=30.0),
    )
    assert result.verdict is Verdict.INCONCLUSIVE
    assert_budget_block(result.details, "deadline")


def test_pool_deadline():
    pairs = [(RPQ.parse("a a"), RPQ.parse("a+"))] * 6
    batch = check_containment_many(pairs, workers=1, pool_deadline_ms=0.01)
    starved = [i for i in batch if i.result.method == "batch-pool-deadline"]
    assert starved
    for item in starved:
        assert item.result.verdict is Verdict.INCONCLUSIVE
        assert_budget_block(item.result.details, "pool_deadline")
        assert item.result.details["kernel"] == NOT_RUN_KERNEL


def test_error():
    batch = check_containment_many([("not a query", RPQ.parse("a"))], workers=1)
    result = batch.items[0].result
    assert result.verdict is Verdict.ERROR
    assert result.details["budget"] == {"spend": {}}
    assert result.details["kernel"] == NOT_RUN_KERNEL


def test_start_deadline():
    async def run():
        async with ContainmentExecutor(workers=1) as executor:
            return await executor.submit(
                RPQ.parse("a a"), RPQ.parse("a+"), start_deadline=time.monotonic() - 1.0
            )

    item = asyncio.run(run())
    assert item.result.method == "start-deadline"
    assert item.result.verdict is Verdict.INCONCLUSIVE
    assert_budget_block(item.result.details, "start_deadline")
    # Both in milliseconds: how late the dequeue was, against none allowed.
    assert item.result.details["budget"]["limit"] == 0
    assert item.result.details["budget"]["spent"] > 0
    assert item.result.details["kernel"] == NOT_RUN_KERNEL


def test_escalation_with_no_time_for_a_round():
    result = check_containment(
        RPQ.parse("a a"), RPQ.parse("a+"), budget=Budget.auto(deadline_ms=0)
    )
    assert result.method == "escalation"
    assert result.verdict is Verdict.INCONCLUSIVE
    assert_budget_block(result.details, "deadline")
    assert result.details["budget"]["limit"] == 0
    assert result.details["escalation"]["rounds"] == []
    assert result.details["kernel"] == NOT_RUN_KERNEL


def _serve(frames, monkeypatch, **config):
    """Send *frames* to a server whose one worker is parked until the
    frames are admitted or shed; return the responses in order."""
    gate = threading.Event()
    monkeypatch.setattr("repro.core.batch.check_containment", blocking_check(gate))

    async def run():
        async with running_server(workers=1, **config) as (server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write("".join(frame + "\n" for frame in frames).encode())
            await writer.drain()
            writer.write_eof()
            for _ in range(500):
                admission = server._admission
                if admission.pending + admission.shed_total >= len(frames):
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # past every frame's start deadline
            gate.set()
            responses = [json.loads(line) async for line in reader]
            writer.close()
            return responses

    return asyncio.run(run())


def test_door_shed(monkeypatch):
    responses = _serve([HOLDS_FRAME] * 2, monkeypatch, queue_limit=1)
    shed = responses[1]
    assert shed["method"] == "serve-admission"
    assert shed["admission"]["shed"] == "queue_full"
    assert_budget_block(shed, "admission:queue_full")
    assert shed["kernel"] == NOT_RUN_KERNEL


def test_dequeue_shed(monkeypatch):
    late = json.dumps(
        {"id": "late", "left": "rpq:a a", "right": "rpq:a+", "deadline_ms": 20}
    )
    responses = _serve([HOLDS_FRAME, late], monkeypatch, queue_limit=8)
    shed = responses[1]
    assert shed["method"] == "serve-admission"
    assert shed["admission"]["shed"] == "deadline"
    assert shed["admission"]["queue_depth"] == 2
    assert_budget_block(shed, "admission:deadline")
    assert shed["budget"]["limit"] == 20
    assert shed["kernel"] == NOT_RUN_KERNEL
