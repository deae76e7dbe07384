"""Draw-for-draw parity of the simulated queue's visible-set bookkeeping.

``MessageQueue`` keeps a set index of its visible ids next to the
ordered visible list, so no request scans the backlog.  The index must
not change a single event or random draw: the list order decides which
message each receive returns.  ``_ListOnlyQueue`` below is the list-only
bookkeeping the index replaced, kept verbatim as an executable
specification, and seeded random operation traces are played through
both queues side by side.
"""

import heapq
from dataclasses import asdict, replace
from typing import Generator

import numpy as np
import pytest

from repro.cloud.queue import Message, MessageQueue, StaleReceiptError
from repro.sim import Environment, Interrupt


# -- list-only reference (pre-index code, verbatim) -----------------------


class _ListOnlyQueue(MessageQueue):
    def _promote_due(self) -> None:
        """Move pending messages whose visible_at has passed into view."""
        while self._pending and self._pending[0][0] <= self.env.now:
            entry_time, _, message_id = heapq.heappop(self._pending)
            message = self._messages.get(message_id)
            if message is None:
                continue  # deleted while pending
            if entry_time < message.visible_at:
                continue  # superseded by a visibility extension
            was_inflight = self._inflight.pop(message_id, None)
            if was_inflight is not None:
                self.stats.reappearances += 1
                self._m_redeliveries.inc()
                # Redrive policy: poison messages go to the DLQ instead
                # of reappearing forever.
                if (
                    self.max_receive_count is not None
                    and message.receive_count >= self.max_receive_count
                ):
                    del self._messages[message_id]
                    self.stats.dead_lettered += 1
                    self._m_dead_letters.inc()
                    self._set_depth()
                    if self.dead_letter_queue is not None:
                        self.dead_letter_queue._accept_dead_letter(message)
                    continue
            if message_id not in self._visible:
                self._visible.append(message_id)

    def receive(
        self,
        visibility_timeout_s: float | None = None,
        wait_time_s: float = 0.0,
    ) -> Generator:
        if wait_time_s < 0:
            raise ValueError("wait_time_s must be non-negative")
        self._meter_request()
        yield self.env.timeout(self._latency())
        self._promote_due()
        if not self._visible and wait_time_s > 0:
            yield from self._park(wait_time_s)
        if not self._visible:
            self.stats.empty_receives += 1
            self._m_empty_receives.inc()
            return None
        if self.miss_probability and self.rng.random() < self.miss_probability:
            self.stats.empty_receives += 1
            self._m_empty_receives.inc()
            if self._waiters:
                self._wake()
            return None
        index = int(self.rng.integers(len(self._visible)))
        message_id = self._visible[index]
        message = self._messages[message_id]
        message.receive_count += 1
        if message.receive_count > 1:
            self.stats.duplicate_deliveries += 1
        if message.first_received_at is None:
            message.first_received_at = self.env.now
        message.receipt = next(self._receipts)
        timeout = (
            self.visibility_timeout_s
            if visibility_timeout_s is None
            else visibility_timeout_s
        )
        duplicated = (
            self.duplicate_probability
            and self.rng.random() < self.duplicate_probability
        )
        if not duplicated:
            self._visible.pop(index)
            self._inflight[message_id] = message.receipt
            message.visible_at = self.env.now + timeout
            self._schedule_visible(message.visible_at, message_id)
        elif self._waiters:
            self._wake()  # the duplicate stays visible for the next waiter
        self.stats.received += 1
        # Hand back a snapshot: the receipt of *this* receive must not
        # mutate when the message is later re-received by someone else.
        return replace(message)

    def delete(self, message: Message) -> Generator:
        self._meter_request()
        yield self.env.timeout(self._latency())
        # Chaos: the request is metered and paid for, but the server
        # never processes it — the message stays in flight and will
        # reappear after the visibility timeout (benign duplicate).
        if (
            self.delete_loss_probability
            and self.rng.random() < self.delete_loss_probability
        ):
            self.stats.lost_deletes += 1
            return
        current = self._inflight.get(message.message_id)
        if current is not None and current != message.receipt:
            self.stats.stale_deletes += 1
            raise StaleReceiptError(
                f"receipt {message.receipt} superseded by {current}"
            )
        self._inflight.pop(message.message_id, None)
        if self._messages.pop(message.message_id, None) is not None:
            self.stats.deleted += 1
            self._set_depth()
        if message.message_id in self._visible:
            self._visible.remove(message.message_id)


# -- trace driver -------------------------------------------------------------

# Every variant redelivers, duplicates and misses; most also dead-letter.
VARIANTS = {
    "redrive": dict(
        miss_probability=0.1, duplicate_probability=0.15, max_receive_count=2
    ),
    "duplicate-heavy": dict(
        miss_probability=0.05,
        duplicate_probability=0.4,
        delete_loss_probability=0.1,
        max_receive_count=2,
    ),
    "no-redrive": dict(miss_probability=0.1, duplicate_probability=0.15),
}


def _trace(seed: int, length: int) -> list[tuple]:
    """A seeded random operation trace, shared by both sides."""
    rng = np.random.default_rng(seed)
    kinds = [
        "send", "send_batch", "receive", "long_receive", "dlq_receive",
        "interrupt", "delete", "change_visibility", "advance",
    ]
    weights = np.array([3, 2, 6, 2, 1, 1, 4, 1, 3], dtype=float)
    trace = []
    body = 0
    for kind in rng.choice(kinds, size=length, p=weights / weights.sum()):
        if kind == "send":
            trace.append(("send", body))
            body += 1
        elif kind == "send_batch":
            size = int(rng.integers(1, 11))
            trace.append(("send_batch", list(range(body, body + size))))
            body += size
        elif kind == "receive":
            override = [None, None, 0.0, 1.5, 12.0][int(rng.integers(5))]
            trace.append(("receive", override))
        elif kind == "long_receive":
            trace.append(("long_receive", float(rng.uniform(0.5, 8.0))))
        elif kind in ("interrupt", "delete"):
            trace.append((kind, int(rng.integers(1 << 16))))
        elif kind == "change_visibility":
            trace.append(
                (kind, int(rng.integers(1 << 16)), float(rng.uniform(0, 6)))
            )
        elif kind == "advance":
            trace.append(("advance", float(rng.exponential(2.0))))
        else:
            trace.append((kind,))
    return trace


def _snapshot(value):
    if isinstance(value, Message):
        return asdict(value)
    return value


class _Side:
    """One queue (and its DLQ) on its own event loop."""

    def __init__(self, cls: type[MessageQueue], seed: int, params: dict):
        self.env = Environment()
        self.dlq = None
        if params.get("max_receive_count") is not None:
            self.dlq = cls(
                self.env, "dlq", np.random.default_rng(seed + 1),
                miss_probability=0.0,
            )
        self.queue = cls(
            self.env, "tasks", np.random.default_rng(seed),
            visibility_timeout_s=4.0,
            dead_letter_queue=self.dlq,
            **params,
        )
        self.held: list[Message] = []  # every receipt ever issued
        self.polled: list = []  # long-poll outcomes, in completion order
        self.pollers: list = []

    def _drive(self, gen):
        try:
            return self.env.run(until=self.env.process(gen))
        except StaleReceiptError as exc:
            return ("stale", str(exc))

    def _long_poll(self, wait: float):
        try:
            message = yield from self.queue.receive(wait_time_s=wait)
        except Interrupt:
            self.polled.append("interrupted")
            return
        if message is not None:
            self.held.append(message)
        self.polled.append(_snapshot(message))

    def apply(self, op: tuple):
        kind = op[0]
        if kind == "send":
            return self._drive(self.queue.send(op[1]))
        if kind == "send_batch":
            return self._drive(self.queue.send_batch(op[1]))
        if kind == "receive":
            message = self._drive(self.queue.receive(op[1]))
            if message is not None:
                self.held.append(message)
            return _snapshot(message)
        if kind == "long_receive":
            self.pollers.append(self.env.process(self._long_poll(op[1])))
            return None
        if kind == "dlq_receive":
            if self.dlq is None:
                return None
            return _snapshot(self._drive(self.dlq.receive()))
        if kind == "interrupt":
            live = [p for p in self.pollers if p.is_alive]
            if live:
                live[op[1] % len(live)].interrupt("crash")
            return len(live)
        if kind == "delete":
            if not self.held:
                return None
            return self._drive(
                self.queue.delete(self.held[op[1] % len(self.held)])
            )
        if kind == "change_visibility":
            if not self.held:
                return None
            message = self.held[op[1] % len(self.held)]
            return self._drive(self.queue.change_visibility(message, op[2]))
        self.env.run(until=self.env.now + op[1])
        return None

    def observe(self) -> dict:
        queues = [q for q in (self.queue, self.dlq) if q is not None]
        return {
            "now": self.env.now,
            "events_scheduled": self.env.events_scheduled,
            "stats": [asdict(q.stats) for q in queues],
            "rng": [q.rng.bit_generator.state for q in queues],
            "polled": list(self.polled),
            "size": [q.approximate_size() for q in queues],
        }


def _play(seed: int, params: dict, length: int) -> _Side:
    reference = _Side(_ListOnlyQueue, seed, params)
    indexed = _Side(MessageQueue, seed, params)
    for step, op in enumerate(_trace(seed, length)):
        expected = reference.apply(op)
        got = indexed.apply(op)
        assert got == expected, f"step {step} {op}: returned value diverged"
        assert indexed.observe() == reference.observe(), (
            f"step {step} {op}: queue state diverged"
        )
    return indexed


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("seed", range(6))
def test_indexed_queue_matches_list_only_reference(variant, seed):
    side = _play(seed, VARIANTS[variant], length=220)
    # The trace must actually reach the paths the index touches.
    stats = side.queue.stats
    assert stats.reappearances > 0
    assert stats.duplicate_deliveries > 0
    assert stats.empty_receives > 0
    assert stats.deleted > 0
    if side.dlq is not None:
        assert stats.dead_lettered > 0


def test_deleting_a_visible_duplicate_matches_reference():
    """The one path that still calls ``list.remove``: a duplicate left
    visible is deleted by its receiver, in the middle of a backlog."""
    params = dict(miss_probability=0.0, duplicate_probability=1.0)
    ops = [("send_batch", list(range(10)))]
    ops += [("receive", None)] * 4
    ops += [("delete", 1), ("delete", 2), ("receive", None), ("delete", 0)]
    ops += [("receive", None)] * 3
    reference = _Side(_ListOnlyQueue, 11, params)
    indexed = _Side(MessageQueue, 11, params)
    reference.env.run(until=1.0)
    indexed.env.run(until=1.0)
    for op in ops:
        assert indexed.apply(op) == reference.apply(op)
        assert indexed.observe() == reference.observe()
    assert indexed.queue.stats.deleted > 0
    assert indexed.queue._visible == reference.queue._visible


def test_deep_backlog_matches_reference():
    """A 4096-message backlog drained by short polls, with redelivery."""
    params = dict(miss_probability=0.02, duplicate_probability=0.01)
    reference = _Side(_ListOnlyQueue, 5, params)
    indexed = _Side(MessageQueue, 5, params)
    ops = [("send_batch", list(range(i, i + 8))) for i in range(0, 4096, 8)]
    ops += [("receive", None), ("delete", -1)] * 3000
    ops += [("advance", 5.0)] + [("receive", None)] * 500
    for op in ops:
        assert indexed.apply(op) == reference.apply(op)
    assert indexed.observe() == reference.observe()
    assert indexed.queue._visible == reference.queue._visible
    assert indexed.queue.stats.reappearances > 0
