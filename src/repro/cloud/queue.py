"""Simulated distributed message queue (Amazon SQS / Azure Queue).

Semantics modelled straight from the paper's SQS description:

* **at-least-once, unordered** delivery — no FIFO guarantee; a receive
  returns *some* visible message (uniformly chosen);
* **eventual consistency** — a freshly sent message only becomes visible
  after a short propagation delay, and a receive may return empty even
  when messages exist (availability is only guaranteed *over multiple
  requests*);
* **visibility timeout** — a received message is hidden from other
  consumers until the timeout expires; if the consumer does not delete it
  in time, the message *reappears* and will be processed again (this is
  the Classic Cloud framework's entire fault-tolerance story);
* **receipt handles** — deletion requires the receipt from the most recent
  receive; a stale receipt fails, exactly like SQS after a reappearance;
* priced per API request.

Every operation is a DES process generator paying a request latency.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Generator

import numpy as np

from repro.cloud.billing import CostMeter
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment, Event, Timeout

__all__ = ["Message", "MessageQueue", "QueueStats", "StaleReceiptError"]


class StaleReceiptError(RuntimeError):
    """Delete attempted with a receipt that is no longer current."""


def _check_visibility_timeout(timeout_s: float) -> None:
    # SQS rejects a negative VisibilityTimeout; zero (visible again at
    # once) is legal.
    if timeout_s < 0:
        raise ValueError(
            f"visibility timeout must be non-negative, got {timeout_s}"
        )


@dataclass
class Message:
    """A queue message as seen by a consumer."""

    message_id: int
    body: Any
    enqueued_at: float
    receive_count: int = 0
    receipt: int = 0  # changes on every receive
    first_received_at: float | None = None
    visible_at: float = 0.0  # authoritative next-visible time


@dataclass
class QueueStats:
    """Observable counters for tests and experiments."""

    sent: int = 0
    received: int = 0
    empty_receives: int = 0
    deleted: int = 0
    reappearances: int = 0
    duplicate_deliveries: int = 0
    stale_deletes: int = 0
    lost_deletes: int = 0  # delete requests dropped by chaos injection
    dead_lettered: int = 0
    requests: int = 0  # every priced API request (send/receive/delete/...)


class MessageQueue:
    """One simulated SQS queue / Azure queue."""

    def __init__(
        self,
        env: Environment,
        name: str,
        rng: np.random.Generator,
        meter: CostMeter | None = None,
        visibility_timeout_s: float = 300.0,
        request_latency_s: float = 0.020,
        latency_sigma: float = 0.35,
        propagation_delay_s: float = 0.050,
        miss_probability: float = 0.02,
        duplicate_probability: float = 0.0,
        delete_loss_probability: float = 0.0,
        max_receive_count: int | None = None,
        dead_letter_queue: "MessageQueue | None" = None,
    ):
        """Create a queue.

        ``visibility_timeout_s`` is the default hide window after a receive.
        ``propagation_delay_s`` is how long a sent message takes to become
        receivable.  ``miss_probability`` is the chance a receive returns
        empty despite visible messages (eventual-consistency artefact).
        ``duplicate_probability`` is the chance a received message is *also*
        left visible (at-least-once duplication artefact).
        ``delete_loss_probability`` is the chance a delete request is
        silently dropped server-side: the client believes the message is
        gone, but it stays in flight and reappears after the visibility
        timeout — a benign duplicate, the way real SQS loses deletes.
        :mod:`repro.chaos` raises it during queue-chaos windows.

        ``max_receive_count`` with ``dead_letter_queue`` configures an
        SQS-style redrive policy: a message received more than
        ``max_receive_count`` times without deletion moves to the DLQ
        instead of reappearing — the defence against *poison tasks*
        (tasks that crash every worker), which the paper's "rare
        re-execution is harmless" argument does not cover.
        """
        if max_receive_count is not None and max_receive_count < 1:
            raise ValueError("max_receive_count must be >= 1")
        _check_visibility_timeout(visibility_timeout_s)
        self.env = env
        self.name = name
        self.rng = rng
        # Bound method caches for the per-request hot path.
        self._lognormal = rng.lognormal
        self.meter = meter
        self.visibility_timeout_s = visibility_timeout_s
        self.request_latency_s = request_latency_s
        self.latency_sigma = latency_sigma
        self.propagation_delay_s = propagation_delay_s
        self.miss_probability = miss_probability
        self.duplicate_probability = duplicate_probability
        self.delete_loss_probability = delete_loss_probability
        self.max_receive_count = max_receive_count
        self.dead_letter_queue = dead_letter_queue
        self.stats = QueueStats()
        # Metrics instruments fetched once; null no-ops unless a caller
        # wrapped this run in repro.obs.observe().
        obs = _current_obs()
        metrics = obs.metrics
        self._m_requests = metrics.counter(f"queue.{name}.requests")
        self._m_depth = metrics.gauge(f"queue.{name}.depth")
        # Timeline sampling: depth over sim time (null no-op by default).
        self._timeline = obs.timeline
        self._tl_depth = f"queue.{name}.depth"
        self._m_redeliveries = metrics.counter(f"queue.{name}.redeliveries")
        self._m_dead_letters = metrics.counter(f"queue.{name}.dead_letters")
        self._m_empty_receives = metrics.counter(f"queue.{name}.empty_receives")
        self._ids = itertools.count()
        self._receipts = itertools.count(1)
        self._messages: dict[int, Message] = {}
        # (visible_at, seq, message_id): both fresh sends and in-flight
        # (invisible) messages wait here until their visible_at.
        self._pending: list[tuple[float, int, int]] = []
        self._seq = itertools.count()
        # Receivable ids in promotion order.  The order is part of the
        # seeded contract (a receive draws an index into this list), so
        # removals keep it; ``_visible_ids`` mirrors its membership so no
        # request has to scan the backlog.
        self._visible: list[int] = []
        self._visible_ids: set[int] = set()
        self._inflight: dict[int, int] = {}  # message_id -> current receipt
        # Long polling: parked receives in FIFO wake order, how many were
        # woken but have not resumed yet, and the one alarm timer that
        # wakes them when a pending message becomes visible.  Short polls
        # never touch any of it.
        self._waiters: deque[Event] = deque()
        self._woken = 0
        self._alarm: Timeout | None = None
        self._alarm_at = math.inf
        # Sanitizer hook: a SanitizedEnvironment enrols the queue in
        # stale-receipt leak detection (repro.lint.sanitizer).
        register = getattr(env, "register_queue", None)
        if register is not None:
            register(self)

    # -- internals --------------------------------------------------------------
    def _latency(self) -> float:
        return self.request_latency_s * float(
            self._lognormal(0.0, self.latency_sigma)
        )

    def _meter_request(self) -> None:
        self.stats.requests += 1
        self._m_requests.inc()
        if self.meter is not None:
            self.meter.record_queue_request()

    def _set_depth(self) -> None:
        depth = len(self._messages)
        self._m_depth.set(depth)
        self._timeline.sample(self._tl_depth, self.env.now, depth)

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
            if message_id not in self._visible_ids:
                self._visible_ids.add(message_id)
                self._visible.append(message_id)

    def _schedule_visible(self, visible_at: float, message_id: int) -> None:
        """Queue a message to (re)appear at ``visible_at``."""
        heapq.heappush(
            self._pending, (visible_at, next(self._seq), message_id)
        )
        if self._waiters and visible_at < self._alarm_at:
            self._arm()

    # -- long polling -------------------------------------------------------------
    def _arm(self) -> None:
        """Keep the alarm at the earliest live pending ``visible_at``.

        Stale heads (deleted messages, superseded visibility windows) are
        dropped on the way; ``_promote_due`` would skip them anyway.  An
        alarm replaced by an earlier one still fires, and does nothing.
        """
        pending, messages = self._pending, self._messages
        while pending:
            visible_at, _, message_id = pending[0]
            message = messages.get(message_id)
            if message is not None and visible_at >= message.visible_at:
                break
            heapq.heappop(pending)
        else:
            return
        if visible_at < self._alarm_at:
            self._alarm_at = visible_at
            self._alarm = alarm = self.env.timeout(
                max(0.0, visible_at - self.env.now)
            )
            alarm.callbacks.append(self._ring)

    def _ring(self, alarm: Event) -> None:
        if alarm is not self._alarm:
            return  # superseded by an earlier alarm
        self._alarm = None
        self._alarm_at = math.inf
        if self._waiters:
            self._promote_due()
            self._wake()
            if self._waiters:
                self._arm()

    def _wake(self) -> None:
        """Hand each unclaimed visible message to one parked waiter."""
        waiters = self._waiters
        while waiters and len(self._visible) > self._woken:
            self._woken += 1
            waiters.popleft().succeed(True)

    def _expire(self, waiter: Event, _deadline: Event) -> None:
        """Deadline callback: release a still-parked waiter empty."""
        if not waiter.triggered:
            self._waiters.remove(waiter)
            waiter.succeed(False)

    def _park(self, wait_time_s: float) -> Generator:
        """Hold a long poll until a message is visible or time runs out.

        The receive parks on one Event at the back of the waiter line.
        A waiter woken for a message that another consumer took first
        re-parks at the front, under the same deadline.
        """
        env = self.env
        deadline = env.timeout(wait_time_s)
        park = self._waiters.append
        while not self._visible and not deadline.processed:
            waiter = env.event()
            park(waiter)
            park = self._waiters.appendleft
            expire = partial(self._expire, waiter)
            deadline.callbacks.append(expire)
            self._arm()
            resumed = False
            try:
                yield waiter
                resumed = True
            finally:
                if not waiter.triggered:
                    # Interrupted while parked (spot preemption, a chaos
                    # crash, a draining host): leave no dead waiter.
                    self._waiters.remove(waiter)
                    deadline.callbacks.remove(expire)
                elif waiter.value:
                    self._woken -= 1
                    if not resumed:
                        self._wake()  # pass the wake on

    # -- operations ---------------------------------------------------------------
    def send(self, body: Any) -> Generator:
        """Enqueue a message (process).  Returns its message id."""
        self._meter_request()
        yield self.env.timeout(self._latency())
        message_id = next(self._ids)
        visible_at = self.env.now + self.propagation_delay_s
        self._messages[message_id] = Message(
            message_id=message_id,
            body=body,
            enqueued_at=self.env.now,
            visible_at=visible_at,
        )
        self._schedule_visible(visible_at, message_id)
        self.stats.sent += 1
        self._set_depth()
        return message_id

    def _accept_dead_letter(self, message: Message) -> None:
        """Server-side redrive: take a poison message from a source
        queue (no client request, no latency)."""
        message_id = next(self._ids)
        self._messages[message_id] = Message(
            message_id=message_id,
            body=message.body,
            enqueued_at=self.env.now,
            receive_count=message.receive_count,
            visible_at=self.env.now,
        )
        self._schedule_visible(self.env.now, message_id)
        self.stats.sent += 1
        self._set_depth()

    def send_batch(self, bodies: list[Any]) -> Generator:
        """Enqueue up to 10 messages in one API request (process).

        Mirrors SQS ``SendMessageBatch``: one metered request and one
        round-trip latency for the whole batch.  Returns the message ids.
        """
        if not 1 <= len(bodies) <= 10:
            raise ValueError("batch size must be 1..10")
        self._meter_request()
        yield self.env.timeout(self._latency())
        ids = []
        for body in bodies:
            message_id = next(self._ids)
            visible_at = self.env.now + self.propagation_delay_s
            self._messages[message_id] = Message(
                message_id=message_id,
                body=body,
                enqueued_at=self.env.now,
                visible_at=visible_at,
            )
            self._schedule_visible(visible_at, message_id)
            self.stats.sent += 1
            ids.append(message_id)
        self._set_depth()
        return ids

    def receive(
        self,
        visibility_timeout_s: float | None = None,
        wait_time_s: float = 0.0,
    ) -> Generator:
        """Receive one message (process).

        Returns a :class:`Message` (with a fresh receipt) or ``None`` on an
        empty receive.  The message is hidden for ``visibility_timeout_s``
        (queue default if omitted).

        ``wait_time_s`` > 0 enables *long polling* (SQS
        ``ReceiveMessage`` with ``WaitTimeSeconds``): if nothing is
        visible, the one metered request parks until a message becomes
        visible or the wait expires, and is woken at exactly that sim
        time.  ``wait_time_s=0`` is the short poll: one look, then empty.
        """
        if wait_time_s < 0:
            raise ValueError("wait_time_s must be non-negative")
        if visibility_timeout_s is not None:
            _check_visibility_timeout(visibility_timeout_s)
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
            self._visible_ids.remove(message_id)
            self._inflight[message_id] = message.receipt
            message.visible_at = self.env.now + timeout
            self._schedule_visible(message.visible_at, message_id)
        elif self._waiters:
            self._wake()  # the duplicate stays visible for the next waiter
        self.stats.received += 1
        # Hand back a snapshot: the receipt of *this* receive must not
        # mutate when the message is later re-received by someone else.
        return Message(
            message_id,
            message.body,
            message.enqueued_at,
            message.receive_count,
            message.receipt,
            message.first_received_at,
            message.visible_at,
        )

    def delete(self, message: Message) -> Generator:
        """Delete a received message (process).

        Fails with :class:`StaleReceiptError` if the message reappeared and
        was re-received since this receipt was issued — the later consumer
        now owns it.
        """
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
        if message.message_id in self._visible_ids:
            # A duplicate left visible, or a reappeared message deleted
            # under its last receipt: rare, so the ordered scan is fine.
            self._visible_ids.remove(message.message_id)
            self._visible.remove(message.message_id)

    def change_visibility(self, message: Message, timeout_s: float) -> Generator:
        """Extend/shrink the visibility window of an in-flight message."""
        _check_visibility_timeout(timeout_s)
        self._meter_request()
        yield self.env.timeout(self._latency())
        if self._inflight.get(message.message_id) != message.receipt:
            raise StaleReceiptError("message not in flight under this receipt")
        live = self._messages[message.message_id]
        live.visible_at = self.env.now + timeout_s
        self._schedule_visible(live.visible_at, message.message_id)

    # -- inspection (no simulated time) ---------------------------------------
    def peek_bodies(self) -> list[Any]:
        """Bodies of all undeleted messages (test/diagnostic helper)."""
        return [m.body for m in self._messages.values()]

    def approximate_size(self) -> int:
        """Messages not yet deleted (visible + in flight + propagating)."""
        return len(self._messages)

    def visible_now(self) -> int:
        """Messages receivable at this instant (test helper)."""
        self._promote_due()
        return len(self._visible)
