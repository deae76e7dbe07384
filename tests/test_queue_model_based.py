"""Model-based (hypothesis) testing of the simulated queue semantics.

Random operation sequences against the DES queue, checked against an
abstract at-least-once model: messages are conserved, receives only ever
return sent bodies, and successful deletes remove exactly one message.
Long polls run as background processes, so the same invariants are
checked with parked pollers present, some of them interrupted mid-wait.
Variants add at-least-once duplicates (a delivered message left
visible) and a redrive policy that moves messages to a dead-letter
queue; after every operation the visible-set index is checked against
the ordered visible list.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.queue import MessageQueue, StaleReceiptError
from repro.sim import Environment, Interrupt

# Each op is ('send', body) | ('receive',) | ('long_receive', wait)
# | ('interrupt', poller index) | ('delete', held index)
# | ('advance', seconds).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("receive")),
        st.tuples(
            st.just("long_receive"),
            st.floats(min_value=0.5, max_value=20.0),
        ),
        st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=5)),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.1, max_value=20.0),
        ),
    ),
    min_size=1,
    max_size=60,
)


def drive(env, gen):
    return env.run(until=env.process(gen))


def check_visible_index(queue):
    """The visible list is duplicate-free, its index mirrors it exactly,
    and every visible message is live and not in flight."""
    visible = queue._visible
    assert len(set(visible)) == len(visible)
    assert set(visible) == queue._visible_ids
    for message_id in visible:
        assert message_id in queue._messages
        assert message_id not in queue._inflight


@given(
    ops,
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([0.0, 0.5]),
    st.booleans(),
)
# Pinned: a duplicate left visible, then deleted by its receivers.
@example(
    operations=[("send", 1), ("send", 2), ("advance", 1.0)]
    + [("receive",)] * 4
    + [("delete", 0), ("delete", 1), ("delete", 2)],
    seed=0,
    duplicate_probability=1.0,
    redrive=False,
)
# Pinned: a message received twice without a delete is dead-lettered.
@example(
    operations=[("send", 1), ("advance", 1.0), ("receive",)]
    + [("advance", 6.0), ("receive",)] * 3,
    seed=0,
    duplicate_probability=0.0,
    redrive=True,
)
@settings(max_examples=80, deadline=None)
def test_queue_invariants_under_random_operations(
    operations, seed, duplicate_probability, redrive
):
    env = Environment()
    dlq = (
        MessageQueue(
            env, "model-dlq", np.random.default_rng(seed + 1),
            miss_probability=0.0,
        )
        if redrive
        else None
    )
    queue = MessageQueue(
        env,
        "model",
        np.random.default_rng(seed),
        visibility_timeout_s=5.0,
        latency_sigma=0.0,
        propagation_delay_s=0.05,
        miss_probability=0.1,
        duplicate_probability=duplicate_probability,
        max_receive_count=2 if redrive else None,
        dead_letter_queue=dlq,
    )
    queues = [q for q in (queue, dlq) if q is not None]

    def dead_lettered():
        return dlq.peek_bodies() if dlq is not None else []
    sent: list[int] = []
    deleted: list[int] = []
    held = []  # messages we received and might delete
    pollers = []  # background long polls, parked or finished

    def long_poll(wait):
        try:
            message = yield from queue.receive(wait_time_s=wait)
        except Interrupt:
            return
        if message is not None:
            assert message.body in sent
            held.append(message)

    for op in operations:
        if op[0] == "send":
            drive(env, queue.send(op[1]))
            sent.append(op[1])
        elif op[0] == "receive":
            message = drive(env, queue.receive())
            if message is not None:
                # Receives only ever surface sent bodies.
                assert message.body in sent
                held.append(message)
        elif op[0] == "long_receive":
            pollers.append(env.process(long_poll(op[1])))
        elif op[0] == "interrupt":
            live = [p for p in pollers if p.is_alive]
            if live:
                live[op[1] % len(live)].interrupt("crash")
        elif op[0] == "delete":
            if held:
                message = held[op[1] % len(held)]
                before = queue.stats.deleted
                try:
                    drive(env, queue.delete(message))
                except StaleReceiptError:
                    pass  # superseded receipt: legal at-least-once outcome
                if queue.stats.deleted > before:
                    # Deletes are idempotent; only count real removals.
                    deleted.append(message.body)
        else:  # advance
            env.run(until=env.now + op[1])
        for q in queues:
            check_visible_index(q)

    # Every parked waiter belongs to a live poller; once the longest wait
    # has run out, none is left and no wake is outstanding.
    assert len(queue._waiters) <= sum(p.is_alive for p in pollers)
    env.run(until=env.now + 21.0)
    assert not any(p.is_alive for p in pollers)
    assert not queue._waiters and queue._woken == 0
    # Receipts: every held message was issued a distinct receipt.
    receipts = [m.receipt for m in held]
    assert len(set(receipts)) == len(receipts)

    # Conservation: every sent message is still in the queue, was
    # dead-lettered, or was deleted exactly once.
    assert (
        queue.approximate_size() + len(dead_lettered()) + len(deleted)
        == len(sent)
    )
    assert queue.stats.deleted == len(deleted)

    # Everything still in the queue is eventually receivable again:
    # after the visibility window passes, drain with long receipts.  A
    # duplicate stays visible, so a drain may see one message twice.
    env.run(until=env.now + queue.visibility_timeout_s + 1.0)
    recoverable = {}
    for _ in range(20 * queue.approximate_size() + 20):
        if not queue.visible_now():
            break
        message = drive(env, queue.receive(visibility_timeout_s=1000.0))
        if message is not None:
            recoverable[message.message_id] = message.body
        for q in queues:
            check_visible_index(q)
    assert len(recoverable) == len(sent) - len(deleted) - len(dead_lettered())
    # Multiset conservation: deleted + dead-lettered + recoverable == sent.
    assert sorted([*recoverable.values(), *dead_lettered(), *deleted]) == sorted(
        sent
    )
