"""Model-based (hypothesis) testing of the simulated queue semantics.

Random operation sequences against the DES queue, checked against an
abstract at-least-once model: messages are conserved, receives only ever
return sent bodies, and successful deletes remove exactly one message.
Long polls run as background processes, so the same invariants are
checked with parked pollers present, some of them interrupted mid-wait.
"""

import numpy as np
from hypothesis import given, settings
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


@given(ops, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=80, deadline=None)
def test_queue_invariants_under_random_operations(operations, seed):
    env = Environment()
    queue = MessageQueue(
        env,
        "model",
        np.random.default_rng(seed),
        visibility_timeout_s=5.0,
        latency_sigma=0.0,
        propagation_delay_s=0.05,
        miss_probability=0.1,
    )
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

    # Every parked waiter belongs to a live poller; once the longest wait
    # has run out, none is left and no wake is outstanding.
    assert len(queue._waiters) <= sum(p.is_alive for p in pollers)
    env.run(until=env.now + 21.0)
    assert not any(p.is_alive for p in pollers)
    assert not queue._waiters and queue._woken == 0
    # Receipts: every held message was issued a distinct receipt.
    receipts = [m.receipt for m in held]
    assert len(set(receipts)) == len(receipts)

    # Conservation: every sent message is either still in the queue or
    # was deleted exactly once.
    assert queue.approximate_size() + len(deleted) == len(sent)
    assert queue.stats.deleted == len(deleted)

    # Everything still in the queue is eventually receivable again:
    # after the visibility window passes, drain with long receipts.
    env.run(until=env.now + queue.visibility_timeout_s + 1.0)
    recoverable = []
    for _ in range(4 * queue.approximate_size() + 8):
        message = drive(env, queue.receive(visibility_timeout_s=1000.0))
        if message is not None:
            recoverable.append(message.body)
    assert len(recoverable) == len(sent) - len(deleted)
    # Multiset conservation: deleted + recoverable == sent.
    assert sorted(recoverable + deleted) == sorted(sent)
