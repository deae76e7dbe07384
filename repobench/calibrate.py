"""A fixed reference kernel that measures how fast the host is right now.

The benchmark runs it before every untraced repeat, on as many threads
as the workload runs.  It is pure Python and uses no program code: a
small generator-driven event loop over a binary heap with dict churn,
the same interpreter paths the simulated workloads exercise.  On a
shared host whose speed drifts (other tenants, frequency changes), the
workload and this kernel slow down together, so
``jobs / wall_s * kernel_s / REFERENCE_S`` cancels most of the drift.
"""

from __future__ import annotations

import heapq
import threading
import time

#: Time of one kernel run on the host the benchmark was defined on
#: (Intel Xeon, 2 vCPUs, 2.1 GHz, Python 3.11): a unit, not a target.
REFERENCE_S = 0.075


def kernel() -> int:
    heap: list = []
    sequence = 0

    def process(k: int):
        state: dict = {}
        for j in range(200):
            state[j] = (k, j)
            yield 0.5 + (k * 7 + j) % 13 * 0.1

    for k in range(300):
        heapq.heappush(heap, (0.0, sequence, process(k)))
        sequence += 1
    while heap:
        now, _, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, sequence, proc))
        sequence += 1
    return sequence


def kernel_seconds(threads: int = 1) -> float:
    """Seconds per kernel run when ``threads`` threads run it at once.

    Threads share the interpreter lock, so several threads measure the
    lock hand-offs as well, which slow with the host the way those of a
    threaded workload do.
    """
    if threads == 1:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    workers = [threading.Thread(target=kernel) for _ in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (time.perf_counter() - start) / threads
