"""Microbenchmarks of the library's hot paths.

Unlike the figure benches (one-shot simulations), these run repeated
timing rounds over the core computational kernels: the DES event loop,
queue operations, the assembler, BLAST search and GTM interpolation.
Useful for spotting performance regressions when optimizing.
"""

import numpy as np

from repro.apps.blast import BlastDatabase, blast_search
from repro.apps.cap3 import assemble
from repro.apps.fasta import FastaRecord
from repro.apps.gtm import gtm_interpolate, train_gtm
from repro.sim import Environment
from repro.workloads.genome import generate_read_records
from repro.workloads.protein import generate_protein_database, generate_query_records


def test_des_event_throughput(benchmark):
    """Ping-pong processes: measures raw kernel event dispatch."""

    def run_sim():
        env = Environment()

        def ticker(env, period):
            while env.now < 100.0:
                yield env.timeout(period)

        for i in range(10):
            env.process(ticker(env, 0.1 + 0.01 * i))
        env.run()
        return env.now

    result = benchmark(run_sim)
    assert result >= 100.0


def test_queue_operation_throughput(benchmark):
    def churn():
        env = Environment()
        queue_rng = np.random.default_rng(0)
        from repro.cloud.queue import MessageQueue

        queue = MessageQueue(
            env, "bench", queue_rng, latency_sigma=0.0, miss_probability=0.0
        )

        def driver(env):
            for i in range(200):
                yield env.process(queue.send(i))
            for _ in range(200):
                message = yield env.process(queue.receive())
                yield env.process(queue.delete(message))

        env.run(until=env.process(driver(env)))
        return queue.stats.deleted

    assert benchmark(churn) == 200


def test_queue_deep_backlog_throughput(benchmark):
    """The paper's Classic Cloud backlog: every task enqueued up front
    (4096 Cap3 files for 128 workers), then received and deleted one by
    one.  Per-request cost must not grow with queue depth."""
    from repro.cloud.queue import MessageQueue

    n = 4096

    def drain():
        env = Environment()
        queue = MessageQueue(
            env, "bench", np.random.default_rng(0), latency_sigma=0.0,
            miss_probability=0.0,
        )

        def driver(env):
            for start in range(0, n, 10):
                batch = list(range(start, min(start + 10, n)))
                yield from queue.send_batch(batch)
            yield env.timeout(1.0)  # let the last batch propagate
            for _ in range(n):
                message = yield from queue.receive()
                yield from queue.delete(message)

        env.run(until=env.process(driver(env)))
        return queue.stats.deleted

    assert benchmark(drain) == n


def test_assembler_throughput(benchmark):
    reads = generate_read_records(
        60, read_length=200, rng=np.random.default_rng(5)
    )

    def run_assembly():
        return assemble(reads)

    result = benchmark(run_assembly)
    assert result.stats["reads_in"] == 60


def test_blast_search_throughput(benchmark):
    db = generate_protein_database(30, seed=1)
    queries = generate_query_records(db, 10, seed=2)

    def search():
        return blast_search(queries, db)

    results = benchmark(search)
    assert len(results) == 10


def test_gtm_interpolation_throughput(benchmark):
    rng = np.random.default_rng(3)
    model = train_gtm(
        rng.normal(size=(200, 32)), latent_per_dim=8, rbf_per_dim=3,
        iterations=5,
    )
    points = rng.normal(size=(20_000, 32))

    def interpolate():
        return gtm_interpolate(model, points, batch_size=5000)

    latent = benchmark(interpolate)
    assert latent.shape == (20_000, 2)


def test_classiccloud_simulation_throughput(benchmark):
    """End-to-end simulator speed: tasks simulated per wall second."""
    from repro.cloud.failures import FaultPlan
    from repro.core.application import get_application
    from repro.core.backends import make_backend
    from repro.workloads.genome import cap3_task_specs

    app = get_application("cap3")
    tasks = cap3_task_specs(128, reads_per_file=200)

    def run_sim():
        backend = make_backend(
            "ec2", n_instances=2, fault_plan=FaultPlan.none(), seed=1
        )
        return backend.run(app, tasks)

    result = benchmark(run_sim)
    assert len(result.completed_task_ids) == 128
