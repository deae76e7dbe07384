"""Byte-identity goldens for the simulated backends.

Fourteen seeded scenarios — eight Classic Cloud batch runs (40 Cap3
files on HCXL 2 x 8, seed 13), three job-service runs, two Hadoop runs
and one DryadLINQ run (40 Cap3 files on 4 bare-metal nodes) — each
reduce to one SHA-256 over everything the run observably produced:

* for the queue-worker fleets, the sanitizer's kernel event trace
  (``env.trace_text()``) and ``env.events_scheduled``;
* every :class:`~repro.core.task.TaskRecord`;
* the batch result's makespan, extras, billing, completed and failed
  sets, or the service result's ``to_dict()``;
* the exported Chrome ``traceEvents`` (spans, instants, timeline
  counters) of the run under :func:`repro.obs.observe`.

Any change to a worker loop or a per-task fault draw that reorders a
process, moves an RNG draw, adds a kernel event or a timeline sample
fails here, which the same-commit determinism tests (two runs of one
build) cannot catch.

Regenerate (only on a deliberate behaviour change) with::

    PYTHONPATH=src python tests/test_fleet_golden.py
"""

import dataclasses
import hashlib
import json
import os
from unittest import mock

import pytest

from repro.autoscale.plan import AutoscalePlan
from repro.chaos import ChaosPlan, RetryPolicy, SpeculationPolicy
from repro.classiccloud import (
    ClassicCloudConfig,
    ClassicCloudFramework,
    LocalAugmentation,
)
from repro.cloud.failures import FaultPlan, WorkerCrash
from repro.cloud.spot import BidStrategy, SpotMarketModel
from repro.cluster import get_cluster
from repro.core.application import get_application
from repro.dryad import DryadLinqConfig, DryadLinqSimulator
from repro.hadoop import HadoopJobConfig, HadoopSimulator
from repro.obs import Observability, chrome_trace, observe
from repro.serve import JobService, ServeConfig, default_tenants
from repro.workloads.genome import cap3_task_specs

GOLDEN = {
    "classic_plain": "649cdde1fe755a3a017d1abedea02be9017dab0c017fa3a8d717483b96941eb0",
    "classic_paper_noise": "280b9a6d9353ac21151de5769cde247c90c3c55b00145c4e10440f9d12975e67",
    "classic_chaos_retry_speculation": "a6eba699db284e27f9aa53e25d0be6859b5a9ca58f763c5072e9fbe2207e9db5",
    "classic_straggler_speculation": "566afd13f790fcba9fd6fe90e331d78a92ce6385e4118b604532949711691cba",
    "classic_crash_restart": "093f108097ecee23b2b5243eea3154d234015dbac0f6e1caebff3358b7f2ac87",
    "classic_poison_dlq": "ff3b016f1f671a940d9195aa266cf6673b51f57a7a1bc88605beac11c0ca79e9",
    "classic_local_augmentation": "e8ccc6fa56724bee44bd961ee5758152ddd049672989ff98ab57ae933c8f543b",
    "classic_autoscale_spot": "33be3352cfebaa57d24e45fadb89409c670870f0b10f3346355e9acc5b19c1ab",
    "serve_static": "0372e15a7c9d38377b9d3a74b416f551850b83b3edd47490854315b4aac48b0d",
    "serve_spot_preempted": "cd1e2422fc4d544aca2e6aad15b55949d06bde60dd57515885b7a31564a56e00",
    "serve_drain": "7618f1b648ba09abd85dffb2d31256242b1335727a10b80fad23458ad1ca659f",
    "hadoop_faults_speculation": "b672b5d90a9d5a44f913cc82d95badcf8fe1400aef866c930e17e0589bf6dcca",
    "hadoop_stragglers_no_speculation": "9b36bfb54cadc953933a84ea53894717b7ebf4489e04c9f6cce03381205616f1",
    "dryad_failures_stragglers": "e5efe8484f3a33ca2d2403840c981811e09d8e00491b8d0d0a1352903124c240",
}

SPIKY_MARKET = SpotMarketModel(spike_probability=0.5, interval_s=60.0)
SPECULATION = SpeculationPolicy(
    poll_s=10.0, min_completed=3, threshold_multiplier=1.5
)


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return repr(value)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=_plain).encode())
        h.update(b"\0")
    return h.hexdigest()


def _trace_events(obs) -> list:
    return chrome_trace(obs.tracer, obs.metrics, timeline=obs.timeline)[
        "traceEvents"
    ]


def _classic(make_overrides):
    tasks = cap3_task_specs(40, reads_per_file=200)
    settings = dict(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        seed=13,
        fault_plan=FaultPlan.none(),
        sanitize=True,
    )
    settings.update(make_overrides(tasks))
    framework = ClassicCloudFramework(ClassicCloudConfig(**settings))
    with observe(Observability.make(label="golden")) as obs:
        result = framework.run(get_application("cap3"), tasks)
    env = framework.last_environment
    return [
        env.trace_text(),
        env.events_scheduled,
        result.records,
        result.extras,
        result.billing,
        result.completed,
        result.failed,
        _trace_events(obs),
    ]


def _serve(**overrides):
    config = ServeConfig(
        tenants=default_tenants(), sanitize=True, **overrides
    )
    with observe(Observability.make(label="golden")) as obs:
        service = JobService(config)
        result = service.run()
    env = service.env
    return [
        env.trace_text(),
        env.events_scheduled,
        result.records,
        result.to_dict(),
        _trace_events(obs),
    ]


def _cluster_run(simulator, cluster_name, **settings):
    """A Hadoop or DryadLINQ run of 40 Cap3 files on 4 nodes.

    These backends take the sanitizer from ``REPRO_SANITIZE`` only, so
    it is pinned on: the kernel's call instants land in the Chrome
    trace, and the digest is the same with or without
    ``--repro-sanitize``.
    """
    tasks = cap3_task_specs(40, reads_per_file=200)
    cluster = get_cluster(cluster_name).subset(4)
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "1"}), observe(
        Observability.make(label="golden")
    ) as obs:
        result = simulator(cluster, settings).run(
            get_application("cap3"), tasks
        )
    return [
        result.makespan_seconds,
        result.records,
        result.extras,
        result.completed,
        _trace_events(obs),
    ]


def _hadoop(**settings):
    return _cluster_run(
        lambda cluster, s: HadoopSimulator(
            HadoopJobConfig(cluster=cluster, seed=5, **s)
        ),
        "cap3-baremetal",
        **settings,
    )


def _dryad(**settings):
    return _cluster_run(
        lambda cluster, s: DryadLinqSimulator(
            DryadLinqConfig(cluster=cluster, seed=11, **s)
        ),
        "cap3-baremetal-windows",
        **settings,
    )


SCENARIOS = {
    "classic_plain": lambda: _classic(lambda tasks: {}),
    "classic_paper_noise": lambda: _classic(
        lambda tasks: dict(
            fault_plan=FaultPlan(
                queue_miss_probability=0.05,
                message_duplicate_probability=0.2,
                storage_error_rate=0.1,
            )
        )
    ),
    "classic_chaos_retry_speculation": lambda: _classic(
        lambda tasks: dict(
            chaos=ChaosPlan.at_intensity(1.0, seed=5, horizon_s=100.0),
            retry_policy=RetryPolicy(attempts=4),
            speculation=SPECULATION,
        )
    ),
    "classic_straggler_speculation": lambda: _classic(
        lambda tasks: dict(
            fault_plan=FaultPlan(
                straggler_probability=0.3, straggler_slowdown=8.0
            ),
            speculation=SPECULATION,
        )
    ),
    "classic_crash_restart": lambda: _classic(
        lambda tasks: dict(
            fault_plan=FaultPlan(
                worker_crashes=[
                    WorkerCrash(worker_index=0, at_time=30.0,
                                restart_after=60.0),
                    WorkerCrash(worker_index=9, at_time=45.0),
                ]
            )
        )
    ),
    "classic_poison_dlq": lambda: _classic(
        lambda tasks: dict(
            visibility_timeout_s=60.0,
            max_task_attempts=3,
            fault_plan=FaultPlan(
                poison_task_ids=frozenset({tasks[5].task_id}),
                poison_restart_s=20.0,
            ),
        )
    ),
    "classic_local_augmentation": lambda: _classic(
        lambda tasks: dict(local_augmentation=LocalAugmentation(n_workers=4))
    ),
    "classic_autoscale_spot": lambda: _classic(
        lambda tasks: dict(
            autoscale=AutoscalePlan(
                max_instances=6,
                bid=BidStrategy.spot(),
                spot_market=SPIKY_MARKET,
            )
        )
    ),
    "serve_static": lambda: _serve(n_instances=1, duration_s=240.0, seed=7),
    "serve_spot_preempted": lambda: _serve(
        n_instances=2,
        duration_s=240.0,
        visibility_timeout_s=60.0,
        seed=2,
        autoscale=AutoscalePlan(
            min_instances=1,
            max_instances=4,
            bid=BidStrategy.mixed(1.0),
            spot_market=SPIKY_MARKET,
        ),
    ),
    "serve_drain": lambda: _serve(
        n_instances=4,
        duration_s=300.0,
        seed=3,
        autoscale=AutoscalePlan(min_instances=1, max_instances=4),
    ),
    "hadoop_faults_speculation": lambda: _hadoop(
        task_failure_probability=0.15,
        straggler_probability=0.2,
        straggler_slowdown=8.0,
    ),
    "hadoop_stragglers_no_speculation": lambda: _hadoop(
        straggler_probability=0.3,
        straggler_slowdown=6.0,
        speculative_execution=False,
    ),
    "dryad_failures_stragglers": lambda: _dryad(
        vertex_failure_probability=0.15,
        straggler_probability=0.2,
        straggler_slowdown=8.0,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    assert _digest(SCENARIOS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in SCENARIOS:
        print(f'    "{name}": "{_digest(SCENARIOS[name]())}",')
