"""Merged multi-process traces: worker capture, adoption, export.

The tentpole acceptance property: a traced ``jobs=2`` Cap3 sweep over
the Fig 3/4 EC2 shapes exports **one** valid Chrome trace containing
spans from at least two distinct worker processes, each under its own
synthetic pid with ``process_name`` metadata, and the per-point phase
fractions reconstructed from that merged trace agree with the
``phase_*_s`` totals the workers measured, to 1e-9.
"""

import json

import pytest

from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.obs import (
    Observability,
    chrome_trace,
    observe,
    phase_fractions_by_point,
    summarize_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.context import worker_payload
from repro.obs.export import _WORKER_PID_BASE
from repro.sweep.cache import ResultCache
from repro.sweep.pool import SweepPool
from repro.sweep.runner import run_points
from repro.workloads.genome import cap3_task_specs

_SHAPES = [("L", 8, 2), ("XL", 4, 4), ("HCXL", 2, 8), ("HM4XL", 2, 8)]


def _specs(seed=11, n_files=16):
    app = get_application("cap3")
    tasks = cap3_task_specs(n_files, reads_per_file=200)
    from repro.sweep.points import point_for

    specs = []
    for itype, n, w in _SHAPES:
        backend = make_backend(
            "ec2",
            instance_type=itype,
            n_instances=n,
            workers_per_instance=w,
            fault_plan=FaultPlan.none(),
            seed=seed,
        )
        specs.append(point_for(app, backend, tasks))
    return specs


@pytest.fixture(scope="module")
def merged_run():
    """One traced jobs=2 sweep through a private two-worker pool."""
    specs = _specs()
    with SweepPool(2) as pool:
        with observe(label="merged-sweep") as obs:
            results = run_points(specs, jobs=2, pool=pool)
    return specs, results, obs


class TestMergedTrace:
    def test_at_least_two_worker_processes_merged(self, merged_run):
        _, _, obs = merged_run
        os_pids = {capture.os_pid for capture in obs.workers}
        assert len(obs.workers) == 4  # one capture per executed point
        assert len(os_pids) >= 2

    def test_export_is_one_valid_trace(self, merged_run, tmp_path):
        _, _, obs = merged_run
        document = chrome_trace(
            obs.tracer, obs.metrics,
            timeline=obs.timeline, workers=obs.workers,
        )
        assert validate_chrome_trace(document) == []
        path = tmp_path / "merged.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert validate_chrome_trace(
            json.loads(path.read_text(encoding="utf-8"))
        ) == []

    def test_worker_pids_and_process_name_metadata(self, merged_run):
        _, _, obs = merged_run
        document = chrome_trace(obs.tracer, workers=obs.workers)
        events = document["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        worker_pids = {
            e["pid"]
            for e in events
            if e.get("ph") == "X" and e["pid"] >= _WORKER_PID_BASE
        }
        assert len(worker_pids) >= 2
        for pid in worker_pids:
            assert pid in names
            assert names[pid].startswith("worker ")

    def test_per_point_phase_agreement(self, merged_run):
        _, results, obs = merged_run
        document = chrome_trace(obs.tracer, workers=obs.workers)
        by_point = phase_fractions_by_point(document)
        for result in results:
            down = result.extras["phase_download_s"]
            comp = result.extras["phase_compute_s"]
            up = result.extras["phase_upload_s"]
            total = down + comp + up
            assert total > 0
            from_trace = by_point[result.label]
            assert from_trace["download"] == pytest.approx(
                down / total, abs=1e-9
            )
            assert from_trace["compute"] == pytest.approx(
                comp / total, abs=1e-9
            )
            assert from_trace["upload"] == pytest.approx(up / total, abs=1e-9)

    def test_worker_metrics_merge_into_parent(self, merged_run):
        _, _, obs = merged_run
        merged = obs.metrics.to_dict()
        # Queue traffic happens only inside the workers' simulations;
        # seeing it in the parent registry proves the merge.
        assert merged.get("queue.tasks.requests", 0) > 0
        assert merged.get("sim.events", 0) > 0

    def test_summary_reports_worker_processes(self, merged_run):
        _, _, obs = merged_run
        document = chrome_trace(obs.tracer, workers=obs.workers)
        text = summarize_chrome_trace(document)
        assert "worker processes:" in text


class TestSyntheticAdoption:
    """Deterministic two-payload merge, no real processes involved."""

    def _payload(self, fake_pid, label):
        worker = Observability.make(label=label)
        worker.tracer.add(
            "task.compute", track="w0", start=0.0, end=2.0, point=label
        )
        worker.tracer.add(
            "task.download", track="w0", start=2.0, end=2.5, point=label
        )
        worker.metrics.counter("sweep.points_run").inc()
        worker.timeline.sample("queue.tasks.depth", 0.5, 3.0)
        payload = worker_payload(worker, label=label)
        payload["os_pid"] = fake_pid  # two processes, simulated
        return payload

    def test_two_payloads_get_distinct_pids(self):
        obs = Observability.make(label="parent")
        obs.adopt_worker(self._payload(4001, "point-a"))
        obs.adopt_worker(self._payload(4002, "point-b"))
        assert [c.os_pid for c in obs.workers] == [4001, 4002]
        assert obs.metrics.to_dict()["sweep.points_run"] == 2.0

        document = chrome_trace(
            obs.tracer, obs.metrics,
            timeline=obs.timeline, workers=obs.workers,
        )
        assert validate_chrome_trace(document) == []
        spans = [
            e for e in document["traceEvents"] if e.get("ph") == "X"
        ]
        pids = {e["pid"] for e in spans}
        assert len(pids & set(range(_WORKER_PID_BASE, 100))) == 2
        worker_meta = document["otherData"]["workers"]
        assert {w["os_pid"] for w in worker_meta} == {4001, 4002}
        by_point = phase_fractions_by_point(document)
        assert by_point["point-a"]["compute"] == pytest.approx(0.8)
        assert by_point["point-a"]["download"] == pytest.approx(0.2)

    def test_null_bundle_refuses_adoption(self):
        from repro.obs.context import current

        null = current()  # the shared null bundle outside observe()
        assert null.adopt_worker(self._payload(4003, "x")) is None
        assert null.workers == []


class TestCacheHitInstants:
    def test_warm_rerun_marks_hits_on_parent_track(self, tmp_path):
        specs = _specs(seed=23, n_files=8)
        cache = ResultCache(tmp_path / "cache")
        run_points(specs, jobs=1, cache=cache)  # cold fill
        with observe(label="warm") as obs:
            warm = run_points(specs, jobs=1, cache=cache)
        assert len(warm) == len(specs)
        hits = [
            i for i in obs.tracer.instants if i.name == "sweep.cache_hit"
        ]
        assert len(hits) == len(specs)
        assert {h.args["label"] for h in hits} == {s.label for s in specs}
        # Cache hits never reach a worker: nothing to adopt.
        assert obs.workers == []


#: SHA-256 of the file ``write_chrome_trace`` writes for
#: :func:`_pinned_bundle`.  It pins the merged-trace path (parent rows,
#: worker captures, timelines, metrics) byte for byte; regenerate only
#: on a deliberate change to the trace format.
MERGED_TRACE_SHA256 = (
    "ed41d745f651b5cdacf4a0a017c0da0faf1e9122d4858ba2a3a5f58295d6a1b8"
)


def _pinned_bundle() -> Observability:
    """A parent bundle with both time domains, instants with args, two
    timeline series and two adopted worker captures, all on fixed
    timestamps and fixed OS pids."""
    obs = Observability.make(label="pinned")
    tracer = obs.tracer
    tracer.add("task.download", track="w0", start=0.0, end=0.25, task_id="t1")
    tracer.add("task.compute", track="w0", start=0.25, end=1.75,
               task_id="t1", attempt=2)
    tracer.add("task.upload", track="w1", start=1.75, end=2.0, task_id="t1")
    tracer.add("sweep.chunk", track="host", start=0.125, end=0.5,
               domain="wall", points=3)
    tracer.instant("serve.shed", track="service", ts=1.5,
                   tenant="a", outcome="shed_quota")
    tracer.instant("sweep.cache_hit", track="host", ts=0.375,
                   domain="wall", label="p0")
    tracer.instant("tick", track="w0", ts=3.0)
    obs.metrics.counter("serve.submitted").inc(3)
    obs.metrics.gauge("workers.busy").set(2)
    obs.metrics.histogram("serve.latency.a").observe(0.5)
    obs.timeline.sample("workers.busy", 0.0, 1)
    obs.timeline.sample("queue.tasks.depth", 0.0, 4)
    obs.timeline.sample("workers.busy", 0.25, 2)
    obs.timeline.sample("queue.tasks.depth", 1.0, 3.5)
    for os_pid, label, scale in ((7001, "point-a", 1.0), (7002, "point-b", 2.0)):
        worker = Observability.make(label=label)
        worker.tracer.add("task.compute", track="w0", start=0.0, end=scale,
                          task_id="t9")
        worker.tracer.add("task.download", track="w1", start=scale,
                          end=scale + 0.5, task_id="t9")
        worker.tracer.add("sweep.point", track="host", start=0.0,
                          end=scale / 8, domain="wall", label=label)
        worker.tracer.instant("scheduler.dispatch", track="w0", ts=scale,
                              node=int(scale))
        worker.metrics.counter("sweep.points_run").inc()
        worker.timeline.sample("queue.tasks.depth", 0.0, 2 * scale)
        worker.timeline.sample("workers.busy", scale, 1)
        payload = worker_payload(worker, label=label)
        payload["os_pid"] = os_pid
        obs.adopt_worker(payload)
    return obs


def test_merged_trace_bytes_are_pinned(tmp_path):
    import hashlib

    from repro.obs import write_chrome_trace

    path = tmp_path / "merged.json"
    document = write_chrome_trace(path, _pinned_bundle())
    assert validate_chrome_trace(document) == []
    assert [w["os_pid"] for w in document["otherData"]["workers"]] == [
        7001, 7002,
    ]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == MERGED_TRACE_SHA256
