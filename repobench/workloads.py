"""The benchmark's four workloads.

Each workload has three phases:

* ``setup(seed, workdir)`` — imports plus input generation; this is
  what ``setup_s`` times;
* ``run()`` — one repeat, the only timed phase; returns a handle;
* ``check(handle)`` — untimed correctness checks, returning an
  :class:`Outcome` whose ``signature`` must be identical on every
  repeat of one seed (traced or not).

``threads`` is how many threads run the workload; the host-speed
calibration runs on as many.

Everything random derives from the seed; the program receives only the
generated inputs (tenant specs, task specs, FASTA files).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Committed output digests of the local_cap3 input pool.
DIGESTS_PATH = HERE / "cap3_digests.json"

#: local_cap3 input pool: POOL_SIZE FASTA files, file ``j`` generated
#: from ``default_rng([POOL_KEY, j])``; a run assembles FILES of them,
#: chosen by the seed.  Every pool file's Cap3 output digest is
#: committed, so any seed's outputs can be checked byte for byte.
POOL_KEY = 20100621
POOL_SIZE = 256
READS_PER_FILE = 48
READ_LENGTH = 200
FILES = 64

#: Model outputs every workload reports; 0.0 where a workload has none.
MODEL_KEYS = (
    "sim_parallel_efficiency",
    "sim_cost_per_1k_jobs_usd",
    "sim_p95_latency_s",
    "sim_shed_ratio",
)


@dataclasses.dataclass
class Outcome:
    """What one repeat did and whether it was right."""

    jobs: int  # jobs, tasks or files completed (throughput numerator)
    attempted: int  # operations checked
    failed: int  # operations that failed a check
    problems: list
    signature: dict  # counts and model values, exact across repeats
    model: dict  # the MODEL_KEYS values


def _model(**values: float) -> dict:
    model = {key: 0.0 for key in MODEL_KEYS}
    model.update(values)
    return model


class ServeWorkload:
    """The multi-tenant job service, one sustained-traffic window.

    Arrivals are open-loop in simulated time (the tenants' seeded
    streams); the benchmark is closed-loop: one in-process ``JobService``
    run at a time, never the study's process pool.
    """

    threads = 1

    def __init__(self, name, why, *, fleet, rate_factor, duration_s,
                 observed):
        self.name = name
        self.why = why
        self.fleet = fleet
        self.rate_factor = rate_factor
        self.duration_s = duration_s
        self.observed = observed

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.obs import Observability, export, observe
        from repro.serve.service import JobService, ServeConfig
        from repro.serve.study import default_tenants

        tenants = tuple(
            dataclasses.replace(spec, rate_per_s=spec.rate_per_s
                                * self.rate_factor)
            for spec in default_tenants()
        )
        self.config = ServeConfig(
            tenants=tenants,
            n_instances=self.fleet,
            workers_per_instance=8,
            duration_s=self.duration_s,
            seed=seed,
        )
        self._service_cls = JobService
        self._observability = Observability
        self._observe = observe
        self._export = export

    def run(self):
        if not self.observed:
            service = self._service_cls(self.config)
            return service, service.run(), None
        # As `repro serve --trace` does: a live bundle around the run,
        # then the Chrome trace document built from it.
        with self._observe(self._observability.make(label=self.name)) as obs:
            service = self._service_cls(self.config)
            result = service.run()
        document = self._export.chrome_trace(
            obs.tracer, obs.metrics, timeline=obs.timeline
        )
        return service, result, document

    def check(self, handle) -> Outcome:
        service, result, document = handle
        problems = []
        failed = 0
        for stats in result.tenants:
            lost = stats.submitted - (stats.admitted + stats.shed)
            open_jobs = stats.admitted - (stats.completed + stats.abandoned)
            if lost or open_jobs:
                problems.append(
                    f"{stats.name}: submitted={stats.submitted} "
                    f"admitted={stats.admitted} shed={stats.shed} "
                    f"completed={stats.completed} "
                    f"abandoned={stats.abandoned}"
                )
                failed += abs(lost) + abs(open_jobs)
        try:
            service.admission.check()
        except RuntimeError as exc:
            problems.append(f"AdmissionController.check: {exc}")
            failed = result.submitted
        signature = {
            "result": result.to_dict(),
            "events": service.env.events_scheduled,
            "queue": dataclasses.asdict(service.task_queue.stats),
            "storage": dataclasses.asdict(service.storage.stats),
            "records": len(service.records),
        }
        if document is not None:
            from repro.obs import validate_chrome_trace

            trace_problems = validate_chrome_trace(document)
            if trace_problems:
                problems.extend(trace_problems[:5])
                failed = max(failed, 1)
            signature["trace_events"] = len(document["traceEvents"])
        p95s = [t.p95_s for t in result.tenants if t.p95_s is not None]
        model = _model(
            sim_cost_per_1k_jobs_usd=result.cost_per_1k_jobs or 0.0,
            sim_p95_latency_s=max(p95s, default=0.0),
            sim_shed_ratio=(result.shed / result.submitted
                            if result.submitted else 0.0),
        )
        signature["model"] = model
        return Outcome(
            jobs=result.completed,
            attempted=max(result.submitted, 1),
            failed=min(failed, max(result.submitted, 1)),
            problems=problems,
            signature=signature,
            model=model,
        )


class ClassicBatchWorkload:
    """Paper Fig 5/6 Cap3 on simulated EC2, through ``repro.run``.

    The files are the paper's replicated 458-read files, so the seed
    drives the simulation (queue order and latencies, storage
    latencies, performance jitter), not the file sizes.  With
    inhomogeneous files the host cost of one batch depends on the seed
    far more than on the host: kernel events per task range over
    24-39 across seeds 1-10, all in the idle polling of the batch tail.
    """

    name = "classic_batch"
    threads = 1
    why = ("paper Fig 5/6 Cap3 batch on simulated EC2, 16 HCXL x 8: "
           "the only workload on classiccloud/framework.py")
    n_files = 4096

    def setup(self, seed: int, workdir: Path) -> None:
        import repro
        from repro.workloads.genome import cap3_task_specs

        self.app = repro.get_application("cap3")
        self.tasks = cap3_task_specs(self.n_files, reads_per_file=458)
        self.backend = repro.make_backend("ec2", seed=seed)
        self._run = repro.run
        self._t1 = None

    def run(self):
        return self._run(self.app, self.tasks, backend=self.backend)

    def check(self, result) -> Outcome:
        from repro.core.metrics import parallel_efficiency

        ids = {task.task_id for task in self.tasks}
        dead = int(result.extras.get("dead_lettered", 0.0))
        problems = []
        missing = ids - result.completed
        unknown = result.completed - ids
        if missing or unknown:
            problems.append(
                f"{len(missing)} tasks missing, {len(unknown)} unknown"
            )
        if result.failed or dead:
            problems.append(
                f"{len(result.failed)} failed, {dead} dead-lettered"
            )
        failed = len(missing) + len(unknown) + len(result.failed) + dead
        if self._t1 is None:
            self._t1 = self.backend.estimate_sequential_time(
                self.app, self.tasks
            )
        completed = len(result.completed)
        model = _model(
            sim_parallel_efficiency=parallel_efficiency(
                self._t1, result.makespan_seconds, self.backend.total_cores
            ),
            sim_cost_per_1k_jobs_usd=(
                result.billing.total_cost / completed * 1000.0
                if completed else 0.0
            ),
        )
        signature = {
            "makespan_s": result.makespan_seconds,
            "billing": dataclasses.asdict(result.billing),
            "queue": dict(result.queue_stats),
            "extras": dict(sorted(result.extras.items())),
            "records": len(result.records),
            "completed": sorted(result.completed),
            "model": model,
        }
        return Outcome(
            jobs=completed,
            attempted=len(ids),
            failed=min(failed, len(ids)),
            problems=problems,
            signature=signature,
            model=model,
        )


def pool_records(index: int):
    """The FASTA records of local_cap3 pool file ``index``."""
    import numpy as np

    from repro.workloads.genome import generate_read_records

    return generate_read_records(
        READS_PER_FILE,
        READ_LENGTH,
        rng=np.random.default_rng([POOL_KEY, index]),
        id_prefix=f"p{index:03d}r",
    )


def pool_picks(seed: int) -> "list[int]":
    """The pool files one seed's run assembles, in queue order."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [int(j) for j in rng.choice(POOL_SIZE, size=FILES, replace=False)]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class LocalCap3Workload:
    """Real mini-Cap3 through ``LocalClassicCloud`` and a blob store."""

    name = "local_cap3"
    why = ("real Cap3 kernels on nproc threads via LocalClassicCloud and "
           "LocalBlobStore: the only workload that runs repro.apps code")

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.apps.executables import Cap3Executable
        from repro.apps.fasta import write_fasta
        from repro.classiccloud.local import LocalClassicCloud
        from repro.classiccloud.localstore import LocalBlobStore
        from repro.core.task import TaskSpec

        # The runtime's per-task scratch directories come from tempfile;
        # keep them inside the work directory.
        scratch = workdir / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(scratch)
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.store = LocalBlobStore(workdir / "store")
        self.picks = pool_picks(seed)
        self.tasks = []
        self.input_paths = []
        for j in self.picks:
            path = inputs / f"{j:03d}.fa"
            write_fasta(pool_records(j), path)
            self.store.put(f"in/{j:03d}.fa", path)
            self.input_paths.append(path)
            self.tasks.append(
                TaskSpec(
                    task_id=f"cap3-pool-{j:03d}",
                    input_key=f"in/{j:03d}.fa",
                    output_key=f"out/{j:03d}.fa",
                    input_size=path.stat().st_size,
                    output_size=0,
                    work_units=float(READS_PER_FILE),
                )
            )
        self.threads = len(os.sched_getaffinity(0))
        self._runner_cls = LocalClassicCloud
        self.executable = Cap3Executable()
        self.scratch = scratch
        self._digests = None

    def run(self):
        runner = self._runner_cls(
            n_workers=self.threads,
            visibility_timeout_s=120.0,
            timeout_s=150.0,
            store=self.store,
        )
        return runner.run(self.executable, self.tasks)

    def _expected(self) -> dict:
        if self._digests is None:
            self._digests = json.loads(DIGESTS_PATH.read_text())
        return self._digests

    def check(self, result) -> Outcome:
        expected = self._expected()
        problems = []
        bad: set[str] = set()
        digests = {}
        for j, task, path in zip(self.picks, self.tasks, self.input_paths):
            if sha256_file(path) != expected["inputs"][j]:
                problems.append(f"pool input {j} differs from its digest")
                bad.add(task.task_id)
            if not self.store.exists(task.output_key):
                problems.append(f"{task.task_id}: no output in the store")
                bad.add(task.task_id)
                continue
            local = self.store.get(task.output_key, self.scratch / "check.fa")
            digest = sha256_file(local)
            local.unlink()
            # Outputs are removed so the next repeat must write them anew.
            self.store.delete(task.output_key)
            digests[task.task_id] = digest
            if digest != expected["outputs"][j]:
                problems.append(f"{task.task_id}: output digest mismatch")
                bad.add(task.task_id)
        done = {record.task_id for record in result.records}
        missing = {task.task_id for task in self.tasks} - done
        if missing:
            problems.append(f"{len(missing)} tasks never completed")
            bad |= missing
        model = _model()
        return Outcome(
            jobs=len(done),
            attempted=len(self.tasks),
            failed=len(bad),
            problems=problems[:10],
            signature={"outputs": digests, "completed": sorted(done),
                       "model": model},
            model=model,
        )


WORKLOADS = {
    "serve_idle": lambda: ServeWorkload(
        "serve_idle",
        "3-tenant mix at 0.85 jobs/s on 16 HCXL x 8: idle polling "
        "dominates, where event-driven idle has to show",
        fleet=16, rate_factor=1.0, duration_s=900.0, observed=False,
    ),
    "serve_overload": lambda: ServeWorkload(
        "serve_overload",
        "same mix at twice the rate on 1 HCXL x 8 under repro.obs: "
        "admission, fair share and obs work, almost no idle polling",
        fleet=1, rate_factor=2.0, duration_s=3600.0, observed=True,
    ),
    "classic_batch": ClassicBatchWorkload,
    "local_cap3": LocalCap3Workload,
}
