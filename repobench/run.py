"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 repobench/run.py --workload serve_idle --seed 1 --seconds 12 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics (plus the tracing overhead).  The last
line of standard output is the result object; the line before it is a
full report (provenance, every metric, the checks).  The exit code is
non-zero when any correctness or determinism check failed.

``--self-test`` only checks that the layer proxies leave the simulation
unchanged.  ``--setup-only`` is used internally to time set-up in fresh
interpreters.  See README.md in this directory.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before any heavy import

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed this many times per run: here, and in fresh
#: interpreters for the rest, so imports are cold each time.
SETUP_SAMPLES = 7
#: Repeats of each kind a run makes at least, whatever --seconds says.
MIN_REPEATS = 3
#: Per-layer counts that must repeat exactly across traced repeats.
#: (local.empty_receives is a count of wall-clock-driven polls: excluded.)
EXACT_LAYER_KEYS = (
    "sim.events_per_job",
    "queue.requests_per_job",
    "queue.empty_receive_ratio",
    "queue.redeliveries",
    "storage.requests_per_job",
    "storage.bytes_per_job",
    "storage.retries",
    "serve.scheduler_wakeups_per_job",
    "classic.watcher_polls_per_task",
    "local.store_bytes",
    "obs.spans_per_job",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (args.self_test or args.workload):
        parser.error("--workload is required")
    return args


def _require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"repobench: no program sources under {SRC}; run from a "
            "checkout of the repository"
        )
    sys.path.insert(0, str(SRC))


# -- set-up ---------------------------------------------------------------
def _setup_in_fresh_interpreter(args, index: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up sample {index} failed:\n{proc.stderr[-2000:]}"
        )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- layer metrics --------------------------------------------------------
def _layer_metrics(totals: dict, jobs: int, wall_s: float) -> dict:
    """Per-layer numbers of one traced repeat."""
    self_s, counts, objects = (
        totals["self_s"], totals["counts"], totals["objects"]
    )
    per_job = 1.0 / jobs if jobs else 0.0

    def s(bucket):
        return self_s.get(bucket, 0.0)

    events = sum(env.events_scheduled for env in objects.get("env", ()))
    queues = objects.get("queue", ())
    received = sum(q.stats.received for q in queues)
    empty = sum(q.stats.empty_receives for q in queues)
    stores = objects.get("store", ())
    storage_ops = counts.get("calls.storage", 0.0)
    if stores and all(st.meter is not None for st in stores):
        # Stores may share a meter: count each meter once.
        meters = {id(st.meter): st.meter for st in stores}
        storage_requests = sum(m.storage_requests for m in meters.values())
    else:
        storage_requests = storage_ops
    not_found = sum(st.stats.not_found for st in stores)
    spans = sum(len(tracer.snapshot()[0])
                for tracer in objects.get("tracer", ()))
    kernel_s = s("apps.kernel")
    return {
        "sim.events_per_job": events * per_job,
        "sim.self_s": s("sim"),
        "queue.requests_per_job": sum(q.stats.requests for q in queues)
        * per_job,
        "queue.empty_receive_ratio": (
            empty / (empty + received) if empty + received else 0.0
        ),
        "queue.self_s": s("queue"),
        "queue.redeliveries": float(sum(
            q.stats.reappearances + q.stats.duplicate_deliveries
            for q in queues
        )),
        "storage.requests_per_job": storage_requests * per_job,
        "storage.bytes_per_job": sum(
            st.stats.bytes_uploaded + st.stats.bytes_downloaded
            for st in stores
        ) * per_job,
        "storage.retries": float(
            max(0.0, storage_requests - storage_ops) + not_found
        ),
        "storage.self_s": s("storage"),
        "serve.admission_s": s("serve.admission"),
        "serve.scheduler_s": s("serve.scheduler"),
        "serve.scheduler_wakeups_per_job": counts.get(
            "resumes.serve.scheduler", 0.0) * per_job,
        "serve.worker_self_s": s("serve.worker"),
        "classic.worker_self_s": s("classic.worker"),
        "classic.watcher_polls_per_task": sum(
            q.stats.received + q.stats.empty_receives
            for q in queues if q.name == "monitor"
        ) * per_job,
        "local.queue_s": s("local.queue"),
        "local.empty_receives": counts.get("local.empty_receives", 0.0),
        "local.store_s": s("local.store"),
        "local.store_bytes": counts.get("local.store_bytes", 0.0),
        "apps.kernel_wall_s": kernel_s,
        "apps.kernel_cpu_s": counts.get("apps.kernel_cpu_s", 0.0),
        "apps.kernel_input_bytes_per_s": (
            counts.get("apps.kernel_input_bytes", 0.0) / kernel_s
            if kernel_s else 0.0
        ),
        "apps.perfmodel_s": s("apps.perfmodel"),
        "obs.self_s": s("obs"),
        "obs.export_s": s("obs.export"),
        "obs.spans_per_job": spans * per_job,
        "other_s": totals["other_s"],
        "wall_s": wall_s,
    }


def _layer_shares(self_s: dict, other_s: float) -> dict:
    """Each layer's share of busy thread time (the blocked ``wait`` of
    the driving thread excluded, as in ``other_s``)."""
    layers: dict = {}
    for bucket, value in self_s.items():
        layer = bucket.split(".", 1)[0]
        if layer != "wait":
            layers[layer] = layers.get(layer, 0.0) + value
    layers["other"] = other_s
    total = sum(layers.values()) or 1.0
    return {k: v / total for k, v in sorted(layers.items())}


# -- provenance -----------------------------------------------------------
def _git(*argv) -> "str | None":
    try:
        proc = subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(seed: int) -> dict:
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():  # a checkout may be a plain file tree
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# -- the run --------------------------------------------------------------
def _median(values):
    return statistics.median(values) if values else 0.0


def measure(args, workload, setup_samples) -> dict:
    """Warm-up, then timed repeats until --seconds have passed."""
    import calibrate

    clock = None
    kinds = ["plain"]
    if args.trace:
        import layers

        problems = layers.self_test()
        if problems:
            raise RuntimeError("layer proxy self-test failed: "
                               + "; ".join(problems))
        clock = layers.LayerClock()
        kinds = ["plain", "traced"]

    attempted = failed = 0
    problems: list = []
    reference = None  # the warm-up's signature
    layer_reference = None
    rates = {kind: [] for kind in kinds}
    layer_rows: list = []
    calib: list = []
    adjusted: list = []
    shares: list = []
    model = None

    def one(kind: str, timed: bool):
        nonlocal attempted, failed, reference, layer_reference, model
        # Free the previous repeat's reference cycles now, so the
        # collector's work does not land in this repeat's timing.
        gc.collect()
        if kind == "plain":
            # Host speed right now, for the jobs_per_ref_s adjustment.
            calib.append(calibrate.kernel_seconds(workload.threads))
            gc.collect()
        if kind == "traced":
            clock.reset()
            clock.install()
        try:
            start = time.perf_counter()
            handle = workload.run()
            wall = time.perf_counter() - start
        finally:
            if kind == "traced":
                clock.uninstall()
        outcome = workload.check(handle)
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems)
        if reference is None:
            reference, model = outcome.signature, outcome.model
        elif outcome.signature != reference:
            diff = sorted(k for k in reference
                          if reference[k] != outcome.signature.get(k))
            problems.append(f"{kind} repeat differs from the warm-up in "
                            f"{diff}: not deterministic")
            failed += outcome.attempted
        if kind == "traced":
            totals = clock.collect(wall)
            row = _layer_metrics(totals, outcome.jobs, wall)
            exact = {k: row[k] for k in EXACT_LAYER_KEYS}
            if layer_reference is None:
                layer_reference = exact
            elif exact != layer_reference:
                problems.append(f"traced counts differ between repeats: "
                                f"{exact} vs {layer_reference}")
                failed += outcome.attempted
            if timed:
                layer_rows.append(row)
                shares.append(_layer_shares(totals["self_s"],
                                            totals["other_s"]))
        if timed:
            rates[kind].append(outcome.jobs / wall)
            if kind == "plain":
                adjusted.append(outcome.jobs / wall * calib[-1]
                                / calibrate.REFERENCE_S)

    one("plain", timed=False)  # warm-up: lazy imports, caches
    if clock is not None:
        one("traced", timed=False)
    start = time.perf_counter()
    i = 0
    while True:
        one(kinds[i % len(kinds)], timed=True)
        i += 1
        enough = min(len(v) for v in rates.values()) >= MIN_REPEATS
        if enough and time.perf_counter() - start >= args.seconds:
            break
    measure_s = time.perf_counter() - start

    jobs_per_s = _median(rates["plain"])
    end_to_end = {
        "jobs_per_ref_s": _median(adjusted),
        "setup_s": _median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "success_ratio": 1.0 - failed / attempted,
    }
    per_layer = {}
    if clock is not None:
        per_layer = {
            key: _median([row[key] for row in layer_rows])
            for key in layer_rows[0]
        }
        per_layer["tracing_overhead"] = _median(rates["traced"]) / jobs_per_s
        per_layer.update(model)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end,
        # Not gated: on a shared host its run-to-run spread is too wide.
        "jobs_per_s": jobs_per_s,
        "error_ratio": failed / attempted,
        "per_layer": per_layer,
        "model": model,
        "shares": {
            k: _median([sh.get(k, 0.0) for sh in shares])
            for k in sorted({k for sh in shares for k in sh})
        },
        "repeats": {kind: len(v) for kind, v in rates.items()},
        "rates": rates,
        "calib": calib,
        "adjusted": adjusted,
        "setup_samples": setup_samples,
        "measure_s": measure_s,
        "signature_sha256": hashlib.sha256(
            json.dumps(reference, sort_keys=True, default=str).encode()
        ).hexdigest(),
    }


#: Every reported metric's unit.  Names ending in ``_s`` are host
#: seconds except ``sim_p95_latency_s``, which is simulated time.
UNITS = {
    # end to end
    "jobs_per_ref_s": "1/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    # per layer
    "sim.events_per_job": "count",
    "sim.self_s": "s",
    "queue.requests_per_job": "count",
    "queue.empty_receive_ratio": "ratio",
    "queue.self_s": "s",
    "queue.redeliveries": "count",
    "storage.requests_per_job": "count",
    "storage.bytes_per_job": "B",
    "storage.retries": "count",
    "storage.self_s": "s",
    "serve.admission_s": "s",
    "serve.scheduler_s": "s",
    "serve.scheduler_wakeups_per_job": "count",
    "serve.worker_self_s": "s",
    "classic.worker_self_s": "s",
    "classic.watcher_polls_per_task": "count",
    "local.queue_s": "s",
    "local.empty_receives": "count",
    "local.store_s": "s",
    "local.store_bytes": "B",
    "apps.kernel_wall_s": "s",
    "apps.kernel_cpu_s": "s",
    "apps.kernel_input_bytes_per_s": "B/s",
    "apps.perfmodel_s": "s",
    "obs.self_s": "s",
    "obs.export_s": "s",
    "obs.spans_per_job": "count",
    "other_s": "s",
    "wall_s": "s",
    "tracing_overhead": "ratio",
    "sim_parallel_efficiency": "ratio",
    "sim_cost_per_1k_jobs_usd": "USD",
    "sim_p95_latency_s": "sim_s",
    "sim_shed_ratio": "ratio",
}


def main(argv=None) -> int:
    args = _parse(argv)
    _require_sources()
    sys.path.insert(0, str(HERE))
    if args.self_test:
        import layers

        problems = layers.self_test()
        print(json.dumps({"self_test": "fail" if problems else "ok",
                          "problems": problems}))
        return 1 if problems else 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".repobench_work" / str(os.getpid())
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        samples = [setup_s] + [
            _setup_in_fresh_interpreter(args, i)
            for i in range(1, SETUP_SAMPLES)
        ]
        report = measure(args, workload, samples)
        report["provenance"] = _provenance(args.seed)
    except Exception:  # report any crash as a failed run, then exit 1
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    correct = report["failed"] == 0 and not report["problems"]
    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, correct=correct)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
