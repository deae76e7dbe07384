"""The queue-worker fleet shared by every simulated Classic Cloud run.

The paper's Figure 1 worker polls the scheduling queue, downloads the
task's input from blob storage, runs the program, uploads the result
and only then deletes the message, so a worker that dies mid-task loses
nothing: the message reappears after the visibility timeout and another
worker re-executes the idempotent task.

:class:`QueueFleet` owns that worker loop and everything under it: the
event loop, seeded RNG streams, cost meter, instance provider, blob
storage, optional autoscaler, worker spawning and the busy-worker
gauge.  The batch framework (:mod:`repro.classiccloud.framework`) and
the job service (:mod:`repro.serve.service`) subclass it and differ
only in policy.
"""

from __future__ import annotations

from repro.apps.perfmodels import task_runtime_seconds
from repro.autoscale.controller import AutoscaleController
from repro.chaos.retry import RetryPolicy, run_with_retry
from repro.cloud.billing import CostMeter
from repro.cloud.compute import CloudProvider
from repro.cloud.failures import FaultPlan
from repro.cloud.pricing import AWS_PRICES, AZURE_PRICES
from repro.cloud.queue import MessageQueue, StaleReceiptError
from repro.cloud.storage import BlobNotFound, BlobStore, StorageUnavailable
from repro.core.task import TaskRecord
from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment, Interrupt, make_environment
from repro.sim.rng import RngRegistry

__all__ = ["QueueFleet"]

#: Download through eventual-consistency 404s: a flat 0.5 s retry for
#: up to two minutes (241 attempts, no RNG draws).
_DOWNLOAD_RETRY = RetryPolicy.fixed(attempts=241, delay_s=0.5)


class QueueFleet:
    """Substrate, spawning, busy gauge and worker loop of one run.

    A subclass sets the policy attributes below (the first two before
    ``super().__init__``: storage reads them) and ``task_queue``, and
    supplies the hooks ``_job(body) -> (task, perf_model, speculative)``,
    ``_working() -> bool`` (keep taking tasks?), ``_finish(task, msg,
    was_duplicate) -> won`` (book one finished execution) and a
    ``_worker`` process generator that delegates to :meth:`_work`.
    """

    #: Injected faults (the bare plan injects nothing) and the
    #: backoff-with-jitter policy for storage 5xx retries and empty
    #: receives (None: retry-forever storage, fixed poll backoff).
    fault_plan: FaultPlan = FaultPlan()
    retry_policy: RetryPolicy | None = None
    #: Long-poll wait of each receive.  A short poll (0) sleeps
    #: ``poll_backoff_s`` after an empty receive; a long poll has
    #: already waited and loops straight back.
    receive_wait_s: float = 0.0
    poll_backoff_s: float = 1.0
    threads_per_worker: int = 1
    #: Figure 1's monitoring queue, told each finished task id; None
    #: when the fleet books completions itself.
    monitor_queue: MessageQueue | None = None
    task_queue: MessageQueue

    def __init__(self, config):
        self.config = config
        # Observability bundle captured once on the driving thread; the
        # cloud services below pick up the same ambient context.
        self.obs = _current_obs()
        self.tracer = self.obs.tracer
        self.env: Environment = make_environment(
            sanitize=True if config.sanitize else None
        )
        self.rng = RngRegistry(config.seed)
        prices = AWS_PRICES if config.provider == "aws" else AZURE_PRICES
        self.meter = CostMeter(prices)
        self.cloud = CloudProvider(
            self.env,
            config.provider,
            self.rng.stream("provision"),
            meter=self.meter,
            perf_jitter=config.perf_jitter,
        )
        self.storage = BlobStore(
            self.env,
            "storage",
            self.rng.stream("storage"),
            meter=self.meter,
            consistency_window_s=config.consistency_window_s,
            error_rate=self.fault_plan.storage_error_rate,
            retry_policy=self.retry_policy,
        )
        self.records: list[TaskRecord] = []
        self.measure_start = 0.0
        self.controller: AutoscaleController | None = None
        self._worker_counter = 0
        self._busy: set[str] = set()  # names of workers holding a task
        self._worker_instance: dict[int, object] = {}  # id(process) -> host
        self._all_workers: list = []

    def _visibility_timeout(self, runtimes) -> float:
        """The configured timeout, else three times the worst of
        ``runtimes`` (at least 60 s): headroom for transfers and
        stragglers."""
        if self.config.visibility_timeout_s is not None:
            return self.config.visibility_timeout_s
        return max(60.0, 3.0 * max(runtimes))

    def _make_controller(self, backlog, is_done, on_drain=None) -> None:
        """Attach an autoscaler sized against ``backlog`` if the config
        asks for an elastic pool."""
        config = self.config
        if config.autoscale is not None:
            self.controller = AutoscaleController(
                self.env,
                config.autoscale,
                self.cloud,
                config.resolve_instance_type(),
                config.workers_per_instance,
                backlog,
                self.rng.stream("spot-market"),
                spawn_workers=self._spawn_instance_workers,
                is_done=is_done,
                on_drain=on_drain,
            )

    # -- the fleet ---------------------------------------------------------
    def _provision(self):
        """Boot the initial fleet (process body); returns its instances."""
        config = self.config
        if self.controller is not None:
            return (yield self.env.process(
                self.controller.launch_initial(config.n_instances)
            ))
        if config.n_instances > 0:
            return (yield self.env.process(
                self.cloud.provision(
                    config.resolve_instance_type(), config.n_instances
                )
            ))
        return []

    def _open_window(self, instances) -> None:
        """Start the measured window now, and bill the fleet from it."""
        self.measure_start = self.env.now
        for instance in instances:
            instance.launched_at = self.measure_start

    def _start_fleet(self, instances) -> list:
        """Spawn every instance's workers, then start the autoscaler."""
        workers: list = []
        for instance in instances:
            procs = self._spawn_instance_workers(instance)
            workers.extend(procs)
            if self.controller is not None:
                self.controller.track(instance, procs)
        if self.controller is not None:
            self.controller.start()
        return workers

    def _spawn_instance_workers(self, instance) -> list:
        """Start the configured workers on one (possibly fresh) instance."""
        return [
            self._spawn_worker(instance)
            for _ in range(self.config.workers_per_instance)
        ]

    def _spawn_worker(
        self,
        host,
        concurrent_workers: int | None = None,
        wan_bandwidth_bps: float | None = None,
        wan_latency_s: float = 0.0,
        prefix: str = "worker",
    ):
        self._worker_counter += 1
        name = f"{prefix}-{self._worker_counter}"
        if concurrent_workers is None:
            concurrent_workers = self.config.workers_per_instance
        process = self.env.process(
            self._worker(
                host, name, concurrent_workers, wan_bandwidth_bps, wan_latency_s
            ),
            name=name,
        )
        self._worker_instance[id(process)] = host
        self._all_workers.append(process)
        return process

    def _respawn_after_poison(
        self, host, concurrent_workers, wan_bandwidth_bps, wan_latency_s
    ):
        """A replacement for a worker its input killed, on the same host
        after ``poison_restart_s``."""
        yield self.env.timeout(self.fault_plan.poison_restart_s)
        if host.is_running:
            self._spawn_worker(
                host,
                concurrent_workers=concurrent_workers,
                wan_bandwidth_bps=wan_bandwidth_bps,
                wan_latency_s=wan_latency_s,
            )

    def _set_busy(self, name: str, busy: bool) -> None:
        """Mark a worker busy or idle; sample the ``workers.busy`` gauge.

        Every pick-up is paired with a drop — on completion, on an
        abandoned attempt, or in the Interrupt path of a worker killed
        mid-task — so the gauge returns to zero when the run drains.
        """
        if busy:
            self._busy.add(name)
        else:
            self._busy.discard(name)
        if self.obs.enabled:
            self.obs.timeline.sample(
                "workers.busy", self.env.now, len(self._busy)
            )

    # -- the worker ----------------------------------------------------------
    def _work(
        self,
        host,
        name: str,
        concurrent_workers: int,
        wan_bandwidth_bps: float | None,
        wan_latency_s: float,
    ):
        """Receive, download, compute, upload, delete: one task at a time.

        Off-site workers (``wan_*``) reach the queue and storage over a
        slower link.  A worker exits when the fleet stops working, when
        its host drains or dies, or on an Interrupt (crash, preemption,
        drain release) — its in-flight message then reappears after the
        visibility timeout.
        """
        env = self.env
        draw = self.fault_plan.task_faults.drawer(self.rng, name, "jitter")
        retry_policy = self.retry_policy
        backoff_rng = (
            self.rng.stream(f"{name}-backoff")
            if retry_policy is not None
            else None
        )
        plan = self.fault_plan
        receive_wait_s = self.receive_wait_s
        tracer = self.tracer
        wait_start = env.now
        empty_streak = 0
        try:
            while self._working():
                # Scale-in: a draining (or already terminated) host stops
                # taking new tasks; the current task was finished first.
                if host.draining or not host.is_running:
                    return
                msg = yield from self.task_queue.receive(
                    wait_time_s=receive_wait_s
                )
                if wan_latency_s:
                    yield env.timeout(wan_latency_s)
                if msg is None:
                    if receive_wait_s:
                        continue  # the long poll already waited
                    # With a retry policy the empty-receive backoff grows
                    # (jittered) instead of hammering a drained queue at
                    # a fixed period.
                    backoff = self.poll_backoff_s
                    if retry_policy is not None:
                        empty_streak = min(empty_streak + 1, 30)
                        backoff += retry_policy.backoff_s(
                            empty_streak, backoff_rng
                        )
                    yield env.timeout(backoff)
                    continue
                empty_streak = 0
                task, perf_model, speculative = self._job(msg.body)
                started = env.now

                # Poison task: executing its input kills the worker.
                # The message reappears after the visibility timeout and
                # — with a redrive policy — eventually dead-letters.
                if task.task_id in plan.poison_task_ids:
                    env.process(
                        self._respawn_after_poison(
                            host,
                            concurrent_workers,
                            wan_bandwidth_bps,
                            wan_latency_s,
                        ),
                        name=f"{name}-respawn",
                    )
                    return

                self._set_busy(name, True)
                try:
                    # Download the input over HTTP, retrying through
                    # eventual-consistency 404s.  Bounded: a key that
                    # never appears is a configuration error and must
                    # fail loudly rather than hang the run.
                    t0 = env.now
                    try:
                        yield from run_with_retry(
                            env,
                            _DOWNLOAD_RETRY,
                            lambda: self.storage.get(
                                task.input_key,
                                bandwidth_bps=wan_bandwidth_bps,
                                extra_latency_s=wan_latency_s,
                            ),
                            retryable=(BlobNotFound,),
                        )
                    except BlobNotFound:
                        raise RuntimeError(
                            f"input {task.input_key!r} never became "
                            "visible in storage"
                        ) from None
                    download_time = env.now - t0

                    # Execute the program.
                    service = task_runtime_seconds(
                        perf_model,
                        task.work_units,
                        host.machine,
                        concurrent_workers=concurrent_workers,
                        threads=self.threads_per_worker,
                        clock_ghz=host.effective_clock_ghz(),
                    )
                    # Stragglers, plus small service-time noise on top
                    # of instance jitter.
                    service, _ = draw(service)
                    t1 = env.now
                    yield env.timeout(service)
                    compute_time = env.now - t1

                    # Upload the result (idempotent overwrite on
                    # re-execution).
                    t2 = env.now
                    yield from self.storage.put(
                        task.output_key,
                        task.output_size,
                        bandwidth_bps=wan_bandwidth_bps,
                        extra_latency_s=wan_latency_s,
                    )
                    upload_time = env.now - t2
                except StorageUnavailable:
                    # Retry budget exhausted mid-attempt: abandon it.
                    # The undeleted message reappears after the
                    # visibility timeout and another worker re-executes
                    # the task — the recovery path the paper relies on.
                    self._set_busy(name, False)
                    wait_start = env.now
                    continue

                # Delete the message; a stale receipt means the task was
                # re-delivered meanwhile — our (identical) result stands.
                was_duplicate = msg.receive_count > 1
                try:
                    yield from self.task_queue.delete(msg)
                except StaleReceiptError:
                    was_duplicate = True
                if self.monitor_queue is not None:
                    yield from self.monitor_queue.send(task.task_id)
                won = self._finish(task, msg, was_duplicate)
                self.records.append(
                    TaskRecord(
                        task_id=task.task_id,
                        worker=name,
                        started_at=started,
                        finished_at=env.now,
                        download_time=download_time,
                        compute_time=compute_time,
                        upload_time=upload_time,
                        attempt=msg.receive_count,
                        was_duplicate=was_duplicate,
                        speculative=speculative,
                        won=won,
                    )
                )
                # Spans mirror the record exactly (same env.now readings,
                # emitted with no intervening yields), so Chrome-trace
                # phase totals agree with analysis.phase_breakdown.
                if tracer.enabled:
                    tid = task.task_id
                    for span, start, end in (
                        ("task.queue_wait", wait_start, started),
                        ("task.download", t0, t0 + download_time),
                        ("task.compute", t1, t1 + compute_time),
                        ("task.upload", t2, t2 + upload_time),
                    ):
                        tracer.add(
                            span, track=name, start=start, end=end,
                            task_id=tid,
                        )
                self._set_busy(name, False)
                wait_start = env.now
        except Interrupt:
            # Crashed, preempted or released by a drain.  If the
            # interrupt landed mid-task, close the busy gauge so the
            # pick-up is paired with a drop.
            if name in self._busy:
                self._set_busy(name, False)
            return
