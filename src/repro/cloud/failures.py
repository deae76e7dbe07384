"""Fault-injection plans for resilience experiments.

The Classic Cloud framework's fault-tolerance claim is that a worker crash
mid-task loses nothing: the task's queue message reappears after the
visibility timeout and another worker re-executes it, idempotently.  A
:class:`FaultPlan` lets tests and ablation benches schedule exactly such
crashes, plus storage/message-level misbehaviour.

:class:`TaskFaults` is the per-attempt straggler, noise and failure draw
that Classic Cloud, Hadoop and DryadLINQ share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.rng import RngRegistry

__all__ = ["FaultPlan", "TaskFaults", "WorkerCrash"]


@dataclass(frozen=True)
class TaskFaults:
    """Per-attempt service-time faults of one run.

    Each attempt straggles (``straggler_slowdown`` times slower) with
    ``straggler_probability``, takes a uniform 0.98-1.02 noise factor,
    then dies 10-90 % into its compute with ``failure_probability``.
    """

    straggler_probability: float = 0.0
    straggler_slowdown: float = 5.0
    failure_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.straggler_probability <= 1.0:
            raise ValueError("straggler_probability must be in [0, 1]")
        if not self.straggler_slowdown >= 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if not 0.0 <= self.failure_probability < 1.0:
            raise ValueError("failure_probability must be in [0, 1)")

    def drawer(self, rng: RngRegistry, name: str, noise: str = "noise"):
        """Worker ``name``'s ``draw(service, backup=False)``.

        The draw returns ``(service, fail_at)``: the attempt's compute
        seconds and how far into them it fails (None: it succeeds).  It
        takes one draw per attempt from each of ``{name}-straggle``,
        ``{name}-{noise}`` and ``{name}-fail``; a zero probability draws
        nothing, and ``{name}-fail`` exists only when failures are on.
        A backup copy consumes its straggle draw but never straggles.
        """
        p_straggle = self.straggler_probability
        p_fail = self.failure_probability
        straggle = rng.stream(f"{name}-straggle")
        jitter = rng.stream(f"{name}-{noise}")
        fail = rng.stream(f"{name}-fail") if p_fail else None

        def draw(service: float, backup: bool = False):
            if p_straggle and straggle.random() < p_straggle and not backup:
                service *= self.straggler_slowdown
            service *= float(jitter.uniform(0.98, 1.02))
            if fail is not None and fail.random() < p_fail:
                return service, service * float(fail.uniform(0.1, 0.9))
            return service, None

        return draw


@dataclass(frozen=True)
class WorkerCrash:
    """Kill one worker at a simulated time.

    ``worker_index`` is the global worker index (instance-major order);
    ``at_time`` is simulated seconds from the start of the run.  If
    ``restart_after`` is not None, a replacement worker starts that many
    seconds after the crash (modelling instance replacement).
    """

    worker_index: int
    at_time: float
    restart_after: float | None = None

    def __post_init__(self) -> None:
        if self.worker_index < 0:
            raise ValueError("worker_index must be non-negative")
        if self.at_time < 0:
            raise ValueError("at_time must be non-negative")
        if self.restart_after is not None and self.restart_after < 0:
            raise ValueError("restart_after must be non-negative")


@dataclass
class FaultPlan:
    """Everything that can go wrong during a run.

    The bare constructor is **fault-free**: ``FaultPlan()`` injects
    nothing.  Historically it defaulted to a 2 % queue-miss rate, which
    silently perturbed runs that never asked for faults; that
    paper-calibrated rate now lives in :meth:`paper_default`.
    """

    worker_crashes: list[WorkerCrash] = field(default_factory=list)
    message_duplicate_probability: float = 0.0
    queue_miss_probability: float = 0.0
    storage_error_rate: float = 0.0
    # Straggler injection: each task independently becomes this many times
    # slower with the given probability (exercises speculative execution).
    straggler_probability: float = 0.0
    straggler_slowdown: float = 5.0
    # Poison tasks: executing one of these kills the worker outright
    # (the input crashes the program).  Idempotent re-execution cannot
    # fix these — only a dead-letter redrive policy bounds them.
    poison_task_ids: frozenset[str] = frozenset()
    poison_restart_s: float = 30.0  # replacement worker delay

    def __post_init__(self) -> None:
        for name in (
            "message_duplicate_probability",
            "queue_miss_probability",
            "storage_error_rate",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.task_faults  # validates the straggler fields
        if self.poison_restart_s < 0:
            raise ValueError("poison_restart_s must be non-negative")

    @property
    def task_faults(self) -> TaskFaults:
        """Stragglers only: a Classic Cloud task fails by crash or poison."""
        return TaskFaults(self.straggler_probability, self.straggler_slowdown)

    def crashes_for(self, worker_index: int) -> list[WorkerCrash]:
        """Crashes scheduled against one worker, in time order."""
        return sorted(
            (c for c in self.worker_crashes if c.worker_index == worker_index),
            key=lambda c: c.at_time,
        )

    @staticmethod
    def none() -> "FaultPlan":
        """A plan with no injected faults.

        Since the bare constructor became fault-free this is an alias
        for ``FaultPlan()``, kept for explicitness at call sites.
        """
        return FaultPlan()

    @staticmethod
    def paper_default() -> "FaultPlan":
        """The paper-calibrated service-level noise.

        A 2 % chance that a queue receive returns empty despite visible
        messages — the eventual-consistency artefact the paper's SQS
        description calls out ("availability is only guaranteed over
        multiple requests").  This used to be the implicit
        ``FaultPlan()`` default.
        """
        return FaultPlan(queue_miss_probability=0.02)
