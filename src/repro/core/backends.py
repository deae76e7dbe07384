"""Backend registry: one interface over the four frameworks.

Every backend exposes ``run(app, tasks)`` returning a
:class:`~repro.core.task.RunResult`, ``estimate_sequential_time`` (the T1
of Equation 1) and ``total_cores`` (the P).  The four simulated backends
mirror the paper's platforms; the local backend executes for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.classiccloud.framework import ClassicCloudConfig, ClassicCloudFramework
from repro.classiccloud.local import LocalClassicCloud
from repro.cluster.spec import get_cluster
from repro.core.application import Application
from repro.core.task import RunResult, TaskSpec
from repro.dryad.dryadlinq import DryadLinqConfig, DryadLinqSimulator
from repro.hadoop.job import HadoopJobConfig, HadoopSimulator

__all__ = [
    "Backend",
    "ClassicCloudBackend",
    "DryadLinqBackend",
    "HadoopBackend",
    "LocalBackend",
    "make_backend",
]


@runtime_checkable
class Backend(Protocol):
    """The uniform execution interface."""

    name: str

    @property
    def total_cores(self) -> int: ...

    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult: ...

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float: ...


class _Simulated:
    """``run`` and T1 of a backend that wraps one simulator."""

    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult:
        return self._simulator.run(app, tasks)

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float:
        return self._simulator.estimate_sequential_time(app, tasks)


@dataclass
class ClassicCloudBackend(_Simulated):
    """EC2 or Azure Classic Cloud (simulated)."""

    config: ClassicCloudConfig
    name: str = field(init=False)

    def __post_init__(self) -> None:
        self.name = f"classiccloud-{self.config.provider}"
        self._simulator = ClassicCloudFramework(self.config)

    @property
    def total_cores(self) -> int:
        return self.config.total_cores


@dataclass
class HadoopBackend(_Simulated):
    """Hadoop map-only job on a bare-metal cluster (simulated)."""

    config: HadoopJobConfig
    name: str = "hadoop"

    def __post_init__(self) -> None:
        self._simulator = HadoopSimulator(self.config)

    @property
    def total_cores(self) -> int:
        return self.config.total_slots


@dataclass
class DryadLinqBackend(_Simulated):
    """DryadLINQ Select on a Windows HPC cluster (simulated)."""

    config: DryadLinqConfig
    name: str = "dryadlinq"

    def __post_init__(self) -> None:
        self._simulator = DryadLinqSimulator(self.config)

    @property
    def total_cores(self) -> int:
        return self.config.total_cores


@dataclass
class LocalBackend:
    """Real execution on local threads with Classic Cloud semantics."""

    n_workers: int = 4
    visibility_timeout_s: float = 60.0
    timeout_s: float = 600.0
    name: str = "local"

    @property
    def total_cores(self) -> int:
        return self.n_workers

    def run(self, app: Application, tasks: list[TaskSpec]) -> RunResult:
        runner = LocalClassicCloud(
            n_workers=self.n_workers,
            visibility_timeout_s=self.visibility_timeout_s,
            timeout_s=self.timeout_s,
        )
        return runner.run(app.make_executable(), tasks)

    def estimate_sequential_time(
        self, app: Application, tasks: list[TaskSpec]
    ) -> float:
        """Real sequential execution time (actually runs the tasks)."""
        import time

        runner = LocalClassicCloud(
            n_workers=1,
            visibility_timeout_s=self.visibility_timeout_s,
            timeout_s=self.timeout_s,
        )
        start = time.monotonic()
        runner.run(app.make_executable(), tasks)
        return time.monotonic() - start


def make_backend(name: str, **kwargs) -> Backend:
    """Build a backend from a short name.

    * ``"ec2"`` — kwargs of :class:`ClassicCloudConfig` minus provider
      (defaults: 16 HCXL instances, 8 workers each — the paper's setup);
    * ``"azure"`` — likewise (defaults: 128 Small instances, 1 worker);
    * ``"hadoop"`` — kwargs of :class:`HadoopJobConfig`; ``cluster`` may
      be a catalog name;
    * ``"dryadlinq"`` — kwargs of :class:`DryadLinqConfig`, same cluster
      convention;
    * ``"local"`` — kwargs of :class:`LocalBackend`.
    """
    if name == "ec2":
        defaults = dict(
            provider="aws",
            instance_type="HCXL",
            n_instances=16,
            workers_per_instance=8,
        )
        defaults.update(kwargs)
        return ClassicCloudBackend(ClassicCloudConfig(**defaults))
    if name == "azure":
        defaults = dict(
            provider="azure",
            instance_type="Small",
            n_instances=128,
            workers_per_instance=1,
        )
        defaults.update(kwargs)
        return ClassicCloudBackend(ClassicCloudConfig(**defaults))
    if name == "hadoop":
        kwargs = dict(kwargs)
        cluster = kwargs.pop("cluster", "cap3-baremetal")
        if isinstance(cluster, str):
            cluster = get_cluster(cluster)
        return HadoopBackend(HadoopJobConfig(cluster=cluster, **kwargs))
    if name == "dryadlinq":
        kwargs = dict(kwargs)
        cluster = kwargs.pop("cluster", "cap3-baremetal-windows")
        if isinstance(cluster, str):
            cluster = get_cluster(cluster)
        return DryadLinqBackend(DryadLinqConfig(cluster=cluster, **kwargs))
    if name == "local":
        return LocalBackend(**kwargs)
    raise KeyError(
        f"unknown backend {name!r}; known: ec2, azure, hadoop, dryadlinq, local"
    )
