"""Per-layer wall-clock attribution, measured from outside the program.

:class:`LayerClock` patches the public methods of each layer's classes
(so every importer sees the wrapper) and times every call into them.  A
*span* is one call, or one resume of a generator; a span's *self time*
is its duration minus the spans it contains.  Self times are summed per
bucket, and a bucket name's first dotted component is its layer
(``serve.worker`` belongs to ``serve``).

Generators are wrapped in :class:`Resumes`, a proxy that times each
``send``/``throw`` and forwards ``close``.  It wraps every generator
handed to ``Environment.process`` (bucketed by the generator function's
module and qualified name) and the generators returned by the simulated
queue and blob store operations.  A wrapped ``yield from`` therefore
still delivers values, return values and thrown exceptions such as
``Interrupt`` unchanged; :func:`self_test` proves it.

Each thread keeps its own span stack, self-time totals, counts and
registered objects, so worker threads never contend on a shared dict;
:meth:`LayerClock.collect` merges them under a lock.

Usage::

    clock = LayerClock()
    clock.install()
    start = time.perf_counter()
    try:
        ...  # run the workload
    finally:
        clock.uninstall()
    totals = clock.collect(time.perf_counter() - start)
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections.abc import Generator

_now = time.perf_counter
_cpu = time.thread_time

#: Process generators that get a bucket of their own, by (module,
#: qualified name).  Everything else is bucketed by module below.
_PROCESS_BUCKETS = {
    ("repro.serve.service", "JobService._worker"): "serve.worker",
    ("repro.serve.scheduler", "FairShareScheduler.run"): "serve.scheduler",
    ("repro.classiccloud.framework", "_SimRun._worker"): "classic.worker",
}

#: Module prefix -> bucket, first match wins.
_MODULE_BUCKETS = (
    ("repro.sim", "sim"),
    ("repro.cloud.queue", "queue"),
    ("repro.cloud.storage", "storage"),
    ("repro.serve", "serve.other"),
    ("repro.classiccloud", "classic.other"),
    ("repro.obs", "obs"),
    ("repro.apps", "apps.other"),
)


def _module_bucket(module: str) -> str:
    for prefix, bucket in _MODULE_BUCKETS:
        if module == prefix or module.startswith(prefix + "."):
            return bucket
    if module.startswith("repro."):
        # e.g. repro.cloud.compute -> "cloud.compute": claimed, but by
        # a layer the benchmark does not report on its own.
        return module[len("repro."):]
    return "bench"


def _process_bucket(generator) -> str:
    code = getattr(generator, "gi_code", None)
    frame = getattr(generator, "gi_frame", None)
    if code is None or frame is None:
        return "bench"
    module = frame.f_globals.get("__name__", "")
    return _PROCESS_BUCKETS.get(
        (module, code.co_qualname), _module_bucket(module)
    )


class _ThreadState:
    """One thread's span stack and accumulators."""

    __slots__ = ("stack", "self_s", "counts", "objects", "first", "last")

    def __init__(self) -> None:
        # stack[0] accumulates the time of this thread's top-level
        # spans, which equals the sum of its self times.
        self.stack = [0.0]
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.objects: dict[str, dict[int, object]] = {}
        self.first: float | None = None
        self.last = 0.0


class LayerClock:
    """Install/uninstall the layer wrappers and collect their totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- per-thread state --------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def reset(self) -> None:
        """Drop every total; the next span starts a fresh repeat."""
        with self._lock:
            self._states = []
            self._local = threading.local()

    def count(self, key: str, amount: float = 1.0) -> None:
        counts = self._state().counts
        counts[key] = counts.get(key, 0.0) + amount

    def register(self, kind: str, obj: object) -> None:
        self._state().objects.setdefault(kind, {})[id(obj)] = obj

    # -- spans -------------------------------------------------------------
    def enter(self) -> "tuple[_ThreadState, float]":
        state = self._state()
        stack = state.stack
        if len(stack) == 1 and state.first is None:
            state.first = _now()
        stack.append(0.0)
        return state, _now()

    @staticmethod
    def leave(state: _ThreadState, bucket: str, start: float) -> None:
        end = _now()
        elapsed = end - start
        stack = state.stack
        child = stack.pop()
        stack[-1] += elapsed
        totals = state.self_s
        totals[bucket] = totals.get(bucket, 0.0) + (elapsed - child)
        if len(stack) == 1:
            state.last = end

    def timed(self, bucket: str, fn, hook=None, register: str | None = None):
        """Wrap a plain callable: one span per call.

        ``hook(clock, args, result)`` runs after the span closes, so
        bookkeeping is not charged to the layer.
        """
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, start = clock.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                clock.leave(state, bucket, start)
            if register is not None:
                clock.register(register, args[0])
            if hook is not None:
                hook(clock, args, result)
            return result

        return wrapper

    def generating(self, bucket: str, fn, register: str | None = None):
        """Wrap a generator function: its generators become proxies."""
        clock = self
        calls = f"calls.{bucket}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if register is not None:
                clock.register(register, args[0])
            clock.count(calls)
            return Resumes(clock, fn(*args, **kwargs), bucket)

        return wrapper

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _rebind_function(self, module, name: str, bucket: str) -> None:
        """Patch a module-level function in every repro module that
        imported it by name, not only where it is defined."""
        original = getattr(module, name)
        wrapper = self.timed(bucket, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Patch every layer.  Imports the layers it patches."""
        if self._undo:
            raise RuntimeError("layer wrappers are already installed")
        from repro.apps import executables, perfmodels
        from repro.classiccloud.local import LocalClassicCloud, LocalQueue
        from repro.classiccloud.localstore import LocalBlobStore
        from repro.cloud.queue import MessageQueue
        from repro.cloud.storage import BlobStore
        from repro.obs import export
        from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
        from repro.obs.timeline import Timeline
        from repro.obs.tracer import Tracer
        from repro.serve.admission import AdmissionController
        from repro.serve.scheduler import FairShareScheduler
        from repro.sim.engine import Environment

        clock = self
        original_process = Environment.__dict__["process"]

        @functools.wraps(original_process)
        def process(env, generator, name=None):
            if not isinstance(generator, Resumes):
                generator = Resumes(
                    clock, generator, _process_bucket(generator)
                )
            return original_process(env, generator, name=name)

        self._patch(Environment, "process", process)
        self._patch(
            Environment, "run",
            self.timed("sim", Environment.__dict__["run"], register="env"),
        )

        for name in ("send", "send_batch", "receive", "delete",
                     "change_visibility"):
            self._patch(MessageQueue, name, self.generating(
                "queue", MessageQueue.__dict__[name], register="queue"))
        for name in ("peek_bodies", "approximate_size", "visible_now"):
            self._patch(MessageQueue, name,
                        self.timed("queue", MessageQueue.__dict__[name]))

        for name in ("put", "get", "head", "delete", "list_keys"):
            self._patch(BlobStore, name, self.generating(
                "storage", BlobStore.__dict__[name], register="store"))
        for name in ("stage", "peek", "total_bytes"):
            self._patch(BlobStore, name,
                        self.timed("storage", BlobStore.__dict__[name]))

        for name in ("submit", "complete", "duplicate", "abandon_remaining",
                     "check", "total_in_system"):
            self._patch(AdmissionController, name, self.timed(
                "serve.admission", AdmissionController.__dict__[name]))
        for name in ("enqueue", "queued_total", "dispatched_total", "stop"):
            self._patch(FairShareScheduler, name, self.timed(
                "serve.scheduler", FairShareScheduler.__dict__[name]))

        self._patch(LocalQueue, "receive", self.timed(
            "local.queue", LocalQueue.__dict__["receive"], hook=_on_receive))
        for name in ("send", "delete", "approximate_size"):
            self._patch(LocalQueue, name,
                        self.timed("local.queue", LocalQueue.__dict__[name]))
        for name, hook in (("get", _on_get), ("put", _on_put),
                           ("put_bytes", _on_put_bytes), ("exists", None),
                           ("delete", None), ("list_keys", None),
                           ("size", None)):
            self._patch(LocalBlobStore, name, self.timed(
                "local.store", LocalBlobStore.__dict__[name], hook=hook))
        # The driving thread blocks in run() while worker threads do the
        # work; that wait is not a layer's time (see collect()).
        self._patch(LocalClassicCloud, "run",
                    self.timed("wait", LocalClassicCloud.__dict__["run"]))

        for cls in (executables.Cap3Executable, executables.BlastExecutable,
                    executables.GtmInterpolationExecutable):
            self._patch(cls, "run", self._kernel(cls.__dict__["run"]))
        self._rebind_function(perfmodels, "task_runtime_seconds",
                              "apps.perfmodel")

        for cls, names in (
            (Tracer, ("add", "instant", "span", "snapshot", "totals")),
            (MetricsRegistry, ("counter", "gauge", "histogram", "to_dict",
                               "snapshot", "merge")),
            (Counter, ("inc",)),
            (Gauge, ("set", "inc", "dec")),
            (Histogram, ("observe",)),
            (Timeline, ("sample", "snapshot")),
        ):
            for name in names:
                self._patch(cls, name, self.timed(
                    "obs", cls.__dict__[name],
                    register="tracer" if cls is Tracer else None))
        self._rebind_function(export, "chrome_trace", "obs.export")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _kernel(self, fn):
        """App kernels: wall and thread-CPU time, plus input bytes."""
        clock = self

        @functools.wraps(fn)
        def wrapper(executable, input_path, output_path):
            state, start = clock.enter()
            cpu_start = _cpu()
            try:
                return fn(executable, input_path, output_path)
            finally:
                cpu = _cpu() - cpu_start
                clock.leave(state, "apps.kernel", start)
                state.counts["apps.kernel_cpu_s"] = (
                    state.counts.get("apps.kernel_cpu_s", 0.0) + cpu
                )
                clock.count("apps.kernel_input_bytes",
                            os.path.getsize(input_path))

        return wrapper

    # -- results -----------------------------------------------------------
    def collect(self, main_wall_s: float) -> dict:
        """Merged totals of the current repeat.

        ``other_s`` is thread time no bucket claims: the calling
        thread's wall time ``main_wall_s`` plus each other thread's span
        window (first span start to last span end), minus every self
        time.  The calling thread's blocked wait in the threaded runtime
        (bucket ``wait``) is subtracted too, because the worker threads'
        time over the same interval is already counted.
        """
        with self._lock:
            states = list(self._states)
        main = getattr(self._local, "state", None)
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        objects: dict[str, dict[int, object]] = {}
        window = main_wall_s
        for state in states:
            for bucket, value in state.self_s.items():
                self_s[bucket] = self_s.get(bucket, 0.0) + value
            for key, value in state.counts.items():
                counts[key] = counts.get(key, 0.0) + value
            for kind, found in state.objects.items():
                objects.setdefault(kind, {}).update(found)
            if state is not main and state.first is not None:
                window += state.last - state.first
        claimed = sum(self_s.values())
        return {
            "self_s": self_s,
            "counts": counts,
            "objects": {k: list(v.values()) for k, v in objects.items()},
            "other_s": window - claimed,
        }


def _on_receive(clock: LayerClock, args, result) -> None:
    if result is None:
        clock.count("local.empty_receives")


def _on_get(clock: LayerClock, args, result) -> None:
    clock.count("local.store_bytes", os.path.getsize(result))


def _on_put(clock: LayerClock, args, result) -> None:
    clock.count("local.store_bytes", os.path.getsize(args[2]))


def _on_put_bytes(clock: LayerClock, args, result) -> None:
    clock.count("local.store_bytes", len(args[2]))


class Resumes(Generator):
    """Generator proxy: one span per resume of the wrapped generator.

    Forwards ``send``, ``throw`` and ``close``; a ``StopIteration``
    carrying the return value and any exception the generator raises
    pass through untouched.  Resumes are counted per bucket.
    """

    __slots__ = ("_clock", "_gen", "_bucket", "_resumes")

    def __init__(self, clock: LayerClock, generator, bucket: str):
        self._clock = clock
        self._gen = generator
        self._bucket = bucket
        self._resumes = f"resumes.{bucket}"

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", "process")

    def send(self, value):
        clock = self._clock
        state, start = clock.enter()
        try:
            return self._gen.send(value)
        finally:
            clock.leave(state, self._bucket, start)
            counts = state.counts
            counts[self._resumes] = counts.get(self._resumes, 0.0) + 1.0

    def throw(self, *args):
        clock = self._clock
        state, start = clock.enter()
        try:
            return self._gen.throw(*args)
        finally:
            clock.leave(state, self._bucket, start)
            counts = state.counts
            counts[self._resumes] = counts.get(self._resumes, 0.0) + 1.0

    def close(self) -> None:
        self._gen.close()


def self_test() -> "list[str]":
    """Check that a proxied ``yield from`` changes nothing.

    A victim process waits inside a wrapped sub-generator; the victim is
    interrupted (a preemption or crash).  The same ``Interrupt`` object,
    with its cause, must reach the sub-generator and then the victim,
    and both runs — plain and wrapped — must record the same history.
    Return values must pass through too.  Returns the problems found.
    """
    from repro.sim.engine import Environment, Interrupt

    def scenario(wrap) -> list:
        env = Environment()
        log: list = []

        def waiter():
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                log.append(("inner", env.now, exc.cause, id(exc)))
                raise
            return "unreachable"

        def quick():
            yield env.timeout(1.0)
            return "value"

        def victim():
            got = yield from wrap(quick())
            log.append(("returned", env.now, got))
            try:
                yield from wrap(waiter())
            except Interrupt as exc:
                log.append(("outer", env.now, exc.cause, id(exc)))
                return "interrupted"

        def crasher(target):
            yield env.timeout(5.0)
            target.interrupt(cause="preempted")

        proc = env.process(wrap(victim()), name="victim")
        env.process(wrap(crasher(proc)), name="crasher")
        outcome = env.run(until=proc)
        log.append(("outcome", env.now, outcome))
        return log

    clock = LayerClock()
    plain = scenario(lambda gen: gen)
    wrapped = scenario(lambda gen: Resumes(clock, gen, "bench"))
    problems = []

    def strip_ids(log):
        return [entry[:3] for entry in log]

    if strip_ids(plain) != strip_ids(wrapped):
        problems.append(f"history differs: {plain!r} vs {wrapped!r}")
    ids = [entry[3] for entry in wrapped if entry[0] in ("inner", "outer")]
    if len(ids) != 2 or ids[0] != ids[1]:
        problems.append("the Interrupt reaching the caller is not the "
                        "one thrown into the wrapped generator")
    if ("outcome", 5.0, "interrupted") not in wrapped:
        problems.append(f"wrapped victim did not end interrupted: {wrapped!r}")
    if ("returned", 1.0, "value") not in wrapped:
        problems.append("return value lost through the proxy")
    return problems
