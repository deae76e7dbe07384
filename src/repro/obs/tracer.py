"""Low-overhead tracing: nestable spans and instant events.

A :class:`Tracer` collects spans (intervals on a named track) and
instants (point events).  Each record is stored as one plain tuple row;
:class:`Span` and :class:`Instant` are the read views built from those
rows on demand (``spans``, ``instants``, ``snapshot()``), so recording
costs one tuple and one append.  Two time domains coexist in one trace:

* ``"sim"`` — timestamps are **simulated seconds** read from
  ``Environment.now``.  Simulation code records these with explicit
  times via :meth:`Tracer.add` / :meth:`Tracer.instant`, using the very
  same ``env.now`` readings it already takes for its
  :class:`~repro.core.task.TaskRecord` bookkeeping, so span durations
  agree exactly with the post-run analysis.
* ``"wall"`` — timestamps are **wall-clock seconds** since the tracer
  was created.  The threaded local runtimes use this domain, and the
  :meth:`Tracer.span` context manager reads the tracer's wall clock
  automatically (handy for host-side work like cache lookups).

The default tracer everywhere is :data:`NULL_TRACER`, a null object
whose every method is a constant-time no-op — uninstrumented runs pay
one attribute lookup and an empty call per would-be span, nothing more.
Real tracers are installed for one run at a time through
:func:`repro.obs.context.observe`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Instant", "NULL_TRACER", "NullTracer", "Span", "Tracer"]

#: Known time domains; export maps each to its own Chrome trace pid.
DOMAINS = ("sim", "wall")


@dataclass(frozen=True)
class Span:
    """One completed interval on a track (worker / process / scope)."""

    name: str  # e.g. "task.compute"
    track: str  # e.g. "worker-3" — becomes the Chrome trace tid
    start: float  # seconds (domain-relative)
    end: float
    domain: str = "sim"
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """One point event on a track."""

    name: str
    track: str
    ts: float
    domain: str = "sim"
    args: dict[str, Any] = field(default_factory=dict)


class _SpanHandle:
    """Context manager for a wall-domain span; records on exit."""

    __slots__ = ("_tracer", "_name", "_track", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, track: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer.wall_now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.add(
            self._name,
            track=self._track,
            start=self._start,
            end=self._tracer.wall_now(),
            domain="wall",
            **self._args,
        )

    def open(self) -> "_SpanHandle":
        """Explicit open for handles that must straddle a boundary a
        with-block cannot (pair with ``close()`` in a ``finally``)."""
        return self.__enter__()

    def close(self) -> None:
        self.__exit__(None, None, None)


class Tracer:
    """Collects spans and instants; thread-safe appends.

    ``label`` tags the trace (e.g. the backend name) and surfaces in the
    exported Chrome trace metadata.
    """

    enabled = True

    def __init__(self, label: str = ""):
        self.label = label
        #: ``(name, track, start, end, domain, args)`` per span and
        #: ``(name, track, ts, domain, args)`` per instant, in record order.
        self._spans: list[tuple] = []
        self._instants: list[tuple] = []
        self._lock = threading.Lock()
        # Wall-domain origin: spans from threaded runtimes and context-
        # manager spans are relative to tracer creation.
        self._wall_origin = time.monotonic()

    def wall_now(self) -> float:
        """Wall-clock seconds since this tracer was created."""
        return time.monotonic() - self._wall_origin

    # -- recording --------------------------------------------------------
    def add(
        self,
        name: str,
        *,
        track: str,
        start: float,
        end: float,
        domain: str = "sim",
        **args: Any,
    ) -> None:
        """Record a completed span with explicit timestamps.

        Simulation code passes its own ``env.now`` readings; threaded
        runtimes pass wall-clock offsets with ``domain="wall"``.
        """
        with self._lock:
            self._spans.append((name, track, start, end, domain, args))

    def span(self, name: str, *, track: str = "main", **args: Any):
        """Context manager recording a wall-domain span around a block.

        Simulation code must not use this form (the body would be timed
        in host seconds); it records with :meth:`add` and ``env.now``
        readings instead — lint rule RPR007 enforces this.
        """
        return _SpanHandle(self, name, track, args)

    def instant(
        self,
        name: str,
        *,
        track: str = "main",
        ts: float | None = None,
        domain: str = "sim",
        **args: Any,
    ) -> None:
        """Record a point event; ``ts=None`` reads the wall clock."""
        if ts is None:
            ts = self.wall_now()
            domain = "wall"
        with self._lock:
            self._instants.append((name, track, ts, domain, args))

    # -- views ------------------------------------------------------------
    def rows(self) -> tuple[list[tuple], list[tuple]]:
        """Consistent copies of the span and instant rows (plain tuples
        that pickle cleanly — what sweep workers ship to the parent)."""
        with self._lock:
            return list(self._spans), list(self._instants)

    @property
    def spans(self) -> list[Span]:
        return [Span(*row) for row in self.rows()[0]]

    @property
    def instants(self) -> list[Instant]:
        return [Instant(*row) for row in self.rows()[1]]

    def snapshot(self) -> tuple[list[Span], list[Instant]]:
        """The recorded spans and instants as :class:`Span` /
        :class:`Instant` values, built from one consistent copy."""
        spans, instants = self.rows()
        return [Span(*row) for row in spans], [Instant(*row) for row in instants]

    def totals(self, prefix: str = "") -> dict[str, float]:
        """Total seconds per span name (optionally name-prefix filtered)."""
        out: dict[str, float] = {}
        for name, _, start, end, _, _ in self.rows()[0]:
            if name.startswith(prefix):
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def __len__(self) -> int:
        return len(self._spans) + len(self._instants)


class _NullSpanHandle:
    """Shared no-op context manager handed out by the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def open(self):
        return self

    def close(self) -> None:
        return None


_NULL_SPAN_HANDLE = _NullSpanHandle()


class NullTracer:
    """The do-nothing default: every method is a constant-time no-op."""

    enabled = False
    label = ""
    spans: list[Span] = []  # always empty; never mutated
    instants: list[Instant] = []

    def wall_now(self) -> float:
        return 0.0

    def add(self, name, *, track, start, end, domain="sim", **args) -> None:
        pass

    def span(self, name, *, track="main", **args):
        return _NULL_SPAN_HANDLE

    def instant(self, name, *, track="main", ts=None, domain="sim", **args):
        pass

    def rows(self) -> tuple[list[tuple], list[tuple]]:
        return [], []

    def snapshot(self) -> tuple[list[Span], list[Instant]]:
        return [], []

    def totals(self, prefix: str = "") -> dict[str, float]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
