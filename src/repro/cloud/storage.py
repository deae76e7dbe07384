"""Simulated blob storage (Amazon S3 / Azure Blob Storage).

Characteristics modelled, per the paper's description of S3/Azure Storage:

* accessed over HTTP: every operation pays a request latency;
* transfers are bandwidth-limited (per-connection cap and the instance NIC);
* pricing is per request plus per GB stored / transferred;
* *eventual consistency*: an overwrite may serve the previous version for a
  short window, and newly created objects may transiently 404 (S3's 2010
  create-read behaviour in some regions).

Blob payloads are optional — simulated frameworks typically move only
metadata (key + size), but tests can attach payload tokens to verify
end-to-end data integrity through the framework code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.cloud.billing import CostMeter
from repro.sim.engine import Environment, Timeout

__all__ = ["BlobNotFound", "BlobObject", "BlobStore", "StorageUnavailable"]


class BlobNotFound(KeyError):
    """Raised when a GET references a key that is not (yet) visible."""


class StorageUnavailable(RuntimeError):
    """A request kept failing with retryable 5xx errors until the
    client's retry budget ran out.  Only raised when the store was
    built with a :class:`~repro.chaos.retry.RetryPolicy`; without one
    the client retries forever (the historical behaviour)."""


@dataclass
class BlobObject:
    """One stored object version."""

    key: str
    size: int
    payload: Any = None
    version: int = 0
    created_at: float = 0.0


@dataclass
class _Entry:
    current: BlobObject
    previous: BlobObject | None = None
    stale_until: float = 0.0  # reads before this time may see ``previous``


@dataclass
class TransferStats:
    """Counters for observability and tests."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    stale_reads: int = 0
    not_found: int = 0
    bytes_uploaded: int = 0
    bytes_downloaded: int = 0


class BlobStore:
    """A simulated S3 bucket / Azure Blob container.

    All operations are DES process generators: drive them with
    ``yield env.process(store.get(...))`` from a worker process, or
    ``env.run(until=env.process(...))`` from test code.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        rng: np.random.Generator,
        meter: CostMeter | None = None,
        request_latency_s: float = 0.040,
        latency_sigma: float = 0.35,
        bandwidth_mbps: float = 50.0,
        consistency_window_s: float = 0.0,
        error_rate: float = 0.0,
        retry_policy=None,
    ):
        """Create a store.

        ``request_latency_s`` is the median per-request HTTP latency;
        actual latencies are lognormal with shape ``latency_sigma``.
        ``bandwidth_mbps`` is the per-connection transfer cap in MB/s.
        ``consistency_window_s`` > 0 enables eventual consistency: reads
        within the window after a write may observe the prior state.
        ``error_rate`` is the probability that a request fails with a
        retryable error (the operation retries internally, costing time
        and an extra metered request).
        ``retry_policy`` (a :class:`~repro.chaos.retry.RetryPolicy`)
        bounds those internal retries: delays follow the policy's
        backoff-with-jitter schedule and, once the attempt budget is
        spent, the operation raises :class:`StorageUnavailable` instead
        of retrying forever.  ``None`` keeps the historical
        retry-forever behaviour, byte-identical in timing.
        """
        self.env = env
        self.name = name
        self.rng = rng
        # Bound method cache for the per-request hot path.
        self._lognormal = rng.lognormal
        self.meter = meter
        self.request_latency_s = request_latency_s
        self.latency_sigma = latency_sigma
        self.bandwidth_bps = bandwidth_mbps * 1e6
        self.consistency_window_s = consistency_window_s
        self.error_rate = error_rate
        self.retry_policy = retry_policy
        self.stats = TransferStats()
        self._objects: dict[str, _Entry] = {}

    # -- helpers --------------------------------------------------------------
    def _latency(self, extra_latency_s: float = 0.0) -> float:
        return float(
            self.request_latency_s
            * self._lognormal(0.0, self.latency_sigma)
            + extra_latency_s
        )

    def _attempt(self, extra_latency_s: float) -> Timeout:
        """Meter one HTTP request and return its round-trip timeout."""
        if self.meter is not None:
            self.meter.record_storage_request()
        return self.env.timeout(self._latency(extra_latency_s))

    def _failed(self) -> bool:
        """Draw whether the attempt just paid for hit a retryable 5xx."""
        return bool(self.error_rate) and self.rng.random() < self.error_rate

    def _retry(self, extra_latency_s: float) -> Generator:
        """Retry after a failed first attempt, until one succeeds.

        Every operation pays its first attempt inline (``yield
        self._attempt(...)`` then :meth:`_failed`) and only enters this
        generator on a failure.  Without a retry policy a 5xx backs off
        for twice the request latency and retries forever; with one,
        delays follow the policy and the budget is hard — exhaustion
        raises :class:`StorageUnavailable`.
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            if policy is None:
                yield self.env.timeout(self._latency(extra_latency_s) * 2.0)
            else:
                if attempt >= policy.attempts:
                    raise StorageUnavailable(
                        f"{self.name}: request failed {attempt} times; "
                        "retry budget exhausted"
                    )
                yield self.env.timeout(policy.backoff_s(attempt, self.rng))
            yield self._attempt(extra_latency_s)
            if not self._failed():
                return
            attempt += 1

    def _transfer_time(self, size: int, bandwidth_bps: float | None) -> float:
        effective = self.bandwidth_bps if bandwidth_bps is None else min(
            self.bandwidth_bps, bandwidth_bps
        )
        return size / effective

    # -- operations -------------------------------------------------------------
    def put(
        self,
        key: str,
        size: int,
        payload: Any = None,
        bandwidth_bps: float | None = None,
        extra_latency_s: float = 0.0,
    ) -> Generator:
        """Upload an object (process).  Returns the stored :class:`BlobObject`.

        ``bandwidth_bps``/``extra_latency_s`` model a slower network path
        to the store — e.g. an on-premise worker reaching cloud storage
        over a WAN (the paper's hybrid local+cloud deployment).
        """
        if size < 0:
            raise ValueError(f"negative object size {size}")
        yield self._attempt(extra_latency_s)
        if self._failed():
            yield from self._retry(extra_latency_s)
        yield self.env.timeout(self._transfer_time(size, bandwidth_bps))
        entry = self._objects.get(key)
        version = entry.current.version + 1 if entry else 0
        blob = BlobObject(
            key=key, size=size, payload=payload, version=version,
            created_at=self.env.now,
        )
        if entry is None:
            self._objects[key] = _Entry(
                current=blob,
                previous=None,
                stale_until=self.env.now + self.consistency_window_s,
            )
        else:
            entry.previous = entry.current
            entry.current = blob
            entry.stale_until = self.env.now + self.consistency_window_s
        self.stats.puts += 1
        self.stats.bytes_uploaded += size
        if self.meter is not None:
            self.meter.record_stored(size)
        return blob

    def get(
        self,
        key: str,
        bandwidth_bps: float | None = None,
        extra_latency_s: float = 0.0,
    ) -> Generator:
        """Download an object (process).  Returns a :class:`BlobObject`.

        Raises :class:`BlobNotFound` if the key does not exist (or is not
        yet visible under eventual consistency).  See :meth:`put` for the
        network-path overrides.
        """
        yield self._attempt(extra_latency_s)
        if self._failed():
            yield from self._retry(extra_latency_s)
        entry = self._objects.get(key)
        visible = self._visible_version(entry)
        if visible is None:
            self.stats.not_found += 1
            raise BlobNotFound(key)
        yield self.env.timeout(self._transfer_time(visible.size, bandwidth_bps))
        self.stats.gets += 1
        self.stats.bytes_downloaded += visible.size
        return visible

    def head(self, key: str) -> Generator:
        """Metadata-only existence check (process).  Returns bool."""
        yield self._attempt(0.0)
        if self._failed():
            yield from self._retry(0.0)
        return self._visible_version(self._objects.get(key)) is not None

    def delete(self, key: str) -> Generator:
        """Delete an object (process).  Idempotent, like S3."""
        yield self._attempt(0.0)
        if self._failed():
            yield from self._retry(0.0)
        self._objects.pop(key, None)
        self.stats.deletes += 1

    def list_keys(self, prefix: str = "") -> Generator:
        """List visible keys under ``prefix`` (process)."""
        yield self._attempt(0.0)
        if self._failed():
            yield from self._retry(0.0)
        return sorted(
            key
            for key, entry in self._objects.items()
            if key.startswith(prefix)
            and self._visible_version(entry) is not None
        )

    def _visible_version(self, entry: _Entry | None) -> BlobObject | None:
        if entry is None:
            return None
        if (
            self.consistency_window_s > 0
            and self.env.now < entry.stale_until
            and self.rng.random() < 0.5
        ):
            self.stats.stale_reads += 1
            return entry.previous  # may be None: fresh object still invisible
        return entry.current

    def stage(self, key: str, size: int, payload: Any = None) -> BlobObject:
        """Instantly pre-populate an object (no simulated time or latency).

        Models the paper's assumption that "the data was already present
        in the framework's preferred storage location".  Stored bytes are
        still metered for the GB-month cost line.
        """
        if size < 0:
            raise ValueError(f"negative object size {size}")
        blob = BlobObject(
            key=key, size=size, payload=payload, created_at=self.env.now
        )
        entry = self._objects.get(key)
        if entry is not None:
            blob = BlobObject(
                key=key,
                size=size,
                payload=payload,
                version=entry.current.version + 1,
                created_at=self.env.now,
            )
        self._objects[key] = _Entry(current=blob, previous=None, stale_until=0.0)
        if self.meter is not None:
            self.meter.record_stored(size)
        return blob

    # -- non-timed inspection (test helpers) -------------------------------------
    def peek(self, key: str) -> BlobObject | None:
        """Current version without simulating a request (tests only)."""
        entry = self._objects.get(key)
        return entry.current if entry else None

    def total_bytes(self) -> int:
        """Sum of current-version object sizes."""
        return sum(e.current.size for e in self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)
