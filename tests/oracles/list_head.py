"""List-backed TSDB head: the differential-testing oracle for the columnar head.

:class:`ListSeries` keeps every sample in two plain Python lists and
answers reads by converting them to numpy arrays once per mutation —
the head layout the stack shipped before the columnar ring buffers
(:class:`repro.tsdb.storage.ColumnarSeries`).  It is the direct way to
write the series contract, so the production head is checked against
it bit for bit: same ``arrays()``, windows, instant reads, retention
trims and error messages, and the same PromQL answers on top.

:class:`ListHeadTSDB` is a :class:`~repro.tsdb.storage.TSDB` whose
series are ``ListSeries``; :class:`ListHeadPersistentTSDB` adds the
WAL.  ``PersistentTSDB.append_refs`` calls ``super()``, so through the
MRO the journal records the oracle's appends exactly as it records
the production head's.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.tsdb.model import Labels
from repro.tsdb.persist.head import PersistentTSDB
from repro.tsdb.storage import SNAPSHOT_STATS, TSDB


@dataclass
class ListSeries:
    """One time series: immutable identity + growing sample lists."""

    labels: Labels
    #: Storage-assigned series reference (see :meth:`TSDB.get_ref`).
    ref: int = 0
    timestamps: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    #: Cached ndarray snapshot of (timestamps, values); rebuilt lazily
    #: after any mutation.  See :meth:`arrays`.
    _snapshot: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def append(self, timestamp: float, value: float) -> None:
        if self.timestamps:
            last = self.timestamps[-1]
            if timestamp < last:
                raise StorageError(
                    f"out-of-order sample for {self.labels}: {timestamp} < {last}"
                )
            if timestamp == last:
                self.values[-1] = value  # idempotent re-ingest
                self._snapshot = None
                return
        self.timestamps.append(timestamp)
        self.values.append(value)
        self._snapshot = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole series as ``(timestamps, values)`` float64 arrays,
        cached until the next append/overwrite/truncation."""
        snap = self._snapshot
        if snap is None:
            SNAPSHOT_STATS["builds"] += 1
            snap = (
                np.asarray(self.timestamps, dtype=np.float64),
                np.asarray(self.values, dtype=np.float64),
            )
            self._snapshot = snap
        else:
            SNAPSHOT_STATS["hits"] += 1
        return snap

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t <= end``."""
        ts, vs = self.arrays()
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side="right")
        return ts[lo:hi], vs[lo:hi]

    def window_half_open(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t < end`` (block-window semantics)."""
        ts, vs = self.arrays()
        lo = np.searchsorted(ts, start, side="left")
        hi = np.searchsorted(ts, end, side="left")
        return ts[lo:hi], vs[lo:hi]

    def query_window_arrays(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """The whole snapshot: the cheapest superset of ``[lo, hi]``."""
        return self.arrays()

    def chunks(self, lo: float = float("-inf"), hi: float = float("inf")) -> list:
        """Chunk handles overlapping ``[lo, hi]``: a list series has no
        sealed chunks, so its whole snapshot is one tail chunk."""
        from repro.tsdb.persist.chunkio import TailChunk

        ts, vs = self.arrays()
        if not len(ts) or ts[-1] < lo or ts[0] > hi:
            return []
        return [TailChunk(ts, vs)]

    def _extend(self, ts_list: list[float], vs_list: list[float]) -> None:
        """Bulk tail extension (see :meth:`TSDB.append_array`)."""
        self.timestamps.extend(ts_list)
        self.values.extend(vs_list)
        self._snapshot = None

    def at_or_before(self, ts: float, lookback: float) -> tuple[float, float] | None:
        """Most recent sample in ``(ts - lookback, ts]``; a staleness
        marker (NaN) as the most recent point hides the series."""
        idx = bisect.bisect_right(self.timestamps, ts) - 1
        if idx < 0:
            return None
        t = self.timestamps[idx]
        if t <= ts - lookback:
            return None
        value = self.values[idx]
        if value != value:  # NaN: stale marker
            return None
        return t, self.values[idx]

    def truncate_before(self, cutoff: float) -> int:
        """Drop samples with ``t < cutoff``; returns how many."""
        lo = bisect.bisect_left(self.timestamps, cutoff)
        if lo:
            del self.timestamps[:lo]
            del self.values[:lo]
            self._snapshot = None
        return lo

    @property
    def nsamples(self) -> int:
        return len(self.timestamps)

    @property
    def min_time(self) -> float | None:
        return self.timestamps[0] if self.timestamps else None

    @property
    def max_time(self) -> float | None:
        return self.timestamps[-1] if self.timestamps else None


class ListHeadTSDB(TSDB):
    """A :class:`TSDB` whose head series are :class:`ListSeries`."""

    def _new_series(self, labels: Labels, ref: int) -> ListSeries:
        return ListSeries(labels=labels, ref=ref)

    def append_refs(
        self, timestamp: float, pairs: Sequence[tuple[int, float]]
    ) -> tuple[int, list[tuple[int, float]]]:
        """The batched scrape append with ``ListSeries.append`` inlined."""
        by_ref = self._series_by_ref
        dead: list[tuple[int, float]] = []
        count = 0
        for ref, value in pairs:
            series = by_ref.get(ref)
            if series is None:
                dead.append((ref, value))
                continue
            timestamps = series.timestamps
            if timestamps:
                last = timestamps[-1]
                if last >= timestamp:
                    if last > timestamp:
                        raise StorageError(
                            f"out-of-order sample for {series.labels}: {timestamp} < {last}"
                        )
                    series.values[-1] = value
                    series._snapshot = None
                    count += 1
                    continue
            timestamps.append(timestamp)
            series.values.append(value)
            series._snapshot = None
            count += 1
        if count:
            self.samples_ingested += count
            self.data_epoch += 1
            if self.min_time is None or timestamp < self.min_time:
                self.min_time = timestamp
            if self.max_time is None or timestamp > self.max_time:
                self.max_time = timestamp
        return count, dead


class ListHeadPersistentTSDB(PersistentTSDB, ListHeadTSDB):
    """The durable head (WAL, replay, checkpoints) over list series."""
