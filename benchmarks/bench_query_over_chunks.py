"""E18 — query-over-chunks: cold long-range queries over persisted blocks.

The paper's long-history problem (§V, the 30-day dashboard cliff):
answering a query over weeks of persisted data should not require
decoding *every* block back into memory first.  PR 6 teaches the
store to serve blocks straight from mmap'd chunk files — decoded on
demand, chunk-granular, behind a bounded LRU — and moves the head to
columnar ring buffers.

Methodology — what is timed.  The on-disk block set is written once
(untimed; both modes read byte-identical directories).  A *cold
cycle* is what an operator pays after a restart: open the store from
``persist_dir`` and answer one long-range PromQL query over the
recent tail of a much longer history.

* **baseline** — eager store: opening decodes every chunk of every
  block into per-resolution TSDBs using the original list-backed head
  (the oracle ``tests/oracles/list_head.py``), then the engine
  queries those series.
* **new** — lazy store (``lazy_blocks=True``): opening registers
  chunk references only; the query decodes just the chunks
  overlapping its window through the decoded-chunk LRU.

Cycles interleave baseline/new so machine-load drift hits both modes
alike; best-of is reported.  A third store, eager on the production
columnar head, is timed in the same rounds and *reported only*
(``eager_columnar_*`` and the warm ``lazy/eager-columnar`` ratio): it
is the comparison that decides whether lazy blocks can become the
only persisted-store mode.  The differential proof runs the same
query set through both stores and requires bit-identical results
(``tobytes`` on every series).  A second guard re-times the ingest
hot loop (``append_refs``, the scrape lane) on a columnar-head TSDB vs
the list-head oracle — the columnar head must never be slower.

The hard CI guards are ``>= MIN_QUERY_SPEEDUP`` (issue target: 5x)
and ingest never slower; numbers land in
``BENCH_query_over_chunks.json``.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.storage import TSDB
from repro.thanos.store import RESOLUTIONS, ObjectStore
from tests.oracles.list_head import ListHeadTSDB

ARTIFACT_PATH = "BENCH_query_over_chunks.json"

#: History shape: Jean-Zay-style node metrics, 300 s cadence.
N_SERIES = 45
DAYS = 40
CADENCE = 300.0
BLOCK_SPAN = 2 * 86400.0  # one block per two days on disk
#: The timed query covers the trailing window only — the motivating
#: case: a dashboard over recent days backed by a long history.
QUERY_DAYS = 5
TIMED_QUERY = "avg_over_time(m[30m])"
STEP = 3600.0

#: Interleaved cold cycles (each one re-opens both stores); best-of.
CYCLES = 3
#: Hard guards.
MIN_QUERY_SPEEDUP = 5.0
MIN_INGEST_SPEEDUP = 1.0

#: Differential set: selector, range function, aggregation, instant.
PARITY_QUERIES = [
    "m",
    TIMED_QUERY,
    "sum by (grp) (m)",
    "rate(m[20m])",
]


def _series_labels(i: int) -> Labels:
    return Labels({"__name__": "m", "grp": chr(ord("a") + i % 3), "idx": str(i)})


def _write_blocks(persist_dir: str) -> int:
    """One immutable block per BLOCK_SPAN window; returns total samples."""
    writer = ObjectStore(persist_dir=persist_dir)
    rng = np.random.default_rng(42)
    horizon = DAYS * 86400.0
    ts = np.arange(0.0, horizon, CADENCE)
    data = [
        (_series_labels(i), ts, rng.normal(100.0 + i, 10.0, size=ts.size))
        for i in range(N_SERIES)
    ]
    total = 0
    lo = 0.0
    while lo < horizon:
        hi = min(lo + BLOCK_SPAN, horizon)
        block = []
        for labels, all_ts, all_vs in data:
            a = int(np.searchsorted(all_ts, lo, side="left"))
            b = int(np.searchsorted(all_ts, hi, side="left"))
            if b > a:
                block.append((labels, all_ts[a:b], all_vs[a:b]))
                total += b - a
        writer.persist_block(
            writer.new_ulid(), block, min_time=lo, max_time=hi, resolution="raw"
        )
        lo = hi
    return total


def _open_eager_list(persist_dir: str) -> ObjectStore:
    """Baseline open: full decode into list-head TSDBs.

    ``ObjectStore`` builds its resolution TSDBs in ``__post_init__``,
    so the list-head baseline swaps them in before replaying the
    persisted blocks — the same work an eager open does, charged to
    the original head layout.
    """
    store = ObjectStore()
    store.tsdbs = {res: ListHeadTSDB(name=f"thanos-{res}") for res in RESOLUTIONS}
    store.persist_dir = persist_dir
    store._load_persisted()
    return store


def _open_eager_columnar(persist_dir: str) -> ObjectStore:
    """Eager open on the production head (reported, not guarded)."""
    return ObjectStore(persist_dir=persist_dir)


def _open_lazy(persist_dir: str) -> ObjectStore:
    return ObjectStore(persist_dir=persist_dir, lazy_blocks=True)


def _query_window() -> tuple[float, float]:
    end = DAYS * 86400.0 - CADENCE
    return end - QUERY_DAYS * 86400.0, end


def _run_query(store: ObjectStore):
    start, end = _query_window()
    return PromQLEngine(store).query_range(TIMED_QUERY, start, end, STEP)


def _dump(store: ObjectStore):
    """Engine output for every parity query, as raw bytes."""
    engine = PromQLEngine(store)
    start, end = _query_window()
    out = []
    for query in PARITY_QUERIES:
        result = engine.query_range(query, start, end, STEP)
        out.append(
            sorted(
                (tuple(labels), ts.tobytes(), vs.tobytes())
                for labels, (ts, vs) in result.series.items()
            )
        )
        instant = engine.query(query, at=end)
        out.append([(tuple(el.labels), repr(el.value)) for el in instant.vector])
    return out


def _bench_ingest(db: TSDB, n_series: int = 300, cycles: int = 300) -> float:
    """Best-of scrape-lane cycle time on a fresh TSDB.

    Cycle one creates every series and is never the best; steady
    state dominates, so no separate warm-up phase is needed."""
    labels = [Labels({"__name__": "ingest", "i": str(i)}) for i in range(n_series)]
    for lb in labels:
        db.append(lb, 0.0, 1.0)
    pairs = [(db.get_ref(lb), 1.5) for lb in labels]
    best = math.inf
    for c in range(1, cycles + 1):
        started = time.perf_counter()
        db.append_refs(float(c * 15), pairs)
        best = min(best, time.perf_counter() - started)
    return best


def test_query_over_chunks_speedup(tmp_path):
    persist_dir = str(tmp_path / "store")
    total_samples = _write_blocks(persist_dir)

    eager_best = columnar_cold = lazy_best = math.inf
    for _ in range(CYCLES):
        started = time.perf_counter()
        eager = _open_eager_list(persist_dir)
        _run_query(eager)
        eager_best = min(eager_best, time.perf_counter() - started)

        started = time.perf_counter()
        eager_columnar = _open_eager_columnar(persist_dir)
        _run_query(eager_columnar)
        columnar_cold = min(columnar_cold, time.perf_counter() - started)

        started = time.perf_counter()
        lazy = _open_lazy(persist_dir)
        _run_query(lazy)
        lazy_best = min(lazy_best, time.perf_counter() - started)

    cold_speedup = eager_best / lazy_best

    # Warm repeats on the final stores: the decoded-chunk LRU makes a
    # repeat lazy query decode nothing.
    eager_warm = columnar_warm = lazy_warm = math.inf
    for _ in range(CYCLES):
        started = time.perf_counter()
        _run_query(eager)
        eager_warm = min(eager_warm, time.perf_counter() - started)
        started = time.perf_counter()
        _run_query(eager_columnar)
        columnar_warm = min(columnar_warm, time.perf_counter() - started)
        started = time.perf_counter()
        _run_query(lazy)
        lazy_warm = min(lazy_warm, time.perf_counter() - started)

    # Differential proof over the full parity query set.
    identical = _dump(eager) == _dump(lazy)

    # Ingest guard: columnar head must never be slower than list head
    # on the scrape hot lane (interleaved best-of, fresh TSDBs).
    list_best = columnar_best = math.inf
    for _ in range(3):
        list_best = min(list_best, _bench_ingest(ListHeadTSDB()))
        columnar_best = min(columnar_best, _bench_ingest(TSDB()))
    ingest_speedup = list_best / columnar_best

    report = {
        "series": N_SERIES,
        "days": DAYS,
        "cadence_seconds": CADENCE,
        "total_samples": total_samples,
        "query": TIMED_QUERY,
        "query_days": QUERY_DAYS,
        "cycles_measured": CYCLES,
        "eager_cold_seconds": eager_best,
        "lazy_cold_seconds": lazy_best,
        "cold_speedup": cold_speedup,
        "eager_warm_seconds": eager_warm,
        "lazy_warm_seconds": lazy_warm,
        "eager_columnar_cold_seconds": columnar_cold,
        "eager_columnar_warm_seconds": columnar_warm,
        "warm_lazy_over_eager_columnar": lazy_warm / columnar_warm,
        "ingest_list_cycle_seconds": list_best,
        "ingest_columnar_cycle_seconds": columnar_best,
        "ingest_speedup": ingest_speedup,
        "min_query_speedup_guard": MIN_QUERY_SPEEDUP,
        "min_ingest_speedup_guard": MIN_INGEST_SPEEDUP,
        "contents_identical": identical,
    }
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"\n[query-over-chunks] samples={total_samples} "
        f"eager={eager_best * 1e3:.0f}ms lazy={lazy_best * 1e3:.0f}ms "
        f"cold-speedup={cold_speedup:.1f}x ingest-speedup={ingest_speedup:.2f}x"
    )

    assert identical, "lazy store diverged from eager store results"
    assert cold_speedup >= MIN_QUERY_SPEEDUP, report
    assert ingest_speedup >= MIN_INGEST_SPEEDUP, report
