"""Columnar (vectorized) PromQL evaluation — the engine's one evaluator.

Instant queries, range queries, recording rules and alerting rules all
evaluate here; an instant query is a range query with one step.  The
whole step grid is evaluated in one pass:

* every selector is resolved **once per query** (through the storage
  selector memo) and each matched series is read once as cached
  ndarrays (:meth:`Series.arrays`);
* instant-vector lookback is computed for **all step timestamps at
  once** with ``np.searchsorted`` (one bisect per series at one step);
* range functions evaluate as vectorized window kernels
  (:data:`repro.tsdb.promql.functions.WINDOW_FUNCTIONS`), called
  **once per matrix selector or subquery**: each series' touched
  samples are concatenated and its window bounds offset into the
  concatenation, which is exact because every kernel treats each
  ``[lo, hi)`` window independently;
* binary operators, aggregations and element functions execute along
  the step axis as ``(n_series × n_steps)`` matrix operations; vector
  matching and grouping gather rows by index arrays instead of looping
  over rows, and derived label sets are memoised per source labels.

Values flow through evaluation as one of three shapes:

* :class:`_Matrix` — an instant vector per step: row labels plus a
  ``(S, T)`` value matrix and a same-shaped boolean **presence mask**.
  Presence is tracked separately from NaN because a present element
  may legitimately carry a NaN *value* (``0 / 0``), which aggregations
  must see, while an absent element must not participate at all.
* ``np.ndarray`` of shape ``(T,)`` — a scalar per step (always
  present, may be NaN-valued).
* ``str`` — a string literal.

Every result is bit-identical to evaluating the expression one step at
a time (the AST walk kept as a differential-testing oracle under
``tests/oracles/``): elementwise formulas reproduce the scalar code's
operation order, and sum/avg/stddev accumulate group members in row
order starting from ``0.0`` (``np.add.at`` is unbuffered and applies
rows sequentially; absent entries contribute an exact ``+0.0``).
Anything that cannot be reproduced vectorially (counter windows
containing resets, most ``*_over_time`` reducers, ``^``/``%`` edge
semantics, element functions that may raise) falls back to the scalar
implementation per window/element.

Known, deliberate divergence: ``sort()`` inside a *range* query is an
ordering no-op (range results are keyed by labels, not ordered), so an
aggregation nested *outside* a ``sort()``/``topk()`` may accumulate in
a different element order than a step-by-step walk.  Prometheus itself
defines sort order only for instant-query presentation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.common.errors import QueryError
from repro.obs import prof
from repro.obs import query as obsquery
from repro.tsdb.model import METRIC_NAME_LABEL, Labels
from repro.tsdb.promql.ast import (
    Aggregation,
    BinaryOp,
    Call,
    Expr,
    MatrixSelector,
    NumberLiteral,
    Paren,
    StringLiteral,
    Subquery,
    UnaryOp,
    VectorMatching,
    VectorSelector,
)
from repro.tsdb.promql.functions import (
    ELEMENT_FUNCTIONS,
    RANGE_FUNCTIONS,
    WINDOW_FUNCTIONS,
    histogram_bucket_quantile,
    quantile_over_time,
)

_COMPARISONS = ("==", "!=", ">", "<", ">=", "<=")

#: Process-wide evaluator counters (self-telemetry): queries through
#: each public entry point plus per-query memo hits.  Module level
#: because evaluator instances are per-query throwaways.
COLUMNAR_STATS = {
    "range_queries": 0,
    "instant_queries": 0,
    "selector_memo_hits": 0,
    "window_memo_hits": 0,
}


@lru_cache(maxsize=256)
def compile_anchored(regex: str) -> re.Pattern[str]:
    """Compiled, fully-anchored regex for label_replace (cached —
    mirrors :class:`Matcher`'s precompiled ``_regex``)."""
    return re.compile(f"^(?:{regex})$")


def apply_op(op: str, a: float, b: float) -> float:
    """One binary operator on two Python floats (PromQL semantics)."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b if b != 0 else (math.nan if a == 0 else math.copysign(math.inf, a) * math.copysign(1, b))
    if op == "%":
        return math.fmod(a, b) if b != 0 else math.nan
    if op == "^":
        return a**b
    if op == "==":
        return float(a == b)
    if op == "!=":
        return float(a != b)
    if op == ">":
        return float(a > b)
    if op == "<":
        return float(a < b)
    if op == ">=":
        return float(a >= b)
    if op == "<=":
        return float(a <= b)
    raise QueryError(f"unknown operator {op!r}")


# -- derived label sets --------------------------------------------------

_WITHOUT_NAME = ("drop", (METRIC_NAME_LABEL,))
_EMPTY_LABELS = Labels()


class DerivedLabels:
    """Memo of label sets derived from others: ``("drop", names)`` or
    ``("keep", names)`` applied to a source ``Labels``.

    Rules re-derive the same label sets every interval (names dropped,
    grouping keys, matching signatures) from the same long-lived series
    labels, and a derivation is a pure function of (labels, spec).  One
    memo lives on each engine; it is cleared wholesale when it reaches
    ``MAX_ENTRIES``, which keeps memory flat under series churn.
    """

    MAX_ENTRIES = 1 << 14

    def __init__(self) -> None:
        self._memo: dict[tuple[Labels, tuple], Labels] = {}

    def get(self, labels: Labels, spec: tuple) -> Labels:
        key = (labels, spec)
        out = self._memo.get(key)
        if out is None:
            kind, names = spec
            out = labels.drop(*names) if kind == "drop" else labels.keep(names)
            if len(self._memo) >= self.MAX_ENTRIES:
                self._memo.clear()
            self._memo[key] = out
        return out


def signature_spec(matching: VectorMatching | None) -> tuple:
    """Derivation spec of a binary operator's matching signature."""
    if matching is None:
        return _WITHOUT_NAME
    if matching.on:
        return ("keep", tuple(matching.labels))
    return ("drop", (*matching.labels, METRIC_NAME_LABEL))


def grouping_spec(node: Aggregation) -> tuple | None:
    """Derivation spec of an aggregation's group key (None: one group)."""
    if node.without:
        return ("drop", (*node.grouping, METRIC_NAME_LABEL))
    if node.grouping:
        return ("keep", tuple(node.grouping))
    return None


def _pruned_arrays(series, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Columnar read of ``series`` pruned to a superset of ``[lo, hi]``.

    Chunk-backed series (persisted blocks, sealed head segments) serve
    ``query_window_arrays`` — a contiguous sample run covering the
    window that decodes only overlapping chunks.  Plain head series
    fall back to the full cached snapshot, which is already zero-copy.
    Bit-identity: samples outside the returned superset can neither be
    selected (every step's window/lookback lies inside ``[lo, hi]``)
    nor shadow a searchsorted hit within it.
    """
    fn = getattr(series, "query_window_arrays", None)
    if fn is not None:
        return fn(lo, hi)
    return series.arrays()


@dataclass
class _Matrix:
    """An instant vector at every step: rows are elements, columns steps."""

    labels: list[Labels]
    values: np.ndarray  # (S, T) float64
    present: np.ndarray  # (S, T) bool

    @property
    def nrows(self) -> int:
        return len(self.labels)


@dataclass
class _Windows:
    """Range-vector windows of every row, flattened row-major.

    ``ts``/``vs`` concatenate each row's touched samples; window
    ``r * T + j`` (row ``r``, step ``j``) is ``[los[k], his[k])`` into
    them with time bounds ``[starts[j], ends[j]]``.
    """

    labels: list[Labels]
    ts: np.ndarray
    vs: np.ndarray
    los: np.ndarray  # (R*T,) int
    his: np.ndarray  # (R*T,) int
    starts: np.ndarray  # (T,)
    ends: np.ndarray  # (T,)

    @property
    def nrows(self) -> int:
        return len(self.labels)


def _empty(T: int) -> _Matrix:
    return _Matrix([], np.zeros((0, T)), np.zeros((0, T), dtype=bool))


def _group_sum(gids: np.ndarray, G: int, x: np.ndarray) -> np.ndarray:
    """Per-group column sums of the rows of ``x``, ``(G, T)``.

    Each group accumulates its rows in row order starting from ``0.0``
    — the left-to-right sum that defines PromQL's sum — because both
    ``np.add.at`` (unbuffered) and weighted ``np.bincount`` add one row
    at a time.  bincount is the cheaper call for a single column.
    """
    if x.shape[1] == 1:
        return np.bincount(gids, weights=x[:, 0], minlength=G).reshape(G, 1)
    acc = np.zeros((G, x.shape[1]))
    np.add.at(acc, gids, x)
    return acc


def _compact(labels: list[Labels], values: np.ndarray, present: np.ndarray) -> _Matrix:
    """A filter's result without the rows it removed at every step."""
    live = present.any(axis=1)
    if live.all():
        return _Matrix(labels, values, present)
    return _Matrix([l for l, keep in zip(labels, live.tolist()) if keep], values[live], present[live])


def eval_range_columnar(engine, ast: Expr, steps: np.ndarray) -> dict[Labels, tuple[np.ndarray, np.ndarray]]:
    """Evaluate ``ast`` at every step; returns RangeResult.series data."""
    COLUMNAR_STATS["range_queries"] += 1
    ev = _ColumnarEval(engine, steps)
    return ev.materialize(ev.eval(ast))


def eval_instant_columnar(engine, ast: Expr, at: float):
    """Single-step evaluation: a list of ``(labels, value)`` pairs for a
    vector (in row order, or value order under an outermost
    ``sort``/``sort_desc``), a float for a scalar, a str for a string."""
    COLUMNAR_STATS["instant_queries"] += 1
    value = _ColumnarEval(engine, np.asarray([float(at)], dtype=np.float64)).eval(ast)
    if isinstance(value, _Matrix):
        if not value.labels:
            return []
        pairs = [
            (labels, v)
            for labels, v, present in zip(value.labels, value.values.ravel().tolist(), value.present.ravel().tolist())
            if present
        ]
        if isinstance(ast, Call) and ast.func in ("sort", "sort_desc"):
            pairs.sort(key=lambda pair: pair[1], reverse=(ast.func == "sort_desc"))
        return pairs
    if isinstance(value, np.ndarray):
        return float(value[0])
    return value


class _ColumnarEval:
    def __init__(self, engine, steps: np.ndarray) -> None:
        self.engine = engine
        self.storage = engine.storage
        self.lookback = engine.lookback
        self.steps = steps
        self.T = len(steps)
        # Per-query memos: identical selector / matrix-selector nodes
        # (e.g. rate(m[5m]) + increase(m[5m])) are resolved once.
        self._selector_memo: dict[Expr, _Matrix] = {}
        self._window_memo: dict[Expr, _Windows] = {}
        self._derive = engine.derived_labels.get

    def _without_name(self, labels: Labels) -> Labels:
        return self._derive(labels, _WITHOUT_NAME)

    # -- materialization -------------------------------------------------
    def materialize(self, value) -> dict[Labels, tuple[np.ndarray, np.ndarray]]:
        steps = self.steps
        if isinstance(value, _Matrix):
            acc: dict[Labels, tuple[np.ndarray, np.ndarray]] = {}
            for i, labels in enumerate(value.labels):
                pres = value.present[i]
                if not pres.any():
                    continue
                ts = steps[pres]
                vs = value.values[i][pres]
                prev = acc.get(labels)
                if prev is not None:
                    # Duplicate output labels (label_replace collisions):
                    # interleave by timestamp, earlier row first on ties
                    # — the per-step append order.
                    ts = np.concatenate([prev[0], ts])
                    vs = np.concatenate([prev[1], vs])
                    order = np.argsort(ts, kind="stable")
                    ts, vs = ts[order], vs[order]
                acc[labels] = (ts, vs)
            return acc
        if isinstance(value, np.ndarray):
            if not len(steps):
                return {}
            return {Labels(): (steps.copy(), np.asarray(value, dtype=np.float64))}
        # String expressions accumulate nothing, as in the per-step loop.
        return {}

    # -- dispatch --------------------------------------------------------
    def eval(self, node: Expr):
        if isinstance(node, NumberLiteral):
            return np.full(self.T, float(node.value))
        if isinstance(node, StringLiteral):
            return node.value
        if isinstance(node, Paren):
            return self.eval(node.expr)
        if isinstance(node, UnaryOp):
            inner = self.eval(node.expr)
            if isinstance(inner, _Matrix):
                return _Matrix([self._without_name(l) for l in inner.labels], -inner.values, inner.present)
            return -inner
        if isinstance(node, VectorSelector):
            return self._selector(node)
        if isinstance(node, (MatrixSelector, Subquery)):
            raise QueryError("range selector only valid as a range-function argument")
        if isinstance(node, Call):
            return self._call(node)
        if isinstance(node, Aggregation):
            return self._aggregation(node)
        if isinstance(node, BinaryOp):
            return self._binary(node)
        raise QueryError(f"cannot evaluate node {node!r}")

    # -- coercions -------------------------------------------------------
    def _vector(self, node: Expr) -> _Matrix:
        value = self.eval(node)
        if not isinstance(value, _Matrix):
            raise QueryError("expected an instant vector")
        return value

    def _scalar(self, node: Expr) -> np.ndarray:
        value = self.eval(node)
        if isinstance(value, _Matrix):
            raise QueryError("expected a scalar")
        return self._as_scalar_array(value)

    def _string(self, node: Expr) -> str:
        value = self.eval(node)
        if not isinstance(value, str):
            raise QueryError("expected a string literal")
        return value

    def _as_scalar_array(self, value) -> np.ndarray:
        if isinstance(value, str):
            return np.full(self.T, float(value))
        return value

    # -- selectors -------------------------------------------------------
    def _selector(self, node: VectorSelector) -> _Matrix:
        """Lookback read of every matched series at every step.

        Series absent at every step are left out: a row that is never
        present contributes nothing to any operator.
        """
        cached = self._selector_memo.get(node)
        if cached is not None:
            COLUMNAR_STATS["selector_memo_hits"] += 1
            return cached
        # Module-attribute call on purpose: the per-query stats hooks
        # stay swappable for the disabled-overhead bench.
        series_list = obsquery.tracked_select(self.storage, node.matchers)
        labels: list[Labels] = []
        if self.T == 1:
            # One step: one bisect per series.
            at = float(self.steps[0]) - node.offset
            lookback = self.lookback
            found: list[float] = []
            for series in series_list:
                point = series.at_or_before(at, lookback)
                if point is not None:
                    labels.append(series.labels)
                    found.append(point[1])
            touched = n = len(found)
            if n:
                values = np.array(found, dtype=np.float64).reshape(n, 1)
                present = np.empty((n, 1), dtype=bool)
                present.fill(True)
            else:
                values, present = np.zeros((0, 1)), np.zeros((0, 1), dtype=bool)
        else:
            # Chunk-granular pruning: only samples in
            # [first step - lookback, last step] can be selected, and
            # pruned-out older samples can never shadow the
            # last-sample-<=-at search (they'd fail the lookback test
            # anyway), so a contiguous superset read is bit-identical.
            ats = self.steps - node.offset
            lo_bound = float(ats[0]) - self.lookback
            hi_bound = float(ats[-1])
            rows_v: list[np.ndarray] = []
            rows_p: list[np.ndarray] = []
            for series in series_list:
                ts_a, vs_a = _pruned_arrays(series, lo_bound, hi_bound)
                if not len(ts_a):
                    continue
                idx = np.searchsorted(ts_a, ats, side="right") - 1
                ok = idx >= 0
                safe = np.maximum(idx, 0)
                t_found = ts_a[safe]
                v_found = vs_a[safe]
                ok &= t_found > ats - self.lookback
                ok &= ~np.isnan(v_found)  # staleness marker
                if ok.any():
                    labels.append(series.labels)
                    rows_v.append(np.where(ok, v_found, np.nan))
                    rows_p.append(ok)
            if labels:
                values, present = np.vstack(rows_v), np.vstack(rows_p)
            else:
                values, present = np.zeros((0, self.T)), np.zeros((0, self.T), dtype=bool)
            touched = int(present.sum())
        obsquery.record_samples(touched)
        mat = _Matrix(labels, values, present)
        self._selector_memo[node] = mat
        return mat

    # -- range-vector windows --------------------------------------------
    def _window_data(self, node) -> _Windows:
        """Every row's windows for a matrix selector / subquery."""
        cached = self._window_memo.get(node)
        if cached is not None:
            COLUMNAR_STATS["window_memo_hits"] += 1
            return cached
        if isinstance(node, Subquery):
            data = self._subquery_window_data(node)
        else:
            data = self._matrix_window_data(node)
        self._window_memo[node] = data
        return data

    def _matrix_window_data(self, node: MatrixSelector) -> _Windows:
        ends = self.steps - node.selector.offset
        starts = ends - node.range_seconds
        T = self.T
        # Windows only ever span [first start, last end]; chunks
        # outside that never contribute, so skip decoding them.
        lo_bound = float(starts[0])
        hi_bound = float(ends[-1])
        labels: list[Labels] = []
        parts_t: list[np.ndarray] = []
        parts_v: list[np.ndarray] = []
        bounds: list[tuple[np.ndarray, np.ndarray]] = []  # T > 1: per-row bounds in its slice
        offsets = [0]
        for series in obsquery.tracked_select(self.storage, node.selector.matchers):
            ts_a, vs_a = _pruned_arrays(series, lo_bound, hi_bound)
            if T == 1:
                lo = int(ts_a.searchsorted(lo_bound, side="left"))
                hi = int(ts_a.searchsorted(hi_bound, side="right"))
            else:
                los = np.searchsorted(ts_a, starts, side="left")
                his = np.searchsorted(ts_a, ends, side="right")
                # Steps increase, so the touched slice is the first
                # window's start to the last window's end.
                lo, hi = int(los[0]), int(his[-1])
                bounds.append((los - lo, his - lo))
            labels.append(series.labels)
            parts_t.append(ts_a[lo:hi])
            parts_v.append(vs_a[lo:hi])
            offsets.append(offsets[-1] + hi - lo)
        if not labels:
            empty = np.zeros(0, dtype=np.int64)
            return _Windows([], np.zeros(0), np.zeros(0), empty, empty, starts, ends)
        ts = np.concatenate(parts_t)
        vs = np.concatenate(parts_v)
        base = np.asarray(offsets, dtype=np.int64)
        if T == 1:
            los, his = base[:-1], base[1:]
        else:
            los = np.concatenate([base[r] + b[0] for r, b in enumerate(bounds)])
            his = np.concatenate([base[r] + b[1] for r, b in enumerate(bounds)])
        nan = np.isnan(vs)
        if nan.any():
            # Staleness markers delimit a series' life; range functions
            # never see them.  Dropping them re-indexes every bound by
            # the count of kept samples before it — the same sample set
            # as filtering each window after slicing it.
            keep = ~nan
            kept_before = np.concatenate(([0], np.cumsum(keep)))
            los, his = kept_before[los], kept_before[his]
            ts, vs = ts[keep], vs[keep]
        obsquery.record_samples(int(np.sum(his - los)))
        return _Windows(labels, ts, vs, los, his, starts, ends)

    def _subquery_window_data(self, node: Subquery) -> _Windows:
        """Range-vector windows from an instant sub-expression.

        Subquery steps live on the absolute grid ``m * step`` (exactly
        the reference's index-generated timestamps), so one inner
        evaluation over the union grid serves every window.
        """
        ends = self.steps - node.offset
        starts = ends - node.range_seconds
        sstep = node.step_seconds
        empty_idx = np.zeros(0, dtype=np.int64)
        empty = _Windows([], np.zeros(0), np.zeros(0), empty_idx, empty_idx, starts, ends)
        k_lo = np.ceil(starts / sstep).astype(np.int64)
        k_hi = np.floor((ends + 1e-9) / sstep).astype(np.int64)
        # One-ULP corrections so membership exactly matches the
        # reference's `t <= end + 1e-9` loop condition.
        k_hi += ((k_hi + 1) * sstep <= ends + 1e-9).astype(np.int64)
        k_hi -= (k_hi * sstep > ends + 1e-9).astype(np.int64)
        if not len(k_lo) or k_hi.max() < k_lo.min():
            return empty
        m0 = int(k_lo.min())
        grid = np.arange(m0, int(k_hi.max()) + 1, dtype=np.int64) * sstep
        inner = _ColumnarEval(self.engine, grid).eval(node.expr)
        if isinstance(inner, np.ndarray):
            inner = _Matrix(
                [Labels()],
                np.asarray(inner, dtype=np.float64).reshape(1, -1),
                np.ones((1, len(grid)), dtype=bool),
            )
        elif not isinstance(inner, _Matrix) or not inner.nrows:
            return empty  # string sub-expression / no series
        # Each row's series is its present grid points.  Its window
        # bounds are prefix counts of presence at the grid positions of
        # the window edges — searchsorted over the row's own points,
        # without a call per row.
        present = inner.present
        ts = np.broadcast_to(grid, present.shape)[present]
        vs = inner.values[present]
        g_lo = np.searchsorted(grid, k_lo * sstep, side="left")
        g_hi = np.searchsorted(grid, k_hi * sstep, side="right")
        counts = np.zeros((inner.nrows, len(grid) + 1), dtype=np.int64)
        np.cumsum(present, axis=1, out=counts[:, 1:])
        row_base = np.concatenate(([0], np.cumsum(counts[:, -1])[:-1]))[:, None]
        # NaN *values* are kept: only raw matrix selectors drop
        # staleness markers, not synthesised subquery windows.
        los = (row_base + counts[:, g_lo]).ravel()
        his = (row_base + counts[:, g_hi]).ravel()
        return _Windows(list(inner.labels), ts, vs, los, his, starts, ends)

    # -- calls -----------------------------------------------------------
    def _call(self, node: Call):
        func = node.func
        if func in RANGE_FUNCTIONS:
            if len(node.args) != 1 or not isinstance(node.args[0], (MatrixSelector, Subquery)):
                raise QueryError(f"{func}() expects a single range-vector argument")
            w = self._window_data(node.args[0])
            R, T = w.nrows, self.T
            if not R:
                return _empty(T)
            with prof.profile(f"promql.kernel.{func}"):
                flat = WINDOW_FUNCTIONS[func](
                    w.ts, w.vs, w.los, w.his, np.tile(w.starts, R), np.tile(w.ends, R)
                )
            values = flat.reshape(R, T)
            # Range functions yielding no value (None/NaN) drop the element.
            return _Matrix([self._without_name(l) for l in w.labels], values, ~np.isnan(values))
        if func == "quantile_over_time":
            if len(node.args) != 2 or not isinstance(node.args[1], (MatrixSelector, Subquery)):
                raise QueryError("quantile_over_time(scalar, range-vector) expected")
            q = self._scalar(node.args[0])
            w = self._window_data(node.args[1])
            R, T = w.nrows, self.T
            values = np.full(R * T, np.nan)
            present = w.his > w.los  # NaN quantiles stay present
            for k in np.flatnonzero(present):
                values[k] = quantile_over_time(float(q[k % T]), w.vs[w.los[k] : w.his[k]])
            return _Matrix(
                [self._without_name(l) for l in w.labels], values.reshape(R, T), present.reshape(R, T)
            )
        if func in ELEMENT_FUNCTIONS:
            return self._element_call(node)
        return self._special(node)

    def _element_call(self, node: Call) -> _Matrix:
        func = node.func
        if not node.args:
            raise QueryError(f"{func}() needs at least one argument")
        vec = self._vector(node.args[0])
        extras = [self._scalar(arg) for arg in node.args[1:]]
        labels = [self._without_name(l) for l in vec.labels]
        values = np.full_like(vec.values, np.nan)
        if func == "abs":
            np.copyto(values, np.abs(vec.values), where=vec.present)
        elif func == "sqrt":
            if bool((vec.present & (vec.values < 0)).any()):
                raise ValueError("math domain error")  # as math.sqrt raises
            np.copyto(values, np.sqrt(vec.values), where=vec.present)
        else:
            # Python impls may raise (exp overflow, floor of NaN…);
            # apply them per present element so semantics — including
            # exceptions — match the scalar definition exactly.
            impl = ELEMENT_FUNCTIONS[func]
            vals = vec.values
            for i, j in zip(*np.nonzero(vec.present)):
                # Plain Python floats in, as the scalar definition takes.
                values[i, j] = float(impl(float(vals[i, j]), *(float(e[j]) for e in extras)))
        return _Matrix(labels, values, vec.present)

    # -- special forms ---------------------------------------------------
    def _special(self, node: Call):
        func = node.func
        T = self.T
        if func == "time":
            return self.steps.copy()
        if func == "scalar":
            vec = self._vector(node.args[0])
            out = np.full(T, np.nan)
            if vec.nrows:
                counts = vec.present.sum(axis=0)
                first = np.argmax(vec.present, axis=0)
                chosen = vec.values[first, np.arange(T)]
                one = counts == 1
                out[one] = chosen[one]
            return out
        if func == "vector":
            value = self._scalar(node.args[0])
            return _Matrix(
                [Labels()],
                np.asarray(value, dtype=np.float64).reshape(1, -1).copy(),
                np.ones((1, T), dtype=bool),
            )
        if func == "timestamp":
            vec = self._vector(node.args[0])
            values = np.where(vec.present, self.steps, np.nan)
            return _Matrix([self._without_name(l) for l in vec.labels], values, vec.present)
        if func == "absent":
            vec = self._vector(node.args[0])
            any_present = vec.present.any(axis=0) if vec.nrows else np.zeros(T, dtype=bool)
            labels = {}
            arg = node.args[0]
            if isinstance(arg, VectorSelector):
                for m in arg.matchers:
                    if m.op.value == "=" and m.name != METRIC_NAME_LABEL:
                        labels[m.name] = m.value
            present = ~any_present
            return _Matrix(
                [Labels(labels)],
                np.where(present, 1.0, np.nan).reshape(1, -1),
                present.reshape(1, -1),
            )
        if func in ("sort", "sort_desc"):
            # Ordering is instant-query presentation; range results are
            # keyed by labels.  eval_instant_columnar re-applies it.
            return self._vector(node.args[0])
        if func == "label_replace":
            if len(node.args) != 5:
                raise QueryError("label_replace(v, dst, replacement, src, regex) expected")
            vec = self._vector(node.args[0])
            dst, replacement, src, regex = (self._string(a) for a in node.args[1:])
            pattern = compile_anchored(regex)
            new_labels = []
            for l in vec.labels:
                match = pattern.match(l.get(src, ""))
                if match:
                    new_value = match.expand(replacement.replace("$", "\\"))
                    d = l.as_dict()
                    if new_value:
                        d[dst] = new_value
                    else:
                        d.pop(dst, None)
                    new_labels.append(Labels(d))
                else:
                    new_labels.append(l)
            return _Matrix(new_labels, vec.values, vec.present)
        if func == "histogram_quantile":
            if len(node.args) != 2:
                raise QueryError("histogram_quantile(scalar, vector) expected")
            q = self._scalar(node.args[0])
            vec = self._vector(node.args[1])
            # Group bucket rows by series identity (labels sans name/le),
            # then run the shared bucketQuantile helper per present
            # column — same pairs in the same order at every step.
            groups: dict[Labels, list[tuple[float, int]]] = {}
            for i, l in enumerate(vec.labels):
                try:
                    le = float(l.get("le", ""))
                except ValueError:
                    continue
                groups.setdefault(self._without_name(l).drop("le"), []).append((le, i))
            out_labels: list[Labels] = []
            out_rows: list[np.ndarray] = []
            out_present: list[np.ndarray] = []
            for key, members in groups.items():
                members.sort(key=lambda pair: pair[0])
                rows = [i for _le, i in members]
                les = [le for le, _i in members]
                pres = vec.present[rows]
                col_present = pres.any(axis=0)
                vals = np.full(T, np.nan)
                for j in np.nonzero(col_present)[0]:
                    buckets = [
                        (les[r], float(vec.values[rows[r], j]))
                        for r in range(len(rows))
                        if pres[r, j]
                    ]
                    vals[j] = histogram_bucket_quantile(float(q[j]), buckets)
                out_labels.append(key)
                out_rows.append(vals)
                out_present.append(col_present)
            if not out_labels:
                return _empty(T)
            return _Matrix(out_labels, np.vstack(out_rows), np.vstack(out_present))
        if func == "label_join":
            if len(node.args) < 3:
                raise QueryError("label_join(v, dst, sep, src...) expected")
            vec = self._vector(node.args[0])
            dst = self._string(node.args[1])
            sep = self._string(node.args[2])
            sources = [self._string(a) for a in node.args[3:]]
            new_labels = []
            for l in vec.labels:
                d = l.as_dict()
                d[dst] = sep.join(l.get(s, "") for s in sources)
                new_labels.append(Labels(d))
            return _Matrix(new_labels, vec.values, vec.present)
        raise QueryError(f"unknown function {func!r}")

    # -- aggregations ----------------------------------------------------
    def _aggregation(self, node: Aggregation) -> _Matrix:
        vec = self._vector(node.expr)
        param = self._scalar(node.param) if node.param is not None else None
        T = self.T
        spec = grouping_spec(node)
        if spec is None:
            # One group, with every row in it.
            keys = [_EMPTY_LABELS] if vec.nrows else []
            gids = np.zeros(vec.nrows, dtype=np.intp)
        else:
            index: dict[Labels, int] = {}
            gids = np.fromiter(
                (index.setdefault(self._derive(l, spec), len(index)) for l in vec.labels),
                dtype=np.intp,
                count=vec.nrows,
            )
            keys = list(index)
        G = len(keys)

        op = node.op
        if op in ("topk", "bottomk"):
            return self._topk(node, vec, gids, G, param)
        if not G:
            return _empty(T)

        present = vec.present
        # Dense input (every row present at every step, the common case
        # of an instant query) needs no masking: every group is present
        # everywhere.
        dense = bool(present.all())
        count = _group_sum(gids, G, present)
        col_present = count.astype(bool)
        if op in ("sum", "avg", "stddev", "stdvar"):
            # Absent cells add an exact +0.0, so each cell is the
            # left-to-right sum over present members.
            vals = _group_sum(gids, G, vec.values if dense else np.where(present, vec.values, 0.0))
            if op != "sum":
                # Empty cells divide by zero; they are masked out below.
                with np.errstate(divide="ignore", invalid="ignore"):
                    mean = vals / count
                    if op == "avg":
                        vals = mean
                    else:
                        dev = vec.values - mean[gids]
                        vals = _group_sum(gids, G, np.where(present, dev * dev, 0.0)) / count
                        if op == "stddev":
                            vals = np.sqrt(vals)
        elif op == "min":
            vals = np.full((G, T), np.inf)
            np.minimum.at(vals, gids, vec.values if dense else np.where(present, vec.values, np.inf))
        elif op == "max":
            vals = np.full((G, T), -np.inf)
            np.maximum.at(vals, gids, vec.values if dense else np.where(present, vec.values, -np.inf))
        elif op == "count":
            vals = count
        elif op == "quantile":
            if param is None:
                raise QueryError("quantile requires a parameter")
            vals = np.full((G, T), np.nan)
            for g, j in zip(*np.nonzero(col_present)):
                members = vec.values[(gids == g) & present[:, j], j]
                q = float(param[j])
                vals[g, j] = float(np.quantile(members, min(max(q, 0), 1)))
        else:
            raise QueryError(f"unknown aggregation {op!r}")
        return _Matrix(keys, vals if dense else np.where(col_present, vals, np.nan), col_present)

    def _topk(self, node, vec: _Matrix, gids: np.ndarray, G: int, param) -> _Matrix:
        op = node.op
        if param is None:
            raise QueryError(f"{op} requires a parameter")
        k_cols = np.maximum(param.astype(np.int64), 0)
        fill = -np.inf if op == "topk" else np.inf
        order: list[np.ndarray] = []
        kept: list[np.ndarray] = []
        for g in range(G):
            rows = np.flatnonzero(gids == g)
            sub_vals = vec.values[rows]
            sub_pres = vec.present[rows]
            keyed = np.where(sub_pres, sub_vals, fill)
            ranked = np.argsort(-keyed if op == "topk" else keyed, axis=0, kind="stable")
            ranks = np.empty_like(ranked)
            np.put_along_axis(
                ranks, ranked, np.broadcast_to(np.arange(len(rows)).reshape(-1, 1), ranked.shape), axis=0
            )
            order.append(rows)
            kept.append(sub_pres & (ranks < k_cols))
        if not order:
            return _empty(self.T)
        rows = np.concatenate(order)
        keep = np.vstack(kept)
        # topk keeps the original element labels (incl. name).
        return _Matrix(
            [vec.labels[i] for i in rows.tolist()], np.where(keep, vec.values[rows], np.nan), keep
        )

    # -- binary operators ------------------------------------------------
    def _binary(self, node: BinaryOp):
        lhs = self.eval(node.lhs)
        rhs = self.eval(node.rhs)
        lhs_mat = isinstance(lhs, _Matrix)
        rhs_mat = isinstance(rhs, _Matrix)
        if node.op in ("and", "or", "unless"):
            if not (lhs_mat and rhs_mat):
                raise QueryError(f"set operator {node.op} requires vector operands")
            return self._set_op(node, lhs, rhs)
        if lhs_mat and rhs_mat:
            return self._vector_vector(node, lhs, rhs)
        if lhs_mat or rhs_mat:
            return self._vector_scalar(node, lhs, rhs, scalar_on_right=not rhs_mat)
        return self._scalar_scalar(node, lhs, rhs)

    @staticmethod
    def _compare_raw(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            if op == "==":
                return a == b
            if op == "!=":
                return a != b
            if op == ">":
                return a > b
            if op == "<":
                return a < b
            if op == ">=":
                return a >= b
            if op == "<=":
                return a <= b
        raise QueryError(f"unknown operator {op!r}")

    @classmethod
    def _apply_op_array(cls, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise :func:`apply_op`.  +,-,*,/ and comparisons are
        IEEE ops whose results match the scalar special-casing bit for
        bit; % and ^ loop through the scalar implementation because
        ``math.fmod``/``**`` have Python-level edge semantics
        (exceptions) that numpy ufuncs do not reproduce."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return a / b
            if op in ("%", "^"):
                a2, b2 = np.broadcast_arrays(a, b)
                out = np.empty(a2.shape)
                flat_a, flat_b = a2.ravel(), b2.ravel()
                flat_o = out.ravel()
                for i in range(flat_a.size):
                    flat_o[i] = apply_op(op, float(flat_a[i]), float(flat_b[i]))
                return out
            if op in _COMPARISONS:
                return cls._compare_raw(op, a, b).astype(np.float64)
        raise QueryError(f"unknown operator {op!r}")

    def _scalar_scalar(self, node: BinaryOp, lhs, rhs) -> np.ndarray:
        if node.op in _COMPARISONS and not node.return_bool:
            raise QueryError("comparisons between scalars must use the bool modifier")
        return self._apply_op_array(node.op, self._as_scalar_array(lhs), self._as_scalar_array(rhs))

    def _vector_scalar(self, node: BinaryOp, lhs, rhs, *, scalar_on_right: bool) -> _Matrix:
        vec: _Matrix = lhs if scalar_on_right else rhs
        scal = self._as_scalar_array(rhs if scalar_on_right else lhs)
        comparison = node.op in _COMPARISONS
        a = vec.values if scalar_on_right else scal
        b = scal if scalar_on_right else vec.values
        if comparison and not node.return_bool:
            present = vec.present & self._compare_raw(node.op, a, b)
            # Filter semantics: kept elements are unchanged.
            return _compact(list(vec.labels), np.where(present, vec.values, np.nan), present)
        values = np.where(vec.present, self._apply_op_array(node.op, a, b), np.nan)
        return _Matrix([self._without_name(l) for l in vec.labels], values, vec.present)

    @staticmethod
    def _check_unique(mat: _Matrix, groups: dict[Labels, list[int]], message: str) -> None:
        """Duplicate signatures are only an error where two elements are
        simultaneously present — column-aware, like a per-step walk."""
        for s, idxs in groups.items():
            if len(idxs) > 1 and bool((mat.present[idxs].sum(axis=0) > 1).any()):
                raise QueryError(message.format(sig=s))

    def _vector_vector(self, node: BinaryOp, lhs: _Matrix, rhs: _Matrix) -> _Matrix:
        matching = node.matching
        group = matching.group if matching else ""
        filtering = node.op in _COMPARISONS and not node.return_bool
        spec = signature_spec(matching)
        many, one = (rhs, lhs) if group == "right" else (lhs, rhs)

        one_groups: dict[Labels, list[int]] = {}
        for i, l in enumerate(one.labels):
            one_groups.setdefault(self._derive(l, spec), []).append(i)
        self._check_unique(
            one, one_groups, "many-to-many matching: duplicate signature {sig} on the 'one' side of " + node.op
        )

        # Matched (many row, one row) pairs in emission order, and the
        # labels of each output row.
        m_rows: list[int] = []
        o_rows: list[int] = []
        out_labels: list[Labels] = []
        if group:
            include = matching.include
            for m_i, l in enumerate(many.labels):
                partners = one_groups.get(self._derive(l, spec))
                if not partners:
                    continue
                for o_i in partners:
                    m_rows.append(m_i)
                    o_rows.append(o_i)
                    if filtering:
                        out_labels.append(l)
                        continue
                    labels = self._without_name(l)
                    if include:
                        merged = labels.as_dict()
                        partner_labels = one.labels[o_i]
                        for name in include:
                            value_from_one = partner_labels.get(name, "")
                            if value_from_one:
                                merged[name] = value_from_one
                            else:
                                merged.pop(name, None)
                        labels = Labels(merged)
                    out_labels.append(labels)
        else:
            lhs_sigs = [self._derive(l, spec) for l in lhs.labels]
            lhs_groups: dict[Labels, list[int]] = {}
            for i, s in enumerate(lhs_sigs):
                lhs_groups.setdefault(s, []).append(i)
            self._check_unique(lhs, lhs_groups, "many-to-many matching: duplicate signature {sig} on left side")
            keep_sig = matching is not None and matching.on
            for l_i, s in enumerate(lhs_sigs):
                partners = one_groups.get(s)
                if not partners:
                    continue
                for r_i in partners:
                    m_rows.append(l_i)
                    o_rows.append(r_i)
                    if filtering:
                        out_labels.append(lhs.labels[l_i])
                    else:
                        out_labels.append(s if keep_sig else self._without_name(lhs.labels[l_i]))

        if not out_labels:
            return _empty(self.T)
        m_idx = np.asarray(m_rows, dtype=np.intp)
        o_idx = np.asarray(o_rows, dtype=np.intp)
        many_vals = many.values[m_idx]
        one_vals = one.values[o_idx]
        a, b = (one_vals, many_vals) if group == "right" else (many_vals, one_vals)
        both = many.present[m_idx] & one.present[o_idx]
        if filtering:
            present = both & self._compare_raw(node.op, a, b)
            return _Matrix(out_labels, np.where(present, many_vals, np.nan), present)
        return _Matrix(out_labels, np.where(both, self._apply_op_array(node.op, a, b), np.nan), both)

    def _set_op(self, node: BinaryOp, lhs: _Matrix, rhs: _Matrix) -> _Matrix:
        spec = signature_spec(node.matching)
        T = self.T

        def sig_masks(mat: _Matrix, index: dict[Labels, int]) -> np.ndarray:
            """Per-signature presence (OR over rows), plus a trailing
            all-absent row for signatures the other side lacks."""
            ids = np.fromiter(
                (index.setdefault(self._derive(l, spec), len(index)) for l in mat.labels),
                dtype=np.intp,
                count=mat.nrows,
            )
            masks = np.zeros((len(index) + 1, T), dtype=bool)
            np.logical_or.at(masks, ids, mat.present)
            return masks

        def lookup(mat: _Matrix, index: dict[Labels, int]) -> np.ndarray:
            missing = len(index)
            return np.fromiter(
                (index.get(self._derive(l, spec), missing) for l in mat.labels), dtype=np.intp, count=mat.nrows
            )

        if node.op in ("and", "unless"):
            index: dict[Labels, int] = {}
            mask = sig_masks(rhs, index)[lookup(lhs, index)]
            present = lhs.present & (mask if node.op == "and" else ~mask)
            return _Matrix(list(lhs.labels), np.where(present, lhs.values, np.nan), present)
        # or: all of lhs plus rhs columns whose signature is absent on lhs
        index = {}
        shadow = sig_masks(lhs, index)[lookup(rhs, index)]
        rhs_present = rhs.present & ~shadow
        present = np.concatenate([lhs.present, rhs_present])
        values = np.concatenate([lhs.values, rhs.values])
        return _Matrix(list(lhs.labels) + list(rhs.labels), np.where(present, values, np.nan), present)
