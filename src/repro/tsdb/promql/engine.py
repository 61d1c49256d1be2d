"""PromQL evaluation engine (instant and range queries).

Evaluation model mirrors Prometheus: a *range query* means an instant
query evaluated at every step timestamp, and an *instant query*
produces a scalar or an instant vector.  Both are computed by the
columnar evaluator in one pass over the step grid (one step for an
instant query).  Matrix selectors exist only as arguments to range
functions.

Semantics reproduced from Prometheus:

* instant vector selectors look back up to ``lookback`` (default 5 m)
  for the most recent sample;
* arithmetic between vectors matches elements by label signature with
  ``on``/``ignoring`` and supports many-to-one via ``group_left``
  (the exact feature Eq. (1) needs: per-job CPU-time series multiplied
  against per-node IPMI power series);
* comparisons filter unless the ``bool`` modifier is present;
* aggregations group by label subsets; ``topk``/``bottomk`` keep
  element labels; metric names are dropped by every transforming
  operation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import QueryError
from repro.tsdb.model import Labels
from repro.tsdb.promql.ast import Call, Expr
from repro.tsdb.promql.columnar import DerivedLabels, eval_instant_columnar, eval_range_columnar
from repro.tsdb.promql.parser import parse_expr

DEFAULT_LOOKBACK = 300.0


def range_steps(start: float, end: float, step: float) -> np.ndarray:
    """Step timestamps of a range query, generated **by index**.

    ``start + i * step`` for each index keeps the two places that
    enumerate steps (the evaluation loop and
    :meth:`RangeResult.timestamps`) bit-identical; the previous
    ``t += step`` accumulation drifted away from ``np.arange`` for
    non-dyadic steps.
    """
    if step <= 0:
        raise QueryError("step must be positive")
    n = int(math.floor((end - start) / step + 1e-9)) + 1
    if n < 0:
        n = 0
    return start + np.arange(n, dtype=np.float64) * step


@dataclass(frozen=True)
class VectorElement:
    labels: Labels
    value: float


@dataclass
class InstantResult:
    """Result of an instant query: a vector or a scalar."""

    timestamp: float
    vector: list[VectorElement] = field(default_factory=list)
    scalar: float | None = None

    @property
    def is_scalar(self) -> bool:
        return self.scalar is not None

    def by_labels(self) -> dict[Labels, float]:
        return {el.labels: el.value for el in self.vector}


@dataclass
class RangeResult:
    """Result of a range query: per-series sample arrays."""

    start: float
    end: float
    step: float
    series: dict[Labels, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def timestamps(self) -> np.ndarray:
        return range_steps(self.start, self.end, self.step)


class PromQLEngine:
    """Evaluates PromQL against any object with a ``select`` method.

    The storage contract is :meth:`repro.tsdb.storage.TSDB.select`;
    the Thanos store gateway implements the same interface, so one
    engine serves both the hot and long-term paths.  Both query kinds
    run through the columnar evaluator
    (:mod:`repro.tsdb.promql.columnar`); an instant query is its
    one-step case.
    """

    def __init__(self, storage, lookback: float = DEFAULT_LOOKBACK) -> None:
        self.storage = storage
        self.lookback = lookback
        #: Label sets derived during evaluation, reused across queries.
        self.derived_labels = DerivedLabels()
        #: Evaluation accounting (self-telemetry): queries evaluated
        #: and the wall seconds they took.
        self.eval_queries = 0
        self.eval_seconds = 0.0

    # -- public API -------------------------------------------------------
    def query(self, expr: str | Expr, at: float) -> InstantResult:
        """Instant query at timestamp ``at``."""
        ast = parse_expr(expr) if isinstance(expr, str) else expr
        started = time.perf_counter()
        value = eval_instant_columnar(self, ast, at)
        self.eval_seconds += time.perf_counter() - started
        self.eval_queries += 1
        if isinstance(value, list):
            vector = [VectorElement(labels, v) for labels, v in value]
            # Results are label-sorted for determinism, except when the
            # outermost expression is sort()/sort_desc(), whose whole
            # point is value ordering.
            if not (isinstance(ast, Call) and ast.func in ("sort", "sort_desc")):
                vector.sort(key=lambda el: tuple(el.labels))
            return InstantResult(timestamp=at, vector=vector)
        if isinstance(value, float):
            return InstantResult(timestamp=at, scalar=value)
        raise QueryError(f"expression does not produce a vector or scalar: {type(value).__name__}")

    def query_range(self, expr: str | Expr, start: float, end: float, step: float) -> RangeResult:
        """Range query over ``[start, end]`` at ``step`` resolution.

        Every selector is resolved once, the matched series are read
        as ndarrays and the whole expression is evaluated along the
        step axis as matrix operations.
        """
        if step <= 0:
            raise QueryError("step must be positive")
        if end < start:
            raise QueryError("end before start")
        ast = parse_expr(expr) if isinstance(expr, str) else expr
        steps = range_steps(start, end, step)
        result = RangeResult(start=start, end=end, step=step)
        started = time.perf_counter()
        result.series = eval_range_columnar(self, ast, steps)
        self.eval_seconds += time.perf_counter() - started
        self.eval_queries += 1
        assert np.array_equal(result.timestamps(), steps)  # drift guard
        return result
