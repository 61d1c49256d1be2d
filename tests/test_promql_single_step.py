"""Single-step (instant) evaluation: production engine vs per-step oracle.

Recording rules, alerting rules and HTTP instant queries all evaluate
through :meth:`PromQLEngine.query`, the columnar evaluator's one-step
case.  This module checks it against the per-step oracle
(``tests/oracles/promql_per_step.py``) bit for bit:

* on the expressions the stack actually ships — every recording rule,
  every alerting-rule expression and every instant Grafana panel
  (the 24 h peak-power subquery included) — over a seeded 5 %-scale
  Jean-Zay simulation at several evaluation times;
* on hypothesis-generated counters aimed at the series-batched window
  kernels, which evaluate every series of a matrix selector in one
  call over the concatenation of their samples: counter resets right
  at a boundary between two series, rows with no sample in the window,
  rows made only of staleness markers, and one versus many series;
* with one engine shared by many threads, as HTTP requests share it.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import StackSimulation, jean_zay_topology
from repro.cluster.simulation import SimulationConfig
from repro.dashboard.grafana_json import all_dashboards
from repro.tsdb.model import Labels
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.storage import TSDB
from tests.oracles.promql_per_step import PerStepEngine, assert_instant_identical, assert_range_identical

#: Simulated seconds between the evaluation times of the shipped
#: expressions; the first comes after one gap of warm-up.
EVAL_GAP = 300.0
EVAL_TIMES = 3
#: Units ``$job`` is bound to in the instant panels.
PANEL_UNITS = 3


def instant_panel_exprs() -> list[str]:
    return [
        target["expr"]
        for dashboard in all_dashboards().values()
        for panel in dashboard["panels"]
        for target in panel["targets"]
        if target.get("instant") and "expr" in target
    ]


@pytest.fixture(scope="module")
def jz5_checkpoints():
    """Engine + evaluation time at each checkpoint of one seeded run,
    with the shipped expressions to evaluate there."""
    sim = StackSimulation(jean_zay_topology(scale=0.05), SimulationConfig(seed=11, cluster_name="jean-zay"))
    evaluator = sim.rule_evaluator
    rules = [rule.expr for group in evaluator.groups for rule in group.rules]
    alerts = [rule.expr for group in evaluator.alert_groups for rule in group.rules]
    panels = instant_panel_exprs()
    checkpoints = []
    for _ in range(EVAL_TIMES):
        sim.run(EVAL_GAP)
        units = sorted(sim.hot_tsdb.label_values("uuid"))[:PANEL_UNITS]
        bound = [p.replace("$job", uuid) for p in panels for uuid in units if "$job" in p]
        bound += [p for p in panels if "$job" not in p]
        checkpoints.append((sim.now, rules, alerts, bound))
    engine = PromQLEngine(sim.hot_tsdb, lookback=sim.lookback)
    return engine, checkpoints


def test_shipped_expression_counts(jz5_checkpoints):
    _engine, checkpoints = jz5_checkpoints
    _at, rules, alerts, panels = checkpoints[0]
    assert len(rules) == 59
    assert alerts
    assert len(instant_panel_exprs()) == 11
    assert any("[24h:5m]" in p for p in panels)


@pytest.mark.parametrize("kind", ["recording", "alerting", "panel"])
def test_shipped_expressions_identical_to_oracle(jz5_checkpoints, kind):
    """Every shipped instant expression, at every checkpoint.

    The series a checkpoint's rules produced keep growing after it, so
    evaluating an earlier checkpoint at its own time reads the same
    history the live rule evaluation read.
    """
    engine, checkpoints = jz5_checkpoints
    evaluated = 0
    for at, rules, alerts, panels in checkpoints:
        exprs = {"recording": rules, "alerting": alerts, "panel": panels}[kind]
        for expr in exprs:
            assert_instant_identical(engine, expr, at)
            evaluated += 1
    assert evaluated >= EVAL_TIMES * 9


# -- batched window kernels -----------------------------------------------

#: One series: sample steps of 15 s with a per-sample action — counter
#: increment, reset to a small value, or a staleness marker.
_samples = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=50.0).map(lambda v: ("inc", v)),
        st.floats(min_value=0.0, max_value=5.0).map(lambda v: ("reset", v)),
        st.just(("stale", 0.0)),
    ),
    min_size=0,
    max_size=16,
)

_layouts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # first sample, in 15 s steps
        st.floats(min_value=0.0, max_value=1e4),  # counter start
        _samples,
    ),
    min_size=1,
    max_size=6,
)


def build_counters(layout) -> TSDB:
    """Counters in series order; series ``i + 1`` may start below where
    series ``i`` ended, which is a reset only across their boundary in
    the batched kernels' concatenation."""
    db = TSDB()
    for i, (offset, start, samples) in enumerate(layout):
        labels = Labels({"__name__": "c", "idx": f"{i:02d}"})
        value = start
        for k, (action, amount) in enumerate(samples):
            t = 15.0 * (offset + k)
            if action == "stale":
                db.append(labels, t, math.nan)
                continue
            value = amount if action == "reset" else value + amount
            db.append(labels, t, value)
    return db


KERNEL_QUERIES = [
    "rate(c[1m])",
    "irate(c[1m])",
    "changes(c[2m])",
    "resets(c[2m])",
    "increase(c[90s])",
    "sum(rate(c[1m]))",
]


@pytest.mark.parametrize("query", KERNEL_QUERIES)
@settings(max_examples=40, deadline=None)
@given(layout=_layouts, at=st.integers(min_value=0, max_value=70))
def test_batched_kernels_identical_to_oracle(query, layout, at):
    engine = PromQLEngine(build_counters(layout))
    assert_instant_identical(engine, query, 15.0 * at)
    assert_range_identical(engine, query, 15.0 * at, 15.0 * at + 600.0, 45.0)


def test_reset_at_series_boundary_is_not_a_reset():
    """Series ``a`` ends high and ``b`` starts low: concatenated, the
    drop sits between two rows and must not touch either's result."""
    db = TSDB()
    for t, v in ((0.0, 100.0), (15.0, 110.0), (30.0, 120.0)):
        db.append(Labels({"__name__": "c", "idx": "a"}), t, v)
    for t, v in ((0.0, 1.0), (15.0, 2.0), (30.0, 3.0)):
        db.append(Labels({"__name__": "c", "idx": "b"}), t, v)
    engine = PromQLEngine(db)
    resets = {el.labels.get("idx"): el.value for el in engine.query("resets(c[1m])", 30.0).vector}
    assert resets == {"a": 0.0, "b": 0.0}
    for query in KERNEL_QUERIES:
        assert_instant_identical(engine, query, 30.0)


def test_empty_and_all_stale_rows():
    """A row with no sample in the window and a row of staleness
    markers sit between two live rows: both yield no element, and the
    live rows' windows stay aligned."""
    db = TSDB()
    live = [Labels({"__name__": "c", "idx": i}) for i in ("a", "d")]
    for labels in live:
        for k in range(6):
            db.append(labels, 15.0 * k, 10.0 * k)
    db.append(Labels({"__name__": "c", "idx": "b"}), 0.0, 5.0)  # outside [15, 75]
    for k in range(6):
        db.append(Labels({"__name__": "c", "idx": "c"}), 15.0 * k, math.nan)
    engine = PromQLEngine(db)
    result = engine.query("count_over_time(c[1m])", 75.0)
    assert {el.labels.get("idx"): el.value for el in result.vector} == {"a": 5.0, "d": 5.0}
    for query in KERNEL_QUERIES + ["count_over_time(c[1m])", "last_over_time(c[1m])"]:
        assert_instant_identical(engine, query, 75.0)
        assert_range_identical(engine, query, 0.0, 120.0, 15.0)


def test_shared_engine_under_threads():
    """HTTP request threads share one engine and its derived-labels
    memo; clearing the memo under them must never change an answer."""
    db = TSDB()
    for g in ("a", "b", "c"):
        for i in range(4):
            labels = Labels({"__name__": "c", "grp": g, "idx": str(i)})
            for k in range(12):
                db.append(labels, 15.0 * k, float(k * (i + 1)))
    engine = PromQLEngine(db)
    engine.derived_labels.MAX_ENTRIES = 4  # force clears mid-query
    queries = [
        "sum by (grp) (rate(c[1m]))",
        "c / on(grp, idx) group_left() c",
        "count without (idx) (c > 3)",
    ]
    oracle = PerStepEngine(db)
    expected = {q: [(el.labels, el.value) for el in oracle.query(q, 165.0).vector] for q in queries}
    mismatches: list[str] = []

    def worker() -> None:
        for _ in range(40):
            for q in queries:
                if [(el.labels, el.value) for el in engine.query(q, 165.0).vector] != expected[q]:
                    mismatches.append(q)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
