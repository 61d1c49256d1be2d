"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run
from perfbench.measure import (
    MIN_P99_SAMPLES,
    REFERENCE_SAMPLE_S,
    Checks,
    HostSpeed,
    latency_summary,
    percentile,
    state_digest,
)
from perfbench.trace import TICK, Span, Tracer, covered_seconds, layer_stats, self_times
from perfbench.workloads import Phase, _drawn_repeat_share
from repro.cluster import StackSimulation, small_topology
from repro.cluster.simulation import SimulationConfig


# -- percentiles ---------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p99_needs_enough_samples():
    short = latency_summary([0.001] * (MIN_P99_SAMPLES - 1))
    assert short["n"] == MIN_P99_SAMPLES - 1
    assert short["p50_ms"] == pytest.approx(1.0)
    assert short["p99_ms"] is None
    full = latency_summary([i / 1000.0 for i in range(1, MIN_P99_SAMPLES + 1)])
    assert full["p99_ms"] == pytest.approx(990.0)
    assert latency_summary([]) == {"n": 0, "p50_ms": None, "p99_ms": None}


def test_p99_rule_leaves_ten_samples_beyond():
    values = [float(v) for v in range(MIN_P99_SAMPLES)]
    p99 = latency_summary([v / 1e3 for v in values])["p99_ms"]
    assert sum(v > p99 for v in values) == 10


# -- host speed -----------------------------------------------------------------
def test_host_factor_uses_the_samples_around_a_piece():
    host = HostSpeed()
    host.sample()
    assert len(host.samples) == 1 and host.samples[0] > 0
    assert host.recent_factor() == pytest.approx(REFERENCE_SAMPLE_S / host.samples[0])
    host.samples = [0.05, 0.004, 0.008]
    assert host.recent_factor() == pytest.approx(REFERENCE_SAMPLE_S / 0.006)


# -- self time and layer statistics ---------------------------------------------
def _span(span_id, parent_id, name, start, end):
    return Span(span_id, parent_id, 1, name, start, end)


def test_self_time_with_nested_and_adjacent_children():
    spans = [
        _span(1, 0, "a", 0.0, 10.0),
        _span(2, 1, "b", 1.0, 4.0),
        _span(3, 1, "c", 4.0, 6.0),  # adjacent to b
        _span(4, 2, "d", 2.0, 3.0),  # nested in b, not a child of a
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, 0, "a", 0.0, 10.0), _span(2, 1, "b", 1.0, 5.0), _span(3, 1, "b", 3.0, 7.0)]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_busy_time_counts_reentered_layer_once():
    spans = [
        _span(1, 0, "x", 0.0, 10.0),
        _span(2, 1, "y", 1.0, 8.0),
        _span(3, 2, "x", 2.0, 5.0),
    ]
    stats = layer_stats(spans)
    assert stats["x"].calls == 2
    assert stats["x"].busy_s == pytest.approx(10.0)
    assert stats["x"].self_s == pytest.approx(3.0 + 3.0)
    assert stats["y"].self_s == pytest.approx(4.0)


def test_coverage_is_union_of_top_level_spans():
    spans = [
        _span(1, 0, TICK, 0.0, 10.0),
        _span(2, 1, "scrape", 0.0, 6.0),
        _span(3, 2, "inner", 1.0, 2.0),
        _span(4, 1, "rules", 6.0, 9.0),
    ]
    assert covered_seconds(spans) == pytest.approx(9.0)


class _Layer:
    def work(self, tracer_under_test, inner):
        if inner:
            return tracer_under_test.call("inner", lambda: 7)
        return 3


def test_tracer_wraps_at_class_level_and_shares_trace_ids():
    tracer = Tracer()
    original = _Layer.__dict__["work"]
    tracer.wrap(_Layer, "work", "layer")
    try:
        obj = _Layer()  # built after wrapping, like the simulation
        assert obj.work(tracer, True) == 7  # disabled: no spans
        assert tracer.spans == []
        tracer.enabled = True
        tracer.call(TICK, lambda: (obj.work(tracer, True), obj.work(tracer, False)))
        tracer.call(TICK, obj.work, tracer, False)
    finally:
        tracer.uninstall()
    assert _Layer.__dict__["work"] is original
    names = [s.name for s in tracer.spans]
    assert names == ["inner", "layer", "layer", TICK, "layer", TICK]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    first_tick, second_tick = by_name[TICK]
    assert {s.trace_id for s in tracer.spans[:4]} == {first_tick.span_id}
    assert tracer.spans[4].trace_id == second_tick.span_id
    assert tracer.spans[0].parent_id == tracer.spans[1].span_id
    assert tracer.spans[1].parent_id == first_tick.span_id


# -- failure counting -----------------------------------------------------------
def test_checks_count_failures_against_attempts():
    checks = Checks()
    assert not checks.correct  # nothing attempted yet
    checks.record(True, "scrapes", 10)
    checks.record(False, "no failures", 0)
    assert checks.correct and checks.failed_ratio == 0.0 and checks.notes == []
    checks.record(False, "parity", 2)
    assert (checks.attempted, checks.failed) == (12, 2)
    assert checks.failed_ratio == pytest.approx(2 / 12)
    assert not checks.correct
    assert checks.notes == ["parity"]


def _small_sim(seed: int) -> StackSimulation:
    sim = StackSimulation(
        small_topology(cpu_nodes=1, gpu_nodes=1), SimulationConfig(seed=seed, update_interval=120.0)
    )
    sim.run(240.0)
    return sim


class _FailingWorkload:
    name = "failing"
    warmup = 60.0

    def build(self, seed):
        return _small_sim(seed)

    def measure(self, sim, seed, seconds, tracer, checks, host):
        phase = Phase(timed_s=1.0, op_latencies=[0.5, 0.5])
        checks.record(True, "", 2)
        return phase

    def verify(self, sim, phase, checks):
        checks.record(False, "wrong answer")


def test_failed_check_makes_the_command_fail(monkeypatch, capsys):
    from perfbench import workloads

    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "failing", _FailingWorkload())
    code = run.main(["--workload", "failing", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # The set-up digest check, two timed operations, the failing check.
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert set(result["metrics"]) == set(run.END_TO_END)


class _DriftingWorkload(_FailingWorkload):
    """Builds a different state on each set-up: the digest check fails."""

    def __init__(self):
        self.builds = 0

    def build(self, seed):
        self.builds += 1
        return _small_sim(seed + self.builds)

    def verify(self, sim, phase, checks):
        pass


def test_set_up_digests_must_repeat(monkeypatch, capsys):
    from perfbench import workloads

    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setitem(workloads.WORKLOADS, "drifting", _DriftingWorkload())
    code = run.main(["--workload", "drifting", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert "set-up digests differ" in out


# -- digest ---------------------------------------------------------------------
def test_digest_repeats_for_a_seed():
    first, again, other = _small_sim(5), _small_sim(5), _small_sim(6)
    assert state_digest(first) == state_digest(again)
    assert state_digest(first) != state_digest(other)


class _Viewer:
    units = [("u1", "alice"), ("u2", "bob")]

    def load(self, unit, start, end):
        return [(unit, start, end, "instant"), (unit, start, end, "range")]


def test_drawn_repeat_share_counts_requests_seen_before():
    one_window = [(0.0, 900.0)]
    # Exponent 50: practically every draw is the first unit.
    assert _drawn_repeat_share(_Viewer(), one_window, [3, 2], 1, 50.0) == pytest.approx(1 - 2 / 10)
    assert _drawn_repeat_share(_Viewer(), one_window, [0, 0], 1, 1.1) == 0.0
    many = _drawn_repeat_share(_Viewer(), [(0.0, t) for t in range(1, 50)], [20, 20], 1, 1.1)
    assert many < _drawn_repeat_share(_Viewer(), one_window, [20, 20], 1, 1.1)


# -- BENCHMARK.json agrees with what the command prints -------------------------
def test_benchmark_json_lists_the_printed_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
