"""Pipeline benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload ingest_jz5 --seed 1 --seconds 10 --trace 0

Run from the repository root; ``--workload all`` runs every workload,
each in its own process.  The workload is set up ``SETUPS`` times
(``setup_s`` is their median), timed on the last set-up for about
``--seconds``, then checked.  A human-readable report goes to standard output
and the last line is one JSON object: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a traced
phase, its coverage by layer spans and the tracing overhead against an
untraced phase on an identical set-up.  The spans are written to
``perfbench/traces/``.  Exit status 1 means a correctness check failed.

Every time reported is a wall (or, per layer, CPU) time scaled to the
reference host speed of :class:`perfbench.measure.HostSpeed`, sampled
during the same set-up or phase; the report prints each factor, so the
raw time is the reported one divided by it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: A set-up advances its warm-up in this many pieces, with a host-speed
#: sample after each.
WARMUP_PIECES = 20

#: End-to-end metric -> unit (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Layer span name -> the statistics of it that are reported.
LAYER_REPORT = {
    "hwsim.advance": ("calls", "busy_s"),
    "resourcemgr.step": ("busy_s",),
    "exporter.scrape": ("calls", "busy_s"),
    "scrape.cycle": ("busy_s", "self_s"),
    "tsdb.append": ("busy_s",),
    "rules.eval": ("calls", "busy_s", "self_s"),
    "alerts.eval": ("busy_s",),
    "promql.instant": ("calls", "busy_s"),
    "promql.range": ("calls", "busy_s"),
    "promapi.request": ("calls", "self_s"),
    "thanos.select": ("calls", "busy_s"),
    "frontend.request": ("busy_s", "self_s"),
    "lb.request": ("calls", "self_s"),
    "updater.pass": ("calls", "busy_s"),
    "thanos.sidecar": ("busy_s",),
    "thanos.compact": ("busy_s",),
    "obs.probe": ("busy_s",),
    "obs.alertmanager": ("busy_s",),
    "apiserver.request": ("busy_s",),
}

#: Counters read off the stack (or the tracer) -> unit.
COUNTERS = {
    "exporter.scrape.bytes": "bytes",
    "scrape.samples": "count",
    "scrape.cache_hit_ratio": "ratio",
    "scrape.failures": "count",
    "tsdb.series": "count",
    "tsdb.samples": "count",
    "frontend.cache_hit_ratio": "ratio",
    "frontend.memo_hits": "count",
    "frontend.subqueries": "count",
    "frontend.coalesced": "count",
    "frontend.rejected": "count",
    "thanos.blocks": "count",
}

#: Coverage and overhead of the traced phase -> unit.
TRACE_REPORT = {
    "trace.timed_s": "s",
    "trace.covered_s": "s",
    "trace.uncovered_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "trace.overhead_ops_per_s": "ratio",
    "trace.overhead_op_p50_ms": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, stats in LAYER_REPORT.items():
        for stat in stats:
            units[f"{layer}.{stat}"] = "count" if stat == "calls" else "s"
    units.update(COUNTERS)
    units.update(TRACE_REPORT)
    return units


def op_metrics(phase) -> dict[str, float]:
    from perfbench.measure import percentile

    return {
        "ops_per_s": len(phase.op_latencies) / phase.timed_s,
        "op_p50_ms": percentile(phase.op_latencies, 50) * 1e3,
    }


def workload_rss_mb(host) -> float:
    """Peak resident memory, less what the host-speed kernels hold."""
    from perfbench.measure import peak_rss_mb

    return peak_rss_mb() - host.footprint_mb


def end_to_end(phase, setups: list[float], host) -> dict[str, float]:
    return {"setup_s": statistics.median(setups), "peak_rss_mb": workload_rss_mb(host), **op_metrics(phase)}


def per_layer(tracer, phase, untraced) -> dict[str, float]:
    from perfbench.trace import covered_seconds, layer_stats

    f = phase.host_factor
    stats = layer_stats(tracer.spans)
    values: dict[str, float] = {}
    for layer, wanted in LAYER_REPORT.items():
        row = stats.get(layer)
        for stat in wanted:
            value = getattr(row, stat) if row else 0
            values[f"{layer}.{stat}"] = value if stat == "calls" else value * f
    counters = dict(phase.counters, **{"exporter.scrape.bytes": tracer.exporter_bytes})
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    # Spans and the timed work are both in CPU seconds of the threads
    # that did the work.
    covered_s = covered_seconds(tracer.spans) * f
    timed_s = phase.cpu_s * f
    traced, reference = op_metrics(phase), op_metrics(untraced)
    values.update(
        {
            "trace.timed_s": timed_s,
            "trace.covered_s": covered_s,
            "trace.uncovered_s": timed_s - covered_s,
            "trace.coverage": covered_s / timed_s,
            "trace.spans": len(tracer.spans),
            "trace.overhead_ops_per_s": traced["ops_per_s"] / reference["ops_per_s"] - 1.0,
            "trace.overhead_op_p50_ms": traced["op_p50_ms"] / reference["op_p50_ms"] - 1.0,
        }
    )
    return values


def report(workload: str, phase, setups: list[float], setup_factors: list[float], host, checks, digest: str) -> None:
    """The human-readable part: every metric with its sample count."""
    from perfbench.measure import latency_summary

    timed_s = phase.timed_s
    print(f"workload {workload}  (times at reference host speed; raw = reported / factor)")
    print(f"  setup_s           {statistics.median(setups):.3f} s (median of {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups) + "; factors "
          + ", ".join(f"{x:.3f}" for x in setup_factors) + ")")
    print(f"  peak_rss_mb       {workload_rss_mb(host):.1f} MB (host-speed kernels' {host.footprint_mb:.1f} MB left out)")
    print(f"  timed phase       {timed_s:.3f} s, {len(phase.op_latencies)} ops, "
          f"host factor {phase.host_factor:.3f} (raw {phase.raw_s:.3f} s)")
    if phase.sim_seconds:
        print(f"  sim_speedup       {phase.sim_seconds / timed_s:.2f} x ({phase.sim_seconds:.0f} sim s)")
    if phase.by_kind:
        n = sum(len(v) for v in phase.by_kind.values())
        print(f"  requests_per_s    {n / timed_s:.1f} 1/s ({n} requests, {phase.threads} thread(s))")
        for kind in ("range", "instant", "api"):
            s = latency_summary(phase.by_kind.get(kind, []))
            p50 = f"{s['p50_ms']:.3f} ms" if s["p50_ms"] is not None else "n/a"
            p99 = f"{s['p99_ms']:.3f} ms" if s["p99_ms"] is not None else "n/a (fewer than 1000 samples)"
            print(f"  {kind + '_p50_ms':<17} {p50} (n={s['n']})")
            print(f"  {kind + '_p99_ms':<17} {p99} (n={s['n']})")
    print(f"  failed_ratio      {checks.failed_ratio:.6f} ({checks.failed} of {checks.attempted})")
    for note in checks.notes:
        print(f"    FAILED: {note}")
    print(f"  digest            {digest}")
    print("  inputs            " + json.dumps(phase.props, sort_keys=True))


def run_each(names: list[str], args) -> list[int]:
    """Run each workload in a child process; their exit statuses."""
    script = os.path.abspath(__file__)
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return [
        subprocess.run([sys.executable, script, "--workload", name, *flags], cwd=ROOT).returncode
        for name in names
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.measure import Checks, HostSpeed, state_digest
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return max(run_each(list(WORKLOADS), args))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    # Every thread runs Python under one interpreter lock.  On one CPU
    # the lock never hands over between cores: on a 2-core host, three
    # same-seed runs of the two-client closed loop spread over 16 %
    # unpinned and 0.5 % pinned, and pinned ran 40 % faster.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tracer = Tracer()
    if args.trace:
        tracer.install()
    checks = Checks()
    host = HostSpeed()
    setups: list[float] = []
    setup_factors: list[float] = []
    setup_digests: list[str] = []
    untraced = untraced_digest = sim = None
    for i in range(SETUPS):
        sim = None
        gc.collect()
        raw = setup = 0.0
        started = perf_counter()
        sim = workload.build(args.seed)
        for _ in range(WARMUP_PIECES):
            sim.run(workload.warmup / WARMUP_PIECES)
            piece = perf_counter() - started
            host.sample()
            raw += piece
            setup += piece * host.recent_factor()
            started = perf_counter()
        setups.append(setup)
        setup_factors.append(setup / raw)
        setup_digests.append(state_digest(sim))
        if args.trace and i == SETUPS - 2:
            # The overhead reference: the same phase on an identical
            # set-up, wrappers installed but not recording.
            untraced = workload.measure(sim, args.seed, args.seconds, tracer, checks, host)
            untraced_digest = state_digest(sim)
    checks.record(len(set(setup_digests)) == 1, f"set-up digests differ: {setup_digests}")

    tracer.classify_apps(sim)
    tracer.enabled = bool(args.trace)
    phase = workload.measure(sim, args.seed, args.seconds, tracer, checks, host)
    tracer.enabled = False
    if args.trace:
        traced_digest = state_digest(sim)
        checks.record(traced_digest == untraced_digest,
                      f"digest after the traced phase {traced_digest} != untraced {untraced_digest}")
    workload.verify(sim, phase, checks)
    digest = state_digest(sim)
    report(args.workload, phase, setups, setup_factors, host, checks, digest)

    if args.trace:
        trace_dir = os.path.join(ROOT, "perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.csv")
        tracer.write(path)
        print(f"  spans             {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        values, units = per_layer(tracer, phase, untraced), per_layer_units()
    else:
        values, units = end_to_end(phase, setups, host), END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The simulated Electricity Maps provider seeds its generator
        # with hash(zone), which differs between processes unless string
        # hashing is fixed; without this the same seed would not give the
        # same grid-intensity input, final state or digest.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
