"""Property: the scrape lane and its parse-everything oracle agree.

Hypothesis draws random scrape histories for two targets and feeds the
identical history to the production :class:`ScrapeManager` (scrape
cache, append by ref, ref-set staleness) and to
:class:`ReferenceScrapeManager` (``tests/oracles/scrape_reference.py``:
full parse, append by labels, label-set staleness), each on its own
TSDB.  A history mixes:

* series appearing and disappearing between cycles;
* one label set rendered in different label orders (distinct cache
  keys for one series), bare and ``{}``-suffixed names, escaped label
  values holding ``"``, ``\\``, ``,``, ``}``, ``{`` and ``#``;
* NaN/±Inf/-0 values, sample timestamps, exemplars with and without
  timestamps, HELP/TYPE/free comments;
* failed scrapes: HTTP 500 and payloads with one malformed line (bad
  value, timestamp, labels, metric name, exemplar or TYPE line);
* ``delete_series`` and retention between cycles, which kill cached
  refs under the lane.

Afterwards both TSDBs must hold bit-identical series (``up`` and
staleness markers included), identical exemplars and counters, and
both managers the same per-target health.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.httpx import App, Response
from repro.tsdb.model import Matcher
from repro.tsdb.scrape import ScrapeConfig, ScrapeManager, ScrapeTarget
from repro.tsdb.storage import TSDB
from tests.oracles.scrape_reference import ReferenceScrapeManager

NAMES = ("m", "n_total", "up")
LABEL_SETS = (
    {},
    {"a": "1"},
    {"a": "2", "b": "x"},
    {"a": "1", "b": "y", "c": 'q"\\,}{#'},
    {"job": "other", "a": "1"},
)
VALUES = ("1", "2.5", "-0", "0", "NaN", "+Inf", "-Inf", "1e300", "17", "0x1p-3")
SUFFIXES = (
    "",
    " 1700000000000",
    ' # {trace_id="abc"} 1',
    ' # {trace_id="d#f"} 0.5 1700000000.5',
    " # {} NaN",
    ' 1700000000000 # {span_id="1"} 2',
)
COMMENTS = ("# TYPE m gauge", "# HELP n_total things, counted", "# free-form comment")
BAD_LINES = (
    'm{a="1"} notafloat',
    'm{a="1"} 1 notats',
    'm{a="1" 1',
    "m} 1",
    "9m 1",
    'm{a="1"}',
    'm{a="1"} 1 # {trace_id="x" 1',
    'm{a="1"} 1 # trace_id 1',
    'm{a="1"} notafloat # {trace_id="x" 1',
    "# TYPE m notatype",
)
#: Between-cycle storage operations.
OPS = (None, "delete_a1", "delete_m", "retention")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


@st.composite
def sample_lines(draw) -> str:
    name = draw(st.sampled_from(NAMES))
    items = draw(st.permutations(list(draw(st.sampled_from(LABEL_SETS)).items())))
    if items:
        series = name + "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in items) + "}"
    else:
        series = name + draw(st.sampled_from(("", "{}")))
    return f"{series} {draw(st.sampled_from(VALUES))}{draw(st.sampled_from(SUFFIXES))}"


#: Three sample lines to one comment line.
payload_lines = st.one_of(
    sample_lines(),
    sample_lines(),
    sample_lines(),
    st.sampled_from(COMMENTS),
)


@st.composite
def payloads(draw) -> str | None:
    """One target's response for a cycle; ``None`` serves HTTP 500."""
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind == 0:
        return None
    lines = draw(st.lists(payload_lines, max_size=7))
    if kind == 1:
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(at, draw(st.sampled_from(BAD_LINES)))
    return "\n".join(lines) + "\n"


cycles = st.tuples(st.tuples(payloads(), payloads()), st.sampled_from(OPS))


def run(manager_cls, history) -> tuple:
    db = TSDB(retention=40.0)
    db.exemplars.per_series = 3  # per-series ring eviction in play
    manager = manager_cls(db, ScrapeConfig(retention_every=0))
    bodies: list[str | None] = [None, None]
    for i in range(2):
        app = App(f"t{i}")
        app.router.get(
            "/metrics",
            lambda req, i=i: Response(status=500)
            if bodies[i] is None
            else Response.text(bodies[i]),
        )
        manager.add_target(ScrapeTarget(app=app, instance=f"n{i}:9010", job="ceems"))
    for step, (bodies_now, op) in enumerate(history):
        now = 15.0 * (step + 1)
        if op == "delete_a1":
            db.delete_series([Matcher.eq("a", "1")])
        elif op == "delete_m":
            db.delete_series([Matcher.name_eq("m")])
        elif op == "retention":
            db.apply_retention(now)
        bodies[:] = bodies_now
        manager.scrape_all(now)
    series = [
        (tuple(s.labels), tuple(s.timestamps), tuple(repr(v) for v in s.values))
        for s in db.all_series()
    ]
    exemplars = [
        (tuple(labels), tuple(sorted(r.labels.items())), repr(r.value), r.timestamp, r.scrape_ts)
        for labels, records in db.exemplars.select([])
        for r in records
    ]
    health = [
        (t.last_scrape_ok, t.scrape_failures_total, t.last_scrape_samples)
        for t in manager.targets
    ]
    counters = (
        db.exemplars.appended_total,
        db.exemplars.dropped_total,
        manager.samples_appended_total,
        (db.min_time, db.max_time),
    )
    return series, exemplars, health, counters


@settings(max_examples=150, deadline=None)
@given(history=st.lists(cycles, min_size=1, max_size=8))
def test_scrape_lane_matches_oracle(history):
    lane = run(ScrapeManager, history)
    oracle = run(ReferenceScrapeManager, history)
    assert lane == oracle
