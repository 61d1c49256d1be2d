"""In-memory span tracing around the public entry point of each layer.

:meth:`Tracer.install` puts a timing wrapper on every method in
:data:`LAYER_METHODS` at class level.  It must run before the
``StackSimulation`` is built: ``SimClock`` timers bind some methods
(``SlurmCluster.step``, ``Updater.run_once``, ``Alertmanager.tick``) at
registration, so a wrapper installed afterwards would never see them.

A wrapper costs one attribute test while the tracer is disabled.  While
enabled, each call becomes a :class:`Span`.  Spans are kept in memory
and written out by :meth:`Tracer.write` when the run ends.  A span
started inside another span on the same thread is its child; the
benchmark opens a root span around each tick and each request, so every
span of one tick or one request shares that root's ``trace_id``.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import thread_time
from typing import Callable, NamedTuple

from repro.apiserver.updater import Updater
from repro.common.httpx import App
from repro.frontend.server import QueryFrontend
from repro.hwsim.node import SimulatedNode
from repro.obs.alertmanager import Alertmanager
from repro.obs.probe import BlackboxProber
from repro.resourcemgr.slurm import SlurmCluster
from repro.thanos.compact import Compactor
from repro.thanos.query import FanoutStorage
from repro.thanos.sidecar import Sidecar
from repro.tsdb.alerts import AlertingRuleGroup
from repro.tsdb.promql.engine import PromQLEngine
from repro.tsdb.rules import RuleGroup
from repro.tsdb.scrape import ScrapeManager
from repro.tsdb.storage import TSDB

#: Span name of the benchmark's own root spans.
TICK = "tick"
REQUEST = "request"
ROOTS = (TICK, REQUEST)

#: ``App.handle`` spans of an app the benchmark has not classified.
HTTP_OTHER = "http.other"


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a root span
    trace_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        #: id(app) -> layer name for ``App.handle`` spans.
        self.app_layers: dict[int, str] = {}
        #: Body bytes served by exporter ``/metrics`` while enabled.
        self.exporter_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[type, str, Callable]] = []

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (if enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent_id, trace_id = stack[-1]
        else:
            parent_id, trace_id = 0, span_id
        stack.append((span_id, trace_id))
        start = thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = thread_time()
            stack.pop()
            self.spans.append(Span(span_id, parent_id, trace_id, name, start, end))

    @contextmanager
    def paused(self):
        """Record nothing inside the block (checks, not measured work)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap(self, cls: type, method: str, name: str) -> None:
        original = cls.__dict__[method]
        tracer = self

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            if not tracer.enabled:
                return original(obj, *args, **kwargs)
            return tracer.call(name, original, obj, *args, **kwargs)

        setattr(cls, method, wrapper)
        self._originals.append((cls, method, original))

    def _wrap_app_handle(self) -> None:
        original = App.__dict__["handle"]
        tracer = self

        @functools.wraps(original)
        def handle(app, request):
            if not tracer.enabled:
                return original(app, request)
            layer = tracer.app_layers.get(id(app), HTTP_OTHER)
            if layer == "exporter.scrape" and request.path != "/metrics":
                layer = HTTP_OTHER
            response = tracer.call(layer, original, app, request)
            if layer == "exporter.scrape":
                tracer.exporter_bytes += len(response.body)
            return response

        App.handle = handle
        self._originals.append((App, "handle", original))

    def install(self) -> None:
        """Wrap every layer entry point (call before building the sim)."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for cls, method, name in LAYER_METHODS:
            self.wrap(cls, method, name)
        self._wrap_app_handle()

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._originals):
            setattr(cls, method, original)
        self._originals.clear()

    def classify_apps(self, sim) -> None:
        """Name the ``App.handle`` layer of each component of ``sim``."""
        layers = {id(sim.lb.app): "lb.request", id(sim.api_server.app): "apiserver.request"}
        for api in sim.prom_apis:
            layers[id(api.app)] = "promapi.request"
        exporters = [*sim.exporters, *sim.gpu_exporters, sim.emissions_exporter]
        for exporter in exporters:
            layers[id(exporter.app)] = "exporter.scrape"
        self.app_layers = layers

    def write(self, path: str) -> None:
        """Write the spans as CSV: id, parent, trace, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,trace_id,name,start,end\n")
            for s in self.spans:
                fh.write(f"{s.span_id},{s.parent_id},{s.trace_id},{s.name},{s.start!r},{s.end!r}\n")


#: (class, method, span name): the public entry point of each layer.
#: ``App.handle`` is wrapped separately and named per app.
LAYER_METHODS: list[tuple[type, str, str]] = [
    (SimulatedNode, "advance", "hwsim.advance"),
    (SlurmCluster, "step", "resourcemgr.step"),
    (ScrapeManager, "scrape_all", "scrape.cycle"),
    (TSDB, "append", "tsdb.append"),
    (TSDB, "append_many", "tsdb.append"),
    (TSDB, "append_array", "tsdb.append"),
    (TSDB, "append_ref", "tsdb.append"),
    (TSDB, "append_refs", "tsdb.append"),
    (RuleGroup, "evaluate", "rules.eval"),
    (AlertingRuleGroup, "evaluate", "alerts.eval"),
    (PromQLEngine, "query", "promql.instant"),
    (PromQLEngine, "query_range", "promql.range"),
    (FanoutStorage, "select", "thanos.select"),
    (QueryFrontend, "handle_query", "frontend.request"),
    (Updater, "run_once", "updater.pass"),
    (Sidecar, "upload", "thanos.sidecar"),
    (Compactor, "run", "thanos.compact"),
    (BlackboxProber, "probe_all", "obs.probe"),
    (Alertmanager, "tick", "obs.alertmanager"),
]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id:
            children[s.parent_id].append((s.start, s.end))
    return {s.span_id: s.duration - _union_length(children.get(s.span_id, [])) for s in spans}


class LayerStats(NamedTuple):
    calls: int
    #: CPU time inside the layer, counting only its outermost spans
    #: (a layer re-entered below itself is not counted twice).
    busy_s: float
    #: CPU time inside the layer not covered by a child span.
    self_s: float


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        selft[s.name] += own[s.span_id]
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            busy[s.name] += s.duration
    return {name: LayerStats(calls[name], busy[name], selft[name]) for name in calls}


def covered_seconds(spans: list[Span]) -> float:
    """Seconds of the root spans covered by top-level layer spans.

    Root spans are the benchmark's ticks and requests; top-level layer
    spans are their direct children.
    """
    roots = {s.span_id for s in spans if s.parent_id == 0 and s.name in ROOTS}
    top: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id in roots:
            top[s.parent_id].append((s.start, s.end))
    return sum(_union_length(intervals) for intervals in top.values())
