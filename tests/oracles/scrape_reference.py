"""Parse-everything scrape lane: the differential-testing oracle.

:class:`ReferenceScrapeManager` ingests a scrape the direct way: every
cycle runs the full exposition parser (:func:`repro.tsdb.exposition.
parse`) over the whole payload, builds and validates a ``Labels`` per
sample and appends each sample by labels; staleness compares label
sets.  It has no scrape cache and never appends by ref.

The production :class:`~repro.tsdb.scrape.ScrapeManager` (per-target
scrape cache, append by ref, ref-set staleness) must leave the TSDB in
the same state bit for bit: same series, sample values, ``up`` series,
exemplars and staleness markers, and the same accepted/rejected
payloads.  Both managers share the fetch and ``up`` bookkeeping; the
oracle replaces the parse step, the sample apply step and the
failed-scrape staleness pass.
"""

from __future__ import annotations

from repro.tsdb import exposition
from repro.tsdb.model import Labels
from repro.tsdb.scrape import ScrapeManager, ScrapeTarget, _ScrapeResult

_STALE = float("nan")


class ReferenceScrapeManager(ScrapeManager):
    """Scrape manager over the original parse-everything lane."""

    def __init__(self, storage, config=None, telemetry=None) -> None:
        super().__init__(storage, config, telemetry=telemetry)
        #: Labels each target exposed in its previous successful
        #: scrape, keyed by ``(job, instance)``.
        self._previous_series: dict[tuple[str, str], set[Labels]] = {}

    def _parse(self, target: ScrapeTarget, text: str) -> tuple[list, list, int, int]:
        """Family-ordered ``(Labels, value)`` and ``(Labels, Exemplar)``
        pairs; no cache, so no hits or misses."""
        identity = target.identity_labels()
        batch: list = []
        exemplars: list = []
        for family in exposition.parse(text):
            for point in family.points:
                labels = exposition.to_labels(family.name, point, identity)
                batch.append((labels, point.value))
                if point.exemplar is not None:
                    exemplars.append((labels, point.exemplar))
        return batch, exemplars, 0, 0

    def _apply(self, result: _ScrapeResult, now: float) -> int:
        if not result.ok:
            # A failed target's series all go stale at once.
            key = (result.target.job, result.target.instance)
            for labels in self._previous_series.pop(key, set()):
                self.storage.append(labels, now, _STALE)
        return super()._apply(result, now)

    def _apply_samples(
        self, target: ScrapeTarget, batch: list, now: float, exemplars: list | None = None
    ) -> int:
        """Per-sample append by labels, then label-set staleness."""
        storage = self.storage
        seen: set[Labels] = set()
        samples = 0
        for labels, value in batch:
            storage.append(labels, now, value)
            seen.add(labels)
            samples += 1
        if exemplars:
            for labels, exemplar in exemplars:
                storage.append_exemplar(labels, exemplar, now)
        key = (target.job, target.instance)
        for labels in self._previous_series.get(key, set()) - seen:
            storage.append(labels, now, _STALE)
        self._previous_series[key] = seen
        return samples
