"""Fleet metrics: labelled metric families and cross-instance rollup.

A single :class:`~repro.obs.metrics.MetricsRegistry` describes one
program instance.  A *farm* (:mod:`repro.runtime.farm`) runs thousands,
so this module adds the two missing pieces:

* **labelled families** — :class:`CounterFamily` / :class:`GaugeFamily`
  / :class:`HistogramFamily` key one logical metric by a tuple of label
  values (``instance``, ``program``, ``trigger``, …).  The hot path is
  one dict lookup returning the same plain-int ``Counter`` / ``Gauge`` /
  ``Histogram`` objects :mod:`repro.obs.metrics` uses everywhere, so a
  labelled bump costs what an unlabelled one does plus the lookup;

* **rollup** — :func:`merge_registries` folds N per-instance
  registries into one fleet snapshot by each metric kind's merge rule
  (:mod:`repro.obs.metrics`): counters sum, gauges aggregate (sum of
  values, min of mins, max of maxes), and histograms merge
  bucket-by-bucket so the result yields true **cross-instance
  percentiles** (the p99 over every reaction on every instance, not an
  average of per-instance p99s).  :func:`merge_snapshots` and
  :func:`merge_family_snapshots` rebuild snapshot dicts (a federated
  shard's) into registries first and fold them the same way.

Everything stays pure data: a family snapshot is a nested dict of
primitives, directly JSON-serialisable and renderable by
:func:`repro.obs.prom.render_prom`.
"""

from __future__ import annotations

from copy import copy
from typing import Optional, Sequence

from .metrics import (POW2_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, fold_metrics)


def _label_key(values: Sequence) -> tuple:
    return tuple(str(v) for v in values)


class _Family:
    """One named metric, many label-keyed children.

    ``labels(*values)`` is the hot path: a single dict lookup when the
    series exists, lazy creation when it does not.  ``values`` must match
    ``labelnames`` positionally.
    """

    __slots__ = ("name", "labelnames", "children")

    kind = "untyped"

    def __init__(self, name: str, labelnames: Sequence[str]):
        self.name = name
        self.labelnames = tuple(labelnames)
        self.children: dict[tuple, object] = {}

    def labels(self, *values):
        key = _label_key(values)
        child = self.children.get(key)
        if child is None:
            if len(key) != len(self.labelnames):
                raise ValueError(
                    f"family {self.name!r} takes {len(self.labelnames)} "
                    f"label(s) {self.labelnames}, got {len(key)}")
            child = self.children[key] = self._make()
        return child

    def _make(self):
        return self.metric()

    def merge(self, other: "_Family") -> "_Family":
        """Fold every series of ``other`` into the same-labelled one."""
        fold_metrics(self.children, other.children)
        return self

    def series(self) -> list[tuple[tuple, object]]:
        """Sorted ``(label_values, child)`` pairs."""
        return sorted(self.children.items())

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "labels": list(self.labelnames),
            "series": [[list(key), child.snapshot()]
                       for key, child in self.series()],
        }


class CounterFamily(_Family):
    """``Counter`` per label tuple."""

    kind = "counter"
    metric = Counter

    def total(self) -> int:
        return sum(c.value for c in self.children.values())


class GaugeFamily(_Family):
    """``Gauge`` per label tuple."""

    kind = "gauge"
    metric = Gauge


class HistogramFamily(_Family):
    """``Histogram`` per label tuple (shared bucket bounds)."""

    __slots__ = ("bounds",)

    kind = "histogram"

    def __init__(self, name: str, labelnames: Sequence[str],
                 bounds: Sequence[int] = POW2_BUCKETS):
        super().__init__(name, labelnames)
        self.bounds = tuple(bounds)

    def _make(self) -> Histogram:
        return Histogram(self.bounds)

    def aggregate(self) -> Histogram:
        """Merge every series into one histogram (cross-series
        percentiles come from its bucket counts)."""
        merged = Histogram(self.bounds)
        for child in self.children.values():
            merged.merge(child)
        return merged


class FleetRegistry:
    """Named labelled families, lazily created — the fleet-level
    analogue of :class:`~repro.obs.metrics.MetricsRegistry`.

    Re-requesting a family checks the label schema, so two call sites
    cannot silently create incompatible series under one name.
    """

    def __init__(self) -> None:
        self.families: dict[str, _Family] = {}

    def _family(self, cls, name: str, labelnames: Sequence[str],
                **kwargs) -> _Family:
        fam = self.families.get(name)
        if fam is None:
            fam = self.families[name] = cls(name, labelnames, **kwargs)
            return fam
        if not isinstance(fam, cls) or fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"family {name!r} already registered as {fam.kind} with "
                f"labels {fam.labelnames}")
        return fam

    def counter_family(self, name: str,
                       labelnames: Sequence[str]) -> CounterFamily:
        return self._family(CounterFamily, name, labelnames)

    def gauge_family(self, name: str,
                     labelnames: Sequence[str]) -> GaugeFamily:
        return self._family(GaugeFamily, name, labelnames)

    def histogram_family(self, name: str, labelnames: Sequence[str],
                         bounds: Sequence[int] = POW2_BUCKETS
                         ) -> HistogramFamily:
        return self._family(HistogramFamily, name, labelnames,
                            bounds=bounds)

    def merge(self, other: "FleetRegistry") -> "FleetRegistry":
        """Fold every family of ``other`` in, series by series.  The same
        family under another kind or label schema raises — shards
        disagreeing about a schema is a deploy skew worth surfacing, not
        averaging away."""
        for name, fam in other.families.items():
            mine = self.families.get(name)
            if mine is None:
                mine = self.families[name] = copy(fam)
                mine.children = {}      # same schema, no series yet
            elif (mine.kind != fam.kind
                    or mine.labelnames != fam.labelnames):
                raise ValueError(
                    f"family {name!r} schema skew across shards: "
                    f"{mine.kind}{list(mine.labelnames)} vs "
                    f"{fam.kind}{list(fam.labelnames)}")
            mine.merge(fam)
        return self

    def snapshot(self) -> dict:
        return {name: fam.snapshot()
                for name, fam in sorted(self.families.items())}


# ------------------------------------------------------------------ merge
#: ``merge_histogram(into, other)`` folds ``other`` into ``into``
merge_histogram = Histogram.merge


def merge_registries(registries: Sequence[MetricsRegistry]) -> dict:
    """Roll N live registries up into one snapshot.

    The result has the exact shape of a single-instance snapshot plus an
    ``instances`` count, so every renderer (``render_stats``,
    ``render_prom``) works on it unchanged.
    """
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return {"instances": len(registries), **merged.snapshot()}


_FAMILIES = {"counter": CounterFamily, "gauge": GaugeFamily,
             "histogram": HistogramFamily}


def _metric(kind: str, value):
    """Rebuild one snapshot value — a registry entry or a family series
    — into its metric object."""
    if kind == "counter":
        metric = Counter()
        metric.value = value
    elif kind == "gauge":
        metric = Gauge()
        metric.value = value["value"]
        # a snapshot without ``min`` counts its value as the min
        metric.min = value.get("min", value["value"])
        metric.max = value["max"]
    else:
        # the buckets carry the bounds: no out-of-band schema is needed
        metric = Histogram(b for b, _ in value["buckets"] if b != "inf")
        metric.counts = [c for _, c in value["buckets"]]
        metric.count = value["count"]
        metric.total = value["sum"]
        metric.min = value["min"]
        metric.max = value["max"]
    return metric


def _registry(snap: dict) -> MetricsRegistry:
    """Rebuild a :meth:`MetricsRegistry.snapshot` dict."""
    registry = MetricsRegistry()
    for kind, metrics in (("counter", registry.counters),
                          ("gauge", registry.gauges),
                          ("histogram", registry.histograms)):
        for name, value in snap.get(f"{kind}s", {}).items():
            metrics[name] = _metric(kind, value)
    return registry


def _fleet(snap: dict) -> FleetRegistry:
    """Rebuild a :meth:`FleetRegistry.snapshot` dict."""
    fleet = FleetRegistry()
    for name, fam in snap.items():
        family = fleet.families[name] = _FAMILIES[fam["kind"]](
            name, fam["labels"])
        for key, value in fam["series"]:
            family.children[tuple(key)] = _metric(fam["kind"], value)
    return fleet


def merge_histogram_snapshots(snaps: Sequence[dict]) -> dict:
    """Merge N histogram snapshots; percentiles are recomputed from the
    merged buckets, so they are true cross-instance percentiles."""
    merged: Optional[Histogram] = None
    for snap in snaps:
        h = _metric("histogram", snap)
        merged = h if merged is None else merged.merge(h)
    return (merged if merged is not None else Histogram()).snapshot()


def merge_snapshots(snaps: Sequence[dict]) -> dict:
    """Roll N :meth:`MetricsRegistry.snapshot` dicts up into one: each is
    rebuilt into a registry and folded by :func:`merge_registries`."""
    return merge_registries([_registry(snap) for snap in snaps])


def merge_family_snapshots(snaps: Sequence[dict]) -> dict:
    """Roll N :meth:`FleetRegistry.snapshot` dicts up into one.

    The cross-*shard* analogue of :func:`merge_snapshots`: each dict is
    rebuilt into a :class:`FleetRegistry` and folded by
    :meth:`FleetRegistry.merge`, so series are keyed on (family, label
    values) and a schema skew across shards raises.
    """
    merged = FleetRegistry()
    for snap in snaps:
        merged.merge(_fleet(snap))
    return merged.snapshot()


__all__ = ["CounterFamily", "GaugeFamily", "HistogramFamily",
           "FleetRegistry", "merge_histogram", "merge_registries",
           "merge_histogram_snapshots", "merge_snapshots",
           "merge_family_snapshots"]
