"""Runtime observability: hook bus, metrics, and trace exporters.

Zero-dependency and off by default — with no subscribers the hook bus is
a guarded no-op and the VM behaves (and performs) exactly as before.
See ``docs/OBSERVABILITY.md`` for the taxonomy and usage.

Public names resolve on first access, so importing the hook bus does not
load the HTTP serving stack.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".hooks": ("HOOK_EVENTS", "HookBus", "HookSubscriber", "EventLog"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "MetricsCollector", "render_stats"),
    ".fleet": ("CounterFamily", "GaugeFamily", "HistogramFamily",
               "FleetRegistry", "merge_histogram",
               "merge_histogram_snapshots", "merge_snapshots",
               "merge_family_snapshots"),
    ".prom": ("render_prom", "write_prom", "PROM_CONTENT_TYPE"),
    ".serve": ("AdminServer",),
    ".federate": ("Federator",),
    ".top": ("Top", "snapshot_url_source"),
    ".export": ("ChromeTraceExporter", "JsonlExporter"),
    ".stream": ("StreamingJsonlExporter", "FlightRecorder", "LineTee"),
    ".profile": ("Profiler",),
    ".causal": ("CausalGraph", "CausalNode", "diff_slices"),
    ".debug": ("TimeTravelDebugger",),
    ".coverage": ("CoverageMap", "DfaEdgeCoverage", "collect_coverage",
                  "coverage_signature"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
