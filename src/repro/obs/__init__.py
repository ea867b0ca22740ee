"""Observability layer: the unified metrics registry and RPC span tracing.

Every simulation gets a lazily-created :class:`~repro.obs.registry.MetricsRegistry`
(namespaced counters / gauges / histograms — the factory behind every
layer's observables) and, when explicitly installed, a
:class:`~repro.obs.span.Tracer` that follows one logical op across the
full RoR pipeline as parent/child spans.  Tracing is off by default and
purely observational: a traced-off run is bit-identical to a build
without this package, and a traced-on run produces the same simulated
results (spans only read ``sim.now``; they never schedule events).

See ``docs/OBSERVABILITY.md`` for the naming scheme, span stages and
exporter formats.
"""

from repro.obs.registry import (
    MetricsRegistry,
    SLO_QUANTILES,
    percentile_summary,
    publish_scheduler_metrics,
    registry_of,
)
from repro.obs.span import (
    STAGE_NAMES,
    Span,
    Tracer,
    install_tracer,
    tracer_of,
)
from repro.obs.exporters import (
    SPAN_SCHEMA,
    chrome_trace,
    span_record,
    validate_chrome_trace,
    validate_span_log,
    write_chrome_trace,
    write_json,
    write_span_jsonl,
)
from repro.obs.series import FlightRecorder, recorder_of, select_matches
from repro.obs.skew import SkewDetector, SpaceSavingSketch
from repro.obs.slo import SLOMonitor, SLORule, counter_sli, latency_sli
from repro.obs.critpath import analyze as critpath_analyze
from repro.obs.critpath import load_spans
from repro.obs.diff import (
    FINGERPRINT_CODES,
    diff_paths,
    diff_runs,
    load_artifact,
    render_diff,
)
from repro.obs.instruments import Instruments, suffixed
from repro.obs.report import (
    render_dashboard,
    validate_dashboard,
    write_dashboard,
)

__all__ = [
    "MetricsRegistry",
    "SLO_QUANTILES",
    "percentile_summary",
    "publish_scheduler_metrics",
    "registry_of",
    "Span",
    "Tracer",
    "STAGE_NAMES",
    "install_tracer",
    "tracer_of",
    "SPAN_SCHEMA",
    "chrome_trace",
    "span_record",
    "validate_chrome_trace",
    "validate_span_log",
    "write_chrome_trace",
    "write_json",
    "write_span_jsonl",
    "FlightRecorder",
    "recorder_of",
    "select_matches",
    "Instruments",
    "suffixed",
    "SkewDetector",
    "SpaceSavingSketch",
    "SLOMonitor",
    "SLORule",
    "counter_sli",
    "latency_sli",
    "critpath_analyze",
    "load_spans",
    "FINGERPRINT_CODES",
    "diff_paths",
    "diff_runs",
    "load_artifact",
    "render_diff",
    "render_dashboard",
    "validate_dashboard",
    "write_dashboard",
]
