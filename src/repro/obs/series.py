"""Flight recorder: continuous zero-perturbation sampling.

The :class:`FlightRecorder` is the repo's one time-series sampler, a
black-box recorder: at a fixed sim-time cadence it snapshots *selected
registry metrics* — counter/gauge values and histogram quantiles — and
any probes hung on it (:meth:`~FlightRecorder.add_probe`: the Fig-4
NIC / memory / packet-rate closures) into sim-time-indexed
:class:`TimeSeries` ring buffers, with no dry run and no knowledge of
when the workload ends.

Its run loop is :func:`~repro.simnet.trace.pump_samples`, for the
**zero-perturbation** guarantee: the clock only advances by processing
real events, or by jumping across an idle gap the unrecorded run would
cross anyway.  ``recorder.pump`` is a drop-in replacement for
``Cluster.run`` — :meth:`FlightRecorder.install` is the one place a
recorder takes it over — so a recorded run retires the identical event
sequence (identical simulated results) as an unrecorded one; only the
sampled series differ from nothing at all.

Per-tick listeners (the skew detector and SLO monitor) hang off
:meth:`add_listener` and share the recorder's :class:`EventLog`, so one
pump drives the whole monitoring stack; a harness finds the recorder its
``instrument`` installed with :func:`recorder_of`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.registry import MetricsRegistry, registry_of
from repro.simnet.stats import Counter, Gauge, Histogram
from repro.simnet.trace import EventLog, TimeSeries, pump_samples

__all__ = ["FlightRecorder", "recorder_of", "select_matches"]

#: the quantile series recorded per histogram (``{name}/p50``,
#: ``{name}/p99``), alongside the sample-count series ``{name}/n``
QUANTILES = (0.5, 0.99)

#: bound on the shared :class:`EventLog` (alerts, skew events)
EVENT_LIMIT = 4096


def select_matches(name: str, selectors: Optional[Sequence[str]]) -> bool:
    """True when a metric name matches any selector (or there are none).

    Selector shapes, mirroring the registry's naming scheme:

    * trailing ``/`` or ``.`` — prefix match (``"serving/"``,
      ``"serving-map."``);
    * trailing ``*`` — raw prefix match for instance-numbered families
      (``"rpcc*"`` catches ``rpcc0/...``, ``rpcc1/...``);
    * leading ``/`` — component-anchored suffix match (``"/ops"``);
    * otherwise — exact name.
    """
    if not selectors:
        return True
    for sel in selectors:
        if not sel:
            continue
        if sel[-1] in "/.":
            if name.startswith(sel):
                return True
        elif sel[-1] == "*":
            if name.startswith(sel[:-1]):
                return True
        elif sel[0] == "/":
            if name.endswith(sel):
                return True
        elif name == sel:
            return True
    return False


class FlightRecorder:
    """Whole-registry sampler with bounded ring-buffer series.

    Parameters
    ----------
    sim:
        The simulation to record (its lazily-attached registry is read).
    interval:
        Sampling cadence in sim-seconds.
    maxlen:
        Ring-buffer bound per series — only the most recent ``maxlen``
        samples are retained (``TimeSeries.dropped`` counts evictions).
    select:
        Metric-name selectors (see :func:`select_matches`); ``None``
        records the entire registry.
    """

    def __init__(self, sim, interval: float, maxlen: int = 512,
                 select: Optional[Sequence[str]] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.sim = sim
        self.registry: MetricsRegistry = registry_of(sim)
        self.interval = interval
        self.maxlen = maxlen
        self.select = list(select) if select is not None else None
        self.series: Dict[str, TimeSeries] = {}
        self.events = EventLog(sim, limit=EVENT_LIMIT)
        #: harness-specific payload sections (serving: ``skew``, ``slo``)
        self.extra: Dict[str, Dict] = {}
        self.samples = 0
        #: probe calls that raised (the sample is skipped, not recorded)
        self.probe_errors = 0
        self._probes: Dict[str, Callable[[], float]] = {}
        self._listeners: List[Callable[[float], None]] = []
        self._next: Optional[float] = None

    # -- wiring ---------------------------------------------------------------
    def add_listener(self, fn: Callable[[float], None]) -> None:
        """Register a per-tick hook ``fn(now)`` (skew/SLO monitors)."""
        self._listeners.append(fn)

    def add_probe(self, name: str, fn: Callable[[], float]) -> TimeSeries:
        """Record ``fn()`` into series ``name`` (returned) every tick,
        whatever ``select`` says (the Fig-4 NIC / memory / packet-rate
        closures)."""
        self._probes[name] = fn
        return self._series(name)

    def install(self, cluster) -> "FlightRecorder":
        """Route ``cluster.run`` through :meth:`pump` (instance attr).

        One pump per cluster: a second recorder would silently starve
        the first, so refuse.
        """
        if "run" in vars(cluster):
            raise RuntimeError("cluster.run is already driven by a sample pump")
        cluster.run = self.pump
        return self

    # -- sampling -------------------------------------------------------------
    def _series(self, name: str) -> TimeSeries:
        ts = self.series.get(name)
        if ts is None:
            ts = TimeSeries(name, maxlen=self.maxlen)
            self.series[name] = ts
        return ts

    def tick(self) -> None:
        """Record one sample of every selected metric, then of every
        probe, at the current time.

        Metrics are visited in sorted-name order and series are created
        lazily, so metrics registered mid-run simply start recording at
        their first post-registration tick — deterministically.  A probe
        that raises is skipped for this tick and counted in
        ``probe_errors``: one faulty probe must not stop the recorder or
        silence the others.
        """
        now = self.sim.now
        self.samples += 1
        registry = self.registry
        for name in registry.names():
            if not select_matches(name, self.select):
                continue
            metric = registry.get(name)
            if isinstance(metric, (Counter, Gauge)):
                self._series(name).record(now, metric.value)
            elif isinstance(metric, Histogram):
                self._series(f"{name}/n").record(now, float(metric.n))
                for q in QUANTILES:
                    self._series(f"{name}/p{100 * q:g}").record(
                        now, metric.quantile(q))
        for name, probe in self._probes.items():
            try:
                value = float(probe())
            except Exception:
                self.probe_errors += 1
                continue
            self.series[name].record(now, value)
        for fn in self._listeners:
            fn(now)

    def pump(self, until: Optional[float] = None) -> float:
        """Run the simulation, sampling every ``interval`` sim-seconds.

        Same zero-perturbation contract and sample boundary as
        :func:`~repro.simnet.trace.pump_samples` (one bounded drain per
        tick; a tick due at ``t`` sees every entry at ``t``), with a
        continuous cadence instead of a pre-armed sample list.  After a long
        inter-phase gap the cadence re-anchors at the current time rather
        than replaying every missed nominal tick.
        """
        sim = self.sim
        if self._next is None:
            self._next = sim.now + self.interval

        def fire():
            self.tick()
            nxt = self._next + self.interval
            if nxt <= sim.now:  # re-anchor after an inter-phase gap
                nxt = sim.now + self.interval
            self._next = nxt

        return pump_samples(sim, until, lambda: self._next, fire)

    # -- export ---------------------------------------------------------------
    def payload(self) -> Dict:
        """JSON-ready artifact: sorted series + the shared event log.

        Everything is simulated state, so same-seed reruns produce
        byte-identical payloads (the CI flight-recorder leg diffs them).
        """
        return {
            "kind": "flight_recorder",
            "interval": self.interval,
            "maxlen": self.maxlen,
            "quantiles": list(QUANTILES),
            "samples": self.samples,
            "series": {
                name: {
                    "times": list(ts.times),
                    "values": list(ts.values),
                    "dropped": ts.dropped,
                }
                for name, ts in sorted(self.series.items())
            },
            "events": [[t, kind, payload]
                       for (t, kind, payload) in self.events.entries],
            "events_dropped": self.events.dropped,
            **self.extra,
        }


def recorder_of(cluster) -> Optional[FlightRecorder]:
    """The recorder whose pump drives ``cluster.run`` (None when unrecorded)."""
    owner = getattr(vars(cluster).get("run"), "__self__", None)
    return owner if isinstance(owner, FlightRecorder) else None
