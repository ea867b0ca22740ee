"""Multi-window burn-rate SLO monitoring.

Implements the SRE-workbook alerting discipline over the simulation's
own metrics: an SLO (say 99.9% availability) grants an error budget of
``1 - target``; the **burn rate** over a window is the bad-event fraction
in that window divided by the budget (burn 1.0 = spending exactly the
budget).  An alert requires *both* a short window (fast reaction, and it
clears quickly once the episode ends) and a long window (immunity to
single-tick blips) to exceed the rule's threshold.

Windows are expressed in sim-seconds — a "1h-equivalent" long window in
a run whose whole life is 20 sim-milliseconds is just a proportionally
scaled span; harnesses default them to small multiples of the
flight-recorder cadence.

Two SLI shapes cover the serving harness:

* :func:`counter_sli` — ratio of bad-event counters (gave-up sheds,
  errors) to a total counter (availability SLI);
* :func:`latency_sli` — fraction of requests over a latency objective,
  via :meth:`~repro.simnet.stats.Histogram.count_above` (conservative on
  log2 buckets; exact at bucket boundaries).

The monitor only *reads* metrics and appends to an :class:`EventLog`
(``slo.alert`` / ``slo.clear`` with sim timestamps) — no simulator
events, so monitored runs keep identical simulated results, and the
alert stream is deterministic across same-seed reruns.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.obs.registry import MetricsRegistry
from repro.simnet.stats import Histogram
from repro.simnet.trace import EventLog

__all__ = ["SLORule", "SLOMonitor", "counter_sli", "latency_sli"]

#: an SLI probe returns cumulative ``(bad, total)`` event counts
SLIProbe = Callable[[], Tuple[float, float]]


def counter_sli(registry: MetricsRegistry, bad: Sequence[str],
                total: Sequence[str]) -> SLIProbe:
    """Availability-style SLI from counter names: bad / (total + bad).

    ``bad`` counters (e.g. ``serving/shed_gaveup``, ``serving/errors``)
    are failed requests *not* included in the ``total`` counters (e.g.
    ``serving/completed``), so the denominator adds them back in.
    """
    def probe() -> Tuple[float, float]:
        b = 0.0
        for name in bad:
            metric = registry.get(name)
            if metric is not None:
                b += float(metric.value)
        t = b
        for name in total:
            metric = registry.get(name)
            if metric is not None:
                t += float(metric.value)
        return b, t
    return probe


def latency_sli(registry: MetricsRegistry, histogram: str,
                threshold: float) -> SLIProbe:
    """Latency SLI: requests over ``threshold`` / all requests."""
    def probe() -> Tuple[float, float]:
        metric = registry.get(histogram)
        if not isinstance(metric, Histogram):
            return 0.0, 0.0
        return float(metric.count_above(threshold)), float(metric.n)
    return probe


class SLORule:
    """One multi-window burn-rate alerting rule.

    Fires when the burn rate over *both* ``short_window`` and
    ``long_window`` sim-seconds reaches ``threshold`` (e.g. threshold 10
    on a 99.9% target = burning a month's budget in ~3 days, scaled).
    """

    def __init__(self, name: str, sli: SLIProbe, target: float,
                 short_window: float, long_window: float,
                 threshold: float = 10.0):
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if short_window <= 0 or long_window < short_window:
            raise ValueError("need 0 < short_window <= long_window")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.name = name
        self.sli = sli
        self.target = target
        self.budget = 1.0 - target
        self.short_window = short_window
        self.long_window = long_window
        self.threshold = threshold
        # (t, bad, total) cumulative samples, trimmed to the long window
        self._history: List[Tuple[float, float, float]] = []
        self.firing = False
        self.alerts = 0

    def _burn(self, now: float, window: float) -> float:
        """Burn rate over ``[now - window, now]`` from cumulative samples."""
        history = self._history
        if not history:
            return 0.0
        latest = history[-1]
        base = None
        cutoff = now - window
        for sample in history:
            if sample[0] >= cutoff:
                base = sample
                break
        if base is None or base is latest:
            return 0.0
        bad = latest[1] - base[1]
        total = latest[2] - base[2]
        if total <= 0:
            return 0.0
        return (bad / total) / self.budget

    def observe(self, now: float) -> Dict:
        """Record one SLI sample; returns the rule's instantaneous state."""
        bad, total = self.sli()
        history = self._history
        # Keep one sample older than the long window as the delta base.
        history.append((now, bad, total))
        cutoff = now - self.long_window
        drop = 0
        while drop < len(history) - 2 and history[drop + 1][0] < cutoff:
            drop += 1
        if drop:
            del history[:drop]
        short = self._burn(now, self.short_window)
        long = self._burn(now, self.long_window)
        return {
            "rule": self.name,
            "bad": bad,
            "total": total,
            "short_burn": short,
            "long_burn": long,
            "breach": short >= self.threshold and long >= self.threshold,
        }


class SLOMonitor:
    """Evaluates burn-rate rules at each flight-recorder tick.

    Alerts are edge-triggered: one ``slo.alert`` event when a rule starts
    breaching and one ``slo.clear`` when it stops, each carrying the sim
    timestamp and both window burns.
    """

    def __init__(self, rules: Sequence[SLORule], event_log: EventLog):
        self.rules = list(rules)
        self.events = event_log
        self.ticks = 0
        self.alerts: List[Dict] = []

    def tick(self, now: float) -> None:
        self.ticks += 1
        for rule in self.rules:
            state = rule.observe(now)
            if state["breach"] and not rule.firing:
                rule.firing = True
                rule.alerts += 1
                alert = {
                    "t": now,
                    "rule": rule.name,
                    "target": rule.target,
                    "short_burn": state["short_burn"],
                    "long_burn": state["long_burn"],
                }
                self.alerts.append(alert)
                self.events.log("slo.alert", alert)
            elif not state["breach"] and rule.firing:
                rule.firing = False
                self.events.log("slo.clear", {
                    "t": now,
                    "rule": rule.name,
                    "short_burn": state["short_burn"],
                    "long_burn": state["long_burn"],
                })

    def summary(self) -> Dict:
        """Per-rule alert counts and final burn state (JSON-ready)."""
        return {
            "ticks": self.ticks,
            "alerts": len(self.alerts),
            "rules": [
                {
                    "rule": rule.name,
                    "target": rule.target,
                    "threshold": rule.threshold,
                    "short_window": rule.short_window,
                    "long_window": rule.long_window,
                    "alerts": rule.alerts,
                    "firing": rule.firing,
                }
                for rule in self.rules
            ],
        }
