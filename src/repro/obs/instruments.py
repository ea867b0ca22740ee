"""The one instrument seam: ``instrument=Instruments(...)``.

Every harness and app takes a single observability keyword,
``instrument``: a callable invoked **once per instrumented run** with the
runtime (an :class:`~repro.core.runtime.HCL`, or a bare ``Simulator`` for
the kernel bench) after the containers are built and before the first
event is processed.  It must schedule no event and draw no random number
— whatever it attaches only reads the simulation — so an instrumented run
retires the identical event sequence as a plain one.

:class:`Instruments` *is* such a callable, built from the outputs asked
for: span tracing, a metrics snapshot, a flight recorder — all three on
the simulated clock; host time is the ledger's job
(``benchmarks/ledger``).  It installs the tracer / recorder on the
runtime it is handed, remembers ``(row label, sim, recorder)`` per run,
and :meth:`write` emits every artifact under one naming rule:
``PATH_<label>.ext`` per run (:func:`suffixed`), plain ``PATH`` when the
bench had a single run.
"""

from __future__ import annotations

import os
from typing import List, NamedTuple, Optional, Sequence, Union

from repro.obs.exporters import (
    write_chrome_trace, write_json, write_span_jsonl,
)
from repro.obs.registry import publish_scheduler_metrics, registry_of
from repro.obs.series import FlightRecorder
from repro.obs.span import install_tracer, tracer_of

__all__ = ["Instruments", "InstrumentedRun", "row_path", "suffixed"]

#: an output is off (None/False), attached but not written (True), or a path
Output = Union[None, bool, str]


def suffixed(path: str, label: str) -> str:
    """``out/foo.json`` + ``bar`` -> ``out/foo_bar.json``.

    The label goes before the *basename's* extension (appended when there
    is none), so dots in directory names are left alone.
    """
    head, base = os.path.split(path)
    stem, ext = os.path.splitext(base)
    return os.path.join(head, f"{stem}_{label}{ext}")


def row_path(path: str, label: str, rows: int) -> str:
    """The label-suffix rule: ``PATH_<label>.ext`` per row, plain ``PATH``
    when the bench had a single row."""
    return path if rows == 1 else suffixed(path, label)


class InstrumentedRun(NamedTuple):
    label: str
    sim: object
    recorder: Optional[FlightRecorder]


class Instruments:
    """Attach the requested instruments to each run; write their artifacts.

    ``trace`` / ``metrics`` / ``flight`` are output paths (``trace`` is a
    prefix: ``PREFIX.jsonl`` + ``PREFIX_chrome.json``), or ``True`` to
    attach without writing — read :attr:`runs` instead.  The row loop
    sets :attr:`label` before each instrumented run.
    """

    def __init__(self, *, trace: Output = None, metrics: Output = None,
                 flight: Output = None, flight_interval: float = 1e-3,
                 flight_select: Optional[Sequence[str]] = None,
                 pid_stride: int = 0):
        self.trace = trace
        self.metrics = metrics
        self.flight = flight
        self.flight_interval = flight_interval
        self.flight_select = flight_select
        #: Chrome-trace pid offset between consecutive runs, so one
        #: Perfetto session can hold every row side by side
        self.pid_stride = pid_stride
        self.label = ""
        self.runs: List[InstrumentedRun] = []

    def __call__(self, runtime) -> None:
        sim = getattr(runtime, "sim", runtime)
        if self.trace:
            install_tracer(sim)
        recorder = None
        if self.flight:
            # The ring bound stays FlightRecorder's default (512 samples
            # per series).  install() raises if another recorder already
            # drives cluster.run.
            recorder = FlightRecorder(
                sim, interval=self.flight_interval,
                select=self.flight_select,
            ).install(runtime.cluster)
        self.runs.append(InstrumentedRun(self.label, sim, recorder))

    def write(self) -> List[str]:
        """Write every requested artifact; returns the lines to print."""
        lines: List[str] = []
        rows = len(self.runs)
        for i, run in enumerate(self.runs):
            if isinstance(self.trace, str):
                prefix = row_path(self.trace, run.label, rows)
                spans = tracer_of(run.sim).spans
                n = write_span_jsonl(spans, f"{prefix}.jsonl")
                write_chrome_trace(spans, f"{prefix}_chrome.json",
                                   pid_base=self.pid_stride * i)
                lines.append(f"wrote {prefix}.jsonl ({n} spans) and "
                             f"{prefix}_chrome.json")
            if isinstance(self.metrics, str):
                publish_scheduler_metrics(run.sim)
                snap = registry_of(run.sim).snapshot()
                path = write_json(
                    snap, row_path(self.metrics, run.label, rows))
                lines.append(f"wrote {path} ({len(snap)} metrics)")
            if isinstance(self.flight, str):
                payload = run.recorder.payload()
                path = write_json(
                    payload, row_path(self.flight, run.label, rows))
                lines.append(f"wrote {path} ({payload['samples']} samples, "
                             f"{len(payload['series'])} series)")
        return lines
