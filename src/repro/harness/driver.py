"""One row loop and one bench driver for every harness.

A bench is a list of labelled rows (aggregation sizes, admission bounds,
fault plans, ...).  :func:`run_rows` runs each row once and tells the
instruments which row they are recording; the public ``run_*`` functions
and the CLI both go through it.  Harnesses report simulated time only —
host time is the ledger's job (``benchmarks/ledger``).

A :class:`Harness` record declares what one ``repro.cli`` bench
subcommand is — its name, flags, how to run / render / emit / check a
report, and which instruments apply — and :func:`run_bench` is the single
code path that executes one: instruments, rendering, ``--emit``, every
artifact write, and ``--check`` -> ``CHECK FAILED`` -> exit code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.obs.exporters import write_json
from repro.obs.instruments import Instruments, row_path

__all__ = ["Harness", "INSTRUMENTS", "flag", "positive_float", "run_bench",
           "run_rows"]


def flag(option: str, **kwargs) -> Tuple[str, Dict]:
    """One of a harness's own flags, spelled like ``add_argument``."""
    return option, kwargs


#: every instrument a harness can declare, in artifact order
INSTRUMENTS: Tuple[str, ...] = ("trace", "metrics", "flight")


def positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def run_rows(rows: Sequence[Tuple[str, object]],
             run_row: Callable[[object, Optional[Callable]], object],
             instrument: Optional[Callable] = None) -> List:
    """Run every ``(label, row)`` once; returns one fields object per row.

    ``run_row(row, instrument)`` runs the row; an :class:`Instruments`
    is told the row's label first, so its artifacts are named per row.
    """
    out: List = []
    for label, row in rows:
        if isinstance(instrument, Instruments):
            instrument.label = label
        out.append(run_row(row, instrument))
    return out


@dataclass(frozen=True)
class Harness:
    """What one bench subcommand is (see the module docstring)."""

    name: str                       # repro.cli subcommand
    help: str
    stem: str                       # default artifact names: <stem>_trace, ...
    #: defaults of the shared flags this bench takes, by dest — any of
    #: nodes / procs / scale, plus ``emit`` (the default ``--emit`` path)
    shared: Mapping[str, object]
    flags: Sequence[Tuple[str, Dict]]  # its own: flag(...) entries
    run: Callable                   # (args, instrument) -> report
    render: Callable                # (report, args) -> text
    emit: Callable                  # report -> {row label: JSON payload}
    check: Optional[Callable] = None  # (report, args) -> failure strings
    #: args any of which turns ``check`` on; empty = always enforced
    gate: Tuple[str, ...] = ("check",)
    instruments: Tuple[str, ...] = INSTRUMENTS
    flight_interval: float = 1e-3   # flight-recorder cadence, sim seconds
    flight_select: Tuple[str, ...] = ()
    pid_stride: int = 1000          # Chrome-trace pid offset between rows

    def attach(self, **outputs) -> Instruments:
        """An :class:`Instruments` with this bench's recorder settings."""
        outputs.setdefault("flight_interval", self.flight_interval)
        return Instruments(flight_select=self.flight_select,
                           pid_stride=self.pid_stride, **outputs)


def _instruments(harness: Harness, args) -> Optional[Instruments]:
    """The instruments ``args`` ask for; None (nothing built) when none."""
    outputs = {
        "trace": getattr(args, "trace", None),
        "metrics": getattr(args, "metrics_out", None),
        "flight": getattr(args, "flight_recorder", None),
    }
    if not any(outputs.values()):
        return None
    if outputs["flight"]:
        outputs["flight_interval"] = args.flight_interval
    return harness.attach(**outputs)


def run_bench(harness: Harness, args) -> int:
    """Execute one bench subcommand; returns the process exit code."""
    ins = _instruments(harness, args)
    report = harness.run(args, ins)
    print(harness.render(report, args))
    if args.emit:
        payloads = harness.emit(report)
        for label, payload in payloads.items():
            path = row_path(args.emit, label, len(payloads))
            print(f"wrote {write_json(payload, path)}")
    if ins is not None:
        for line in ins.write():
            print(line)
    failures: List[str] = []
    if harness.check is not None and (
            not harness.gate or any(getattr(args, g) for g in harness.gate)):
        failures = harness.check(report, args)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0
