"""Shared infrastructure for the figure/table reproduction benches.

Every bench:

* builds the scaled-down analogue of the paper's experiment (structure
  identical, process/op counts shrunk so a bench finishes in seconds),
* runs it under ``benchmark.pedantic(rounds=1)`` — the simulation is
  deterministic, so repeated rounds only re-measure wall clock,
* prints the same rows/series the paper reports next to the paper's quoted
  values, and
* asserts the *shape*: who wins, roughly by how much, where curves bend.

Scale factors relative to the paper are listed in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.harness.driver import positive_float

SEPARATOR = "\n" + "=" * 72

# -- scale multiplier ---------------------------------------------------------
# The default bench configs are scaled-down analogues of the paper's runs
# (EXPERIMENTS.md lists the factors).  ``--scale N`` multiplies the per-rank
# op counts of the Fig 6/7 benches so larger fractions of paper scale can be
# re-run without editing code:
#
#     PYTHONPATH=src pytest benchmarks/test_fig6_scaling.py --scale 4
#     python -m repro.cli fig6 --scale 4
#
# The benches take it as the ``scale`` fixture and hand it to the figure
# functions; 1.0 reproduces the defaults bit for bit.
def pytest_addoption(parser):
    parser.addoption(
        "--scale",
        type=positive_float,
        default=1.0,
        help="work multiplier for the Fig 6/7 benches (default 1.0)",
    )


@pytest.fixture
def scale(request) -> float:
    # The default covers the conftest being loaded non-initially (e.g.
    # ``pytest`` from the repo root), where --scale is unregistered.
    return request.config.getoption("--scale", default=1.0)


def emit(text: str) -> None:
    """Print a bench report block (shown with pytest -s / in captured out)."""
    print(SEPARATOR)
    print(text)


@pytest.fixture
def report():
    return emit


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
