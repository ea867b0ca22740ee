"""Layered performance ledger for the HCL reproduction (see README.md).

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload in one process (the ``BENCHMARK.json``
contract); ``python -m benchmarks.ledger run`` drives all six and writes
one result file; ``python -m benchmarks.ledger agree A.json B.json``
compares two result files metric by metric.
"""
