"""Smoke tests: every shipped example runs clean as a subprocess.

The examples are the library's front door; each must execute end to end
(they contain their own assertions) with status 0 and produce the output
their docstrings promise.
"""

import os
import subprocess
import sys


EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str) -> str:
    path = os.path.join(EXAMPLES_DIR, name)
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, (
        f"{name} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
    )
    return proc.stdout


class TestExamples:
    def test_all_examples_present(self):
        present = {f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")}
        expected = {
            "quickstart.py", "genome_assembly.py", "distributed_sort.py",
            "persistent_kv_store.py", "async_and_callbacks.py",
        }
        assert expected == present  # every shipped example has a smoke test

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "ranks finished" in out
        assert "op-count accumulated by upsert: 16" in out

    def test_genome_assembly(self):
        out = run_example("genome_assembly.py")
        assert "both exact" in out
        assert "speedup" in out

    def test_distributed_sort(self):
        out = run_example("distributed_sort.py")
        assert out.count("True") >= 3  # all scales verified

    def test_persistent_kv_store(self):
        out = run_example("persistent_kv_store.py")
        assert "recovered" in out and "CRC" in out

    def test_async_and_callbacks(self):
        out = run_example("async_and_callbacks.py")
        assert "1 invocation(s)" in out
        assert "moved the function" in out

