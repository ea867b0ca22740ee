"""What the repo keeps is reached: every bench file, committed baseline
and ``repro.cli`` bench or figure subcommand has a CI runner, every line
of the reach census's allow-list names a function with a reason,
importing the package loads no dependency it does not declare, the docs
name only paths, ``repro.cli`` subcommands, ``run_*`` functions and
``repro.…`` names that exist, and every qualified cross-reference in a
``src/`` docstring resolves.

A ``benchmarks/test_*.py`` file outside tier-1's testpaths runs only if a
CI job names it; one that no job names can break unnoticed.  Likewise a
``BENCH_*.json`` baseline no CI ``cmp`` checks pins nothing, and a
``repro.cli`` bench no CI step runs is a harness nobody exercises.
``networkx`` served an app that is gone, so nothing may pull it back into
the import graph.  A doc that names a deleted file or command sends its
reader nowhere.
"""

from __future__ import annotations

import fnmatch
import importlib
import os
import pkgutil
import re
from itertools import product
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workflow() -> str:
    return (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")


def test_every_bench_file_is_run_by_a_ci_job():
    workflow = _workflow()
    benches = sorted(p.relative_to(ROOT).as_posix()
                     for p in (ROOT / "benchmarks").glob("test_*.py"))
    assert benches
    assert [b for b in benches if b not in workflow] == []


def test_every_baseline_is_the_reference_of_a_ci_cmp():
    gated = set(re.findall(r"\bcmp\s+\S+\s+(BENCH_\S+\.json)", _workflow()))
    baselines = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert baselines
    assert [b for b in baselines if b not in gated] == []


def test_every_bench_subcommand_is_run_by_a_ci_step():
    from repro.cli import BENCHES, FIGURES

    invoked = set(re.findall(r"repro\.cli\s+([a-z][a-z0-9-]*)", _workflow()))
    assert [h.name for h in BENCHES + FIGURES if h.name not in invoked] == []


def test_every_allow_list_line_names_a_function_with_a_reason():
    """Each line of ``benchmarks/reach_allow.txt`` names a ``src/repro``
    function the census knows, once, with a reason from its vocabulary."""
    from benchmarks import reach

    known = {reach.name_of(path, name)
             for (path, _line), (name, _count) in reach.functions().items()}
    entries = reach.allow_list()
    names = [name for name, _reason in entries]
    assert entries
    assert [n for n in names if n not in known] == []
    assert [(n, r) for n, r in entries if r not in reach.REASONS] == []
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_networkx_is_neither_declared_nor_imported():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "networkx" not in pyproject
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.apps, repro.harness; "
         "print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


#: the prose the docs rule covers (``benchmarks/ledger/README.md`` belongs
#: to the ledger and is left to it)
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")


def _code_spans(text: str):
    """Every fenced block and inline backtick span of a markdown file."""
    fenced = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    yield from (m.group(1) for m in fenced.finditer(text))
    yield from re.findall(r"`([^`\n]+)`", fenced.sub("", text))


def _docs():
    for pattern in DOCS:
        for path in sorted(ROOT.glob(pattern)):
            yield path.relative_to(ROOT).as_posix(), path.read_text(
                encoding="utf-8")


def _braces(word: str):
    """``BENCH_{agg,serving}.json`` -> each alternative, nesting-free."""
    m = re.search(r"\{([^{}]*)\}", word)
    if m is None:
        return [word]
    head, tail = word[:m.start()], word[m.end():]
    return [head + alt + rest for alt, rest in product(
        m.group(1).split(","), _braces(tail))]


def _repo_path(word: str):
    """The repository location ``word`` names, or None if it names none.

    A word naming a path starts at a top-level directory
    (``tests/test_reach.py``), is a ``.py`` file of a ``src/repro``
    package (``rpc/server.py``), is a ``BENCH*.json`` or an upper-case
    ``.json`` / ``.md`` file (``README.md``), or is a bare
    ``test_*.py``.  Metric names (``rpc/window_stalls``) and artifact
    names (``chaos_trace.jsonl``) are neither.
    """
    word = word.strip("\"'()[],;:").split("::")[0]
    if "<" in word or "://" in word:
        return None
    head = word.split("/")[0]
    if "/" in word:
        if head and (ROOT / head).is_dir():
            return word
        if word.endswith(".py") and (ROOT / "src" / "repro" / head).is_dir():
            return f"src/repro/{word}"
        return None
    if re.fullmatch(r"BENCH[A-Za-z0-9_*{},]*\.json|[A-Z]+\.(json|md)", word):
        return word
    if re.fullmatch(r"test_[a-z0-9_*{},]*\.py", word):
        return f"*/{word}"
    return None


def test_docs_name_only_paths_that_exist():
    missing = []
    for doc, text in _docs():
        for span in _code_spans(text):
            for word in span.split():
                path = _repo_path(word)
                if path is None:
                    continue
                for alt in _braces(path):
                    found = (any(ROOT.glob(alt)) if "*" in alt
                             else (ROOT / alt).exists())
                    if not found and "/" not in alt:
                        found = (ROOT / "docs" / alt).exists()
                    if not found:
                        missing.append((doc, word))
    assert sorted(set(missing)) == []


def test_docs_name_only_cli_subcommands_that_exist():
    from repro.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.choices)
    unknown = []
    for doc, text in _docs():
        for span in _code_spans(text):
            for m in re.finditer(r"repro\.cli\s+(\{[^}]*\}|[a-z][a-z0-9*-]*)",
                                 span):
                for name in m.group(1).strip("{}").split(","):
                    name = name.strip().rstrip("…").strip()
                    if name and not fnmatch.filter(sub.choices, name):
                        unknown.append((doc, name))
    assert sorted(set(unknown)) == []


def test_docs_name_only_run_functions_that_exist():
    """A span that is exactly one ``run_<name>`` identifier names a
    function; a span with a call, a dotted path or a quote (the
    ``run_row(row, instrument)`` parameter, say) is left alone."""
    import repro

    names = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names |= set(vars(importlib.import_module(info.name)))
    unknown = [(doc, span) for doc, text in _docs()
               for span in _code_spans(text)
               if re.fullmatch(r"run_[A-Za-z0-9_]+", span)
               and span not in names]
    assert sorted(set(unknown)) == []


def _resolve(dotted: str, module: str = "repro"):
    """The object ``dotted`` names: a ``repro.…`` path, else a name in
    ``module`` or, as Sphinx looks it up, in any ``repro`` module."""
    import repro

    parts = dotted.split(".")
    if parts[0] == "repro":
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            parts = parts[cut:]
            break
    else:
        homes = [importlib.import_module(module)] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")]
        obj = next((home for home in homes if hasattr(home, parts[0])), None)
        if obj is None:
            raise AttributeError(f"no repro module defines {parts[0]!r}")
    for name in parts:
        obj = getattr(obj, name)
    return obj


def _unresolved(names):
    missing = []
    for where, name, module in names:
        try:
            _resolve(name, module)
        except (ImportError, AttributeError) as err:
            missing.append((where, name, str(err)))
    return sorted(set(missing))


def test_docs_name_only_repro_objects_that_exist():
    names = {(doc, name, "repro") for doc, text in _docs()
             for name in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text)}
    assert len(names) > 50
    assert _unresolved(names) == []


def test_qualified_docstring_references_resolve():
    """``:class:`` / ``:func:`` / ``:meth:`` / ``:mod:`` targets with a dot,
    in the module they are written in."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for ref in re.findall(r":(?:class|func|meth|mod):`~?([\w.]+)`",
                              path.read_text(encoding="utf-8")):
            if "." in ref:
                names.add((path.relative_to(ROOT).as_posix(), ref, module))
    assert len(names) > 50
    assert _unresolved(names) == []
