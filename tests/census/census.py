"""A reachability census of ``src/repro``: which functions the product runs.

Every function the AST finds under ``src/repro`` gets one class:

``product``
    called under at least one product entry point (below), or pinned:
    imported by ``benchmarks/perf`` or named by its ``TRACE_TABLE``;
``test-only``
    called only under the ``tests/`` suite;
``unreached``
    called under nothing.

The product entry points are what README, CI and the verify notes run:
the CLI subcommands (serial, ``--backend pooled`` and ``auto``), the
eight ``examples/*.py``, the paper-artifact benches in ``benchmarks/``
and one repetition of each ``benchmarks/perf`` workload.  Each runs in
its own interpreter under :mod:`tests.census.tracer`, pool workers
included.

Regenerate the committed census from the repository root::

    PYTHONPATH=src:. python -m tests.census.census

``--out FILE`` writes elsewhere (CI diffs that against the committed
file).  Functions that are not ``product`` must be on
``allowlist.txt`` with the consumer that keeps them;
``test_census.py`` checks both files cheaply.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CENSUS = Path(__file__).with_name("census.txt")
ALLOWLIST = Path(__file__).with_name("allowlist.txt")

CLASSES = ("product", "test-only", "unreached")
#: Entry points traced at once (each may start a two-worker pool).
JOBS = 2

_EXAMPLES = sorted(
    p.relative_to(ROOT).as_posix() for p in (ROOT / "examples").glob("*.py")
)
_BENCHES = sorted(
    p.relative_to(ROOT).as_posix() for p in (ROOT / "benchmarks").glob("bench_*.py")
)
_PERF = ("wc_serial", "shuffle_pooled", "campus_ctrl", "hdfs_churn", "pipelines")


def _cli(*args: str) -> tuple[str, ...]:
    return ("module", "repro", *args)


def product_entries(scratch: Path) -> dict[str, tuple[str, ...]]:
    """Label -> tracer arguments for every product entry point."""
    baseline = str(scratch / "lint-baseline.json")
    entries = {
        "demo": _cli("demo"),
        "auto-demo": _cli("--backend", "auto", "demo"),
        "tables": _cli("tables"),
        "curriculum": _cli("curriculum"),
        "syllabus": _cli("syllabus"),
        "figure1": _cli("figure1"),
        "handout": _cli("handout"),
        "handout-execute": _cli("handout", "--execute"),
        "classroom": _cli("classroom", "--seed", "2012"),
        "pooled-classroom": _cli(
            "--backend", "pooled", "--workers", "2", "classroom", "--seed", "2012"
        ),
        "chaos-list": _cli("chaos", "--list"),
        "chaos-one": _cli("chaos", "lost_map_output"),
        "chaos-timeline": _cli("chaos", "kill_datanode", "--timeline"),
        "chaos": _cli("chaos", "all", "--seed", "3"),
        "chaos-sanitize": _cli("chaos", "all", "--seed", "3", "--sanitize"),
        "auto-chaos": _cli("--backend", "auto", "chaos", "all", "--seed", "3"),
        "pooled-chaos": _cli(
            "--backend", "pooled", "--workers", "2", "chaos", "all", "--seed", "3"
        ),
        "pooled-chaos-shm": _cli(
            "--backend", "pooled", "--workers", "2",
            "chaos", "all", "--seed", "3", "--sanitize", "--transport", "shm",
        ),
        "dfsadmin": _cli("dfsadmin", "-saveNamespace", "-metasave"),
        "dfsadmin-no-journal": _cli(
            "dfsadmin", "-saveNamespace", "-metasave", "--no-journal"
        ),
        "lint-json": _cli("lint", "--self", "--jobs", "--pipelines", "--json"),
        "lint-sarif": _cli("lint", "--jobs", "--format", "sarif"),
        "lint-text": _cli("lint", "--self"),
        "lint-families": _cli(
            "lint", "examples", "--family", "jobs", "--family", "sparklite",
            "--family", "hive", "--write-baseline", baseline,
        ),
        "lint-baseline": _cli("lint", "examples", "--baseline", baseline),
        "benches": (
            "pytest", "-q", "-s", "--benchmark-disable", "-p", "no:cacheprovider",
            *_BENCHES,
        ),
    }
    for script in _EXAMPLES:
        entries[script] = ("script", script)
    for name in _PERF:
        entries[f"perf:{name}"] = ("perf", name)
    return entries


TEST_ENTRY = ("pytest", "-q", "-p", "no:cacheprovider", "tests")


# ---------------------------------------------------------------------------
# what the AST finds


@dataclass(frozen=True)
class Function:
    path: str  # relative to src/repro
    qualname: str  # unique within the file (``#2`` for a second def)
    first_line: int  # first decorator line, as co_firstlineno on 3.11
    lines: int

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def functions() -> list[Function]:
    """Every ``def`` under ``src/repro``, in path then source order."""
    found: list[Function] = []
    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        tree = ast.parse(file.read_text(), filename=str(file))
        seen: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    seen[name] = seen.get(name, 0) + 1
                    unique = name if seen[name] == 1 else f"{name}#{seen[name]}"
                    first = min(
                        [child.lineno, *(d.lineno for d in child.decorator_list)]
                    )
                    found.append(
                        Function(path, unique, first, child.end_lineno - first + 1)
                    )
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


# ---------------------------------------------------------------------------
# pins: what benchmarks/perf holds by name


def _code_key(obj) -> str | None:
    obj = inspect.unwrap(obj)
    code = getattr(obj, "__code__", None)
    if code is None or not code.co_filename.startswith(str(SRC)):
        return None
    rel = Path(code.co_filename).relative_to(SRC).as_posix()
    return f"{rel}:{code.co_firstlineno}"


def pinned() -> set[str]:
    """``path:first_line`` of every function ``benchmarks/perf`` imports
    from ``repro`` or names in ``TRACE_TABLE``."""
    targets: list[tuple[str, str]] = []
    for file in sorted((ROOT / "benchmarks" / "perf").rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.split(".")[0] == "repro"
            ):
                targets += [(node.module, alias.name) for alias in node.names]
    from benchmarks.perf.trace import TRACE_TABLE

    for _layer, target in TRACE_TABLE:
        module, qualname = target.split(":")
        targets.append((module, qualname))
    keys = set()
    for module, qualname in targets:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = inspect.getattr_static(obj, part)
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        key = _code_key(obj)
        if key is not None:
            keys.add(key)
    return keys


# ---------------------------------------------------------------------------
# running the entry points


def _trace(label: str, args: tuple[str, ...], out: Path) -> set[str]:
    env = {**os.environ, "PYTHONPATH": f"src{os.pathsep}{ROOT}"}
    subprocess.run(
        [sys.executable, "-m", "tests.census.tracer", str(out), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    reached: set[str] = set()
    for dump in out.parent.glob("reached*"):
        reached.update(dump.read_text().split())
    if not reached:
        raise SystemExit(f"census: entry point {label!r} reached nothing")
    return reached


def classify() -> tuple[list[Function], dict[str, str]]:
    funcs = functions()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        entries = product_entries(scratch)
        # The lint baseline must exist before it is read.
        first = ["lint-families"]
        rest = [label for label in entries if label not in first]

        def run(label: str) -> set[str]:
            out = scratch / label.replace("/", "_").replace(":", "_") / "reached"
            out.parent.mkdir()
            return _trace(label, entries[label], out)

        product = set().union(*map(run, first))
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            (scratch / "tests").mkdir()
            tested = pool.submit(
                _trace, "tests", TEST_ENTRY, scratch / "tests" / "reached"
            )
            for reached in pool.map(run, rest):
                product |= reached
            tested = tested.result()
    product |= pinned()
    classes = {}
    for func in funcs:
        where = f"{func.path}:{func.first_line}"
        if where in product:
            classes[func.key] = "product"
        elif where in tested:
            classes[func.key] = "test-only"
        else:
            classes[func.key] = "unreached"
    return funcs, classes


def render(funcs: list[Function], classes: dict[str, str]) -> str:
    lines = [
        "# Reachability census of src/repro: product | test-only | unreached.",
        "# Regenerate: PYTHONPATH=src:. python -m tests.census.census",
    ]
    for kind in CLASSES:
        count = sum(1 for func in funcs if classes[func.key] == kind)
        lines.append(f"# {kind}: {count}")
    lines += [f"{classes[func.key]:<10} {func.key}" for func in funcs]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.census.census")
    parser.add_argument("--out", type=Path, default=CENSUS)
    args = parser.parse_args(argv)
    funcs, classes = classify()
    args.out.write_text(render(funcs, classes))
    for kind in CLASSES:
        picked = [func for func in funcs if classes[func.key] == kind]
        print(
            f"{kind:<10} {len(picked):>5} functions "
            f"{sum(func.lines for func in picked):>6} lines"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
