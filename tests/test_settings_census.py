"""Every setting some product caller varies; the rest are constants.

The house rule (``test_configs.py``): an option nobody sets is a module
constant beside its reader.  This census holds the settings holders to
it.  It reads the AST of every product file — ``src/`` (the CLI
included) and ``benchmarks/`` (the paper-artifact benches and
``benchmarks/perf``), never a ``tests/`` directory or ``examples/`` —
and collects the arguments each call of a holder passes, positional
ones mapped to their parameter names.  An argument whose value is
statically the parameter's default does not count as setting it,
except in ``benchmarks/perf``: its calls are frozen with the benchmark
contract, so every field it passes stays a field.

A field or parameter no product caller sets fails the census unless
:data:`RESERVED` names it with its reason.  Like
``tests/census/allowlist.txt``, the reserved list may only shrink.
"""

from __future__ import annotations

import ast
import inspect
import operator
from pathlib import Path

import pytest

from repro.core.campus import CampusScenario
from repro.core.classroom import ClassroomScenario
from repro.faults.scenarios import run_scenario
from repro.hdfs.config import HdfsConfig
from repro.hive.engine import HiveLite
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.util import units

ROOT = Path(__file__).resolve().parents[1]
PRODUCT_DIRS = ("src", "benchmarks")
#: Product code no change outside a benchmark PR may edit.
FROZEN = ROOT / "benchmarks" / "perf"

#: Each settings holder, by the name its callers spell.
HOLDERS = {
    "HdfsConfig": HdfsConfig,
    "MapReduceConfig": MapReduceConfig,
    "JobConf": JobConf,
    "ClassroomScenario": ClassroomScenario,
    "CampusScenario": CampusScenario,
    "HiveLite": HiveLite,
    "run_scenario": run_scenario,
}

#: Parameters that are the object a holder works on, not a setting.
SUBJECTS = {("HiveLite", "cluster")}

#: Settings kept although no product caller sets them, each with why.
RESERVED = {
    ("MapReduceConfig", "map_slots_per_tracker"): "ROADMAP item 8(b) sweeps it",
    ("MapReduceConfig", "reduce_slots_per_tracker"): "ROADMAP item 8(b) sweeps it",
    ("MapReduceConfig", "sort_buffer_bytes"): "ROADMAP item 8(b) sweeps it",
    ("MapReduceConfig", "shuffle_retry_jitter"): "ROADMAP item 8(b) sweeps it",
    ("HdfsConfig", "journal_dir"): "a deployment path, not a tuning value",
    ("CampusScenario", "chaos_interval"): "the pinned campus digest hashes chaos_crashes",
    ("CampusScenario", "chaos_downtime"): "the pinned campus digest hashes chaos_crashes",
    ("JobConf", "params"): "the job's argument bag, filled through Job(conf, **params)",
}

#: The reserved list may only shrink: lower this when entries go.
MAX_RESERVED = 8

_NOT_STATIC = object()
_FOLD = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _static_value(node: ast.expr):
    """The value of a literal expression (units names allowed), or
    ``_NOT_STATIC``."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name) and node.id.isupper():
        return getattr(units, node.id, _NOT_STATIC)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _static_value(node.operand)
        return _NOT_STATIC if value is _NOT_STATIC else -value
    if isinstance(node, ast.BinOp) and type(node.op) in _FOLD:
        left, right = _static_value(node.left), _static_value(node.right)
        if _NOT_STATIC in (left, right):
            return _NOT_STATIC
        return _FOLD[type(node.op)](left, right)
    return _NOT_STATIC


def settings(holder: str) -> dict[str, inspect.Parameter]:
    """A holder's settable values: its parameters but its subject."""
    params = inspect.signature(HOLDERS[holder]).parameters
    return {
        name: param
        for name, param in params.items()
        if (holder, name) not in SUBJECTS
    }


def product_files() -> list[Path]:
    files = []
    for top in PRODUCT_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                files.append(path)
    return files


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def census() -> dict[tuple[str, str], list[str]]:
    """(holder, setting) -> the product call sites that set it."""
    passed: dict[tuple[str, str], list[str]] = {}
    for path in product_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        frozen = path.is_relative_to(FROZEN)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _callee(call) not in HOLDERS:
                continue
            holder = _callee(call)
            params = inspect.signature(HOLDERS[holder]).parameters
            names = list(params)
            args = [
                (names[index], arg)
                for index, arg in enumerate(call.args)
                if index < len(names) and not isinstance(arg, ast.Starred)
            ]
            args += [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
            site = f"{path.relative_to(ROOT)}:{call.lineno}"
            for name, value in args:
                param = params.get(name)
                if param is None:
                    continue
                if not frozen and _static_value(value) == param.default:
                    continue  # passing the default sets nothing
                passed.setdefault((holder, name), []).append(site)
    return passed


@pytest.fixture(scope="module")
def passed():
    return census()


def test_the_scan_sees_product_calls(passed):
    assert passed[("HdfsConfig", "block_size")]
    assert passed[("run_scenario", "name")]  # positional at the CLI
    assert passed[("HiveLite", "multi_stage")]  # benchmarks/perf


def test_every_setting_has_a_product_caller(passed):
    unset = [
        f"{holder}.{name}"
        for holder in HOLDERS
        for name in settings(holder)
        if (holder, name) not in passed and (holder, name) not in RESERVED
    ]
    assert unset == [], (
        "no product caller sets these; make each a module constant "
        "beside its reader"
    )


def test_reserved_entries_are_unset_settings(passed):
    for holder, name in RESERVED:
        assert name in settings(holder), f"{holder}.{name} is gone: unreserve it"
        assert (holder, name) not in passed, (
            f"{holder}.{name} now has a product caller: unreserve it"
        )


def test_reserved_list_only_shrinks():
    assert len(RESERVED) <= MAX_RESERVED


def test_settable_values_total():
    """71 before the option diet; 45 after it."""
    assert sum(len(settings(holder)) for holder in HOLDERS) == 45
