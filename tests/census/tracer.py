"""Run one entry point and record every ``src/repro`` function it calls.

Usage (from the repository root, ``PYTHONPATH=src:.``)::

    python -m tests.census.tracer OUT module repro chaos all --seed 3
    python -m tests.census.tracer OUT script examples/quickstart.py
    python -m tests.census.tracer OUT pytest -q tests
    python -m tests.census.tracer OUT perf wc_serial

``OUT`` receives one ``path:first_line`` per reached function, where
``first_line`` is the code object's ``co_firstlineno`` (on 3.11 the
first decorator of a decorated function).  A ``sys.setprofile`` hook
sees every call event; stdlib only, no ``coverage``.

Process-pool workers are traced too.  Every callable handed to a
``ProcessPoolExecutor`` is wrapped in :class:`_Traced`, which installs
the hook in the worker (a forked child usually inherits it anyway) and,
after each call, writes what that worker has reached to ``OUT.<pid>``.
Without this the decoders that run only in workers would look unused.
"""

from __future__ import annotations

import contextlib
import os
import runpy
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src" / "repro") + os.sep

#: id(code) -> code for every code object that ran (kept alive so an id
#: is never reused).
_reached: dict[int, object] = {}
_dumped = {"size": -1}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _reached[id(code)] = code


def _dump(out: str) -> None:
    if len(_reached) == _dumped["size"]:
        return
    _dumped["size"] = len(_reached)
    keys = sorted(
        {
            f"{code.co_filename[len(SRC):]}:{code.co_firstlineno}"
            for code in list(_reached.values())
            if code.co_filename.startswith(SRC)
        }
    )
    Path(out).write_text("".join(f"{key}\n" for key in keys))


def _start() -> None:
    sys.setprofile(_profile)
    threading.setprofile(_profile)


class _Traced:
    """A pool work item that traces itself in the worker."""

    def __init__(self, fn, out: str):
        self.fn = fn
        self.out = out

    def __call__(self, *args, **kwargs):
        if sys.getprofile() is not _profile:
            _start()
        try:
            return self.fn(*args, **kwargs)
        finally:
            _dump(f"{self.out}.{os.getpid()}")


def _trace_pool_workers(out: str) -> None:
    submit = ProcessPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        return submit(self, _Traced(fn, out), *args, **kwargs)

    ProcessPoolExecutor.submit = traced_submit


def _run_perf(name: str) -> None:
    """A ``benchmarks/perf`` workload's traced pass at its minimum
    repetitions (the pass that also reads layer facts and runs the extra
    arms), plus the input digest its smoke test takes."""
    from benchmarks.perf.harness import measure
    from benchmarks.perf.workloads import registry

    measure(name, seconds=0.0, trace=True)
    workload = registry()[name](0)
    ctx = workload.setup()
    try:
        workload.input_digest(ctx)
    finally:
        workload.teardown(ctx)


def _run(kind: str, args: list[str]) -> None:
    if kind == "module":
        sys.argv = list(args)
        runpy.run_module(args[0], run_name="__main__", alter_sys=True)
    elif kind == "script":
        sys.argv = list(args)
        sys.path.insert(0, str(Path(args[0]).resolve().parent))
        runpy.run_path(args[0], run_name="__main__")
    elif kind == "pytest":
        import pytest
        from hypothesis import settings

        # The hook slows every call; a deadline would turn that into a
        # failure and cut the run short.
        settings.register_profile("census", deadline=None)
        settings.load_profile("census")
        pytest.main(list(args))
    elif kind == "perf":
        _run_perf(args[0])
    else:
        raise SystemExit(f"unknown entry kind {kind!r}")


def main(argv: list[str]) -> int:
    out, kind, *args = argv
    _trace_pool_workers(out)
    _start()
    try:
        with contextlib.suppress(SystemExit):
            _run(kind, args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        _dump(out)
    return 0


if __name__ == "__main__":
    # Run from the importable module, not ``__main__``: the entry point
    # replaces ``sys.modules["__main__"]``, and pool work items must
    # unpickle as ``tests.census.tracer._Traced``.
    from tests.census.tracer import main as _main

    sys.exit(_main(sys.argv[1:]))
