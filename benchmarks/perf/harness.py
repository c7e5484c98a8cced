"""Measure one workload in this process: untraced, or the traced pass.

Untraced (``trace=False``): one warm-up repetition, then timed
repetitions until ``seconds`` have passed (at least
:data:`MIN_TIMED_REPS`).  Each repetition is a fresh ``setup()`` +
``body()``, so ``setup_s`` has as many samples as ``wall_s``.  Every
timing metric is the **median over the timed repetitions**, stored with
``n``, min and max.

Every time is in *reference-host seconds*: the calibration kernel of
:mod:`benchmarks.perf.calibrate` runs before the set-up, between set-up
and body and after the body, and each measured time is divided by how
much slower than the reference host those readings say the host was
running just then.  The measured seconds are stored beside them.

Traced (``trace=True``): warm-up, a few untraced repetitions (the
baseline ``trace.overhead_frac`` compares against), then repetitions
with the wrappers of :mod:`benchmarks.perf.trace` installed; each
per-layer metric is the median over the traced repetitions.  The
wrappers are removed before the extra arms (input-read replay,
shuffle-transport arms) run.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import time
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from statistics import median
from typing import Callable

from benchmarks.perf.calibrate import kernel, slowdown
from benchmarks.perf.layers import body_metrics
from benchmarks.perf.trace import Tracer, null_span, summarize, write_trace
from benchmarks.perf.workloads import Outcome, Workload, registry
from repro.mapreduce.backend import usable_cores
from repro.mapreduce.counters import perf_stats

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent.parent
SPEC_FILE = REPO_ROOT / "BENCHMARK.json"
RESULTS_DIR = PACKAGE_DIR / "results"

DEFAULT_SEED = 23
MIN_TIMED_REPS = 3
#: Shares of ``seconds`` the traced pass spends on its untraced
#: baseline and on traced repetitions (each at least 2 / 1 repetitions).
TRACE_BASELINE_SHARE = 0.25
TRACE_TRACED_SHARE = 0.5
#: Units of the per-layer metrics that are times.
TIME_UNITS = frozenset({"s", "ms", "us"})

_clock = time.perf_counter


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children
    (``getrusage`` rather than ``os.times()``: microseconds, not ticks)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def host_stamp(seed: int, seconds: float, scale: float) -> dict:
    """Where and how a result was measured; goes into every result file."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "usable_cores": usable_cores(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "loadavg_1min_at_start": os.getloadavg()[0],
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
    }


def stop_started_processes() -> None:
    """End, and wait for, every process this one started.

    The pooled backend joins its workers at shutdown, so on the usual
    path the first loop finds nothing.  What outlives the run otherwise
    is ``multiprocessing``'s resource tracker, a helper process the
    first shared-memory segment starts (``shuffle_transport="shm"``):
    it only exits once it reads end-of-file on its pipe, some time
    *after* this process is gone.  Close the pipe and wait for it here.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Closes the pipe and waits; does nothing if no tracker was started.
    resource_tracker._resource_tracker._stop()


@dataclass
class _Repetition:
    #: Reference-host seconds (measured seconds / the slowdown beside it).
    setup_s: float
    wall_s: float
    cpu_s: float
    #: Measured seconds of the body, and :func:`calibrate.slowdown` of
    #: the host around the set-up and around the body.
    raw_wall_s: float
    setup_slowdown: float
    body_slowdown: float
    outcome: Outcome
    #: ``Workload.layer_facts`` of a completed traced body, else None.
    facts: dict[str, float] | None = None


def _repeat_once(
    workload: Workload, span: Callable = null_span, want_facts: bool = False
) -> _Repetition:
    """One set-up + timed body + oracle, the calibration kernel run
    around each.  A body that raises is one failed operation.
    ``want_facts`` (the traced pass) reads the workload's layer facts
    before tear-down."""
    gc.collect()
    facts = None
    before = kernel()
    start = _clock()
    ctx = workload.setup()
    raw_setup_s = _clock() - start
    between = kernel()
    try:
        raised = None
        cpu_start, start = _cpu_seconds(), _clock()
        try:
            with span("body"):
                raw = workload.body(ctx, span)
        except Exception:  # noqa: BLE001 - a failed repetition is a result
            raised = traceback.format_exc()
        raw_wall_s, raw_cpu_s = _clock() - start, _cpu_seconds() - cpu_start
        after = kernel()
        if raised is None:
            outcome = workload.check(ctx, raw)
            if want_facts:
                facts = workload.layer_facts(ctx, raw)
        else:
            outcome = Outcome(
                work=0.0,
                sim_s=0.0,
                sim_events=0,
                attempted=1,
                failed=1,
                errors=[f"{workload.name}: body raised\n{raised}"],
            )
    finally:
        workload.teardown(ctx)
    setup_slowdown = slowdown(before, between)
    body_slowdown = slowdown(between, after)
    return _Repetition(
        setup_s=raw_setup_s / setup_slowdown,
        wall_s=raw_wall_s / body_slowdown,
        cpu_s=raw_cpu_s / body_slowdown,
        raw_wall_s=raw_wall_s,
        setup_slowdown=setup_slowdown,
        body_slowdown=body_slowdown,
        outcome=outcome,
        facts=facts,
    )


def _repeat_for(
    budget_s: float, min_reps: int, once: Callable[[], _Repetition]
) -> list[_Repetition]:
    reps: list[_Repetition] = []
    start = _clock()
    while len(reps) < min_reps or _clock() - start < budget_s:
        reps.append(once())
    return reps


class _Tally:
    """Operation counts and oracle verdicts over every repetition run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.witness: tuple | None = None
        self.last: Outcome | None = None

    def add(self, reps: list[_Repetition]) -> list[_Repetition]:
        """Count ``reps``; returns those whose body completed."""
        completed = []
        for rep in reps:
            outcome = rep.outcome
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.errors.extend(outcome.errors)
            if outcome.work:
                completed.append(rep)
                self.last = outcome
                if self.witness is None:
                    self.witness = outcome.witness
                elif outcome.witness != self.witness:
                    self.failed += 1
                    self.errors.append(
                        f"{self.workload.name}: repetitions disagree: "
                        f"{outcome.witness} != {self.witness}"
                    )
        return completed


def _stat(values: list[float], unit: str) -> dict:
    return {
        "value": median(values),
        "unit": unit,
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def measure(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = 10.0,
    trace: bool = False,
    scale: float = 1.0,
) -> dict:
    """Run workload ``name`` and return its result record.

    ``metrics`` holds every end-to-end metric of ``BENCHMARK.json``
    (``trace=False``) or every per-layer metric (``trace=True``).
    """
    spec = load_spec()
    workload = registry()[name](seed, scale)
    stamp = host_stamp(seed, seconds, scale)
    tally = _Tally(workload)
    try:
        tally.add([_repeat_once(workload)])  # warm-up: caches, lazy imports
        if trace:
            metrics = _traced_pass(workload, spec, seconds, tally)
        else:
            metrics = _untraced_pass(workload, spec, seconds, tally)
    finally:
        stop_started_processes()
    last = tally.last
    return {
        "workload": name,
        "trace": int(trace),
        "correct": not tally.errors and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        # Must repeat exactly from run to run of one commit and seed.
        "exact": {
            "sim_s": last.sim_s if last else None,
            "sim_events": last.sim_events if last else None,
            "ops_per_rep": last.attempted if last else None,
        },
        "host": stamp,
    }


def _untraced_pass(
    workload: Workload, spec: dict, seconds: float, tally: _Tally
) -> dict:
    reps = tally.add(
        _repeat_for(seconds, MIN_TIMED_REPS, lambda: _repeat_once(workload))
    )
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    if not reps:
        return {}
    walls = [rep.wall_s for rep in reps]
    work = reps[-1].outcome.work
    metrics = {
        "wall_s": _stat(walls, units["wall_s"]),
        "cpu_s": _stat([rep.cpu_s for rep in reps], units["cpu_s"]),
        "throughput_per_s": _stat(
            [work / wall for wall in walls], units["throughput_per_s"]
        ),
        "peak_rss_mb": _stat([_peak_rss_mb()], units["peak_rss_mb"]),
        "setup_s": _stat([rep.setup_s for rep in reps], units["setup_s"]),
    }
    metrics["throughput_per_s"]["work_unit"] = workload.work_unit
    # What the clock said, and how slow the host was, beside the
    # reference-host seconds they were turned into.
    metrics["wall_s"]["raw_median"] = median(rep.raw_wall_s for rep in reps)
    metrics["wall_s"]["host_slowdown"] = median(rep.body_slowdown for rep in reps)
    return metrics


def _traced_pass(workload: Workload, spec: dict, seconds: float, tally: _Tally) -> dict:
    baseline = tally.add(
        _repeat_for(
            seconds * TRACE_BASELINE_SHARE, 2, lambda: _repeat_once(workload)
        )
    )
    if not baseline:
        return {}
    untraced_wall_s = median(rep.wall_s for rep in baseline)

    declared = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    tracer = Tracer()
    per_rep: list[dict[str, float]] = []
    last_body: tuple[list[list], float] = ([], 1.0)

    def traced_once() -> _Repetition:
        nonlocal last_body
        perf_stats().reset()
        tracer.take()
        for kept in tracer.kept.values():
            kept.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = _repeat_once(workload, tracer.span, want_facts=True)
        spans = tracer.take()
        if rep.facts is not None:
            body_at = next(i for i, span in enumerate(spans) if span[0] == "body")
            setup_spans, body_spans = spans[:body_at], _subtree(spans, body_at)
            measured = body_metrics(
                body_spans,
                outcome=rep.outcome,
                facts=rep.facts,
                jobs=tracer.kept["mapreduce.jobtracker.submit"],
                inline_fallbacks=sum(
                    1 for w in caught if issubclass(w.category, RuntimeWarning)
                ),
            )
            # Into reference-host seconds, like the end-to-end metrics.
            metrics = {
                name: value / rep.body_slowdown if declared.get(name) in TIME_UNITS else value
                for name, value in measured.items()
            }
            generate = summarize(setup_spans).get("datasets.generate")
            metrics["datasets.generate_s"] = (
                generate.outermost_s / rep.setup_slowdown if generate else 0.0
            )
            metrics["trace.overhead_frac"] = rep.wall_s / untraced_wall_s - 1.0
            events = rep.outcome.sim_events
            metrics["sim.host_us_per_event"] = (
                untraced_wall_s / events * 1e6 if events else 0.0
            )
            per_rep.append(metrics)
            last_body = (body_spans, rep.body_slowdown)
        return rep

    tracer.install()
    try:
        tally.add(_repeat_for(seconds * TRACE_TRACED_SHARE, 1, traced_once))
    finally:
        tracer.restore()
    if not per_rep:
        return {}
    layer = {
        name: median(metrics[name] for metrics in per_rep) for name in per_rep[0]
    }
    layer.update(workload.extra_arms())

    unknown = sorted(set(layer) - set(declared))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    body_spans, body_slowdown = last_body
    write_trace(
        RESULTS_DIR / f"trace_{workload.name}.json",
        workload.name,
        body_spans,
        {
            "seed": workload.seed,
            "scale": workload.scale,
            "traced_reps": len(per_rep),
            # Span times are as measured; divide by this for
            # reference-host seconds.
            "host_slowdown": body_slowdown,
        },
    )
    return {
        name: {"value": float(layer.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }


def _subtree(spans: list[list], root: int) -> list[list]:
    """The span at ``root`` and its descendants (contiguous, because
    spans are stored in start order), parents re-indexed from 0.  Spans
    the oracle and tear-down record after the body are left out."""
    name, start, end, _parent = spans[root]
    subtree = [[name, start, end, -1]]
    for name, start, end, parent in spans[root + 1 :]:
        if parent < root:
            break
        subtree.append([name, start, end, parent - root])
    return subtree
