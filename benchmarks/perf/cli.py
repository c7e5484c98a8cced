"""Command lines: the per-workload runner and ``run`` / ``compare``.

``python -m benchmarks.perf run`` measures the workloads one after
another, never in parallel, each pass in a fresh subprocess of
``run.py`` (clean ``PERF`` singleton, block caches, shm scopes, RSS):
first untraced for the end-to-end metrics, then the traced pass for the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.perf import compare as compare_mod
from benchmarks.perf.harness import (
    DEFAULT_SEED,
    PACKAGE_DIR,
    RESULTS_DIR,
    host_stamp,
    load_spec,
    measure,
)
from repro.mapreduce.backend import usable_cores

#: Workloads whose numbers mean nothing without a second core.
NEEDS_TWO_CORES = frozenset({"shuffle_pooled"})


def _workload_names() -> list[str]:
    return [workload["name"] for workload in load_spec()["workloads"]]


def _print_metrics(result: dict) -> None:
    kind = "per-layer" if result["trace"] else "end-to-end"
    print(
        f"[{result['workload']}] {kind} metrics "
        f"(seed {result['host']['seed']}, {result['host']['usable_cores']} usable cores)"
    )
    for name, metric in result["metrics"].items():
        spread = (
            f"  (n={metric['n']}, min {metric['min']:.6g}, max {metric['max']:.6g})"
            if "n" in metric
            else ""
        )
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}{spread}")
        if "raw_median" in metric:
            print(
                f"  {'':44s} {metric['raw_median']:>14.6g} s as measured, on a host "
                f"running {metric['host_slowdown']:.2f}x slower than the reference"
            )
    exact = result["exact"]
    print(
        f"  sim_s={exact['sim_s']} sim_events={exact['sim_events']} "
        f"ops_per_rep={exact['ops_per_rep']}"
    )
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"ops_failed_frac={failed_frac:g} correct={result['correct']}"
    )
    for error in result["errors"]:
        print(f"  ORACLE: {error}", file=sys.stderr)


# --------------------------------------------------------------------------
# run.py: one workload, this process


def main_single(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py")
    parser.add_argument("--workload", required=True, choices=_workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink inputs (the package's smoke tests only; record at 1)",
    )
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    # Leave through the ``finally`` blocks that stop the pool's workers
    # and the resource tracker, also when told to terminate.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload in NEEDS_TWO_CORES and usable_cores() < 2:
        print(
            f"warning: {args.workload} on one usable core measures scheduler "
            "noise, not the pool",
            file=sys.stderr,
        )
    result = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
    )
    _print_metrics(result)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    if not result["metrics"]:
        return 1  # no repetition completed: there is no result to print
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------------
# python -m benchmarks.perf run | compare


def _run_pass(workload: str, trace: int, args) -> dict:
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as scratch:
        out = Path(scratch) / "record.json"
        command = [
            sys.executable,
            str(PACKAGE_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
            "--scale", str(args.scale),
            "--out", str(out),
        ]  # fmt: skip
        done = subprocess.run(command, cwd=PACKAGE_DIR.parent.parent)
        if not out.exists():
            raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
        return json.loads(out.read_text())


def _cmd_run(args) -> int:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else _workload_names()
    record = {
        "benchmark": "benchmarks/perf",
        "host": host_stamp(args.seed, args.seconds, args.scale),
        "workloads": {},
    }
    ok = True
    for name in names:
        if name in NEEDS_TWO_CORES and usable_cores() < 2:
            print(f"[{name}] unresolved: needs 2 usable cores, host has 1")
            record["workloads"][name] = {"status": "unresolved"}
            continue
        untraced = _run_pass(name, 0, args)
        traced = _run_pass(name, 1, args)
        ok = ok and untraced["correct"] and traced["correct"]
        record["workloads"][name] = {
            "status": "measured",
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "exact": untraced["exact"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "loadavg_1min_at_start": untraced["host"]["loadavg_1min_at_start"],
        }
    out = args.out or RESULTS_DIR / "run.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results written to {out}; traces under {RESULTS_DIR}")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    rows = compare_mod.compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()), load_spec()
    )
    print(compare_mod.render(rows))
    return 1 if any(row.verdict == "regressed" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure the workloads (both passes)")
    run.add_argument("--workload", choices=_workload_names())
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    run.add_argument("--scale", type=float, default=1.0, help="tests only")
    run.add_argument("--out", type=Path)
    run.set_defaults(handler=_cmd_run)

    cmp_ = commands.add_parser("compare", help="verdict per (metric, workload)")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    cmp_.set_defaults(handler=_cmd_compare)

    args = parser.parse_args(argv)
    return args.handler(args)
