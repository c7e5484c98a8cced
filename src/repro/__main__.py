"""``python -m repro`` — a small CLI over the reproduction.

Subcommands:

- ``demo``        quickstart cluster + WordCount + the Figure-2 view
- ``tables``      regenerate the survey tables (Tables I-IV)
- ``curriculum``  Table V with implementing artifacts
- ``syllabus``    the four module versions + data sources
- ``handout``     the executable myHadoop tutorial handout
- ``classroom``   replay the Fall-2012 meltdown vs the Spring-2013 fix
- ``figure1``     the architecture scan sweep
- ``chaos``       run a fault-injection drill and print its timeline
- ``dfsadmin``    admin commands (-saveNamespace, -metasave) on a demo cluster
- ``lint``        mrlint: static-check job code (and the engine itself)

Exit codes: 0 success/clean, 1 failed drill or lint findings, 2 usage
and configuration errors — so CI can gate on them.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(_args) -> int:
    from repro.core.figures import figure2_integration_text

    print(figure2_integration_text(seed=7))
    return 0


def _cmd_tables(_args) -> int:
    from repro.survey.dataset import synthesize_responses
    from repro.survey.tables import (
        table1_proficiency,
        table2_time,
        table3_helpfulness,
        table4_level,
    )

    responses = synthesize_responses(seed=2013)
    for builder in (
        table1_proficiency,
        table2_time,
        table3_helpfulness,
        table4_level,
    ):
        table, _deviations = builder(responses)
        print(table.render())
        print()
    return 0


def _cmd_curriculum(_args) -> int:
    from repro.survey.curriculum import curriculum_table, validate_coverage

    print(curriculum_table().render())
    failures = validate_coverage()
    if failures:
        print("COVERAGE FAILURES:", failures)
        return 1
    print("\nall artifacts resolve")
    return 0


def _cmd_syllabus(_args) -> int:
    from repro.core.materials import syllabus

    print(syllabus())
    return 0


def _cmd_handout(args) -> int:
    from repro.core.materials import run_handout_walkthrough, tutorial_handout

    print(tutorial_handout())
    if args.execute:
        print("\nreplaying the handout on a simulated platform...")
        context = run_handout_walkthrough()
        print(f"job: {context['report'].state}; "
              f"fsck: {context['fsck'].status}; "
              f"results exported: "
              f"{context['home'].exists('/home/student/results.txt')}")
    return 0


def _cmd_classroom(args) -> int:
    from repro.core.classroom import ClassroomScenario, run_classroom
    from repro.util.units import HOUR, MINUTE

    for platform in ("dedicated", "myhadoop"):
        report = run_classroom(
            ClassroomScenario(
                name=f"cli-{platform}",
                platform=platform,
                num_students=args.students,
                window=args.hours * HOUR,
                buggy_probability=0.55,
                fix_probability=0.45,
                instructor_reaction_delay=45 * MINUTE,
                seed=args.seed,
            )
        )
        print(report.describe())
        print()
    return 0


def _cmd_figure1(_args) -> int:
    from repro.core.figures import figure1_scan_sweep
    from repro.util.units import format_duration

    for point in figure1_scan_sweep():
        print(
            f"nodes={point.num_nodes:4d}  "
            f"hpc={format_duration(point.hpc_seconds):>8}  "
            f"hadoop={format_duration(point.hadoop_seconds):>8}  "
            f"speedup={point.hadoop_speedup:.1f}x"
        )
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import list_scenarios, run_scenario
    from repro.util.errors import ConfigError

    if args.list or not args.scenario:
        print("chaos drills (run with: python -m repro chaos <name>):\n")
        for scenario in list_scenarios():
            print(f"  {scenario.name:22s} {scenario.title}")
            print(f"  {'':22s}   reenacts: {scenario.paper_incident}")
        return 0

    names = (
        [s.name for s in list_scenarios()]
        if args.scenario == "all"
        else [args.scenario]
    )
    exit_code = 0
    for name in names:
        try:
            result = run_scenario(
                name,
                seed=args.seed,
                backend=args.backend,
                sanitize=args.sanitize,
                transport=args.transport,
            )
        except ConfigError as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            return 2
        print(f"=== chaos drill: {name} (seed={args.seed}) ===")
        print(result.plan.describe())
        print()
        if args.timeline:
            print("timeline (faults + recovery):")
            for line in result.timeline:
                print(f"  {line}")
        else:
            print("injected faults:")
            for line in result.fault_log or ["  (none)"]:
                print(f"  {line}")
        print()
        print("checks:")
        print(result.summary())
        verdict = "HEALED" if result.ok else "FAILED"
        print(f"\nverdict: {verdict}\n")
        if not result.ok:
            exit_code = 1
    return exit_code


def _cmd_dfsadmin(args) -> int:
    from repro.hdfs.cluster import HdfsCluster
    from repro.hdfs.config import HdfsConfig
    from repro.hdfs.dfsadmin import DfsAdmin
    from repro.util.errors import HdfsError

    if not (args.save_namespace or args.metasave):
        print(
            "dfsadmin: nothing to do (pass -saveNamespace and/or -metasave)",
            file=sys.stderr,
        )
        return 2
    hdfs = HdfsCluster(
        num_datanodes=3,
        config=HdfsConfig(
            block_size=2048, replication=2, journal=not args.no_journal
        ),
        seed=7,
    )
    client = hdfs.client()
    client.put_text(
        "/user/student/report.txt", "a small admin demo corpus\n" * 40
    )
    client.put_text("/user/student/notes.txt", "namenode durability\n" * 25)
    admin = DfsAdmin(hdfs.namenode)
    try:
        if args.save_namespace:
            print(admin.save_namespace())
        if args.metasave:
            print(admin.metasave())
    except HdfsError as exc:
        print(f"dfsadmin: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        lint_jobs,
        lint_paths,
        lint_pipelines,
        lint_self,
        render_findings,
        render_json,
        render_sarif,
        sort_findings,
    )
    from repro.analysis.baseline import (
        filter_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.util.errors import ConfigError

    if not (args.self_audit or args.jobs or args.pipelines or args.paths):
        print(
            "lint: nothing to lint "
            "(pass --self, --jobs, --pipelines, and/or paths)",
            file=sys.stderr,
        )
        return 2
    findings = []
    try:
        if args.self_audit:
            findings.extend(lint_self())
        if args.jobs:
            findings.extend(lint_jobs())
        if args.pipelines:
            findings.extend(lint_pipelines())
        if args.paths:
            families = tuple(args.families) if args.families else ("jobs",)
            findings.extend(lint_paths(args.paths, families=families))
        findings = sort_findings(findings)
        if args.write_baseline:
            count = write_baseline(findings, args.write_baseline)
            print(
                f"lint: wrote baseline with {count} finding(s) "
                f"to {args.write_baseline}"
            )
            return 0
        if args.baseline:
            findings = filter_baseline(findings, load_baseline(args.baseline))
    except ConfigError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(render_json(findings))
    elif fmt == "sarif":
        print(render_sarif(findings))
    else:
        print(render_findings(findings))
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Educational Hadoop 1.x stack (paper reproduction)",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "pooled", "pooled-threads", "auto"),
        default=None,
        help="where task attempts' real work runs (default: serial); "
        "pooled backends parallelise share-nothing work while keeping "
        "simulated results bit-identical; 'auto' picks serial or "
        "pooled per job from the host's core count and the input size",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="pool size for pooled backends (0 = one per usable core)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo").set_defaults(fn=_cmd_demo)
    sub.add_parser("tables").set_defaults(fn=_cmd_tables)
    sub.add_parser("curriculum").set_defaults(fn=_cmd_curriculum)
    sub.add_parser("syllabus").set_defaults(fn=_cmd_syllabus)
    handout = sub.add_parser("handout")
    handout.add_argument(
        "--execute", action="store_true",
        help="replay the handout on a simulated platform",
    )
    handout.set_defaults(fn=_cmd_handout)
    classroom = sub.add_parser("classroom")
    classroom.add_argument("--students", type=int, default=20)
    classroom.add_argument("--hours", type=float, default=24.0)
    classroom.add_argument("--seed", type=int, default=2012)
    classroom.set_defaults(fn=_cmd_classroom)
    sub.add_parser("figure1").set_defaults(fn=_cmd_figure1)
    chaos = sub.add_parser(
        "chaos",
        help="run a deterministic fault-injection drill",
    )
    chaos.add_argument(
        "scenario",
        nargs="?",
        help="drill name, or 'all' (omit or use --list to enumerate)",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="FaultPlan seed (same seed, same fault log)")
    chaos.add_argument("--list", action="store_true",
                       help="list available drills and exit")
    chaos.add_argument("--timeline", action="store_true",
                       help="print the full fault + recovery event "
                       "timeline instead of just injected faults")
    chaos.add_argument("--sanitize", action="store_true",
                       help="run the drill with the runtime sanitizer on "
                       "(MapReduceConfig.sanitize=True)")
    chaos.add_argument("--transport", default="framed",
                       choices=("framed", "shm"),
                       help="shuffle transport for the drill (results are "
                       "bit-identical; default framed)")
    chaos.set_defaults(fn=_cmd_chaos)
    dfsadmin = sub.add_parser(
        "dfsadmin",
        help="hadoop-style admin commands over a small demo cluster",
    )
    dfsadmin.add_argument(
        "-saveNamespace",
        dest="save_namespace",
        action="store_true",
        help="roll a checkpoint: fresh fsimage, truncated edit log",
    )
    dfsadmin.add_argument(
        "-metasave",
        dest="metasave",
        action="store_true",
        help="dump NameNode metadata (block map + journal state)",
    )
    dfsadmin.add_argument(
        "--no-journal",
        action="store_true",
        help="build the demo cluster with journaling disabled "
        "(-saveNamespace then fails with exit code 2)",
    )
    dfsadmin.set_defaults(fn=_cmd_dfsadmin)
    lint = sub.add_parser(
        "lint",
        help="mrlint: static-check MapReduce job code (and the engine)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (student job code)",
    )
    lint.add_argument(
        "--self",
        dest="self_audit",
        action="store_true",
        help="audit the engine itself (repro.hdfs/mapreduce/faults/sim) "
        "with the MRE1xx determinism rules",
    )
    lint.add_argument(
        "--jobs",
        action="store_true",
        help="lint the reference jobs (repro.jobs) and examples/ with "
        "the MRJ0xx job rules",
    )
    lint.add_argument(
        "--pipelines",
        action="store_true",
        help="lint the examples/ RDD pipelines and HiveLite scripts "
        "with the MRS2xx/MRH3xx rules",
    )
    lint.add_argument(
        "--family",
        dest="families",
        action="append",
        choices=("jobs", "engine", "sparklite", "hive"),
        default=None,
        help="rule families for explicit paths (default: jobs; repeatable)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (sarif for GitHub code-scanning uploads)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON (alias for --format json)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="only report findings not recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="record current findings to FILE and exit 0 "
        "(adopt-a-rule workflow; see docs/ADOPTING_RULES.md)",
    )
    lint.set_defaults(fn=_cmd_lint)

    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0 (0 = one per usable core)")
    if args.backend is not None:
        from repro.mapreduce.backend import set_default_backend

        set_default_backend(args.backend, args.workers)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
