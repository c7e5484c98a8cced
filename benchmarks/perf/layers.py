"""Per-layer metrics: spans of one traced repetition -> named numbers.

Conventions, so the numbers can be added up without double counting:

- ``*.span_s`` is the total duration of a span name; every other
  ``*_s`` / ``*.s`` metric of a name that has children is its *self*
  time, unless noted.  ``mapreduce.sort.s`` counts map-side sorts only
  (the reduce-side merge's sort stays inside ``mapreduce.shuffle.merge_s``).
- A metric that does not apply to a workload reads 0.
- Workload ``layer_facts`` of the same name are added to the span value
  (worker-side merge time from ``PerfStats`` joins the parent-side
  ``merge_for_reduce`` spans that way).
"""

from __future__ import annotations

from statistics import median, quantiles

from benchmarks.perf.trace import SpanStats, summarize
from benchmarks.perf.workloads import Outcome
from repro.mapreduce.counters import C

_EMPTY = SpanStats()

#: hdfs per-kind latency metric -> client span names feeding it.
_HDFS_KINDS = {
    "hdfs.put.p50_ms": ("hdfs.client.put",),
    "hdfs.read.p50_ms": ("hdfs.client.read",),
    "hdfs.pread.p50_ms": ("hdfs.client.pread",),
    "hdfs.rename.p50_ms": ("hdfs.client.rename",),
    "hdfs.delete.p50_ms": ("hdfs.client.delete",),
    "hdfs.ls.p50_ms": ("hdfs.client.ls", "hdfs.client.status"),
    "hdfs.fsck.p50_ms": ("hdfs.client.fsck",),
    "hdfs.checkpoint.p50_ms": ("hdfs.client.checkpoint",),
}


def _p50_ms(durations: list[float]) -> float:
    return median(durations) * 1e3 if durations else 0.0


def body_metrics(
    spans: list[list],
    *,
    outcome: Outcome,
    facts: dict[str, float],
    jobs: list,
    inline_fallbacks: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced timed body, times as measured.

    ``spans`` are the body's spans under one root span ``"body"``;
    ``jobs`` the ``RunningJob`` handles ``JobTracker.submit_job``
    returned during it.  The harness adds the metrics that need the
    untraced baseline or the set-up (``trace.overhead_frac``,
    ``sim.host_us_per_event``, ``datasets.generate_s``).
    """
    stats = summarize(spans)
    in_map = summarize(spans, under="mapreduce.map")
    in_pagerank = summarize(spans, under="sparklite.pagerank")
    in_query = summarize(spans, under="hive.join_query")
    in_action = summarize(spans, under="sparklite.action")
    in_execute = summarize(spans, under="hive.execute")
    in_campus = summarize(spans, under="core.campus")

    def of(name: str, table: dict[str, SpanStats] = stats) -> SpanStats:
        return table.get(name, _EMPTY)

    run_job = "mapreduce.cluster.run_job"
    client_latencies = [
        duration
        for name, entry in stats.items()
        if name.startswith("hdfs.client.")
        for duration in entry.durations
    ]
    metrics = {
        # mapreduce — task path
        "mapreduce.map.span_s": of("mapreduce.map").total_s,
        "mapreduce.map.user_s": of("mapreduce.map").self_s,
        "mapreduce.sort.s": of("mapreduce.sort", in_map).total_s,
        "mapreduce.partition.s": of("mapreduce.partition").total_s,
        "mapreduce.combine.s": of("mapreduce.combine").total_s,
        "mapreduce.reduce.span_s": of("mapreduce.reduce").total_s,
        "mapreduce.reduce.user_s": of("mapreduce.reduce").self_s,
        "mapreduce.output.render_s": of("mapreduce.output.render").total_s,
        "mapreduce.output.parse_s": of("mapreduce.output.parse").total_s,
        "mapreduce.shuffle.merge_s": of("mapreduce.shuffle.merge").total_s,
        # mapreduce — pooled backend, parent side
        "mapreduce.backend.submit_s": of("mapreduce.backend.submit").total_s,
        "mapreduce.backend.wait_s": of("mapreduce.backend.wait").self_s,
        "mapreduce.backend.tasks": of("mapreduce.backend.submit").count,
        "mapreduce.backend.inline_fallbacks": inline_fallbacks,
        # mapreduce — control plane
        "mapreduce.jobtracker.heartbeat_s": of("mapreduce.jobtracker.heartbeat").self_s,
        "mapreduce.jobtracker.heartbeats": of("mapreduce.jobtracker.heartbeat").count,
        "mapreduce.jobtracker.submit_s": of("mapreduce.jobtracker.submit").self_s,
        "mapreduce.jobtracker.task_completed_s": of(
            "mapreduce.jobtracker.task_completed"
        ).self_s,
        # sim
        "sim.run_s": of("sim.run").outermost_s,
        "sim.self_s": of("sim.run").self_s,
        "sim.sim_s": outcome.sim_s,
        "sim.events": outcome.sim_events,
        # hdfs
        "hdfs.recover_s": of("hdfs.client.recover").total_s,
        "hdfs.op.p99_ms": (
            quantiles(client_latencies, n=100)[98] * 1e3
            if len(client_latencies) >= 100
            else 0.0
        ),
        "hdfs.namenode.s": of("hdfs.namenode").self_s,
        "hdfs.journal.log_s": of("hdfs.journal.log").total_s,
        "hdfs.journal.edits": of("hdfs.journal.log").count,
        "hdfs.datanode.write_s": of("hdfs.datanode.write").total_s,
        "hdfs.datanode.read_s": of("hdfs.datanode.read").total_s,
        "hdfs.blockio.read_block_s": of("hdfs.blockio.read_block").total_s,
        # front ends: per-stage fixed cost and planning
        "sparklite.pagerank_s": of("sparklite.pagerank").total_s,
        "sparklite.stage_job_p50_ms": _p50_ms(of(run_job, in_pagerank).durations),
        "sparklite.plan_s": (
            of("sparklite.action").outermost_s - of(run_job, in_action).total_s
        ),
        "hive.join_query_s": of("hive.join_query").total_s,
        "hive.stage_job_p50_ms": _p50_ms(of(run_job, in_query).durations),
        "hive.plan_s": of("hive.execute").outermost_s - of(run_job, in_execute).total_s,
        "core.campus.self_s": (
            of("core.campus").total_s - of("sim.run", in_campus).outermost_s
        ),
        # bookkeeping
        "trace.unattributed_frac": of("body").self_s / of("body").total_s,
        "trace.spans": len(spans),
    }
    for name, kinds in _HDFS_KINDS.items():
        metrics[name] = _p50_ms([d for kind in kinds for d in of(kind).durations])
    if jobs:
        counters = [job.aggregate_counters() for job in jobs]
        metrics["mapreduce.records_shuffled"] = sum(
            c.get(C.REDUCE_INPUT_RECORDS) for c in counters
        )
        metrics["mapreduce.bytes_shuffled"] = sum(
            c.get(C.REDUCE_SHUFFLE_BYTES) for c in counters
        )
    for name, value in facts.items():
        metrics[name] = metrics.get(name, 0.0) + value
    return metrics
