"""Whole jobs with the old record codecs patched in ≡ the new ones.

The element codec, the ``Partial`` line codec and the row parsers were
rewritten for cost; not one encoded byte may have moved, because those
bytes are shuffle keys, partition hashes and the sizes the simulated
clock is computed from.  So the two front-end pipelines of
``benchmarks/perf``'s ``pipelines`` workload — compiled PageRank and the
three-stage Hive join — run here at small scale twice, once as shipped
and once with every oracle body (``tests/sparklite/codec_oracle.py``,
``tests/hive/partial_oracle.py``) monkeypatched over its replacement,
and must agree on output, on every job's counters and on the simulated
clock.  CI also runs this file under two ``PYTHONHASHSEED`` values: the
encoder now dispatches through a ``type``-keyed dict, and the codec's
seed-stability promise must not have come to rest on dict order.
"""

import pytest

from repro.datasets.movielens import generate_movielens
from repro.hive import ColumnType, HiveLite, TableSchema
from repro.hive import engine as hive_engine
from repro.hive import planner as hive_planner
from repro.jobs.pagerank import generate_web_graph, pagerank
from repro.mapreduce.cluster import MapReduceCluster
from repro.sparklite import SparkLiteContext
from repro.sparklite import codec
from repro.sparklite import planner as spark_planner
from tests.hive import partial_oracle
from tests.sparklite import codec_oracle

JOIN_SQL = (
    "SELECT movies.title, COUNT(*), AVG(ratings.rating), MIN(ratings.rating) "
    "FROM ratings JOIN movies ON ratings.movie_id = movies.id "
    "WHERE ratings.rating >= 3 "
    "GROUP BY movies.title ORDER BY COUNT(*) DESC LIMIT 10"
)
_RATINGS = TableSchema(
    name="ratings",
    columns=(
        ("user_id", ColumnType.INT),
        ("movie_id", ColumnType.INT),
        ("rating", ColumnType.FLOAT),
        ("ts", ColumnType.INT),
    ),
    location="/warehouse/ratings.dat",
    delimiter="::",
)
_MOVIES = TableSchema(
    name="movies",
    columns=(
        ("id", ColumnType.INT),
        ("title", ColumnType.STRING),
        ("genres", ColumnType.STRING),
    ),
    location="/warehouse/movies.dat",
    delimiter="::",
)


def _patch_in_the_oracles(monkeypatch) -> None:
    for name in ("encode_element", "decode_element", "escape_text", "unescape_text"):
        old = getattr(codec_oracle, name)
        for module in (codec, spark_planner, hive_planner, hive_engine):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, old)
    monkeypatch.setattr(hive_engine.Partial, "encode", partial_oracle.encode_partial)
    monkeypatch.setattr(
        hive_engine.Partial, "decode", staticmethod(partial_oracle.decode_partial)
    )
    monkeypatch.setattr(
        hive_engine.Partial, "encode_one", staticmethod(partial_oracle.map_side_partial)
    )
    monkeypatch.setattr(TableSchema, "parse_row", partial_oracle.parse_row)
    monkeypatch.setattr(hive_planner, "_parse_side_row", partial_oracle.parse_side_row)


def _run_pipelines() -> dict:
    graph = generate_web_graph(seed=3, num_pages=40, avg_degree=3)
    data = generate_movielens(seed=3, num_ratings=600, num_movies=40)
    cluster = MapReduceCluster(num_workers=4, seed=1)
    counters: list = []
    run_job = cluster.run_job

    def recording_run_job(*args, **kwargs):
        report = run_job(*args, **kwargs)
        counters.append((report.name, report.counters.as_dict()))
        return report

    cluster.run_job = recording_run_job
    try:
        hive = HiveLite(cluster, multi_stage=True)
        hive.create_table(_RATINGS, data=data.ratings_text)
        hive.create_table(_MOVIES, data=data.movies_text)
        sc = SparkLiteContext.on_mapreduce(cluster=cluster)
        ranks = pagerank(sc, graph.edges, iterations=3)
        query = hive.execute(JOIN_SQL)
        runner = sc._compiled_runner()
        return {
            "ranks": ranks.ranks,
            "rows": query.rows,
            "stages": len(query.stage_reports),
            "jobs_run": runner.jobs_run,
            "cache_hits": runner.cache_hits,
            "sim_now": cluster.sim.now,
            "sim_events": cluster.sim.events_processed,
            "counters": counters,
        }
    finally:
        cluster.close()


def test_oracle_codecs_and_new_codecs_run_identical_jobs(monkeypatch):
    shipped = _run_pipelines()
    with monkeypatch.context() as patch:
        _patch_in_the_oracles(patch)
        # The patch took: the shipped decoder refuses this, the oracle reads it.
        assert spark_planner.decode_element("t-1") == ()
        with_oracles = _run_pipelines()
    with pytest.raises(codec.CodecError):
        spark_planner.decode_element("t-1")
    assert shipped["stages"] == 3 and shipped["rows"] and shipped["ranks"]
    assert len(shipped["counters"]) == shipped["jobs_run"] + shipped["stages"]
    for key in shipped:
        assert shipped[key] == with_oracles[key], key
