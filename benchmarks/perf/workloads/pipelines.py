"""``pipelines``: the whole stack, driven by the two front ends.

On one four-worker :class:`~repro.mapreduce.cluster.MapReduceCluster`:
compiled sparklite PageRank (many tiny stage jobs, so per-stage fixed
cost dominates), then a multi-stage HiveLite JOIN / GROUP BY / ORDER BY
/ LIMIT over MovieLens-style ratings (few larger jobs).  Planner →
JobTracker → tasks → HDFS data path via ``BlockFetcher``: everything
the wordcount workloads bypass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from benchmarks.perf.workloads import Outcome, Workload
from repro.datasets.movielens import MovieLensDataset, generate_movielens
from repro.hive import ColumnType, HiveLite, QueryResult, TableSchema
from repro.jobs.pagerank import PageRankResult, generate_web_graph, pagerank
from repro.mapreduce.cluster import MapReduceCluster
from repro.sparklite import SparkLiteContext

NUM_PAGES = 400
AVG_DEGREE = 4
ITERATIONS = 8
NUM_RATINGS = 20_000
NUM_MOVIES = 400
MIN_RATING = 3.0
TOP_K = 10

JOIN_SQL = (
    "SELECT movies.title, COUNT(*), AVG(ratings.rating) FROM ratings "
    "JOIN movies ON ratings.movie_id = movies.id "
    f"WHERE ratings.rating >= {MIN_RATING:g} "
    f"GROUP BY movies.title ORDER BY COUNT(*) DESC LIMIT {TOP_K}"
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


@dataclass
class _Context:
    edges: list[tuple[int, int]]
    data: MovieLensDataset
    cluster: MapReduceCluster
    sc: SparkLiteContext
    hive: HiveLite


@dataclass
class _Run:
    ranks: PageRankResult
    query: QueryResult
    sim_s: float
    sim_events: int
    spark_jobs: int
    spark_cache_hits: int


class Pipelines(Workload):
    name = "pipelines"
    work_unit = "job"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.iterations = self.scaled(ITERATIONS, floor=2)
        self._expected_ranks: list | None = None

    def setup(self) -> _Context:
        graph = generate_web_graph(
            seed=self.seed,
            num_pages=self.scaled(NUM_PAGES, floor=30),
            avg_degree=AVG_DEGREE,
        )
        data = generate_movielens(
            seed=self.seed,
            num_ratings=self.scaled(NUM_RATINGS, floor=400),
            num_movies=self.scaled(NUM_MOVIES, floor=40),
        )
        cluster = MapReduceCluster(num_workers=4, seed=1)
        hive = HiveLite(cluster, multi_stage=True)
        hive.create_table(_RATINGS, data=data.ratings_text)
        hive.create_table(_MOVIES, data=data.movies_text)
        return _Context(
            edges=graph.edges,
            data=data,
            cluster=cluster,
            sc=SparkLiteContext.on_mapreduce(cluster=cluster),
            hive=hive,
        )

    def body(self, ctx: _Context, span) -> _Run:
        sim = ctx.cluster.sim
        sim_start, events_start = sim.now, sim.events_processed
        with span("sparklite.pagerank"):
            ranks = pagerank(ctx.sc, ctx.edges, self.iterations)
        with span("hive.join_query"):
            query = ctx.hive.execute(JOIN_SQL)
        runner = ctx.sc._compiled_runner()
        return _Run(
            ranks=ranks,
            query=query,
            sim_s=sim.now - sim_start,
            sim_events=sim.events_processed - events_start,
            spark_jobs=runner.jobs_run,
            spark_cache_hits=runner.cache_hits,
        )

    def teardown(self, ctx: _Context) -> None:
        ctx.cluster.close()

    def check(self, ctx: _Context, raw: _Run) -> Outcome:
        # One action per PageRank round plus the final collect; one query.
        actions = self.iterations + 1
        errors = []
        if self._expected_ranks is None:  # same seed => same graph
            self._expected_ranks = pagerank(
                SparkLiteContext.local(3), ctx.edges, self.iterations
            ).ranks
        failed = 0
        if raw.ranks.ranks != self._expected_ranks:
            errors.append("pipelines: compiled PageRank != SparkLiteContext.local")
            failed += actions
        hive_error = _check_join(ctx.data, raw.query.rows)
        if hive_error:
            errors.append(f"pipelines: {hive_error}")
            failed += 1
        stage_jobs = raw.spark_jobs + len(raw.query.stage_reports)
        return Outcome(
            work=stage_jobs,
            sim_s=raw.sim_s,
            sim_events=raw.sim_events,
            attempted=actions + 1,
            failed=failed,
            errors=errors,
            witness=(raw.sim_s, raw.sim_events, stage_jobs, len(raw.query.rows)),
        )

    def layer_facts(self, ctx: _Context, raw: _Run) -> dict[str, float]:
        return {
            "sparklite.jobs_run": raw.spark_jobs,
            "sparklite.cache_hits": raw.spark_cache_hits,
            "hive.stages": len(raw.query.stage_reports),
        }

    def input_chunks(self, ctx: _Context):
        yield repr(ctx.edges).encode()
        yield ctx.data.ratings_text.encode()
        yield ctx.data.movies_text.encode()


def _check_join(data: MovieLensDataset, rows: list[tuple]) -> str | None:
    """Hive rows against pure-Python ground truth; None when equal.

    Ties in ``COUNT(*)`` may order either way, so the check is: every
    returned row carries its title's true count and mean, counts are
    non-increasing, and they are exactly the ``TOP_K`` largest counts.
    """
    titles = {}
    for line in data.movies_text.splitlines():
        movie_id, title, _genres = line.split("::")
        titles[int(movie_id)] = title
    truth: dict[str, list] = {}
    for line in data.ratings_text.splitlines():
        _user, movie, rating, _ts = line.split("::")
        if float(rating) >= MIN_RATING and int(movie) in titles:
            entry = truth.setdefault(titles[int(movie)], [0, 0.0])
            entry[0] += 1
            entry[1] += float(rating)
    for title, count, mean in rows:
        if title not in truth:
            return f"unknown title {title!r}"
        true_count, true_sum = truth[title]
        if count != true_count or not math.isclose(
            mean, true_sum / true_count, rel_tol=1e-9
        ):
            return f"{title!r}: ({count}, {mean}) != truth"
    counts = [row[1] for row in rows]
    best = sorted((entry[0] for entry in truth.values()), reverse=True)[:TOP_K]
    if counts != best:
        return f"top-{TOP_K} counts {counts} != {best}"
    return None
