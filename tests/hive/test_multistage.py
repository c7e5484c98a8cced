"""Hive multi-stage plans: repartition joins and total-order sorts.

The two stage shapes PR 10 adds on top of the single-job compiler:

- ``JOIN`` lowers to a tagged-union repartition-join job whose output
  feeds the ordinary aggregation/projection job through HDFS;
- ``ORDER BY`` (with ``multi_stage=True``) lowers to a TeraSort-style
  sample-partitioned total-order sort job instead of a driver-side
  ``sorted()``.

The differential contract mirrors sparklite's: a multi-stage plan must
answer byte-identically to the legacy single-stage/driver-side path.
"""

import pytest

from repro.datasets.airline import CARRIERS, generate_airline
from repro.hive import ColumnType, HiveLite, TableSchema
from repro.hive.parser import SqlError, parse_query
from repro.hive.planner import RangePartitioner
from repro.mapreduce.counters import C
from repro.mapreduce.types import Text
from repro.util.errors import ConfigError
from tests.conftest import make_mr

RATINGS = [
    # user, movie, stars
    (1, 10, 5),
    (1, 20, 3),
    (2, 10, 4),
    (2, 30, 2),
    (3, 20, 5),
    (3, 30, 1),
    (3, 10, 3),
    (4, 40, 4),  # movie 40 has no title row: inner join drops it
]

MOVIES = [
    # id, title, year
    (10, "Heat", 1995),
    (20, "Alien", 1979),
    (30, "Arrival", 2016),
    (50, "Orphan", 2009),  # no ratings: dropped too
]


def _build_engine(**kwargs):
    cluster = make_mr(num_workers=4, block_size=4096)
    engine = HiveLite(cluster, **kwargs)
    engine.create_table(
        TableSchema(
            name="ratings",
            columns=(
                ("user_id", ColumnType.INT),
                ("movie_id", ColumnType.INT),
                ("stars", ColumnType.INT),
            ),
            location="/warehouse/ratings.csv",
        ),
        data="\n".join(f"{u},{m},{s}" for u, m, s in RATINGS) + "\n",
    )
    engine.create_table(
        TableSchema(
            name="movies",
            columns=(
                ("id", ColumnType.INT),
                ("title", ColumnType.STRING),
                ("year", ColumnType.INT),
            ),
            location="/warehouse/movies.csv",
        ),
        data="\n".join(f"{i},{t},{y}" for i, t, y in MOVIES) + "\n",
    )
    return engine


@pytest.fixture(scope="module")
def hive():
    return _build_engine(multi_stage=True, sort_partitions=3)


class TestJoin:
    def test_full_query_shape_round_trips(self, hive):
        """The PR's acceptance query: JOIN + WHERE + GROUP BY +
        ORDER BY + LIMIT through chained MapReduce stages."""
        result = hive.execute(
            "SELECT movies.title, AVG(ratings.stars) FROM ratings "
            "JOIN movies ON ratings.movie_id = movies.id "
            "WHERE ratings.stars > 1 "
            "GROUP BY movies.title ORDER BY AVG(ratings.stars) DESC LIMIT 2"
        )
        # Ground truth: stars>1 → Heat (5,4,3)=4.0, Alien (3,5)=4.0,
        # Arrival (2)=2.0; DESC reverses the whole composite, so the
        # injective row tiebreak also reverses: Heat before Alien.
        assert result.columns == ("movies.title", "avg(ratings.stars)")
        assert result.rows == [("Heat", 4.0), ("Alien", 4.0)]
        assert len(result.stage_reports) == 3  # join, aggregate, sort

    def test_inner_join_semantics(self, hive):
        result = hive.execute(
            "SELECT ratings.user_id, movies.title FROM ratings "
            "JOIN movies ON ratings.movie_id = movies.id"
        )
        # 7 rating rows match a movie; movie 40 and title 50 drop out.
        assert len(result.rows) == 7
        assert all(title in {"Heat", "Alien", "Arrival"} for _, title in result.rows)

    def test_bare_columns_resolve_when_unambiguous(self, hive):
        result = hive.execute(
            "SELECT title, COUNT(*) FROM ratings "
            "JOIN movies ON movie_id = id GROUP BY title"
        )
        assert dict(result.rows) == {"Heat": 3, "Alien": 2, "Arrival": 2}

    def test_pushdown_filters_run_map_side(self, hive):
        result = hive.execute(
            "SELECT movies.title FROM ratings "
            "JOIN movies ON ratings.movie_id = movies.id "
            "WHERE movies.year < 1990 AND ratings.stars >= 5"
        )
        assert result.rows == [("Alien",)]

    def test_empty_join_result(self, hive):
        result = hive.execute(
            "SELECT movies.title FROM ratings "
            "JOIN movies ON ratings.movie_id = movies.id "
            "WHERE ratings.stars > 100"
        )
        assert result.rows == []

    def test_explain_renders_stages(self, hive):
        plan = hive.explain(
            "SELECT movies.title, COUNT(*) FROM ratings "
            "JOIN movies ON ratings.movie_id = movies.id "
            "GROUP BY movies.title ORDER BY COUNT(*) DESC LIMIT 1"
        )
        assert "repartition join" in plan
        assert "total-order sort" in plan

    def test_self_join_rejected(self, hive):
        with pytest.raises(ConfigError):
            hive.execute(
                "SELECT * FROM ratings JOIN ratings ON user_id = user_id"
            )

    def test_ambiguous_bare_column_rejected(self, hive):
        # "year" exists only in movies (fine); invent ambiguity via
        # a column name shared by neither → unknown-column error.
        with pytest.raises(ConfigError):
            hive.execute(
                "SELECT nonsense FROM ratings "
                "JOIN movies ON ratings.movie_id = movies.id"
            )


class TestMultiStageOrderBy:
    QUERIES = [
        "SELECT user_id, SUM(stars) FROM ratings GROUP BY user_id "
        "ORDER BY SUM(stars) DESC",
        "SELECT user_id, SUM(stars) FROM ratings GROUP BY user_id "
        "ORDER BY SUM(stars) LIMIT 2",
        "SELECT movie_id, AVG(stars) FROM ratings GROUP BY movie_id "
        "ORDER BY AVG(stars)",
        "SELECT user_id, movie_id FROM ratings ORDER BY movie_id DESC",
        "SELECT *, stars FROM ratings ORDER BY stars DESC LIMIT 3",
        "SELECT COUNT(*) FROM ratings ORDER BY COUNT(*)",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_sort_stage_matches_driver_side_sort(self, sql):
        legacy = _build_engine(multi_stage=False)
        staged = _build_engine(multi_stage=True, sort_partitions=3)
        expected = legacy.execute(sql)
        actual = staged.execute(sql)
        assert actual.rows == expected.rows
        assert actual.columns == expected.columns
        # The staged plan really did run an extra sort job.
        assert len(actual.stage_reports) > len(expected.stage_reports)


class TestOneExecutor:
    """``explain()`` and ``execute()`` ask the same predicate for "does
    ORDER BY run as a stage", so the plan printed is the plan run."""

    SHAPES = [
        "SELECT user_id, stars FROM ratings",
        "SELECT user_id, SUM(stars) FROM ratings GROUP BY user_id "
        "ORDER BY SUM(stars)",
        "SELECT ratings.user_id, movies.title FROM ratings "
        "JOIN movies ON ratings.movie_id = movies.id",
        "SELECT movies.title, COUNT(*) FROM ratings "
        "JOIN movies ON ratings.movie_id = movies.id "
        "GROUP BY movies.title ORDER BY COUNT(*) DESC",
    ]

    @pytest.mark.parametrize("multi_stage", [False, True])
    def test_explain_prints_one_line_per_stage_run(self, multi_stage):
        engine = _build_engine(multi_stage=multi_stage)
        for sql in self.SHAPES:
            # "final stage:" lines are driver-side work, not jobs.
            stage_lines = [
                line
                for line in engine.explain(sql).splitlines()
                if line.lstrip().startswith(("scan:", "stage ", "sort stage:"))
            ]
            assert len(stage_lines) == len(engine.execute(sql).stage_reports), sql

    @pytest.mark.parametrize("multi_stage", [False, True])
    def test_tab_inside_a_string_cell_survives_projection(self, multi_stage):
        """A projection line is all key; the driver used to cut it at
        the first TAB while the sort mapper read it whole."""
        engine = HiveLite(make_mr(num_workers=4, block_size=4096), multi_stage)
        engine.create_table(
            TableSchema(
                name="t",
                columns=(("id", ColumnType.INT), ("note", ColumnType.STRING)),
                location="/warehouse/t.csv",
            ),
            data="1,plain\n2,with\ttab\n3,zzz\n",
        )
        result = engine.execute("SELECT id, note FROM t ORDER BY id")
        assert result.rows == [(1, "plain"), (2, "with\ttab"), (3, "zzz")]


class TestParserJoin:
    def test_join_clause_parses(self):
        query = parse_query(
            "SELECT a.x FROM a JOIN b ON a.k = b.k WHERE a.x > 1"
        )
        assert query.is_join
        assert query.join_table == "b"
        assert query.join_on == ("a.k", "b.k")

    def test_join_requires_on(self):
        with pytest.raises(SqlError):
            parse_query("SELECT x FROM a JOIN b WHERE x > 1")

    def test_join_on_requires_equality(self):
        with pytest.raises(SqlError):
            parse_query("SELECT x FROM a JOIN b ON a.k > b.k")

    def test_plain_query_is_not_join(self):
        assert not parse_query("SELECT x FROM a").is_join


class TestRangePartitioner:
    def test_routes_by_boundary(self):
        part = RangePartitioner(["b", "d"])
        assert part.partition(Text("a"), 3) == 0
        assert part.partition(Text("b"), 3) == 1  # boundary goes right
        assert part.partition(Text("c"), 3) == 1
        assert part.partition(Text("z"), 3) == 2

    def test_clamps_to_num_reduces(self):
        part = RangePartitioner(["a", "b", "c", "d"])
        assert part.partition(Text("z"), 2) == 1

    def test_single_reduce_short_circuits(self):
        assert RangePartitioner([]).partition(Text("q"), 1) == 0


class TestAirlineThreeStageJoin:
    def test_best_carriers_match_ground_truth_with_na_rows_dropped(self):
        data = generate_airline(seed=7, num_rows=600)
        engine = HiveLite(
            make_mr(num_workers=4, block_size=16384), multi_stage=True
        )
        engine.create_table(
            TableSchema(
                name="flights",
                columns=(
                    ("year", ColumnType.INT),
                    ("month", ColumnType.INT),
                    ("day", ColumnType.INT),
                    ("dow", ColumnType.INT),
                    ("dep_time", ColumnType.INT),
                    ("carrier", ColumnType.STRING),
                    ("flight_num", ColumnType.INT),
                    ("arr_delay", ColumnType.INT),
                    ("dep_delay", ColumnType.INT),
                    ("origin", ColumnType.STRING),
                    ("dest", ColumnType.STRING),
                    ("distance", ColumnType.INT),
                    ("cancelled", ColumnType.INT),
                ),
                location="/warehouse/flights.csv",
                skip_header=True,
            ),
            data=data.csv_text,
        )
        engine.create_table(
            TableSchema(
                name="carriers",
                columns=(
                    ("code", ColumnType.STRING),
                    ("mean_delay", ColumnType.FLOAT),
                ),
                location="/warehouse/carriers.csv",
            ),
            data="\n".join(f"{code},{mean}" for code, mean, _ in CARRIERS) + "\n",
        )
        result = engine.execute(
            "SELECT carriers.code, AVG(flights.arr_delay) FROM flights "
            "JOIN carriers ON flights.carrier = carriers.code "
            "GROUP BY carriers.code ORDER BY AVG(flights.arr_delay) LIMIT 5"
        )
        truth = data.true_average_delays()
        assert len(result.rows) == 5
        for code, avg in result.rows:
            assert avg == pytest.approx(truth[code], rel=1e-9)
        assert result.rows[0][0] == data.best_carrier()
        averages = [avg for _, avg in result.rows]
        assert averages == sorted(averages)
        assert len(result.stage_reports) == 3  # join, aggregate, sort
        # Cancelled flights carry "NA" delays: they fail INT parsing and
        # never reach the join shuffle.
        na_rows = sum(",NA," in line for line in data.csv_text.splitlines())
        map_output = result.stage_reports[0].counters.get(C.MAP_OUTPUT_RECORDS)
        assert na_rows > 0
        assert map_output == data.num_rows - na_rows + len(CARRIERS)
