"""Hive-lite end to end: SQL answers vs plain-Python ground truth."""

import pickle
import warnings

import pytest

from repro.hive import ColumnType, HiveLite, TableSchema
from repro.hive.engine import Partial
from repro.hive.parser import SqlError
from repro.mapreduce.backend import create_backend
from repro.util.errors import ConfigError
from tests.conftest import make_mr
from tests.hive import partial_oracle as oracle

ROWS = [
    # name, team, score, minutes
    ("ada", "red", 10, 5.0),
    ("bob", "red", 20, 2.5),
    ("cat", "blue", 30, 1.0),
    ("dan", "blue", 40, 4.0),
    ("eve", "blue", 50, 3.0),
]


@pytest.fixture(scope="module")
def hive():
    cluster = make_mr(num_workers=4, block_size=4096)
    engine = HiveLite(cluster)
    data = "\n".join(
        f"{n},{t},{s},{m}" for n, t, s, m in ROWS
    ) + "\n"
    schema = TableSchema(
        name="players",
        columns=(
            ("name", ColumnType.STRING),
            ("team", ColumnType.STRING),
            ("score", ColumnType.INT),
            ("minutes", ColumnType.FLOAT),
        ),
        location="/warehouse/players.csv",
    )
    engine.create_table(schema, data=data)
    return engine


class TestProjection:
    def test_select_star(self, hive):
        result = hive.execute("SELECT * FROM players")
        assert result.columns == ("name", "team", "score", "minutes")
        assert len(result.rows) == 5
        assert ("ada", "red", 10, 5.0) in result.rows

    def test_select_columns(self, hive):
        result = hive.execute("SELECT name, score FROM players")
        assert result.columns == ("name", "score")
        assert ("cat", 30) in result.rows

    def test_where_filter(self, hive):
        result = hive.execute("SELECT name FROM players WHERE score > 25")
        assert {r[0] for r in result.rows} == {"cat", "dan", "eve"}

    def test_where_string_equality(self, hive):
        result = hive.execute("SELECT name FROM players WHERE team = 'red'")
        assert {r[0] for r in result.rows} == {"ada", "bob"}

    def test_where_and(self, hive):
        result = hive.execute(
            "SELECT name FROM players WHERE team = 'blue' AND score >= 40"
        )
        assert {r[0] for r in result.rows} == {"dan", "eve"}

    def test_limit(self, hive):
        result = hive.execute("SELECT name FROM players LIMIT 2")
        assert len(result.rows) == 2


class TestAggregation:
    def test_global_count(self, hive):
        result = hive.execute("SELECT COUNT(*) FROM players")
        assert result.rows == [(5,)]

    def test_group_by_count_and_avg(self, hive):
        result = hive.execute(
            "SELECT team, COUNT(*), AVG(score) FROM players GROUP BY team"
        )
        as_dict = {row[0]: row[1:] for row in result.rows}
        assert as_dict["red"] == (2, 15.0)
        assert as_dict["blue"] == (3, 40.0)

    def test_sum_min_max(self, hive):
        result = hive.execute(
            "SELECT team, SUM(score), MIN(score), MAX(score) FROM players "
            "GROUP BY team"
        )
        as_dict = {row[0]: row[1:] for row in result.rows}
        assert as_dict["red"] == (30.0, 10, 20)
        assert as_dict["blue"] == (120.0, 30, 50)

    def test_where_before_group(self, hive):
        result = hive.execute(
            "SELECT team, COUNT(*) FROM players WHERE score >= 20 "
            "GROUP BY team"
        )
        as_dict = dict(result.rows)
        assert as_dict == {"red": 1, "blue": 3}

    def test_order_by_aggregate_desc(self, hive):
        result = hive.execute(
            "SELECT team, AVG(score) FROM players GROUP BY team "
            "ORDER BY AVG(score) DESC"
        )
        assert [r[0] for r in result.rows] == ["blue", "red"]

    def test_order_by_group_column(self, hive):
        result = hive.execute(
            "SELECT team, COUNT(*) FROM players GROUP BY team ORDER BY team"
        )
        assert [r[0] for r in result.rows] == ["blue", "red"]

    def test_min_max_keep_column_type(self, hive):
        result = hive.execute(
            "SELECT team, MAX(minutes) FROM players GROUP BY team"
        )
        values = dict(result.rows)
        assert values["red"] == 5.0 and isinstance(values["red"], float)

    def test_combiner_installed(self, hive):
        result = hive.execute(
            "SELECT team, COUNT(*) FROM players GROUP BY team"
        )
        from repro.mapreduce.counters import C

        assert result.report.counters.get(C.COMBINE_INPUT_RECORDS) > 0


def shout(value):
    """A module-level UDF: it pickles with the job, by reference."""
    return str(value).upper()


SCHEMA = TableSchema(
    name="players",
    columns=(
        ("name", ColumnType.STRING),
        ("team", ColumnType.STRING),
        ("score", ColumnType.INT),
        ("minutes", ColumnType.FLOAT),
    ),
    location="/warehouse/players.csv",
)
MANY_ROWS = "".join(
    f"p{i},{('red', 'blue', 'green')[i % 3]},{i % 97},{(i % 13) / 4}\n"
    for i in range(3000)
)
GROUP_BY = (
    "SELECT team, COUNT(*), AVG(score), MIN(name), MAX(minutes) "
    "FROM players GROUP BY team"
)
PROJECTION = "SELECT name, score FROM players WHERE score > 50"
WITH_UDF = "SELECT shout(name), minutes FROM players WHERE team = 'red'"


class TestPooledExecution:
    """The generated aggregation and projection jobs are module-level
    classes configured through params, so they reach pool workers
    instead of falling back inline attempt by attempt."""

    def test_generated_jobs_pickle_and_reuse_their_classes(
        self, hive, monkeypatch
    ):
        hive.register_udf("shout", shout)
        jobs = []
        run_job = hive.cluster.run_job

        def capture(job, *args, **kwargs):
            jobs.append(job)
            return run_job(job, *args, **kwargs)

        monkeypatch.setattr(hive.cluster, "run_job", capture)
        for sql in (GROUP_BY, WITH_UDF, GROUP_BY, WITH_UDF):
            hive.execute(sql)
        assert [job.name for job in jobs] == [
            "hive-agg-players",
            "hive-select-players",
        ] * 2
        for first, again in zip(jobs[:2], jobs[2:]):
            assert type(first) is type(again)  # no class per query
            clone = pickle.loads(pickle.dumps(first))
            assert type(clone) is type(first)
            assert clone.describe() == first.describe()
            assert clone.conf.params == first.conf.params
        assert jobs[0].describe() == (
            "hive-agg-players(mapper=AggMapper, combiner=AggCombiner, "
            "reducer=AggReducer, reduces=1)"
        )
        assert jobs[1].describe() == (
            "hive-select-players(mapper=ProjectMapper, reduces=1)"
        )

    def test_pooled_queries_equal_serial_without_fallbacks(self):
        answers = {}
        for backend_name in ("serial", "pooled"):
            backend = create_backend(backend_name, 2)
            with make_mr(num_workers=2, block_size=4096, backend=backend) as mr:
                engine = HiveLite(mr)
                engine.create_table(SCHEMA, data=MANY_ROWS)
                engine.register_udf("shout", shout)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    answers[backend_name] = [
                        engine.execute(sql).rows
                        for sql in (GROUP_BY, PROJECTION, WITH_UDF)
                    ]
            assert backend.inline_fallbacks == 0
        assert answers["pooled"] == answers["serial"]
        assert all(answers["serial"])


class TestValidation:
    def test_unknown_table(self, hive):
        with pytest.raises(ConfigError):
            hive.execute("SELECT * FROM ghosts")

    def test_unknown_column(self, hive):
        with pytest.raises(ConfigError):
            hive.execute("SELECT bogus FROM players")

    def test_non_grouped_column_rejected(self, hive):
        with pytest.raises(SqlError):
            hive.execute("SELECT name, COUNT(*) FROM players GROUP BY team")

    def test_sum_of_string_rejected(self, hive):
        with pytest.raises(SqlError):
            hive.execute("SELECT SUM(name) FROM players")

    def test_order_by_unselected_rejected(self, hive):
        with pytest.raises(SqlError):
            hive.execute("SELECT name FROM players ORDER BY score")

    def test_star_with_aggregate_rejected(self, hive):
        with pytest.raises(SqlError):
            hive.execute("SELECT *, COUNT(*) FROM players")


class TestExplain:
    def test_explain_mentions_stages(self, hive):
        plan = hive.explain(
            "SELECT team, AVG(score) FROM players WHERE score > 0 "
            "GROUP BY team ORDER BY AVG(score) LIMIT 3"
        )
        assert "map-side filter" in plan
        assert "shuffle key: team" in plan
        assert "combiner: automatic" in plan
        assert "limit 3" in plan

    def test_explain_projection(self, hive):
        plan = hive.explain("SELECT name FROM players")
        assert "map-only projection" in plan


class TestPartialMonoid:
    def test_merge_is_associative(self):
        values = [1, 5, 2, 9, 3]
        # ((a+b)+c) vs (a+(b+c)) over arbitrary splits.
        def partial_of(vals):
            p = Partial()
            for v in vals:
                oracle.observe(p, v)
            return p

        left = partial_of(values[:2])
        left.merge(partial_of(values[2:]))
        right = partial_of(values[:4])
        right.merge(partial_of(values[4:]))
        assert left.encode() == right.encode()
        assert left.finalize("AVG") == sum(values) / len(values)
        assert left.finalize("MIN") == 1 and left.finalize("MAX") == 9

    def test_encode_decode_round_trip(self):
        p = Partial()
        for v in ("alpha", "beta"):
            oracle.observe(p, v)
        decoded = Partial.decode(p.encode())
        assert decoded.minimum == "alpha" and decoded.maximum == "beta"
        assert decoded.count == 2

    def test_empty_partial_finalizes_none(self):
        assert Partial().finalize("AVG") is None
        assert Partial().finalize("COUNT") == 0


class TestCsvWithHeader:
    def test_header_skipped(self):
        cluster = make_mr(num_workers=2, block_size=4096)
        engine = HiveLite(cluster)
        schema = TableSchema(
            name="h",
            columns=(("a", ColumnType.STRING), ("n", ColumnType.INT)),
            location="/warehouse/h.csv",
            skip_header=True,
        )
        engine.create_table(schema, data="a,n\nx,1\ny,2\n")
        result = engine.execute("SELECT COUNT(*) FROM h")
        assert result.rows == [(2,)]
