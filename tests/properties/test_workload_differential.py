"""Hypothesis differential suite: compiled workloads ≡ reference paths.

Random pipelines and random tables, two evaluators each:

- sparklite: random element mixes and transformation chains run on a
  local context and on a compiled one must collect the exact same list
  (order, values, types);
- Hive: random tables and ORDER BY queries answered by the legacy
  driver-side sort and the multi-stage total-order sort stage must
  return the exact same rows.

Pipelines use module-level functions only, so the compiled runs stay
poolable — and any silent fallback would still be caught by identity.
"""

from hypothesis import given, settings, strategies as st

from repro.hive import ColumnType, HiveLite, TableSchema
from repro.sparklite import SparkLiteContext
from tests.conftest import make_mr

# -- sparklite ------------------------------------------------------------


def double(x):
    return x * 2


def negate(x):
    return -x


def is_positive(x):
    return x > 0


def fan(x):
    return [x, -x]


def pair_mod3(x):
    return (x % 3, x)


def add(a, b):
    return a + b


def subtract(a, b):  # non-associative on purpose
    return a - b


STEPS = st.sampled_from(
    [
        ("map-double", lambda r: r.map(double)),
        ("map-negate", lambda r: r.map(negate)),
        ("filter-positive", lambda r: r.filter(is_positive)),
        ("flat-fan", lambda r: r.flat_map(fan)),
        ("distinct", lambda r: r.distinct(2)),
    ]
)

WIDE = st.sampled_from(
    [
        ("fold-add", lambda r: r.map(pair_mod3).reduce_by_key(add, 2)),
        ("fold-sub", lambda r: r.map(pair_mod3).reduce_by_key(subtract, 2)),
        ("group", lambda r: r.map(pair_mod3).group_by_key(3)),
    ]
)


class TestSparkliteCompiledEqualsLocal:
    @settings(max_examples=12, deadline=None)
    @given(
        data=st.lists(st.integers(min_value=-30, max_value=30), max_size=25),
        steps=st.lists(STEPS, max_size=3),
        wide=WIDE,
        num_partitions=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=1, max_value=3),
    )
    def test_random_pipelines_bit_identical(
        self, data, steps, wide, num_partitions, seed
    ):
        def run(sc):
            rdd = sc.parallelize(data, num_partitions)
            for _name, step in steps:
                rdd = step(rdd)
            rdd = wide[1](rdd)
            return rdd.collect()

        local = run(SparkLiteContext.local(num_executors=3))
        compiled = run(
            SparkLiteContext.on_mapreduce(num_workers=4, seed=seed)
        )
        assert compiled == local


# -- Hive ------------------------------------------------------------------

ROW = st.tuples(
    st.integers(min_value=0, max_value=5),  # grp
    st.integers(min_value=-100, max_value=100),  # score
    st.floats(
        min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
    ),
)

HIVE_SQL = st.sampled_from(
    [
        "SELECT grp, SUM(score) FROM t GROUP BY grp ORDER BY SUM(score)",
        "SELECT grp, AVG(weight) FROM t GROUP BY grp "
        "ORDER BY AVG(weight) DESC LIMIT 3",
        "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY COUNT(*) DESC",
        "SELECT grp, score FROM t ORDER BY score LIMIT 5",
        "SELECT grp, weight FROM t ORDER BY weight DESC",
    ]
)


class TestHiveMultiStageEqualsLegacy:
    @settings(max_examples=10, deadline=None)
    @given(rows=st.lists(ROW, min_size=0, max_size=20), sql=HIVE_SQL)
    def test_sort_stage_equals_driver_sort(self, rows, sql):
        def build(multi_stage):
            engine = HiveLite(
                make_mr(num_workers=4, block_size=4096),
                multi_stage=multi_stage,
                sort_partitions=3,
            )
            engine.create_table(
                TableSchema(
                    name="t",
                    columns=(
                        ("grp", ColumnType.INT),
                        ("score", ColumnType.INT),
                        ("weight", ColumnType.FLOAT),
                    ),
                    location="/warehouse/t.csv",
                ),
                data="".join(f"{g},{s},{w!r}\n" for g, s, w in rows),
            )
            return engine

        legacy = build(multi_stage=False).execute(sql)
        staged = build(multi_stage=True).execute(sql)
        assert staged.rows == legacy.rows
        assert staged.columns == legacy.columns
