"""Property: a front-end stage mapper's ``run()`` over ``split.lines()``
does exactly what its old ``map()`` did over the split's records.

Six stage mappers read their split as text lines: Hive's ``AggMapper``,
``ProjectMapper``, ``_JoinMapper`` and ``_SortMapper``, and sparklite's
``_ShuffleMapper`` and ``_JoinMapper``.  Their per-record ``map()``
bodies are kept as oracles (``tests/hive/mapper_oracle.py``,
``tests/sparklite/mapper_oracle.py``), run by the default
``Mapper.run`` over ``TextInputFormat.parse_records``.  On every split
both must emit the same pairs in the same order, count the same input
records, and raise the same error after the same pairs.  The splits mix
empty lines, header rows, ``\\r\\n`` endings, invalid UTF-8, non-ASCII
text, malformed rows and a missing final newline, under slab sizes that
cut lines across slabs, make a line longer than its slab, or hold the
whole split in exactly one slab.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hive import ColumnType, TableSchema
from repro.hive import engine as hive_engine
from repro.hive import planner as hive_planner
from repro.hive.parser import SqlError
from repro.mapreduce.api import Context, Mapper
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import Counters
from repro.mapreduce.inputformat import MapInput, PrefetchedSplit, TextInputFormat
from repro.sparklite import planner as spark_planner
from repro.sparklite.codec import encode_element
from tests.hive import mapper_oracle as hive_oracle
from tests.properties import test_frontend_codec_identity as pipelines
from tests.sparklite import mapper_oracle as spark_oracle

SETTINGS = settings(max_examples=150, deadline=None)

PATH = "/in/part-00000"

ENDING = st.sampled_from([b"\n", b"\r\n"])
NAME = st.text(alphabet="ab Zé中😀:'\t\\", max_size=6)
FLOAT = st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0, 1e16, math.inf, math.nan])
#: Lines that are no row: empty, header, too few or many cells, a cell
#: that does not convert, invalid UTF-8 in a STRING cell.
NOT_ROWS = st.sampled_from(
    [b"", b"id,name,score", b"x,y", b"abc,n,1.0", b"1,n,zz", b"1,a,2.0,extra",
     b"1,\xff,2.0", b"2,\xe2\x82,3.5", b"\xff\xfe"]
)
ROW_LINE = st.one_of(
    st.builds(
        lambda i, name, score: f"{i},{name},{score!r}".encode(),
        st.integers(-3, 3),
        NAME,
        FLOAT,
    ),
    NOT_ROWS,
)


@st.composite
def splits(draw, line) -> tuple[bytes, int]:
    """A split's bytes and a slab size for ``lines()`` to read it with."""
    pieces = draw(st.lists(st.tuples(line, ENDING), max_size=10))
    data = b"".join(text + ending for text, ending in pieces)
    if pieces and draw(st.booleans()):
        data = data[: -len(pieces[-1][1])]  # no final newline
    slab = draw(st.one_of(st.integers(1, 24), st.just(max(len(data), 1))))
    return data, slab


def _pairs(context: Context) -> list[tuple]:
    return [
        (type(key).__name__, key.encode(), type(value).__name__, value.encode())
        for key, value in context.drain()
    ]


def _outcome(mapper_cls, params: dict, data: bytes, slab: int) -> tuple:
    """Everything one map attempt shows: its pairs in emission order, its
    counters and input-record count, or the error and the pairs before it."""
    context = Context(JobConf(name="diff", params=params), Counters(), input_path=PATH)
    split = MapInput(TextInputFormat, PrefetchedSplit(data=data, position=0))
    split.SLAB_BYTES = slab
    try:
        mapper_cls().run(split, context)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc), _pairs(context))
    return ("ok", _pairs(context), context.counters.as_dict(), split.records)


def _same(cls, oracle, params, data, slab) -> tuple:
    got = _outcome(cls, params, data, slab)
    assert got == _outcome(oracle.oracle_class(cls), params, data, slab)
    return got


# -- Hive -----------------------------------------------------------------

WHERE = st.sampled_from(
    [(), ((2, ">=", 1.5),), ((0, "=", 1),), ((1, "!=", "a"), (0, "<", 2))]
)


#: Cell types: typed, or all STRING, where only the header check keeps
#: a header row out (it parses).
KINDS = st.sampled_from([("int", "string", "float"), ("string",) * 3])


def _schema(skip_header: bool, kinds: tuple) -> TableSchema:
    return TableSchema(
        name="t",
        columns=tuple(zip(("id", "name", "score"), map(ColumnType, kinds))),
        location="/in",
        skip_header=skip_header,
    )


class TestHiveMappers:
    @SETTINGS
    @given(
        split=splits(ROW_LINE),
        skip_header=st.booleans(),
        kinds=KINDS,
        where=WHERE,
        group=st.sampled_from([(), (1,), (0, 2)]),
        aggs=st.sampled_from([(None,), (None, 0, 2), (1, 2)]),
    )
    def test_agg_mapper(self, split, skip_header, kinds, where, group, aggs):
        params = dict(
            hv_schema=_schema(skip_header, kinds),
            hv_where=where,
            hv_group=group,
            hv_aggs=aggs,
        )
        _same(hive_engine.AggMapper, hive_oracle, params, *split)

    @SETTINGS
    @given(
        split=splits(ROW_LINE),
        skip_header=st.booleans(),
        kinds=KINDS,
        where=WHERE,
        fields=st.sampled_from([((0, None), (1, None), (2, None)), ((1, len), (2, None))]),
    )
    def test_project_mapper(self, split, skip_header, kinds, where, fields):
        params = dict(
            hv_schema=_schema(skip_header, kinds), hv_where=where, hv_project=fields
        )
        _same(hive_engine.ProjectMapper, hive_oracle, params, *split)

    @pytest.mark.parametrize("skip_header", [False, True])
    def test_a_header_row_that_parses_is_skipped_alike(self, skip_header):
        schema = _schema(skip_header, ("string",) * 3)
        data, slab = b"id,name,score\r\n1,a,b\nid,c,d", 16
        got = _same(
            hive_engine.ProjectMapper,
            hive_oracle,
            dict(hv_schema=schema, hv_where=(), hv_project=((0, None),)),
            data,
            slab,
        )
        assert len(got[1]) == (1 if skip_header else 3)
        params = dict(hv_schema=schema, hv_where=(), hv_group=(0,), hv_aggs=(None,))
        _same(hive_engine.AggMapper, hive_oracle, params, data, slab)

    @SETTINGS
    @given(
        split=splits(ROW_LINE),
        skip_header=st.booleans(),
        kinds=KINDS,
        conds=WHERE,
        key=st.integers(0, 2),
        side=st.sampled_from(["left", "right"]),
    )
    def test_join_mapper(self, split, skip_header, kinds, conds, key, side):
        spec = {
            "location": "/in",
            "delim": ",",
            "skip_header": skip_header,
            "first": "id",
            "kinds": kinds,
            "conds": conds,
            "key": key,
        }
        other = dict(spec, location="/elsewhere")
        join = {"left": spec, "right": other} if side == "left" else {"left": other, "right": spec}
        _same(hive_planner._JoinMapper, hive_oracle, dict(hv_join=join), *split)

    def test_a_join_input_of_neither_side_fails_alike(self):
        spec = {"location": "/elsewhere", "delim": ",", "skip_header": False,
                "first": "id", "kinds": ("int",), "conds": (), "key": 0}
        got = _same(
            hive_planner._JoinMapper,
            hive_oracle,
            dict(hv_join={"left": spec, "right": spec}),
            b"1\n2\n",
            4,
        )
        assert got[:2] == ("raised", SqlError)

    @SETTINGS
    @given(
        split=splits(
            st.one_of(
                st.builds(
                    lambda i, name, score: f"{i}\x02{name}\x02{score!r}".encode(),
                    st.integers(-3, 3),
                    NAME,
                    FLOAT,
                ),
                NOT_ROWS,
            )
        ),
        sort=st.integers(0, 2),
    )
    def test_sort_mapper(self, split, sort):
        params = dict(
            hv_fields=(("key", 0, "int"), ("key", 1, "string"), ("key", 2, "float")),
            hv_agg=False,
            hv_sort=sort,
        )
        _same(hive_planner._SortMapper, hive_oracle, params, *split)


# -- sparklite --------------------------------------------------------------


def keyed_by_first_char(line: str) -> tuple:
    return line[:1], line


def words(line: str) -> list:
    return [(word, 1) for word in line.split()]


def doubled(value):
    return (value, value)


_ITEMS = st.one_of(st.integers(-5, 5), NAME, FLOAT, st.none())
ENCODED_LINE = st.one_of(
    st.builds(lambda k, v: encode_element((k, v)).encode(), _ITEMS, _ITEMS),
    st.builds(lambda k, v: encode_element([k, v]).encode(), _ITEMS, _ITEMS),
    st.sampled_from([b"", b"t-1", b"sx", b"t2,2:i1", b"\xff", b"i7"]),
)
RAW_LINE = st.one_of(
    st.text(alphabet="ab Zé中\t", max_size=8).map(str.encode), NOT_ROWS
)
SPECS = st.one_of(
    st.tuples(st.just("raw"), st.sampled_from(
        [(("map", keyed_by_first_char),), (("flat_map", words),),
         (("flat_map", words), ("filter", bool), ("map_values", doubled))]
    ), splits(RAW_LINE)),
    st.tuples(st.just("enc"), st.sampled_from(
        [(), (("map_values", doubled),), (("filter", bool),)]
    ), splits(ENCODED_LINE)),
)


def _spark_params(kind: str, chain: tuple, side: str) -> dict:
    spec = spark_planner._InputSpec(files=(PATH,), kind=kind, chain=chain, side=side)
    return dict(sl_inputs=(spec,))


class TestSparkliteMappers:
    @SETTINGS
    @given(spec=SPECS)
    def test_shuffle_mapper(self, spec):
        kind, chain, split = spec
        _same(spark_planner._ShuffleMapper, spark_oracle, _spark_params(kind, chain, ""), *split)

    @SETTINGS
    @given(spec=SPECS, side=st.sampled_from(["0", "1"]))
    def test_join_mapper(self, spec, side):
        kind, chain, split = spec
        _same(spark_planner._JoinMapper, spark_oracle, _spark_params(kind, chain, side), *split)

    def test_a_line_that_does_not_decode_fails_alike(self):
        got = _same(
            spark_planner._ShuffleMapper,
            spark_oracle,
            _spark_params("enc", (), ""),
            encode_element((1, "a")).encode() + b"\nt-1\n",
            1 << 20,
        )
        assert got[0] == "raised" and got[1].__name__ == "CodecError"
        assert len(got[3]) == 1  # the pair before the bad line


# -- whole pipelines --------------------------------------------------------


def test_pipelines_run_alike_record_by_record(monkeypatch):
    """PageRank and the Hive join query, every stage mapper on lines,
    against every stage mapper on records: same rows, ranks, counters
    and simulated time."""
    shipped = pipelines._run_pipelines()
    with monkeypatch.context() as patch:
        hive_oracle.patch_in(patch)
        spark_oracle.patch_in(patch)
        per_record = pipelines._run_pipelines()
    assert shipped["stages"] == 3 and shipped["rows"] and shipped["ranks"]
    for key in shipped:
        assert shipped[key] == per_record[key], key


@pytest.mark.parametrize("cls", [cls for cls, _ in hive_oracle.BODIES + spark_oracle.BODIES])
def test_every_line_mapper_overrides_run_and_drops_map(cls):
    assert cls.run is not Mapper.run
    assert cls.map is Mapper.map
