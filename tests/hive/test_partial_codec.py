"""Hive's record codecs: ``Partial`` lines and schema row parsers.

``Partial.decode`` used to ``eval`` its ``minimum``/``maximum`` fields
and split the line on every ``":"``; ``tests/hive/partial_oracle.py``
keeps those bodies.  The line format is frozen, so the new encoder must
match the oracle byte for byte and the new decoder must agree wherever
the oracle decodes — and must also read what the oracle could not: a
string holding ``":"``, ``inf``, ``nan``.  The decoder is now
``parse_partial``, a tuple of fields, and the combiner/reducer fold
folds those tuples in place; it must equal the old decode-a-``Partial``-
and-``merge`` fold (``oracle.merged``) partial for partial.  Row parsers
now run a per-schema tuple of converters; they must parse what the
per-cell enum ladder parsed, and a schema must stay frozen, hashable and
picklable.  The stage tasks memoise per distinct value (the mapper's
value line, the merger's parsed line, the join key's token); their
output must still equal the per-row oracle, signed zeros and NaNs
included, and no memo may outgrow its bound.
"""

import dataclasses
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.hive import ColumnType, HiveLite, TableSchema
from repro.hive import planner
from repro.hive.engine import (
    AggCombiner,
    AggMapper,
    AggReducer,
    Partial,
    parse_partial,
)
from repro.hive import schema as schema_module
from repro.hive.schema import cell_converter
from repro.mapreduce.api import Context
from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import Counters
from repro.mapreduce.inputformat import MapInput, PrefetchedSplit, TextInputFormat
from repro.mapreduce.types import Text
from repro.sparklite.codec import encode_element
from tests.conftest import make_mr
from tests.hive import partial_oracle as oracle
from tests.sparklite.test_codec_differential import _same as _same_value

SETTINGS = settings(max_examples=300, deadline=None)

NUMBERS = [0, 1, -5, 10**30, 3.5, -2.25, 1e16, 1e-7, 0.1 + 0.2, -0.0, 5e-324]
NON_FINITE = [math.inf, -math.inf, math.nan]
STRINGS = [
    "",
    "plain",
    "Star Wars: A New Hope",
    "::",
    "it's",
    'say "hi"',
    "it's \"both\": quotes",
    "back\\slash\\",
    "\\'",
    "unicode é中😀",
    "ctrl\x01\x02\x04\ttab",
    "'1:2.0:3:4'",
]


def _partial_of(*values) -> Partial:
    partial = Partial()
    for value in values:
        oracle.observe(partial, value)
    return partial


def _decode(text: str) -> Partial:
    return Partial(*parse_partial(text))


def _same_partial(a: Partial, b: Partial) -> bool:
    return all(
        _same_value(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(Partial)
    )


class TestPartialRoundTrip:
    @pytest.mark.parametrize("value", NUMBERS + NON_FINITE + STRINGS, ids=repr)
    def test_one_observation(self, value):
        partial = _partial_of(value)
        assert _same_partial(_decode(partial.encode()), partial)

    @pytest.mark.parametrize(
        "low, high",
        [(1, 9), (-2.5, 1e16), (-math.inf, math.inf), ("a:b", "it's: \"z\""), ("", "'")],
    )
    def test_distinct_extrema(self, low, high):
        partial = _partial_of(low, high)
        decoded = _decode(partial.encode())
        assert _same_partial(decoded, partial)
        assert decoded.minimum == low and decoded.maximum == high

    def test_empty_partial(self):
        assert Partial().encode() == "0:0.0::"
        assert _same_partial(_decode("0:0.0::"), Partial())

    def test_parent_reproductions(self):
        # ValueError: too many values to unpack, then NameError x2, on the parent.
        assert _decode(_partial_of("Star Wars: A New Hope").encode()).minimum == (
            "Star Wars: A New Hope"
        )
        assert _decode(_partial_of(math.inf).encode()).maximum == math.inf
        assert math.isnan(_decode(_partial_of(math.nan).encode()).minimum)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1:2.0",
            "1:2.0:3",  # no separator between the extrema
            "1:2.0:'open:3",
            "1:2.0:'a''b':3",  # two literals where one belongs
            "1:2.0:'a':'b' + 'c'",
            "1:2.0:__import__('os'):3",
            "1:2.0:3:4:5",
            "x:2.0:3:4",
        ],
    )
    def test_corrupt_lines_are_value_errors(self, text):
        with pytest.raises(ValueError):
            _decode(text)


_observed = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(NUMBERS),
)
_colon_free = st.text(
    alphabet=st.one_of(
        st.sampled_from("'\"\\ ab\x01"), st.characters(exclude_categories=["Cs"], exclude_characters=":")
    ),
    max_size=10,
)


class TestPartialMatchesOracle:
    @SETTINGS
    @given(st.one_of(st.lists(_observed, max_size=4), st.lists(_colon_free, max_size=4)))
    def test_encoding_is_byte_identical_and_decodes_alike(self, values):
        partial = _partial_of(*values)
        line = partial.encode()
        assert line == oracle.encode_partial(partial)
        assert _same_partial(_decode(line), oracle.decode_partial(line))

    @SETTINGS
    @given(st.one_of(_observed, _colon_free, st.sampled_from(NON_FINITE + STRINGS)))
    def test_map_side_line_is_the_one_observation_partial(self, value):
        assert Partial.encode_one(value) == oracle.map_side_partial(value)


# --------------------------------------------------------------------------
# the combiner/reducer fold: in place, against decode-a-Partial-and-merge

_fold_numbers = st.lists(st.one_of(_observed, st.sampled_from(NON_FINITE)), max_size=3)
_fold_strings = st.lists(
    st.one_of(
        _colon_free, st.sampled_from(STRINGS), st.text(alphabet=":'\"\\ ab", max_size=6)
    ),
    max_size=3,
)


@st.composite
def _group_lines(draw):
    """One group's ``AGG_SEP``-joined value lines; each aggregate column
    holds numbers (with inf and NaN) or strings (with ``:`` and quotes),
    and an empty observation list gives the empty-extrema partial."""
    columns = draw(st.lists(st.sampled_from([_fold_numbers, _fold_strings]), min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=5))
    lines = [planner.AGG_SEP.join(_partial_of(*vals).encode() for vals in row) for row in rows]
    return len(columns), lines


def _merger(aggregates: int) -> AggCombiner:
    merger = AggCombiner()
    merger._finals = ("MIN",) * aggregates
    return merger


class TestMergedMatchesOracle:
    def _check(self, merger, lines):
        values = [Text(line) for line in lines]
        new = merger._merged(values)
        old = oracle.merged(merger, values)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert _same_partial(a, b)
            assert a.encode() == b.encode()

    @SETTINGS
    @given(_group_lines())
    def test_in_place_fold_is_decode_and_merge(self, group):
        aggregates, lines = group
        self._check(_merger(aggregates), lines)

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_a_line_with_the_wrong_number_of_aggregates_is_a_value_error(self, pieces):
        # The oracle zipped: extra pieces dropped, missing ones left COUNT 0.
        line = planner.AGG_SEP.join(["1:2.0:2.0:2.0"] * pieces)
        merger = _merger(2)
        with pytest.raises(ValueError, match=f"holds {pieces} aggregates, expected 2"):
            merger._merged([Text(line)])
        # Checked once per distinct line, not only on its first sight.
        with pytest.raises(ValueError):
            merger._merged([Text("1:2.0:2.0:2.0\x031:2.0:2.0:2.0"), Text(line)])

    @pytest.mark.parametrize(
        "lines",
        [
            ["0:0.0::", "0:0.0::"],
            ["0:0.0::", "1:0.0:'a:b':'a:b'", "1:0.0:'it\\'s: \"z\"':'it\\'s: \"z\"'"],
            ["1:nan:nan:nan", "1:1.0:1.0:1.0", "0:0.0::"],
            ["1:1.0:1.0:1.0", "1:nan:nan:nan"],
            ["2:-inf:-inf:inf", "1:-0.0:-0.0:-0.0", "1:0.0:0:0"],
        ],
    )
    def test_empty_extrema_colons_quotes_and_nan(self, lines):
        self._check(_merger(1), lines)


# --------------------------------------------------------------------------
# the memoised stage tasks: one encode/parse per distinct value, same bytes

#: One column per cell type, as a schema's converters produce them.
_INTS = [v for v in NUMBERS if isinstance(v, int)]
_FLOATS = [v for v in NUMBERS + NON_FINITE if isinstance(v, float)]


def _context(input_path=None, **params) -> Context:
    return Context(JobConf(name="memo", params=params), Counters(), input_path=input_path)


def _rows(copies: int = 2) -> list[list]:
    """``(int, float, str)`` rows over NUMBERS + NON_FINITE + STRINGS,
    each seen ``copies`` times; the float column mixes ``0.0`` with
    ``-0.0``, and NaN as one shared object with fresh NaN objects."""
    floats = _FLOATS + [0.0, -0.0, math.nan, math.nan, float("nan"), float("nan"), -0.0]
    size = max(len(_INTS), len(floats), len(STRINGS))
    rows = [
        [_INTS[i % len(_INTS)], floats[i % len(floats)], STRINGS[i % len(STRINGS)]]
        for i in range(size)
    ]
    return [list(row) for row in rows for _ in range(copies)]


#: The ``(int, float, str)`` rows as a table: "|" is in no STRINGS entry.
ROW_SCHEMA = TableSchema(
    name="cells",
    columns=(("i", ColumnType.INT), ("f", ColumnType.FLOAT), ("s", ColumnType.STRING)),
    location="/warehouse/cells",
    delimiter="|",
)


def _split(lines, seen=None) -> MapInput:
    """One split of ``lines``; ``seen(n)`` runs once the mapper has
    taken the n-th line (when it asks for the next, and at the end)."""
    split = MapInput(
        TextInputFormat, PrefetchedSplit("".join(f"{line}\n" for line in lines).encode(), 0)
    )
    if seen is not None:
        lines_of = split.lines

        def watched():
            for count, line in enumerate(lines_of(), 1):
                yield line
                seen(count)

        split.lines = watched
    return split


def _row_lines(rows) -> list[str]:
    """``ROW_SCHEMA`` lines that parse back to ``rows``."""
    return [f"{i}|{f!r}|{s}" for i, f, s in rows]


def _map_rows(rows, aggs=(None, 0, 1, 2), seen=None) -> tuple[AggMapper, list[str]]:
    """Run an ``AggMapper`` (no GROUP BY) over ``rows``' lines."""
    mapper = AggMapper()
    context = _context(hv_schema=ROW_SCHEMA, hv_where=(), hv_group=(), hv_aggs=aggs)
    mapper.run(_split(_row_lines(rows), seen and (lambda n: seen(mapper, n))), context)
    pairs = context.drain()
    assert {key.value for key, _value in pairs} == {planner.GLOBAL_GROUP}
    return mapper, [value.value for _key, value in pairs]


def _oracle_line(row, aggs=(None, 0, 1, 2)) -> str:
    return planner.AGG_SEP.join(
        oracle.map_side_partial(1 if index is None else row[index]) for index in aggs
    )


def _reduce(task_cls, finals, groups) -> list[str]:
    """One task instance reduces every group in turn (its memo warm)."""
    task = task_cls()
    context = _context(hv_finals=finals)
    task.setup(context)
    for lines in groups:
        task.reduce(Text("g"), [Text(line) for line in lines], context)
    return [value.value for _key, value in context.drain()]


class TestMemoisedTasksMatchOracle:
    FINALS = ("COUNT", "SUM", "AVG", "MAX")

    @pytest.mark.parametrize("aggs", [(None, 0, 1, 2), (None, 1), (1,)])
    def test_mapper_lines_are_the_per_row_oracle_encoding(self, aggs):
        rows = _rows()
        _mapper, lines = _map_rows(rows, aggs)
        assert lines == [_oracle_line(row, aggs) for row in rows]
        # The signed zeros really did go through the memoised mapper.
        assert {"1:0.0:0.0:0.0", "1:0.0:-0.0:-0.0"} <= {
            line.split(planner.AGG_SEP)[aggs.index(1)] for line in lines
        }

    def test_count_star_is_one_constant_partial(self):
        mapper, lines = _map_rows([[i, 1.5, "x"] for i in range(1, 50)], aggs=(None,))
        assert set(lines) == {"1:1.0:1:1"}
        assert list(mapper._lines) == [(1,)]

    def test_a_tuple_holding_a_zero_is_never_memoised(self):
        mapper, _lines = _map_rows(_rows())
        assert not any(0 in cells for cells in mapper._lines)

    def test_combiner_and_reducer_fold_as_the_oracle_does(self):
        rows = _rows()
        _mapper, lines = _map_rows(rows)
        # Groups of 1..7 lines: the float column's mixed zeros and NaNs
        # meet inside one group, and lines repeat within and across groups.
        groups, start = [], 0
        for size in itertools.cycle(range(1, 8)):
            if start >= len(lines):
                break
            groups.append(lines[start : start + size])
            start += size
        groups.append(lines)
        merger = _merger(len(self.FINALS))
        expected = [oracle.merged(merger, [Text(line) for line in group]) for group in groups]
        combined = _reduce(AggCombiner, self.FINALS, groups)
        assert combined == [
            planner.AGG_SEP.join(oracle.encode_partial(p) for p in partials)
            for partials in expected
        ]
        finals = _reduce(AggReducer, self.FINALS, groups)
        assert finals == [
            planner.AGG_SEP.join(
                "" if f is None else str(f)
                for f in (p.finalize(a) for p, a in zip(partials, self.FINALS))
            )
            for partials in expected
        ]

    def test_the_group_mixing_signed_zeros_keeps_their_order(self):
        lines = ["1:0.0:0.0:0.0", "1:-0.0:-0.0:-0.0", "1:0.0:0.0:0.0"]
        assert _reduce(AggCombiner, ("MIN",), [lines, lines[1:]]) == [
            "3:0.0:0.0:0.0",
            "2:0.0:-0.0:-0.0",
        ]

    @pytest.mark.parametrize("key", [1, 2])
    def test_join_tokens_of_every_kind_match_the_encoder(self, key):
        mapper, context = _join_mapper(key)
        lines = ["1,a,0.0", "1,a,-0.0", "2,b,nan", "2,b,-0.0", "1,a,0.0", "3,:,inf"] * 2
        mapper.run(_split(lines), context)
        parsed = [planner._parse_side_row(line, mapper._spec, mapper._converters) for line in lines]
        assert [(k.value, v.value) for k, v in context.drain()] == [
            (encode_element(row[key]), "0" + planner.ROW_SEP.join(map(str, row)))
            for row in parsed
        ]
        assert all(type(cell) is not float for cell in mapper._tokens)


class TestMemoBounds:
    """A high-cardinality attempt: every value distinct, more of them
    than one memo may hold.  The memo grows to ``_MEMO_LIMIT`` entries,
    then its task gives it up (None) and encodes each record directly."""

    LIMIT = planner._MEMO_LIMIT
    DISTINCT = LIMIT + 100

    @classmethod
    def _check_bound(cls, memo, seen: int) -> None:
        if seen < cls.LIMIT:
            assert len(memo) == seen
        else:
            assert memo is None

    def test_mapper_memo(self):
        rows = [[i, i + 0.5, f"s{i}"] for i in range(1, self.DISTINCT)]
        checked = []

        def seen(mapper, count):
            self._check_bound(mapper._lines, count)
            checked.append(count)

        _mapper, lines = _map_rows(rows, seen=seen)
        assert checked == list(range(1, len(rows) + 1))
        assert lines == [_oracle_line(row) for row in rows]

    def test_merger_memo(self):
        lines = [f"1:{i}.0:{i}:{i}" for i in range(self.DISTINCT)]
        merger = _merger(1)
        for seen, line in enumerate(lines, 1):
            merger._merged([Text(line)])
            self._check_bound(merger._parsed, seen)
        assert merger._merged([Text(line) for line in lines])[0].encode() == (
            oracle.merged(merger, [Text(line) for line in lines])[0].encode()
        )
        # A given-up memo still checks the aggregate count.
        with pytest.raises(ValueError, match="holds 2 aggregates, expected 1"):
            merger._merged([Text(lines[0] + planner.AGG_SEP + lines[0])])

    def test_join_token_memo(self):
        mapper, context = _join_mapper(key=0)
        cells = [(i, f"s{i % 7}", 0.5) for i in range(self.DISTINCT)]
        checked = []

        def seen(count):
            self._check_bound(mapper._tokens, count)
            checked.append(count)

        mapper.run(_split([",".join(map(str, cell)) for cell in cells], seen), context)
        assert checked == list(range(1, len(cells) + 1))
        assert [key.value for key, _value in context.drain()] == [
            encode_element(i) for i, _s, _f in cells
        ]

    def test_repeating_keys_keep_their_memo(self):
        # More records than the limit, few distinct: the memo stays.
        rows = [[i % 10 + 1, 0.5, "s"] for i in range(self.DISTINCT)]
        mapper, lines = _map_rows(rows, aggs=(0,))
        assert len(mapper._lines) == 10
        assert lines == [_oracle_line(row, (0,)) for row in rows]


def _join_mapper(key: int):
    """A join mapper (not yet set up: ``run()`` does that) reading the
    left side ``int,string,float`` on ``key``."""
    side = {
        "location": "/t/left",
        "delim": ",",
        "skip_header": False,
        "first": "",
        "kinds": ("int", "string", "float"),
        "conds": (),
        "key": key,
    }
    mapper = planner._JoinMapper()
    context = _context(input_path="/t/left", hv_join={"left": side, "right": side})
    return mapper, context


def _movie_engine(multi_stage: bool) -> HiveLite:
    engine = HiveLite(make_mr(num_workers=4, block_size=256), multi_stage=multi_stage)
    engine.create_table(
        TableSchema(
            name="movies",
            columns=(
                ("id", ColumnType.INT),
                ("title", ColumnType.STRING),
                ("genre", ColumnType.STRING),
                ("score", ColumnType.FLOAT),
            ),
            location="/warehouse/movies.psv",
            delimiter="|",
        ),
        data="".join(f"{i}|{t}|{g}|{s!r}\n" for i, t, g, s in MOVIES),
    )
    return engine


MOVIES = [
    (1, "Star Wars: A New Hope", "scifi", 8.6),
    (2, "Alien", "scifi", math.inf),
    (3, "2001: A Space Odyssey", "scifi", 8.3),
    (4, "It's \"Alive\": Part 2", "horror", 4.5),
    (5, "Zardoz", "scifi", -math.inf),
    (6, "Psycho", "horror", 8.5),
    (7, "M", "noir", 1e16),
    (8, "Heat: Director's Cut", "noir", 8.3),
] * 3


class TestMinMaxEndToEnd:
    SQL = (
        "SELECT genre, MIN(title), MAX(title), MAX(score), MIN(score), COUNT(*) "
        "FROM movies GROUP BY genre ORDER BY genre"
    )

    def test_strings_with_colons_and_inf_through_combiner_and_sort_stage(self):
        truth = []
        for genre in sorted({g for _i, _t, g, _s in MOVIES}):
            rows = [(t, s) for _i, t, g, s in MOVIES if g == genre]
            titles, scores = [t for t, _ in rows], [s for _, s in rows]
            truth.append(
                (genre, min(titles), max(titles), max(scores), min(scores), len(rows))
            )
        single = _movie_engine(multi_stage=False).execute(self.SQL)
        multi = _movie_engine(multi_stage=True).execute(self.SQL)
        assert len(multi.stage_reports) == 2  # aggregate, then total-order sort
        assert single.rows == truth
        assert multi.rows == truth

    def test_global_min_of_a_colon_title(self):
        result = _movie_engine(multi_stage=False).execute("SELECT MIN(title), MAX(score) FROM movies")
        assert result.rows == [("2001: A Space Odyssey", math.inf)]


# --------------------------------------------------------------------------
# row parsers

SCHEMA = TableSchema(
    name="ratings",
    columns=(
        ("user_id", ColumnType.INT),
        ("movie_id", ColumnType.INT),
        ("rating", ColumnType.FLOAT),
        ("note", ColumnType.STRING),
    ),
    location="/warehouse/ratings.dat",
    delimiter="::",
)

_cells = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True).map(repr),
    st.sampled_from(["", " 7 ", "1_0", "٣", "0x10", "inf", "1e3", "abc", "x:y"]),
)
_lines = st.lists(_cells, max_size=6).map("::".join)


class TestRowParsers:
    @SETTINGS
    @given(_lines)
    def test_parse_row_matches_the_enum_ladder(self, line):
        new, old = SCHEMA.parse_row(line), oracle.parse_row(SCHEMA, line)
        assert (new is None) == (old is None)
        if new is not None:
            assert all(_same_value(a, b) for a, b in zip(new, old)) and len(new) == len(old)

    @SETTINGS
    @given(_lines, st.booleans())
    def test_join_side_rows_match_the_kind_ladder(self, line, skip_header):
        spec = {
            "delim": "::",
            "skip_header": skip_header,
            "first": "7",
            "kinds": ("int", "int", "float", "string"),
        }
        converters = tuple(map(cell_converter, spec["kinds"]))
        new = planner._parse_side_row(line, spec, converters)
        old = oracle.parse_side_row(line, spec)
        assert (new is None) == (old is None)
        if new is not None:
            assert all(_same_value(a, b) for a, b in zip(new, old)) and len(new) == len(old)

    @pytest.mark.parametrize("kind", ["int", "float", "string", "raw"])
    def test_parse_cell_and_column_type_agree_with_the_ladders(self, kind):
        for raw in ("12", "-3", "2.5", "abc", ""):
            try:
                expected = oracle.parse_cell(kind, raw)
            except ValueError:
                with pytest.raises(ValueError):
                    cell_converter(kind)(raw)
                continue
            assert _same_value(cell_converter(kind)(raw), expected)
            if kind != "raw":
                assert _same_value(cell_converter(ColumnType(kind).value)(raw), expected)

    def test_converters_are_built_once_per_schema(self, monkeypatch):
        schema = dataclasses.replace(SCHEMA, name="fresh")
        calls = []
        original = schema_module.cell_converter
        monkeypatch.setattr(
            schema_module, "cell_converter", lambda kind: calls.append(kind) or original(kind)
        )
        assert schema.parse_row("1::2::3.5::a") == [1, 2, 3.5, "a"]
        first = schema._converters
        del calls[:]
        for i in range(100):
            assert schema.parse_row(f"{i}::2::3.5::a") == [i, 2, 3.5, "a"]
        assert calls == []
        assert schema._converters is first

    def test_a_schema_that_has_parsed_rows_is_still_a_value(self):
        schema = dataclasses.replace(SCHEMA, name="used")
        twin = dataclasses.replace(SCHEMA, name="used")
        assert schema.parse_row("1::2::3.5::a") is not None
        assert schema == twin and hash(schema) == hash(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            schema.delimiter = ","
        copy = pickle.loads(pickle.dumps(schema))
        assert copy == schema and hash(copy) == hash(schema)
        assert copy.parse_row("4::5::0.5::b") == [4, 5, 0.5, "b"]
