"""Hive's record codecs: ``Partial`` lines and schema row parsers.

``Partial.decode`` used to ``eval`` its ``minimum``/``maximum`` fields
and split the line on every ``":"``; ``tests/hive/partial_oracle.py``
keeps those bodies.  The line format is frozen, so the new encoder must
match the oracle byte for byte and the new decoder must agree wherever
the oracle decodes — and must also read what the oracle could not: a
string holding ``":"``, ``inf``, ``nan``.  Row parsers now run a
per-schema tuple of converters; they must parse what the per-cell enum
ladder parsed, and a schema must stay frozen, hashable and picklable.
"""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.hive import ColumnType, HiveLite, TableSchema
from repro.hive import planner
from repro.hive.engine import Partial
from repro.hive import schema as schema_module
from repro.hive.schema import cell_converter
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


def _same_partial(a: Partial, b: Partial) -> bool:
    return all(
        _same_value(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(Partial)
    )


class TestPartialRoundTrip:
    @pytest.mark.parametrize("value", NUMBERS + NON_FINITE + STRINGS, ids=repr)
    def test_one_observation(self, value):
        partial = _partial_of(value)
        assert _same_partial(Partial.decode(partial.encode()), partial)

    @pytest.mark.parametrize(
        "low, high",
        [(1, 9), (-2.5, 1e16), (-math.inf, math.inf), ("a:b", "it's: \"z\""), ("", "'")],
    )
    def test_distinct_extrema(self, low, high):
        partial = _partial_of(low, high)
        decoded = Partial.decode(partial.encode())
        assert _same_partial(decoded, partial)
        assert decoded.minimum == low and decoded.maximum == high

    def test_empty_partial(self):
        assert Partial().encode() == "0:0.0::"
        assert _same_partial(Partial.decode("0:0.0::"), Partial())

    def test_parent_reproductions(self):
        # ValueError: too many values to unpack, then NameError x2, on the parent.
        assert Partial.decode(_partial_of("Star Wars: A New Hope").encode()).minimum == (
            "Star Wars: A New Hope"
        )
        assert Partial.decode(_partial_of(math.inf).encode()).maximum == math.inf
        assert math.isnan(Partial.decode(_partial_of(math.nan).encode()).minimum)

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
            Partial.decode(text)


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
        assert _same_partial(Partial.decode(line), oracle.decode_partial(line))

    @SETTINGS
    @given(st.one_of(_observed, _colon_free, st.sampled_from(NON_FINITE + STRINGS)))
    def test_map_side_line_is_the_one_observation_partial(self, value):
        assert Partial.encode_one(value) == oracle.map_side_partial(value)


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
