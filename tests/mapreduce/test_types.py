"""Writable type system: serialization, ordering, custom records."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    NullWritable,
    Text,
    record_writable,
    typed_column,
    wrap,
)
from repro.util.errors import InvalidWritableError


def utf8_text_size(self) -> int:
    """``Text.serialized_size`` before ASCII text skipped the encode:
    the test oracle (every value encoded to UTF-8)."""
    return len(self.encode().encode("utf-8"))


class TestText:
    def test_round_trip(self):
        assert Text.decode(Text("héllo").encode()).value == "héllo"

    def test_serialized_size_is_utf8_bytes(self):
        assert Text("abc").serialized_size() == 3
        assert Text("é").serialized_size() == 2

    def test_ordering(self):
        assert Text("a") < Text("b")
        assert sorted([Text("c"), Text("a")])[0].value == "a"

    def test_type_checked(self):
        with pytest.raises(InvalidWritableError):
            Text(42)

    def test_cross_type_comparison_rejected(self):
        with pytest.raises(InvalidWritableError):
            _ = Text("1") < IntWritable(2)


class TestNumericWritables:
    def test_int_round_trip(self):
        assert IntWritable.decode(IntWritable(-17).encode()).value == -17

    def test_wire_sizes(self):
        assert IntWritable(5).serialized_size() == 4
        assert LongWritable(5).serialized_size() == 8
        assert FloatWritable(1.5).serialized_size() == 8

    def test_nan_is_one_key_sorted_after_every_number(self):
        nan = float("nan")
        keys = [FloatWritable(x) for x in (nan, 1.5, float("inf"), -nan, -1.0)]
        assert [k.encode() for k in sorted(keys)] == ["-1.0", "1.5", "inf", "nan", "nan"]
        assert FloatWritable(nan) == FloatWritable(-nan)
        assert hash(FloatWritable(nan)) == hash(FloatWritable(-nan))
        assert not FloatWritable(nan) < FloatWritable(nan)

    def test_signed_zeros_are_one_key(self):
        assert FloatWritable(0.0) == FloatWritable(-0.0)
        assert hash(FloatWritable(0.0)) == hash(FloatWritable(-0.0))

    def test_plain_float_column_orders_like_its_writables(self):
        items = [float("nan"), 2.5, -0.0, float("-inf"), 0.0, float("nan")]
        column = typed_column(items)
        assert column.plain
        assert column.sort_keys() == [FloatWritable(x).sort_key() for x in items]

    def test_float_round_trip_precision(self):
        value = 0.1 + 0.2
        assert FloatWritable.decode(FloatWritable(value).encode()).value == value

    def test_bool_rejected(self):
        with pytest.raises(InvalidWritableError):
            IntWritable(True)

    def test_equality_and_hash(self):
        assert IntWritable(3) == IntWritable(3)
        assert hash(IntWritable(3)) == hash(IntWritable(3))
        assert IntWritable(3) != LongWritable(3)  # distinct types


class TestNullWritable:
    def test_singleton(self):
        assert NullWritable() is NullWritable()

    def test_zero_size(self):
        assert NullWritable().serialized_size() == 0


class TestRecordWritable:
    SumCount = record_writable("SumCount", [("total", float), ("count", int)])

    def test_round_trip(self):
        sc = self.SumCount(total=2.5, count=3)
        assert self.SumCount.decode(sc.encode()) == sc

    def test_positional_and_keyword_construction(self):
        a = self.SumCount(1.0, 2)
        b = self.SumCount(total=1.0, count=2)
        assert a == b

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidWritableError):
            self.SumCount(total=1.0)

    def test_extra_field_rejected(self):
        with pytest.raises(InvalidWritableError):
            self.SumCount(total=1.0, count=1, bogus=2)

    def test_decode_arity_checked(self):
        with pytest.raises(InvalidWritableError):
            self.SumCount.decode("justone")

    def test_string_fields(self):
        Profile = record_writable("Profile", [("n", int), ("genre", str)])
        p = Profile(n=7, genre="Film-Noir")
        assert Profile.decode(p.encode()).genre == "Film-Noir"

    def test_sortable(self):
        a = self.SumCount(1.0, 1)
        b = self.SumCount(2.0, 0)
        assert a < b

    def test_repr_is_informative(self):
        assert "total=1.0" in repr(self.SumCount(1.0, 2))


class TestWrap:
    def test_wraps_plain_values(self):
        assert isinstance(wrap("x"), Text)
        assert isinstance(wrap(3), IntWritable)
        assert isinstance(wrap(2.5), FloatWritable)
        assert isinstance(wrap(None), NullWritable)

    def test_writable_passthrough(self):
        value = Text("keep")
        assert wrap(value) is value

    def test_bool_rejected(self):
        with pytest.raises(InvalidWritableError):
            wrap(True)

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidWritableError):
            wrap(object())

    def test_exact_builtins_keep_their_value(self):
        assert (type(wrap("x")), wrap("x").value) == (Text, "x")
        assert (type(wrap(3)), wrap(3).value) == (IntWritable, 3)
        assert (type(wrap(2.5)), wrap(2.5).value) == (FloatWritable, 2.5)
        assert wrap(None) is NullWritable()
        assert type(wrap(2**70)) is IntWritable  # never LongWritable

    def test_subclasses_of_plain_types_take_the_slow_path(self):
        class Word(str):
            pass

        class Count(int):
            pass

        class Ratio(float):
            pass

        word, count, ratio = wrap(Word("w")), wrap(Count(7)), wrap(Ratio(0.5))
        assert (type(word), word.value) == (Text, "w")
        assert (type(count), count.value) == (IntWritable, 7)
        assert (type(ratio), ratio.value) == (FloatWritable, 0.5)

    def test_writable_subclass_passthrough(self):
        class Word(Text):
            pass

        value = Word("kept")
        assert wrap(value) is value
        assert wrap(NullWritable()) is NullWritable()

    def test_error_messages_unchanged(self):
        with pytest.raises(InvalidWritableError) as bool_error:
            wrap(False)
        assert str(bool_error.value) == "cannot wrap bool as a Writable"
        with pytest.raises(InvalidWritableError) as list_error:
            wrap(["a"])
        assert str(list_error.value) == (
            "cannot wrap list as a Writable; "
            "emit str/int/float/None or a Writable instance"
        )

    def test_module_doctests(self):
        import doctest

        from repro.mapreduce import types

        results = doctest.testmod(types)
        assert results.attempted >= 6 and results.failed == 0


class TestMemoisation:
    """Writables carry no memo: a Writable holds its fields and nothing
    else, and ``serialized_size()`` and ``sort_key()`` compute on every
    call.  Sizing a value or taking its sort key leaves everything a
    consumer sees as it was."""

    @pytest.mark.parametrize(
        "w",
        [
            Text("naïve"),
            IntWritable(3),
            LongWritable(3),
            FloatWritable(1.5),
            record_writable("Pt", [("x", int), ("y", int)])(x=3, y=4),
        ],
        ids=lambda w: type(w).__name__,
    )
    def test_carries_its_fields_only(self, w):
        w.serialized_size(), w.sort_key()
        assert not hasattr(w, "__dict__")
        slots = [s for k in type(w).__mro__ for s in vars(k).get("__slots__", ())]
        assert slots in (["value"], ["x", "y"])

    def test_size_and_sort_key_compute_on_each_call(self):
        # Writables are never mutated in a job; doing it here shows that
        # nothing from an earlier call is kept.
        wide = Text("naïve payload")
        assert wide.serialized_size() == 14
        wide.value = "naïve"
        assert wide.serialized_size() == 6
        Pt = record_writable("Pt", [("x", int), ("y", int)])
        p = Pt(x=3, y=4)
        assert p.sort_key() == (3, 4)
        object.__setattr__(p, "x", 5)
        assert p.sort_key() == (5, 4)

    def test_serialized_size_encodes_once(self):
        # A str subclass counts the UTF-8 encodes sizing asks for.
        calls = {"n": 0}

        class CountingStr(str):
            def encode(self, *args, **kwargs):
                calls["n"] += 1
                return str.encode(self, *args, **kwargs)

        ascii_text = Text(CountingStr("ascii payload"))
        for _ in range(5):
            assert ascii_text.serialized_size() == 13
        # ASCII is one byte per character: sized with no encode.
        assert calls["n"] == 0
        wide = Text(CountingStr("naïve payload"))
        for n in range(1, 6):
            assert wide.serialized_size() == 14
            # One encode per sizing, and nothing kept between calls.
            assert calls["n"] == n
        assert not hasattr(wide, "__dict__")

    def test_record_sort_key_built_once_and_stable(self, monkeypatch):
        Pt = record_writable("Pt", [("x", int), ("y", int)])
        calls = {"n": 0}
        original = Pt.sort_key

        def counting_sort_key(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(Pt, "sort_key", counting_sort_key)
        points = [Pt(x=3, y=4), Pt(x=1, y=2), Pt(x=3, y=4)]
        # A column takes each record's sort key once.
        assert typed_column(points).sort_keys() == [(3, 4), (1, 2), (3, 4)]
        assert calls["n"] == len(points)
        p = points[0]
        assert p.sort_key() == p.sort_key() == (3, 4)  # stable across calls
        assert (p.x, p.y) == (3, 4)  # fields untouched by taking the key

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from("ab é日😀\x00"), st.characters(exclude_categories=["Cs"]))))
    def test_serialized_size_matches_the_utf8_oracle(self, value):
        assert Text(value).serialized_size() == utf8_text_size(Text(value))

    def test_memo_does_not_leak_into_equality_hash_or_pickle(self):
        import pickle

        sized = Text("same")
        sized.serialized_size(), sized.sort_key()
        fresh = Text("same")
        restored = pickle.loads(pickle.dumps(sized, protocol=pickle.HIGHEST_PROTOCOL))
        assert sized == fresh == restored
        assert hash(sized) == hash(fresh) == hash(restored)

    def test_comparisons_unchanged_after_memoisation(self):
        a, b = IntWritable(1), IntWritable(2)
        a.serialized_size(), b.serialized_size()
        assert a < b
        assert sorted([b, a]) == [a, b]
