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
    wrap,
)
from repro.util.errors import InvalidWritableError


def memoised_text_size(self) -> int:
    """``Text.serialized_size`` before ASCII text skipped the memo: the
    test oracle (every text filled the memo on its first sizing)."""
    try:
        return self._size_memo
    except AttributeError:
        text = self.encode()
        size = len(text) if text.isascii() else len(text.encode("utf-8"))
        self._size_memo = size
        return size


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
    """Writables are immutable; size/sort-key memos must be pure reuse."""

    def test_serialized_size_encodes_once(self, monkeypatch):
        calls = {"n": 0}
        original = Text.encode

        def counting_encode(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(Text, "encode", counting_encode)
        ascii_text = Text("ascii payload")
        for _ in range(5):
            assert ascii_text.serialized_size() == 13
        # ASCII is one byte per character: sized with no encode, no memo.
        assert calls["n"] == 0
        assert not hasattr(ascii_text, "_size_memo")
        wide = Text("naïve payload")
        for _ in range(5):
            assert wide.serialized_size() == 14
        assert calls["n"] == 1
        assert wide._size_memo == 14

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.one_of(st.sampled_from("ab é日😀\x00"), st.characters(exclude_categories=["Cs"]))))
    def test_serialized_size_matches_the_memoised_oracle(self, value):
        text = Text(value)
        assert text.serialized_size() == memoised_text_size(Text(value))
        assert text.serialized_size() == len(value.encode("utf-8"))
        # A memo the wire decoder planted is the same number either way.
        planted = Text(value)
        planted._size_memo = len(value.encode("utf-8"))
        assert planted.serialized_size() == text.serialized_size()

    def test_record_sort_key_built_once_and_stable(self):
        Pt = record_writable("Pt", [("x", int), ("y", int)])
        p = Pt(x=3, y=4)
        key1 = p.sort_key()
        key2 = p.sort_key()
        assert key1 is key2  # memo reuse, not recomputation
        assert key1 == (3, 4)
        assert (p.x, p.y) == (3, 4)  # fields untouched by memoisation

    def test_memo_does_not_leak_into_equality_hash_or_pickle(self):
        import pickle

        warmed = Text("same")
        warmed.serialized_size()
        warmed.sort_key()
        fresh = Text("same")
        assert warmed == fresh
        assert hash(warmed) == hash(fresh)
        restored = pickle.loads(
            pickle.dumps(warmed, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert restored == fresh
        assert restored.serialized_size() == fresh.serialized_size()

    def test_comparisons_unchanged_after_memoisation(self):
        a, b = IntWritable(1), IntWritable(2)
        a.serialized_size(), b.serialized_size()
        assert a < b
        assert sorted([b, a]) == [a, b]
