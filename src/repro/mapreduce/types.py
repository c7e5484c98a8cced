"""Writable types: Hadoop's serialization contract, in Python.

Why bother with Writables in a Python engine?  Two of the course's
assignments hinge on them: the combiner variant of the airline-delay
example "requires the implementation of a customized Hadoop Value
class", and the top-rater assignment needs "a customized Hadoop output
value class, as the information needed in the reduce step requires
several values for each key".  Serialized sizes also drive the shuffle
byte accounting students observe in job reports.

:func:`record_writable` builds such custom value classes declaratively::

    SumCount = record_writable("SumCount", [("total", float), ("count", int)])
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from repro.util.errors import InvalidWritableError

#: Fixed-width integer ranges shared with the binary shuffle codec
#: (``repro.mapreduce.wire``): serialized sizes below must agree with
#: the codec's frame payload widths byte-for-byte.
INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class Writable:
    """Base contract: serializable to/from UTF-8 text, totally ordered.

    Text serialization (rather than binary) keeps job output files
    human-readable — what ``hadoop fs -cat`` on a ``part-00000`` shows.

    Instances are value objects: once constructed they are never
    mutated, which is what lets :meth:`serialized_size` (and composite
    sort keys) be memoised per instance — the shuffle byte-accounting
    walks the same pair lists many times (map output, per-partition
    spill, per-reduce fetch pricing), and without the memo every walk
    re-encodes every value.
    """

    #: Memo slots shared by all subclasses (which declare ``__slots__``
    #: of their own, so instances carry no ``__dict__``).
    __slots__ = ("_size_memo", "_key_memo")

    def encode(self) -> str:
        raise NotImplementedError

    @classmethod
    def decode(cls, text: str) -> "Writable":
        raise NotImplementedError

    def serialized_size(self) -> int:
        """Bytes this value contributes to map output / shuffle traffic.

        Memoised: Writables are immutable, so the first encode's size
        is reused for every later accounting pass.
        """
        try:
            return self._size_memo
        except AttributeError:
            size = len(self.encode().encode("utf-8"))
            self._size_memo = size
            return size

    # Ordering / equality via the sort key -------------------------------
    def sort_key(self) -> Any:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.sort_key() == other.sort_key()  # type: ignore[union-attr]

    def __lt__(self, other: "Writable") -> bool:
        self._check_comparable(other)
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Writable") -> bool:
        self._check_comparable(other)
        return self.sort_key() <= other.sort_key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.sort_key()))

    def _check_comparable(self, other: object) -> None:
        if type(self) is not type(other):
            raise InvalidWritableError(
                f"cannot compare {type(self).__name__} with {type(other).__name__}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.encode()!r})"


class Text(Writable):
    """A UTF-8 string key/value."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise InvalidWritableError(f"Text requires str, got {type(value).__name__}")
        self.value = value

    def encode(self) -> str:
        return self.value

    @classmethod
    def decode(cls, text: str) -> "Text":
        return cls(text)

    def sort_key(self) -> str:
        return self.value

    def serialized_size(self) -> int:
        try:
            return self._size_memo
        except AttributeError:
            # ASCII (nearly every key of the course's corpora) is one
            # byte per character: no throwaway UTF-8 copy to measure.
            text = self.encode()
            size = len(text) if text.isascii() else len(text.encode("utf-8"))
            self._size_memo = size
            return size


class IntWritable(Writable):
    """A (bounded, in Java) integer; unbounded here but named faithfully."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidWritableError(
                f"IntWritable requires int, got {type(value).__name__}"
            )
        self.value = value

    def encode(self) -> str:
        return str(self.value)

    @classmethod
    def decode(cls, text: str) -> "IntWritable":
        return cls(int(text))

    def sort_key(self) -> int:
        return self.value

    def serialized_size(self) -> int:
        # Hadoop writes ints as 4 bytes on the wire; Python ints are
        # unbounded, so values past 32 bits widen to a long (8 bytes)
        # and past 64 bits to their decimal text — keeping this number
        # equal to the bytes the binary shuffle codec actually emits
        # (asserted by tests/mapreduce/test_wire.py).
        if INT32_MIN <= self.value <= INT32_MAX:
            return 4
        if INT64_MIN <= self.value <= INT64_MAX:
            return 8
        return len(str(self.value))


class LongWritable(IntWritable):
    """A 64-bit integer (e.g., TextInputFormat's byte-offset keys)."""

    __slots__ = ()

    def serialized_size(self) -> int:
        if INT64_MIN <= self.value <= INT64_MAX:
            return 8
        return len(str(self.value))


class FloatWritable(Writable):
    """A floating-point value (DoubleWritable is the same thing here)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidWritableError(
                f"FloatWritable requires float, got {type(value).__name__}"
            )
        self.value = float(value)

    def encode(self) -> str:
        return repr(self.value)

    @classmethod
    def decode(cls, text: str) -> "FloatWritable":
        return cls(float(text))

    def sort_key(self) -> float:
        return self.value

    def serialized_size(self) -> int:
        return 8


DoubleWritable = FloatWritable


class NullWritable(Writable):
    """The empty placeholder (e.g., keys of a value-only output)."""

    _instance: "NullWritable | None" = None

    def __new__(cls) -> "NullWritable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def encode(self) -> str:
        return ""

    @classmethod
    def decode(cls, text: str) -> "NullWritable":
        return cls()

    def sort_key(self) -> str:
        return ""

    def serialized_size(self) -> int:
        return 0


_FIELD_SEP = "\x01"  # never appears in course data


def record_writable(
    name: str, fields: list[tuple[str, Callable[[str], Any]]]
) -> type:
    """Create a custom composite Writable class (a "custom value class").

    ``fields`` is a list of ``(field_name, type_constructor)`` pairs; the
    constructor (``int``, ``float``, ``str``) also parses the field back
    from text.

    >>> SumCount = record_writable("SumCount", [("total", float), ("count", int)])
    >>> sc = SumCount(total=12.5, count=3)
    >>> SumCount.decode(sc.encode()) == sc
    True
    >>> sc.total
    12.5
    """
    field_names = [f[0] for f in fields]
    field_types = [f[1] for f in fields]

    class _Record(Writable):
        __slots__ = tuple(field_names)

        def __init__(self, *args: Any, **kwargs: Any):
            values = list(args)
            if len(values) > len(field_names):
                raise InvalidWritableError(
                    f"{name} takes {len(field_names)} fields, got {len(values)}"
                )
            for field_name in field_names[len(values):]:
                if field_name not in kwargs:
                    raise InvalidWritableError(f"{name} missing field {field_name!r}")
                values.append(kwargs.pop(field_name))
            if kwargs:
                raise InvalidWritableError(
                    f"{name} got unexpected fields {sorted(kwargs)}"
                )
            for field_name, value in zip(field_names, values):
                object.__setattr__(self, field_name, value)

        def encode(self) -> str:
            return _FIELD_SEP.join(
                str(getattr(self, field_name)) for field_name in field_names
            )

        @classmethod
        def decode(cls, text: str) -> "_Record":
            parts = text.split(_FIELD_SEP)
            if len(parts) != len(field_names):
                raise InvalidWritableError(
                    f"cannot decode {name} from {text!r}: "
                    f"expected {len(field_names)} fields, got {len(parts)}"
                )
            return cls(*(t(p) for t, p in zip(field_types, parts)))

        def sort_key(self) -> tuple:
            # Memoised: building the field tuple on every comparison
            # dominates composite-key sorts otherwise.
            try:
                return self._key_memo
            except AttributeError:
                key = tuple(
                    getattr(self, field_name) for field_name in field_names
                )
                self._key_memo = key
                return key

        def __repr__(self) -> str:
            inner = ", ".join(
                f"{field_name}={getattr(self, field_name)!r}"
                for field_name in field_names
            )
            return f"{name}({inner})"

    _Record.__name__ = name
    _Record.__qualname__ = name
    # Pretend the class was defined where record_writable was called
    # (the namedtuple trick), so module-level record classes pickle by
    # reference — required to ship pairs to process-pool workers.
    try:
        _Record.__module__ = sys._getframe(1).f_globals.get(
            "__name__", __name__
        )
    except (AttributeError, ValueError):  # pragma: no cover - exotic runtimes
        pass
    return _Record


#: Key classes (exact, not subclasses) whose ``sort_key()`` is the whole
#: key: equal sort keys mean equal encodings, so equal partitions and
#: sizes — what lets the shuffle partition and size a run of equal keys
#: once.  ``FloatWritable`` is not one (``0.0 == -0.0``), nor is a
#: ``record_writable`` class (``(1,) == (1.0,)``).
SORT_KEY_PINS_ENCODING = frozenset({Text, IntWritable, LongWritable, NullWritable})


def _wrap_null(_value: None) -> Writable:
    return NullWritable()


#: Exact plain type -> Writable constructor: the whole cost of ``wrap``
#: for the values user code actually emits.
_WRAPPERS: dict[type, Callable[[Any], Writable]] = {
    str: Text,
    int: IntWritable,
    float: FloatWritable,
    type(None): _wrap_null,
}


def wrap(value: Any) -> Writable:
    """Auto-wrap plain Python values emitted by user code.

    >>> wrap("hello")
    Text('hello')
    >>> wrap(3)
    IntWritable('3')
    """
    if isinstance(value, Writable):
        return value
    wrapper = _WRAPPERS.get(type(value))
    if wrapper is None:
        wrapper = _subclass_wrapper(value)
    return wrapper(value)


def _subclass_wrapper(value: Any) -> Callable[[Any], Writable]:
    """The slow path of :func:`wrap`: subclasses of the plain types."""
    if isinstance(value, bool):
        raise InvalidWritableError("cannot wrap bool as a Writable")
    for plain, wrapper in _WRAPPERS.items():
        if isinstance(value, plain):
            return wrapper
    raise InvalidWritableError(
        f"cannot wrap {type(value).__name__} as a Writable; "
        f"emit str/int/float/None or a Writable instance"
    )
