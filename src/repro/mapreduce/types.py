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

import operator
import sys
from itertools import filterfalse
from typing import Any, Callable, NamedTuple

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

    Instances are plain value objects: once constructed they are never
    mutated, and they hold their fields and nothing else.
    :meth:`serialized_size` and :meth:`sort_key` compute on every call;
    the shuffle sizes a map output once, when its attempt ends, a
    column at a time (:meth:`Column.nbytes`).
    """

    #: Subclasses declare ``__slots__`` of their own, so instances carry
    #: no ``__dict__``.
    __slots__ = ()

    def encode(self) -> str:
        raise NotImplementedError

    @classmethod
    def decode(cls, text: str) -> "Writable":
        raise NotImplementedError

    def serialized_size(self) -> int:
        """Bytes this value contributes to map output / shuffle traffic."""
        return len(self.encode().encode("utf-8"))

    @classmethod
    def column_size(cls, column: Column) -> int:
        """:meth:`serialized_size` summed over a :class:`Column`.

        This asks every Writable.  A class whose size rule reads only
        its raw values overrides it to size them without instances, and
        :meth:`Column.nbytes` uses only the exact class's own override.
        """
        return sum([w.serialized_size() for w in column.writables()])

    # Ordering / equality via the sort key -------------------------------
    def sort_key(self) -> Any:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.sort_key() == other.sort_key()  # type: ignore[union-attr]

    def __lt__(self, other: "Writable") -> bool:
        if type(self) is not type(other):
            raise InvalidWritableError(
                f"cannot compare {type(self).__name__} with {type(other).__name__}"
            )
        return self.sort_key() < other.sort_key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.sort_key()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.encode()!r})"


class _Scalar(Writable):
    """A Writable of one ``value`` slot, ordered by the value itself."""

    __slots__ = ("value",)

    def sort_key(self) -> Any:
        return self.value


class Text(_Scalar):
    """A UTF-8 string key/value."""

    __slots__ = ()

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise InvalidWritableError(f"Text requires str, got {type(value).__name__}")
        self.value = value

    def encode(self) -> str:
        return self.value

    @classmethod
    def decode(cls, text: str) -> "Text":
        return cls(text)

    def serialized_size(self) -> int:
        """UTF-8 bytes of the value.

        ASCII (nearly every key of the course's corpora) is one byte per
        character, and ``str.isascii`` is O(1) in CPython (the string
        carries the flag), so ASCII text is sized with no encode.  Only
        non-ASCII text encodes.
        """
        value = self.value
        return len(value) if value.isascii() else len(value.encode("utf-8"))

    @classmethod
    def column_size(cls, column: Column) -> int:
        # The lengths, plus the UTF-8 surplus of the non-ASCII values.
        text = column.sort_keys()
        nbytes = sum(map(len, text))
        wide = list(filterfalse(str.isascii, text))
        if wide:
            nbytes += sum(len(s.encode("utf-8")) - len(s) for s in wide)
        return nbytes


class IntWritable(_Scalar):
    """A (bounded, in Java) integer; unbounded here but named faithfully."""

    __slots__ = ()

    def __init__(self, value: int):
        # An exact ``int`` (every plain emission) decides in one test.
        if type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            raise InvalidWritableError(
                f"IntWritable requires int, got {type(value).__name__}"
            )
        self.value = value

    def encode(self) -> str:
        return str(self.value)

    @classmethod
    def decode(cls, text: str) -> "IntWritable":
        return cls(int(text))

    #: ``(bytes, low, high)``: the fixed widths a value may take,
    #: narrowest first.  Hadoop writes ints as 4 bytes on the wire;
    #: Python ints are unbounded, so values past 32 bits widen to a long
    #: (8 bytes) and past 64 bits to their decimal text.  The binary
    #: shuffle codec packs the 4-byte case at exactly this width
    #: (asserted by tests/mapreduce/test_wire.py); a wider value keeps
    #: its map output in object form.
    _WIDTHS = ((4, INT32_MIN, INT32_MAX), (8, INT64_MIN, INT64_MAX))

    def serialized_size(self) -> int:
        value = self.value
        for width, low, high in self._WIDTHS:
            if low <= value <= high:
                return width
        return len(str(value))

    @classmethod
    def column_size(cls, column: Column) -> int:
        # 4 bytes a value when the column's extremes lie within 32 bits.
        ints = column.sort_keys()
        if ints and INT32_MIN <= min(ints) and max(ints) <= INT32_MAX:
            return 4 * len(ints)
        return super().column_size(column)


class LongWritable(IntWritable):
    """A 64-bit integer (e.g., TextInputFormat's byte-offset keys)."""

    __slots__ = ()
    _WIDTHS = ((8, INT64_MIN, INT64_MAX),)


class FloatWritable(_Scalar):
    """A floating-point value (DoubleWritable is the same thing here).

    Totally ordered: every ``nan`` is one key, sorted after every number
    (Java's ``Double.compare`` puts NaN last too), not a key that
    compares false both ways.  ``0.0`` and ``-0.0`` stay one key, as
    Hadoop 1's comparator has it.
    """

    __slots__ = ()

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

    def sort_key(self) -> tuple[bool, float]:
        value = self.value
        return (True, 0.0) if value != value else (False, value)

    def serialized_size(self) -> int:
        return 8

    @classmethod
    def column_size(cls, column: Column) -> int:
        return 8 * len(column.items)


DoubleWritable = FloatWritable


class NullWritable(Writable):
    """The empty placeholder (e.g., keys of a value-only output)."""

    _instance: "NullWritable | None" = None

    def __new__(cls, _value: None = None) -> "NullWritable":
        # ``_value`` lets ``NullWritable(None)`` wrap a plain ``None``.
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def encode(self) -> str:
        return ""

    def sort_key(self) -> str:
        return ""


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
            return tuple(getattr(self, field_name) for field_name in field_names)

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


#: Exact plain type -> the Writable class that wraps it: the whole cost
#: of ``wrap`` for the values user code actually emits.
_WRAPPERS: dict[type, type] = {
    str: Text,
    int: IntWritable,
    float: FloatWritable,
    type(None): NullWritable,
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


def _subclass_wrapper(value: Any) -> type:
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


_VALUE_OF = operator.attrgetter("value")


class Column(NamedTuple):
    """One side (keys or values) of a map attempt's output, typed once.

    ``items`` are what user code emitted, in emission order.  When
    ``plain``, they are plain values of one exact type and ``cls(item)``
    is an item's Writable; otherwise they are Writables — of the one
    exact class ``cls``, or of several classes (``cls`` is None).
    """

    items: list
    cls: type | None
    plain: bool = False

    def writables(self) -> list:
        """Every item as a Writable, in emission order.

        Emitted Writables are the items themselves.  A plain ``str`` or
        ``int`` column builds one Writable per distinct item, the
        distinct items taken in emission order, and every record of that
        item shares it: Hadoop's reduce iterator reuses its value object,
        and the wire decoder shares one per run of equal encodings.
        Equal items of these types encode alike.  A ``float`` column
        builds one per record: ``0.0 == -0.0`` would share one Writable
        between two encodings.  ``None`` wraps to the ``NullWritable``
        singleton.
        """
        if not self.plain:
            return self.items
        cls, items = self.cls, self.items
        if cls is Text or cls is IntWritable:
            distinct = dict.fromkeys(items)
            shared = dict(zip(distinct, map(cls, distinct)))
            return list(map(shared.__getitem__, items))
        return list(map(cls, items))

    def sort_keys(self) -> list:
        """Every item's ``sort_key()``, read without building a Writable
        (plain items but ``float`` are their own) and, for ``Text``,
        ``IntWritable`` and ``LongWritable``, without a call per item."""
        if self.plain and self.cls is not FloatWritable:
            return self.items
        items = self.writables()
        if self.cls is Text or self.cls is IntWritable or self.cls is LongWritable:
            return list(map(_VALUE_OF, items))
        return [item.sort_key() for item in items]

    def nbytes(self) -> int:
        """``serialized_size()`` summed over the column's Writables, by
        the column class's own :meth:`Writable.column_size` — not one it
        inherits: a subclass (``LongWritable`` of ``IntWritable``) may
        size its instances otherwise."""
        cls = self.cls
        if cls is None or "column_size" not in vars(cls):
            cls = Writable
        return cls.column_size(self)


def typed_column(items: list) -> Column:
    """Type a column of emitted objects with C-level passes.

    One exact plain type (``str``/``int``/``float``/``None``) keeps the
    items as they are and builds their Writables on demand; one exact
    Writable class keeps the emitted instances (so emit aliasing is what
    it always was).  Anything else — mixed classes, subclasses, ``bool``,
    objects that do not wrap — is wrapped item by item with :func:`wrap`,
    raising its :class:`~repro.util.errors.InvalidWritableError`.
    """
    classes = set(map(type, items))
    if len(classes) == 1:
        (kind,) = classes
        cls = _WRAPPERS.get(kind)
        if cls is not None:
            return Column(items, cls, plain=True)
        if issubclass(kind, Writable):
            return Column(items, kind)
    writables = list(map(wrap, items))
    classes = set(map(type, writables))
    return Column(writables, classes.pop() if len(classes) == 1 else None)


def typed_columns(keys: list, values: list) -> tuple[Column, Column]:
    """:func:`typed_column` of both sides of an attempt's output.

    On an emission that does not wrap, the error raised is the one
    wrapping pair by pair in emission order meets first — the key before
    the value of the same pair.
    """
    try:
        return typed_column(keys), typed_column(values)
    except InvalidWritableError:
        for key, value in zip(keys, values):
            wrap(key)
            wrap(value)
        raise
