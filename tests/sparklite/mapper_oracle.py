"""The per-record sparklite stage mappers, kept as the test oracle.

Compiled sparklite stages once ran the default ``Mapper.run`` loop:
one ``map()`` call per ``(LongWritable offset, Text line)`` record.
``_ShuffleMapper`` and ``_JoinMapper`` now override ``run()`` and read
the split as text lines (``MapInput.lines()``); the ``map()`` bodies
below are the ones they replaced.  (``_OrderedMapper`` still maps
records: its order token is the byte offset.)  Codec names are looked
up on the planner at call time, so a patched-in codec oracle reaches
these bodies too.

:func:`oracle_class` gives a mapper class its per-record path back;
:func:`patch_in` puts both mappers on it.  Not collected by pytest.
"""

from __future__ import annotations

from repro.mapreduce.api import Context, Mapper
from repro.mapreduce.types import Text
from repro.sparklite import planner


def shuffle_map(self, key, value, context: Context) -> None:
    for k, v in self._elements(value.value):
        context.write(
            Text(planner.encode_element(k)), Text(planner.encode_element(v))
        )


def join_map(self, key, value, context: Context) -> None:
    side = self._spec.side
    if self._forward:
        k, v = planner.split_pair(value.value)
        context.write(Text(k), Text(side + v))
        return
    for k, v in self._elements(value.value):
        context.write(
            Text(planner.encode_element(k)), Text(side + planner.encode_element(v))
        )


#: (stage mapper class, its per-record ``map()`` body).
BODIES = (
    (planner._ShuffleMapper, shuffle_map),
    (planner._JoinMapper, join_map),
)


def oracle_class(cls: type[Mapper]) -> type[Mapper]:
    """``cls`` on the default ``run()`` loop with its old ``map()``."""
    body = dict(BODIES)[cls]
    return type(f"Oracle{cls.__name__}", (cls,), {"run": Mapper.run, "map": body})


def patch_in(monkeypatch) -> None:
    """Run both stage mappers record by record, through ``map()``."""
    for cls, body in BODIES:
        monkeypatch.setattr(cls, "run", Mapper.run)
        monkeypatch.setattr(cls, "map", body)
