"""The decode → re-encode stage bodies, kept as the test oracle.

Compiled sparklite stages once decoded every element they touched and
re-encoded it on the way out, even the parts their user code never
reads: join sides, reducer keys, a lone ``reduce_by_key`` value, the
elements ``count()`` only counts.  ``repro.sparklite.planner`` now
forwards those encoded items (``split_pair`` / ``pair`` /
``encoded_list``); these are the bodies it replaced.  The join
mapper's body is a whole ``run()`` over the split's records, since the
shipped mapper overrides ``run()`` (and reads text lines).  The codec is
looked up on :mod:`repro.sparklite.codec` at call time, so a test that
patches the codec oracle in runs these bodies on it too.  Patch them in
with :func:`patch_in`: every output byte, counter and simulated second
must be the same either way.
"""

from __future__ import annotations

from repro.mapreduce.api import Context
from repro.mapreduce.inputformat import MapInput
from repro.mapreduce.types import NullWritable, Text
from repro.sparklite import codec, planner
from repro.sparklite.rdd import RDD


def join_run(self, split: MapInput, context: Context) -> None:
    self.setup(context)
    side = self._spec.side
    for _key, value in split:
        for k, v in self._elements(value.value):
            context.write(
                Text(codec.encode_element(k)), Text(side + codec.encode_element(v))
            )
    self.cleanup(context)


def fold_reduce(self, key, values, context: Context) -> None:
    fn = self._fn
    acc = None
    seen = False
    for value in values:
        item = codec.decode_element(value.value)
        if not seen:
            acc, seen = item, True
        else:
            acc = fn(acc, item)
    context.write(
        NullWritable(),
        Text(codec.encode_element((codec.decode_element(key.value), acc))),
    )


def group_reduce(self, key, values, context: Context) -> None:
    items = [codec.decode_element(v.value) for v in values]
    context.write(
        NullWritable(),
        Text(codec.encode_element((codec.decode_element(key.value), items))),
    )


def join_reduce(self, key, values, context: Context) -> None:
    lefts: list = []
    rights: list = []
    for value in values:
        text = value.value
        (lefts if text[0] == "0" else rights).append(
            codec.decode_element(text[1:])
        )
    if not lefts or not rights:
        return
    decoded_key = codec.decode_element(key.value)
    for right in rights:
        for left in lefts:
            context.write(
                NullWritable(),
                Text(codec.encode_element((decoded_key, (left, right)))),
            )


def count(self) -> int:
    runner = self.context._compiled_runner()
    if runner is not None:
        return len(runner.collect(self))
    return sum(len(self.partition(i)) for i in range(self.num_partitions))


#: (class, method name, oracle body) for every body above.
BODIES = (
    (planner._JoinMapper, "run", join_run),
    (planner._FoldReducer, "reduce", fold_reduce),
    (planner._GroupReducer, "reduce", group_reduce),
    (planner._JoinReducer, "reduce", join_reduce),
    (RDD, "count", count),
)


def patch_in(monkeypatch) -> None:
    """Run every compiled stage and action through the oracle bodies."""
    for cls, name, body in BODIES:
        monkeypatch.setattr(cls, name, body)
