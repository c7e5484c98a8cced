"""A Hadoop-streaming-style functional front end.

The REU boot camp (Version 3) taught everything "on the command line
terminal" with minimal ceremony; this is the minimal-ceremony API:
plain functions instead of Mapper/Reducer classes.

>>> job = streaming_job(
...     name="wc",
...     map_fn=lambda k, v: ((w, 1) for w in v.split()),
...     reduce_fn=lambda k, vs: [(k, sum(vs))],
... )
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.config import JobConf
from repro.mapreduce.types import Writable

MapFn = Callable[[str, str], Iterable[tuple[object, object]]]
ReduceFn = Callable[[str, list], Iterable[tuple[object, object]]]


def _decode_key(key: Writable):
    """Streaming hands user functions plain strings/numbers.

    Scalar writables (Text/IntWritable/FloatWritable) unwrap to their
    plain value; composite record writables pass through unchanged so a
    streaming combiner can work with custom value classes.
    """
    if hasattr(key, "value"):
        return key.value
    if isinstance(key, Writable) and type(key).__name__ == "NullWritable":
        return None
    return key


class _StreamMapper(Mapper):
    def __init__(self, map_fn: MapFn):
        self.map_fn = map_fn

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        for out_key, out_value in self.map_fn(_decode_key(key), _decode_key(value)):
            context.write(out_key, out_value)


class _StreamReducer(Reducer):
    def __init__(self, fn: ReduceFn):
        self.fn = fn

    def reduce(self, key, values, context: Context) -> None:
        plain = [_decode_key(v) for v in values]
        for out_key, out_value in self.fn(_decode_key(key), plain):
            context.write(out_key, out_value)


def _factory(cls: type, fn: Callable | None):
    """What ``Job`` expects of a mapper/reducer "class": a zero-argument
    callable with a ``__name__`` — here ``cls`` bound to the user's
    function, so no class is built per job."""
    if fn is None:
        return None
    bound = partial(cls, fn)
    bound.__name__ = cls.__name__
    return bound


class _StreamJob(Job):
    def __init__(self, map_fn, reduce_fn, combine_fn, conf: JobConf, **params):
        self.mapper = _factory(_StreamMapper, map_fn)
        self.reducer = _factory(_StreamReducer, reduce_fn)
        self.combiner = _factory(_StreamReducer, combine_fn)
        super().__init__(conf=conf, **params)


def streaming_job(
    name: str,
    map_fn: MapFn,
    reduce_fn: ReduceFn | None = None,
    combine_fn: ReduceFn | None = None,
    num_reduces: int = 1,
    conf: JobConf | None = None,
    **params,
) -> Job:
    """Build a :class:`~repro.mapreduce.api.Job` from plain functions.

    ``map_fn(key, value)`` receives the record key (byte offset for text
    input) and the line; it returns/yields ``(key, value)`` pairs.
    ``reduce_fn(key, values)`` receives a key string and the list of
    plain values; it returns/yields output pairs.  ``combine_fn`` runs as
    the combiner and must be a monoid over ``reduce_fn``'s input.

    Every call returns an instance of the one module-level job class;
    the functions ride on the instance, not in per-call classes.
    """
    job_conf = conf or JobConf(name=name, num_reduces=num_reduces)
    if conf is not None:
        job_conf.name = name
    return _StreamJob(map_fn, reduce_fn, combine_fn, job_conf, **params)
