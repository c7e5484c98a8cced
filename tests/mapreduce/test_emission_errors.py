"""An emission that does not wrap fails its attempt with one message.

A mapper, a combiner or a reducer that emits a ``bool``, a ``list`` or
a ``bytes`` key or value fails the attempt with the ``TaskFailedError``
text it always had — ``<phase> raised InvalidWritableError: ...`` — and
when several emissions are bad, the one reported is the first in
emission order, a key before the value of its own pair.  The map side
now raises when the attempt's output drains rather than inside
``Context.write``; nothing here can tell the two apart.
"""

import pytest

from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import IntSumReducer
from repro.mapreduce.api import Job, Mapper, Reducer
from repro.mapreduce.config import JobConf
from repro.mapreduce.local_runner import LocalJobRunner
from repro.util.errors import TaskFailedError

WIDE = "emit str/int/float/None or a Writable instance"

#: bad value -> the InvalidWritableError text it raises.
BAD = {
    "bool": (True, "cannot wrap bool as a Writable"),
    "list": (["x"], f"cannot wrap list as a Writable; {WIDE}"),
    "bytes": (b"x", f"cannot wrap bytes as a Writable; {WIDE}"),
}


def _run(job):
    fs = LinuxFileSystem()
    fs.write_file("/in/a.txt", "a b a\nc a b\n")
    with LocalJobRunner(localfs=fs) as runner:
        return runner.run(job, "/in", "/out")


def _failure(job) -> str:
    with pytest.raises(TaskFailedError) as failed:
        _run(job)
    return str(failed.value)


def _job(mapper=None, combiner=None, reducer=IntSumReducer):
    class EmissionJob(Job):
        pass

    EmissionJob.mapper = mapper or PlainMapper
    EmissionJob.combiner = combiner
    EmissionJob.reducer = reducer
    return EmissionJob(JobConf(name="emission", num_reduces=2))


class PlainMapper(Mapper):
    def map(self, key, value, context):
        for word in value.value.split():
            context.write(word, 1)


def _bad_mapper(bad, *, as_key: bool, after: int):
    """A WordCount mapper whose emission number ``after`` carries
    ``bad`` as its key or its value."""

    class BadMapper(Mapper):
        def setup(self, context):
            self.emitted = 0

        def map(self, key, value, context):
            for word in value.value.split():
                if self.emitted == after:
                    context.write(*((bad, 1) if as_key else (word, bad)))
                else:
                    context.write(word, 1)
                self.emitted += 1

    return BadMapper


def _bad_reducer(bad):
    class BadReducer(Reducer):
        def reduce(self, key, values, context):
            context.write(key, bad)

    return BadReducer


@pytest.mark.parametrize("kind", sorted(BAD))
class TestEveryPhaseKeepsItsMessage:
    @pytest.mark.parametrize("as_key", [False, True], ids=["value", "key"])
    @pytest.mark.parametrize("after", [0, 3])
    def test_map(self, kind, as_key, after):
        bad, message = BAD[kind]
        mapper = _bad_mapper(bad, as_key=as_key, after=after)
        assert _failure(_job(mapper)) == f"map raised InvalidWritableError: {message}"

    def test_combine(self, kind):
        bad, message = BAD[kind]
        job = _job(combiner=_bad_reducer(bad))
        assert _failure(job) == f"combine raised InvalidWritableError: {message}"

    def test_reduce(self, kind):
        bad, message = BAD[kind]
        job = _job(reducer=_bad_reducer(bad))
        assert _failure(job) == f"reduce raised InvalidWritableError: {message}"


class FirstBadPairMapper(Mapper):
    """A bad value, then a bad key of a later pair: the value is first."""

    def map(self, key, value, context):
        context.write("a", 1)
        context.write("a", False)
        context.write(b"a", 1)


class BadKeyAndValueMapper(Mapper):
    """One pair, bad on both sides: its key is reported."""

    def map(self, key, value, context):
        context.write(["k"], b"v")


class TestTheFirstBadEmissionIsReported:
    def test_an_earlier_value_before_a_later_key(self):
        assert _failure(_job(FirstBadPairMapper)) == (
            "map raised InvalidWritableError: cannot wrap bool as a Writable"
        )

    def test_a_key_before_its_own_value(self):
        assert _failure(_job(BadKeyAndValueMapper)) == (
            f"map raised InvalidWritableError: cannot wrap list as a Writable; {WIDE}"
        )
