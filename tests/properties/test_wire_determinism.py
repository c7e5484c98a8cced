"""Property: the framed shuffle transport is invisible to results.

The binary wire codec (``repro.mapreduce.wire``) only changes how
pooled task payloads cross the process boundary.  Everything the
simulation can observe — counters, output pairs, simulated clocks,
event counts — must be bit-identical between
``shuffle_transport="framed"`` on a pooled backend and the serial
backend (the transport oracle: its map outputs stay in object form and
nothing is ever framed), on the local runner and the cluster, and
under every chaos drill with the runtime sanitizer watching.
"""

import warnings

import pytest

from repro.datasets.airline import generate_airline
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.airline_delay import AirlineDelayCombinerJob
from repro.jobs.wordcount import IntSumReducer, WordCountJob, WordCountWithCombinerJob
from repro.mapreduce.api import Job, Mapper, Reducer
from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import perf_stats
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.types import (
    FloatWritable,
    IntWritable,
    LongWritable,
    Text,
    record_writable,
)

ALL_DRILLS = tuple(SCENARIOS)

CORPUS = (
    "the quick brown fox jumps over the lazy dog\n" * 300
    + "pack my box with five dozen liquor jugs\n" * 200
)


def _mr_config(transport, backend="pooled"):
    """``(config, backend name)``; ``backend="serial"`` is the oracle and
    ``transport`` is moot there."""
    return MapReduceConfig(shuffle_transport=transport), backend


def _local_fingerprint(
    setup, job_cls=WordCountWithCombinerJob, corpus=CORPUS, unframed_maps=False
):
    """Everything a transport must not move, part-file bytes included."""
    mr_config, backend = setup
    fs = LinuxFileSystem()
    fs.write_file("/data/corpus.txt", corpus)
    perf_stats().reset()
    with LocalJobRunner(
        localfs=fs,
        backend=create_backend(backend, 2),
        mr_config=mr_config,
        split_size=8 * 1024,
    ) as runner:
        job = job_cls(JobConf(name="wc", num_reduces=3))
        result = runner.run(job, "/data/corpus.txt", "/out")
    # built-in Writables always frame; an unframeable class never does
    expected_fallbacks = result.num_splits if unframed_maps else 0
    assert perf_stats().frame_fallbacks == expected_fallbacks
    return (
        result.simulated_seconds,
        result.counters.as_dict(),
        tuple(sorted(result.pairs)),
        result.num_splits,
        {name: fs.read_file(f"/out/{name}") for name in fs.listdir("/out")},
    )


def _cluster_fingerprint(setup):
    mr_config, backend = setup
    with MapReduceCluster(
        num_workers=4,
        seed=11,
        mr_config=mr_config,
        backend=create_backend(backend, 2),
    ) as mr:
        mr.client().put_text("/in/corpus.txt", CORPUS)
        job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=3))
        report = mr.run_job(job, "/in", "/out", require_success=True)
        return (
            report.elapsed,
            report.counters.as_dict(),
            tuple(sorted(mr.read_output("/out"))),
            mr.sim.now,
            mr.sim.events_processed,
        )


class _NumberKeyMapper(Mapper):
    """Emit ``(float(token), 1)`` per token."""

    def map(self, key, value, context):
        for token in value.value.split():
            context.write(FloatWritable(float(token)), IntWritable(1))


class FloatKeyJob(Job):
    mapper = _NumberKeyMapper
    reducer = IntSumReducer


#: A value class whose reference does not resolve back to it, so its
#: map outputs cannot be framed and stay in object form.
Unframeable = record_writable("Unframeable", [("n", int)])
Unframeable.__qualname__ = "make.<locals>.Unframeable"


class _UnframeableValueMapper(Mapper):
    def map(self, key, value, context):
        for token in value.value.split():
            context.write(Text(token), Unframeable(n=1))


class _FieldSumReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, IntWritable(sum(v.n for v in values)))


class UnframeableValueJob(Job):
    mapper = _UnframeableValueMapper
    reducer = _FieldSumReducer


#: ``0.0`` / ``-0.0`` are one reduce group with two encodings, so which
#: of them names the group depends on the merge order.
FLOATS = "1.5 -0.0 0.0 2.25 -3.0 0.0 -0.0 1e300 inf -inf 7.0 1.5\n" * 400
#: A NaN key is its own group and makes a blob unsortable.
FLOATS_WITH_NAN = FLOATS.replace("2.25", "nan")


class TestWholeJobIdentity:
    """serial == framed == shm, down to the part files."""

    @pytest.mark.parametrize(
        "job_cls, corpus",
        [(WordCountJob, CORPUS), (FloatKeyJob, FLOATS)],
        ids=["wordcount-no-combiner", "float-keys"],
    )
    def test_every_transport_matches_serial(self, job_cls, corpus):
        serial = _local_fingerprint(
            _mr_config("framed", backend="serial"), job_cls, corpus
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for transport in ("framed", "shm"):
                pooled = _local_fingerprint(_mr_config(transport), job_cls, corpus)
                assert pooled == serial, transport

    def test_unframeable_outputs_ship_in_object_form(self):
        """Pooled but unframed: every map output falls back to object
        form (counted), the reduce side concatenates and sorts, and the
        job still answers exactly like serial.  A class that cannot be
        framed cannot be pickled either, so every attempt of it re-runs
        inline, with a warning."""
        serial = _local_fingerprint(
            _mr_config("framed", backend="serial"), UnframeableValueJob
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pooled = _local_fingerprint(
                _mr_config("framed"), UnframeableValueJob, unframed_maps=True
            )
        assert pooled == serial

    def test_nan_keys_serial_equals_pooled(self):
        """Regression: ``sk < prev`` is False for NaN, so a blob with NaN
        keys used to be flagged sorted and heap-merged into a sequence
        (and reduce groups) the serial concat-and-sort never produces."""
        serial = _local_fingerprint(
            _mr_config("framed", backend="serial"), FloatKeyJob, FLOATS_WITH_NAN
        )
        pooled = _local_fingerprint(_mr_config("framed"), FloatKeyJob, FLOATS_WITH_NAN)
        assert pooled == serial


class _MixedKeyMapper(Mapper):
    """Word lengths as keys, ``IntWritable`` and ``LongWritable`` by turns:
    equal lengths hash to one partition, so its key column mixes classes."""

    def map(self, key, value, context):
        for i, word in enumerate(value.value.split()):
            cls = LongWritable if i % 2 else IntWritable
            context.write(cls(len(word)), IntWritable(1))


class _ClassCountReducer(Reducer):
    """Count per key, naming the key's class: the two stay apart."""

    def reduce(self, key, values, context):
        name = f"{type(key).__name__}:{key.value}"
        context.write(Text(name), IntWritable(sum(v.value for v in values)))


class MixedKeyJob(Job):
    mapper = _MixedKeyMapper
    reducer = _ClassCountReducer


class _WideValueMapper(Mapper):
    """``IntWritable`` values past 32 bits, which no column packs."""

    def map(self, key, value, context):
        for word in value.value.split():
            context.write(Text(word), IntWritable(2**32 + len(word)))


class WideValueJob(Job):
    mapper = _WideValueMapper
    reducer = IntSumReducer


AIRLINE_CSV = generate_airline(seed=8, num_rows=2500).csv_text


class TestUnpackedOutputsShipAsObjects:
    """A column the wire does not pack — a shipped ``record_writable``
    value, mixed key classes, an integer past its width — ships its map
    output as pickled objects: one counted fallback per map, no
    warning, and every transport still answers exactly like serial."""

    @pytest.mark.parametrize(
        "job_cls, corpus",
        [
            (AirlineDelayCombinerJob, AIRLINE_CSV),
            (MixedKeyJob, CORPUS),
            (WideValueJob, CORPUS),
        ],
        ids=["record-writable", "mixed-int-long-keys", "wide-int-values"],
    )
    def test_pooled_equals_serial(self, job_cls, corpus):
        serial = _local_fingerprint(
            _mr_config("framed", backend="serial"), job_cls, corpus
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for transport in ("framed", "shm"):
                pooled = _local_fingerprint(
                    _mr_config(transport), job_cls, corpus, unframed_maps=True
                )
                assert pooled == serial, transport


class TestFramedEqualsObject:
    @pytest.mark.parametrize("job_cls", [WordCountJob, WordCountWithCombinerJob])
    def test_local_runner_bit_identical(self, job_cls):
        with warnings.catch_warnings():
            # an inline/pickle fallback would mask a broken framed path
            warnings.simplefilter("error", RuntimeWarning)
            framed = _local_fingerprint(_mr_config("framed"), job_cls)
            plain = _local_fingerprint(
                _mr_config("framed", backend="serial"), job_cls
            )
        assert framed == plain

    def test_local_runner_matches_serial(self):
        framed = _local_fingerprint(_mr_config("framed"))
        serial = _local_fingerprint(_mr_config("framed", backend="serial"))
        assert framed == serial

    def test_cluster_bit_identical(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            framed = _cluster_fingerprint(_mr_config("framed"))
            plain = _cluster_fingerprint(_mr_config("framed", backend="serial"))
        assert framed == plain

    def test_cluster_framed_matches_serial(self):
        framed = _cluster_fingerprint(_mr_config("framed"))
        serial = _cluster_fingerprint(_mr_config("framed", backend="serial"))
        assert framed == serial


class TestChaosDrillsFramed:
    """The five drills, pooled + framed + sanitizer: heal and match."""

    @pytest.mark.parametrize("name", ALL_DRILLS)
    def test_drill_heals_framed(self, name):
        result = run_scenario(
            name, seed=0, backend="pooled", sanitize=True, transport="framed"
        )
        assert result.ok, result.summary()

    @pytest.mark.parametrize("name", ALL_DRILLS)
    def test_framed_drill_matches_object_drill(self, name):
        framed = run_scenario(
            name, seed=0, backend="pooled", sanitize=True, transport="framed"
        )
        plain = run_scenario(name, seed=0, backend="serial", sanitize=True)
        assert framed.output_files == plain.output_files
        assert framed.baseline_files == plain.baseline_files
        assert framed.fault_log == plain.fault_log
