"""Map-side external sort (spill-to-disk runs) and the auto backend.

The spill contract: ``external_sorted`` yields *exactly*
``sort_pairs(pairs)`` — chunked stable sorts heap-merged with a
stable merge preferring earlier chunks reproduce one big stable sort —
so turning ``spill_record_limit`` on changes job outputs not at all
(only the modeled spill accounting moves).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import WordCountJob, WordCountWithCombinerJob
from repro.mapreduce import backend as backend_mod
from repro.mapreduce.backend import (
    AUTO_MIN_PARALLEL_BYTES,
    AutoExecutionBackend,
    create_backend,
    usable_cores,
)
from repro.mapreduce.blockio import MappedFile
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import C, PerfStats
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.shuffle import external_sorted, sort_pairs
from repro.mapreduce.types import IntWritable, Text

SETTINGS = settings(max_examples=40, deadline=None)

pair_lists = st.lists(
    st.tuples(
        st.text(alphabet="abcdef", max_size=3).map(Text),
        st.integers(min_value=-5, max_value=5).map(IntWritable),
    ),
    max_size=60,
)


class TestExternalSorted:
    @given(pairs=pair_lists, limit=st.integers(min_value=1, max_value=7))
    @SETTINGS
    def test_equals_in_memory_sort_exactly(self, pairs, limit):
        expected = sort_pairs(pairs)
        got = list(external_sorted(pairs, limit))
        assert len(got) == len(expected)
        for (k1, v1), (k2, v2) in zip(got, expected):
            # identical sequence INCLUDING equal-key value order
            # (stability), compared on encoded text to dodge __eq__'s
            # key-only comparison
            assert k1.encode() == k2.encode() and v1.encode() == v2.encode()

    def test_perf_counts_runs(self):
        pairs = [(Text(c), IntWritable(i)) for i, c in enumerate("dcba" * 5)]
        perf = PerfStats()
        list(external_sorted(pairs, 6, perf))
        assert perf.spill_runs == 4  # ceil(20 / 6)
        assert perf.spill_ms >= 0.0

    def test_abandoning_iterator_early_is_clean(self):
        """Closing the mmaps under live decode generators must not
        raise BufferError when the consumer stops early."""
        pairs = [(Text(str(i)), IntWritable(i)) for i in range(50)]
        gen = external_sorted(pairs, 10)
        next(gen)
        gen.close()  # triggers the finally block mid-merge

    def test_spillfile_roundtrip_and_close(self):
        spill = MappedFile.write(b"hello spill")
        assert bytes(spill.view()) == b"hello spill"
        assert len(spill) == 11
        spill.close()


def _run_wordcount(mr_config, corpus, job_cls=WordCountWithCombinerJob):
    fs = LinuxFileSystem()
    fs.write_file("/in/corpus.txt", corpus)
    with LocalJobRunner(
        localfs=fs, mr_config=mr_config, split_size=4 * 1024
    ) as runner:
        job = job_cls(JobConf(name="wc", num_reduces=2))
        return runner.run(job, "/in", "/out")


CORPUS = "\n".join(
    f"line {i % 7} word{i % 13} word{i % 5} tail" for i in range(400)
)


class TestSpillInJobs:
    @pytest.mark.parametrize("job_cls", [WordCountJob, WordCountWithCombinerJob])
    def test_spill_on_off_outputs_identical(self, job_cls):
        plain = _run_wordcount(MapReduceConfig(), CORPUS, job_cls)
        spilled = _run_wordcount(
            MapReduceConfig(spill_record_limit=64), CORPUS, job_cls
        )
        assert sorted(spilled.pairs) == sorted(plain.pairs)
        # every counter except the spill accounting matches
        a, b = plain.counters.as_dict(), spilled.counters.as_dict()
        for group in a:
            for name in a[group]:
                if name == "Spilled Records":
                    continue
                assert a[group][name] == b[group][name], (group, name)
        assert spilled.counters.get(C.SPILLED_RECORDS) > plain.counters.get(
            C.SPILLED_RECORDS
        )

    def test_spill_config_validation(self):
        from repro.util.errors import ConfigError

        with pytest.raises(ConfigError):
            MapReduceConfig(spill_record_limit=0)
        with pytest.raises(ConfigError):
            MapReduceConfig(shuffle_transport="carrier-pigeon")


class TestAutoBackend:
    def test_decide_serial_on_one_core(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 1)
        auto = AutoExecutionBackend()
        try:
            assert auto.decide(10 * AUTO_MIN_PARALLEL_BYTES) == "serial"
            assert not auto.parallel
        finally:
            auto.shutdown()

    def test_decide_serial_below_byte_floor(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 8)
        auto = AutoExecutionBackend()
        try:
            assert auto.decide(AUTO_MIN_PARALLEL_BYTES - 1) == "serial"
            assert auto.decide(AUTO_MIN_PARALLEL_BYTES) == "pooled"
            assert auto.parallel
            assert auto.decide(0) == "serial"  # flips back per job
        finally:
            auto.shutdown()

    def test_decide_unknown_size_gates_on_cores_only(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cores", lambda: 4)
        auto = AutoExecutionBackend(workers=2)
        try:
            assert auto.decide(None) == "pooled"
        finally:
            auto.shutdown()

    def test_auto_runner_matches_serial(self):
        auto_result = None
        fs = LinuxFileSystem()
        fs.write_file("/in/corpus.txt", CORPUS)
        with LocalJobRunner(
            localfs=fs, backend=create_backend("auto", 2), split_size=4 * 1024
        ) as runner:
            job = WordCountWithCombinerJob(JobConf(name="wc", num_reduces=2))
            auto_result = runner.run(job, "/in", "/out")
            chosen = runner.backend.chosen
        serial = _run_wordcount(MapReduceConfig(), CORPUS)
        assert sorted(auto_result.pairs) == sorted(serial.pairs)
        assert auto_result.counters.as_dict() == serial.counters.as_dict()
        assert auto_result.simulated_seconds == serial.simulated_seconds
        # this corpus is tiny, so auto must have stayed serial
        assert chosen == "serial"

    def test_usable_cores_positive(self):
        assert usable_cores() >= 1
