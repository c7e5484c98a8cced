"""``wc_serial`` and ``shuffle_pooled``: the MapReduce task path, twice.

Both run WordCount over a seeded Zipf corpus through
:class:`~repro.mapreduce.local_runner.LocalJobRunner` — no HDFS, no
simulation engine.  ``wc_serial`` keeps the combiner and the serial
backend, so almost nothing is shuffled and the time is the map path
itself.  ``shuffle_pooled`` drops the combiner and runs on a two-worker
process pool, so every map-output record crosses the pool and the wire
codec, the backend and the reduce-side merge do most of the work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from multiprocessing import resource_tracker
from statistics import median

from benchmarks.perf.calibrate import reference_seconds
from benchmarks.perf.workloads import Outcome, Workload
from repro.datasets.shakespeare import tokenize
from repro.datasets.zipf_text import ZipfTextGenerator
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import WordCountJob, WordCountWithCombinerJob
from repro.mapreduce.backend import create_backend, usable_cores
from repro.mapreduce.config import JobConf, MapReduceConfig
from repro.mapreduce.counters import C, perf_stats
from repro.mapreduce.inputformat import FetchStats, TextInputFormat
from repro.mapreduce.local_runner import LocalJobResult, LocalJobRunner
from repro.util.rng import RngStream

MIB = 1024 * 1024
INPUT_PATH = "/data/corpus.txt"
OUTPUT_PATH = "/out"
SPLIT_SIZE = 128 * 1024
NUM_REDUCES = 4
#: Repetitions per ``shuffle_transport`` arm in the traced pass.
TRANSPORT_ARM_REPS = 3


@dataclass
class _Context:
    corpus: bytes
    fs: LinuxFileSystem


@dataclass
class _Run:
    result: LocalJobResult
    worker_crash_recoveries: int


class _WordCount(Workload):
    work_unit = "MiB"
    job_class = WordCountJob
    backend_name = "serial"
    workers = 0
    corpus_bytes = MIB

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self._expected: dict[str, str] | None = None

    def setup(self) -> _Context:
        text = ZipfTextGenerator(
            RngStream(self.seed).child("perf", self.name)
        ).text_of_bytes(self.scaled(self.corpus_bytes, floor=4 * SPLIT_SIZE))
        fs = LinuxFileSystem()
        fs.write_file(INPUT_PATH, text)
        return _Context(corpus=fs.read_file(INPUT_PATH), fs=fs)

    def body(self, ctx: _Context, span, mr_config: MapReduceConfig | None = None) -> _Run:
        # The pool is created and shut down inside the body, so worker
        # CPU lands in the parent's ``os.times()`` children tally.
        backend = create_backend(self.backend_name, self.workers)
        with LocalJobRunner(
            localfs=ctx.fs,
            backend=backend,
            mr_config=mr_config or MapReduceConfig(),
            split_size=SPLIT_SIZE,
        ) as runner:
            job = self.job_class(JobConf(name=self.name, num_reduces=NUM_REDUCES))
            result = runner.run(job, INPUT_PATH, OUTPUT_PATH)
        return _Run(
            result=result,
            worker_crash_recoveries=getattr(backend, "worker_crash_recoveries", 0),
        )

    def check(self, ctx: _Context, raw: _Run) -> Outcome:
        if self._expected is None:  # same seed => same corpus every set-up
            counts: Counter = Counter()
            for line in ctx.corpus.decode("utf-8").splitlines():
                counts.update(tokenize(line))
            self._expected = {word: str(n) for word, n in counts.items()}
        result = raw.result
        errors = []
        if result.output_dict() != self._expected or len(result.pairs) != len(
            self._expected
        ):
            errors.append(f"{self.name}: wordcount output != Counter(tokenize())")
        return Outcome(
            work=len(ctx.corpus) / MIB,
            sim_s=result.simulated_seconds,
            sim_events=0,
            attempted=1,
            failed=1 if errors else 0,
            errors=errors,
            witness=(
                result.simulated_seconds,
                result.num_splits,
                len(result.pairs),
                result.counters.get(C.MAP_OUTPUT_RECORDS),
            ),
        )

    def layer_facts(self, ctx: _Context, raw: _Run) -> dict[str, float]:
        counters = raw.result.counters
        perf = perf_stats()
        return {
            "mapreduce.records_shuffled": counters.get(C.REDUCE_INPUT_RECORDS),
            "mapreduce.bytes_shuffled": counters.get(C.FILE_BYTES_WRITTEN),
            "mapreduce.backend.worker_crash_recoveries": raw.worker_crash_recoveries,
            "mapreduce.wire.serialize_s": (
                perf.map_serialize_ms + perf.reduce_serialize_ms
            )
            / 1e3,
            "mapreduce.wire.decode_s": perf.shuffle_decode_ms / 1e3,
            "mapreduce.shuffle.merge_s": perf.merge_ms / 1e3,
            "mapreduce.wire.bytes_framed": perf.bytes_framed,
            "mapreduce.shm.segments_created": perf.segments_created,
            "mapreduce.shm.copy_avoided_bytes": perf.copy_avoided_bytes,
        }

    def extra_arms(self) -> dict[str, float]:
        return {"mapreduce.inputformat.read_s": self._replay_input_read()}

    def _replay_input_read(self) -> float:
        """``read_records`` is lazy, so a wrapper would time nothing:
        replay it directly over the splits the runner would build."""
        ctx = self.setup()
        data = ctx.corpus
        sizes = [
            min(SPLIT_SIZE, len(data) - offset)
            for offset in range(0, len(data), SPLIT_SIZE)
        ]
        splits = TextInputFormat.splits_for_file(
            INPUT_PATH, sizes, [("local",)] * len(sizes)
        )

        def fetch(path, block_index, max_bytes, offset=0):
            start = block_index * SPLIT_SIZE + offset
            stop = (block_index + 1) * SPLIT_SIZE
            if max_bytes is not None:
                stop = min(stop, start + max_bytes)
            return data[start:stop], 0.0

        def replay() -> None:
            for split in splits:
                list(TextInputFormat.read_records(split, fetch, FetchStats()))

        return reference_seconds(replay)

    def input_chunks(self, ctx: _Context):
        yield ctx.corpus


class WcSerial(_WordCount):
    name = "wc_serial"
    job_class = WordCountWithCombinerJob


class ShufflePooled(_WordCount):
    name = "shuffle_pooled"
    backend_name = "pooled"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        #: Never more workers than the host can schedule.
        self.workers = min(2, usable_cores())
        # A forked worker that opens a shm segment before this process
        # has a resource tracker starts one of its own, which outlives
        # worker and run.  Started here, the workers inherit this one,
        # and the harness stops it (``stop_started_processes``).
        resource_tracker.ensure_running()

    def extra_arms(self) -> dict[str, float]:
        facts = super().extra_arms()
        # ``object`` is omitted: it is an order of magnitude slower and
        # is a test oracle, not a candidate transport.
        for transport in ("framed", "shm"):
            walls = []
            config = MapReduceConfig(shuffle_transport=transport)
            for _ in range(TRANSPORT_ARM_REPS):
                ctx = self.setup()
                walls.append(reference_seconds(lambda: self.body(ctx, None, config)))
            facts[f"mapreduce.transport.{transport}_s"] = median(walls)
        return facts
