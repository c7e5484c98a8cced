"""The serial, no-HDFS job runner — assignment 1's execution mode.

"The corresponding assignment only required the students to use
Hadoop/MapReduce API libraries to develop and test MapReduce code on the
standard Linux command line interface without using a supporting
HDFS/MapReduce infrastructure."  This runner is that mode: the same
:class:`~repro.mapreduce.api.Job` objects, run serially over a
:class:`~repro.hdfs.localfs.LinuxFileSystem`, producing the same answers
and counters plus a *serial* simulated runtime — which is how the course
(and our Claim-C1 benchmark) shows efficient vs. inefficient
implementations differing by an order of magnitude even before HDFS
enters the picture.

Task attempts are built exactly as a TaskTracker builds them
(:func:`~repro.mapreduce.runtime.map_attempt` and
:func:`~repro.mapreduce.runtime.reduce_attempt`); only the file system,
the one "node" and the absence of a scheduler differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.hdfs.localfs import LinuxFileSystem
from repro.mapreduce.api import Job
from repro.mapreduce.backend import ExecutionBackend, resolve_backend
from repro.mapreduce.config import (
    SIDE_OPEN_OVERHEAD,
    SIDE_READ_PER_BYTE,
    MapReduceConfig,
)
from repro.mapreduce.counters import PERF, Counters
from repro.mapreduce.inputformat import InputSplit
from repro.mapreduce.outputformat import TextOutputFormat, part_file_name
from repro.mapreduce.runtime import (
    job_input_format,
    job_pooled,
    map_attempt,
    prefetch_split,
    reduce_attempt,
)
# Unused here: benchmarks/perf/tests/test_tracer.py checks that the
# tracer also patches this by-name import.  It goes when that test does.
from repro.mapreduce.runtime import execute_map  # noqa: F401
from repro.mapreduce.shuffle import MapOutput
from repro.util.errors import FileNotFoundInHdfs, JobSubmissionError, OutputExistsError


@dataclass
class LocalJobResult:
    """Outcome of a serial run."""

    job_name: str
    counters: Counters
    output_path: str
    localfs: LinuxFileSystem
    #: Simulated wall-clock of the *serial* execution (sum of all task
    #: durations — nothing overlaps on one workstation).
    simulated_seconds: float
    num_splits: int
    pairs: list[tuple[str, str]] = field(default_factory=list)
    #: Runtime-sanitizer violation messages, in task order (empty
    #: unless the runner's MapReduceConfig enables ``sanitize``).
    sanitizer_violations: list[str] = field(default_factory=list)

    def output_dict(self) -> dict[str, str]:
        return dict(self.pairs)


class LocalJobRunner:
    """Run jobs serially against a local (Linux) file system."""

    #: Pseudo-block size used to exercise split logic even locally.
    DEFAULT_SPLIT_SIZE = 16 * 1024 * 1024
    #: The workstation's one disk, bytes per simulated second.
    LOCAL_DISK_BW = 100 * 1024 * 1024

    def __init__(
        self,
        localfs: LinuxFileSystem | None = None,
        split_size: int | None = None,
        backend: ExecutionBackend | None = None,
        mr_config: MapReduceConfig | None = None,
    ):
        self.localfs = localfs or LinuxFileSystem()
        self.mr_config = mr_config or MapReduceConfig()
        self.split_size = split_size or self.DEFAULT_SPLIT_SIZE
        self.backend = resolve_backend(backend)

    def close(self) -> None:
        """Release backend resources (worker pools, if any)."""
        self.backend.shutdown()

    def __enter__(self) -> "LocalJobRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _splits_for(self, job: Job, paths: list[str]) -> list[InputSplit]:
        input_format = job_input_format(job)
        splits: list[InputSplit] = []
        for path in paths:
            length = self.localfs.size(path)
            sizes = []
            offset = 0
            while offset < length:
                sizes.append(min(self.split_size, length - offset))
                offset += sizes[-1]
            if not sizes:
                sizes = [0]
            splits.extend(
                input_format.splits_for_file(
                    path, sizes, [("local",)] * len(sizes)
                )
            )
        return splits

    def _fetch(
        self, path: str, block_index: int, max_bytes: int | None, offset: int = 0
    ):
        data = self.localfs.read_file(path)
        start = block_index * self.split_size
        if start >= len(data) and block_index > 0:
            raise IndexError(block_index)
        chunk = data[start : start + self.split_size]
        if offset:
            chunk = chunk[offset:]
        if max_bytes is not None:
            chunk = chunk[:max_bytes]
        return chunk, len(chunk) / self.LOCAL_DISK_BW

    def _side_reader(self, path: str):
        data = self.localfs.read_file(path)
        elapsed = (
            SIDE_OPEN_OVERHEAD
            + len(data) / self.LOCAL_DISK_BW
            + len(data) * SIDE_READ_PER_BYTE
        )
        return data.decode("utf-8"), elapsed

    # ------------------------------------------------------------------
    def run(
        self,
        job: Job,
        input_paths: list[str] | str,
        output_path: str,
    ) -> LocalJobResult:
        """Run one job to completion, serially."""
        if isinstance(input_paths, str):
            input_paths = [input_paths]
        files: list[str] = []
        for path in input_paths:
            if self.localfs.is_dir(path):
                files.extend(self.localfs.walk(path))
            elif self.localfs.exists(path):
                files.append(path)
            else:
                raise FileNotFoundInHdfs(f"input not found: {path}")
        if not files:
            raise JobSubmissionError(f"no input files under {input_paths}")
        if self.localfs.exists(output_path):
            raise OutputExistsError(f"output {output_path} already exists")

        splits = self._splits_for(job, files)
        # Completion callbacks fire in submission order, so counters
        # merge and ``elapsed`` sums in exactly the serial order whether
        # or not the job is pooled — results are bit-identical.
        pooled = job_pooled(self.backend, job, splits)
        # One shm scope per run: the parent mints the token, workers
        # publish segments under it, and the finally below guarantees
        # every segment is unlinked even when the run raises (including
        # KeyboardInterrupt surfacing through join_all).
        shm_scope = None
        if pooled and self.mr_config.shuffle_transport == "shm":
            from repro.mapreduce import shm

            shm_scope = shm.ShmScope()
        try:
            return self._run_tasks(job, splits, output_path, pooled, shm_scope)
        finally:
            if shm_scope is not None:
                shm_scope.release()

    def _run_tasks(
        self,
        job: Job,
        splits: list[InputSplit],
        output_path: str,
        pooled: bool,
        shm_scope,
    ) -> LocalJobResult:
        counters = Counters()
        node_cache: dict = {}  # one workstation == one shared "JVM"
        elapsed = 0.0
        map_outputs: list[MapOutput] = []
        violations: list[str] = []

        def map_done(index: int, handle) -> None:
            nonlocal elapsed
            execution = handle.result()
            execution.output.task_index = index
            counters.merge(execution.counters)
            elapsed += execution.duration
            violations.extend(execution.violations)
            if shm_scope is not None:
                shm_scope.adopt_output(execution.output)
            map_outputs.append(execution.output)
            if execution.perf:
                PERF.merge(execution.perf)

        for index, split in enumerate(splits):
            work = map_attempt(
                job,
                split,
                prefetch_split(job, split, self._fetch),
                self.mr_config,
                "local",
                self.LOCAL_DISK_BW,
                pooled=pooled,
                side_reader=self._side_reader,
                node_cache=node_cache,
                shm_scope=shm_scope,
            )
            self.backend.submit(
                work,
                functools.partial(map_done, index),
                inline=not pooled,
            )
        self.backend.join_all()  # all map outputs in hand, serial order

        all_pairs: list[tuple[str, str]] = []

        def reduce_done(partition: int, handle) -> None:
            nonlocal elapsed
            execution, text = handle.result()
            counters.merge(execution.counters)
            if execution.perf:
                PERF.merge(execution.perf)
            elapsed += execution.duration
            violations.extend(execution.violations)
            part_path = f"{output_path}/{part_file_name(partition)}"
            self.localfs.write_file(part_path, text)
            elapsed += len(text) / self.LOCAL_DISK_BW
            all_pairs.extend(TextOutputFormat.parse(text))

        for partition in range(job.conf.num_reduces):
            work = reduce_attempt(
                job,
                map_outputs,
                partition,
                "local",
                self.mr_config,
                pooled=pooled,
                side_reader=self._side_reader,
                node_cache=node_cache,
            )
            self.backend.submit(
                work,
                functools.partial(reduce_done, partition),
                inline=not pooled,
            )
        self.backend.join_all()

        self.localfs.write_file(f"{output_path}/_SUCCESS", b"")
        return LocalJobResult(
            job_name=job.name,
            counters=counters,
            output_path=output_path,
            localfs=self.localfs,
            simulated_seconds=elapsed,
            num_splits=len(splits),
            pairs=all_pairs,
            sanitizer_violations=violations,
        )
