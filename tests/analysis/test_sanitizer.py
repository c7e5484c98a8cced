"""The runtime sanitizer: catches what static rules cannot prove.

MRJ002/MRJ004/MRJ007 have dynamic twins here — input mutation, emit
aliasing, and combiner-contract violations are verified by actually
running jobs under ``MapReduceConfig(sanitize=True)`` through the
serial :class:`LocalJobRunner`.  Clean jobs must additionally be
*bit-identical* with the sanitizer on and off: observation must not
perturb the run.
"""

from repro.analysis import fingerprint
from repro.core.assignments import lint_reference_solutions
from repro.hdfs.localfs import LinuxFileSystem
from repro.jobs.wordcount import WordCountJob, WordCountWithCombinerJob
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.config import MapReduceConfig
from repro.mapreduce.counters import C
from repro.mapreduce.local_runner import LocalJobRunner
from repro.mapreduce.types import IntWritable, Text, Writable

CORPUS = "the quick brown fox jumps over the lazy dog the end\n" * 8


def run_local(job, text=CORPUS, sanitize=True):
    fs = LinuxFileSystem()
    fs.write_file("/in.txt", text)
    runner = LocalJobRunner(
        localfs=fs,
        split_size=128,
        mr_config=MapReduceConfig(sanitize=sanitize),
    )
    return runner.run(job, "/in.txt", "/out")


class SumReducer(Reducer):
    def reduce(self, key: Writable, values, context: Context) -> None:
        context.write(key, IntWritable(sum(v.value for v in values)))


class InputMutatingMapper(Mapper):
    """MRJ002's dynamic twin: rewrites the input value in place."""

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        value.value = value.value.upper()
        for token in value.value.split():
            context.write(Text(token), IntWritable(1))


class InputMutationJob(Job):
    mapper = InputMutatingMapper
    reducer = SumReducer


class RunMutatingMapper(Mapper):
    """The same bug in an overridden ``run()``: its split's records are
    the map inputs, checked as the default loop's are."""

    def run(self, split, context: Context) -> None:
        for _key, value in split:
            value.value = value.value.upper()
            for token in value.value.split():
                context.write(Text(token), IntWritable(1))


class RunMutationJob(Job):
    mapper = RunMutatingMapper
    reducer = SumReducer


class FirstRecordMutatingMapper(Mapper):
    """Mutates the first record, then stops reading its split."""

    def run(self, split, context: Context) -> None:
        for _key, value in split:
            value.value = value.value.upper()
            break


class FirstRecordMutationJob(Job):
    mapper = FirstRecordMutatingMapper
    reducer = SumReducer


class AliasingMapper(Mapper):
    """MRJ004's dynamic twin: mutates a key after emitting it."""

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        for token in value.value.split():
            t = Text(token)
            context.write(t, IntWritable(1))
            t.value = t.value + "!"


class AliasingJob(Job):
    mapper = AliasingMapper
    reducer = SumReducer


class PositionMapper(Mapper):
    """Emits *heterogeneous* values per key — mean of identical values
    is accidentally associative, which would mask the combiner bug."""

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        for i, token in enumerate(value.value.split()):
            context.write(Text(token), IntWritable(i + 1))


class AvgCombiner(Reducer):
    def reduce(self, key: Writable, values, context: Context) -> None:
        nums = [v.value for v in values]
        context.write(key, IntWritable(sum(nums) // len(nums)))


class MeanOfMeansJob(Job):
    mapper = PositionMapper
    reducer = AvgCombiner
    combiner = AvgCombiner


class TestFingerprint:
    def test_distinguishes_values(self):
        assert fingerprint(Text("a")) != fingerprint(Text("b"))
        assert fingerprint(IntWritable(1)) != fingerprint(Text("1"))

    def test_container_order_insensitive_for_sets(self):
        assert fingerprint({1, 2, 3}) == fingerprint({3, 1, 2})
        assert fingerprint([1, 2]) != fingerprint([2, 1])


class TestDetections:
    def test_input_mutation_is_caught(self):
        result = run_local(InputMutationJob())
        assert result.counters.get(C.SANITIZER_INPUT_MUTATIONS) > 0
        assert any("mutated its input" in v for v in result.sanitizer_violations)

    def test_input_mutation_in_an_overridden_run_is_caught(self):
        expected = run_local(InputMutationJob())
        result = run_local(RunMutationJob())
        mutations = result.counters.get(C.SANITIZER_INPUT_MUTATIONS)
        assert mutations == expected.counters.get(C.SANITIZER_INPUT_MUTATIONS) > 0
        assert result.sanitizer_violations == expected.sanitizer_violations

    def test_the_last_record_a_run_takes_is_checked(self):
        # Each attempt takes one record and stops: the runtime checks it
        # once run() returns.
        result = run_local(FirstRecordMutationJob())
        taken = result.counters.get(C.MAP_INPUT_RECORDS)
        assert taken > 1
        assert result.counters.get(C.SANITIZER_INPUT_MUTATIONS) == taken

    def test_emit_aliasing_is_caught(self):
        result = run_local(AliasingJob())
        assert result.counters.get(C.SANITIZER_EMIT_ALIASING) > 0
        assert any(
            "mutated after context.write" in v for v in result.sanitizer_violations
        )

    def test_mean_of_means_combiner_is_caught(self):
        result = run_local(MeanOfMeansJob())
        assert result.counters.get(C.SANITIZER_COMBINER_VIOLATIONS) > 0
        assert any("not associative" in v for v in result.sanitizer_violations)


class TestCleanRuns:
    def test_reference_jobs_have_zero_violations(self):
        for job_cls in (WordCountJob, WordCountWithCombinerJob):
            result = run_local(job_cls())
            assert result.sanitizer_violations == []
            assert "Sanitizer" not in result.counters.as_dict()

    def test_sanitized_run_is_bit_identical(self):
        """Observation must not perturb: same pairs, same counters."""
        plain = run_local(WordCountWithCombinerJob(), sanitize=False)
        sanitized = run_local(WordCountWithCombinerJob(), sanitize=True)
        assert sanitized.pairs == plain.pairs
        assert sanitized.counters.as_dict() == plain.counters.as_dict()
        assert sanitized.simulated_seconds == plain.simulated_seconds

    def test_reference_solutions_lint_clean(self):
        results = lint_reference_solutions()
        assert all(r.correct for r in results)
        assert any(r.check == "reference jobs lint clean" for r in results)
