"""MRJ0xx job rules: each buggy fixture trips exactly its own rule.

The fixtures under ``fixtures/`` are the "student submissions" of the
lint story — one deliberately-planted bug class per file.  Precision
matters as much as recall: a fixture that also trips a *neighbouring*
rule means the rules overlap and the diagnostic would confuse the
student it is aimed at.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import JOB_RULES, lint_jobs, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_RULES = {
    "buggy_mrj001_random.py": "MRJ001",
    "buggy_mrj002_input_mutation.py": "MRJ002",
    "buggy_mrj003_unhashable_key.py": "MRJ003",
    "buggy_mrj004_emit_alias.py": "MRJ004",
    "buggy_mrj005_stateful.py": "MRJ005",
    "buggy_mrj006_sidefile.py": "MRJ006",
    "buggy_mrj007_avg_combiner.py": "MRJ007",
}


class TestFixtureCatalog:
    def test_one_fixture_per_job_rule(self):
        assert sorted(FIXTURE_RULES.values()) == sorted(JOB_RULES)

    def test_fixture_files_exist(self):
        on_disk = {p.name for p in FIXTURES.glob("buggy_mrj*.py")}
        assert on_disk == set(FIXTURE_RULES)


class TestEachFixtureTripsExactlyItsRule:
    @pytest.mark.parametrize(
        "filename,rule",
        sorted(FIXTURE_RULES.items()),
        ids=[rule for _, rule in sorted(FIXTURE_RULES.items())],
    )
    def test_fixture(self, filename, rule):
        findings = lint_paths([str(FIXTURES / filename)], families=("jobs",))
        assert findings, f"{filename} produced no findings"
        assert {f.rule for f in findings} == {rule}

    def test_findings_carry_location_and_hint(self):
        findings = lint_paths(
            [str(FIXTURES / "buggy_mrj001_random.py")], families=("jobs",)
        )
        (finding,) = findings
        assert finding.line > 0
        assert finding.path.endswith("buggy_mrj001_random.py")
        assert finding.hint
        assert finding.severity in ("error", "warning")


class TestInterproceduralNondeterminism:
    """The mrlint 2.0 demo pair: the effect is two calls from map()."""

    def test_helper_chain_is_flagged(self):
        findings = lint_paths(
            [str(FIXTURES / "interproc_mrj001_buggy.py")], families=("jobs",)
        )
        assert {f.rule for f in findings} == {"MRJ001"}
        # The message names the chain, not just the leaf call.
        assert any("sample" in f.message for f in findings)

    def test_seeded_helper_chain_is_clean(self):
        findings = lint_paths(
            [str(FIXTURES / "interproc_mrj001_clean.py")], families=("jobs",)
        )
        assert findings == []

    def test_unseeded_rng_argument_is_flagged(self):
        """noise(rng) draws from whatever it is given: the conditional
        effect fires where map() passes an unseeded RNG."""
        findings = lint_paths(
            [str(FIXTURES / "interproc_mrj001_rng_param_buggy.py")],
            families=("jobs",),
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ001", 22)]
        assert "calls noise() → rng.random()" in findings[0].message

    def test_seeded_rng_argument_is_clean(self):
        findings = lint_paths(
            [str(FIXTURES / "interproc_mrj001_rng_param_clean.py")],
            families=("jobs",),
        )
        assert findings == []


def jobs_lint(source: str):
    return lint_source(textwrap.dedent(source), "job.py", families=("jobs",))


class TestSameModuleAncestry:
    """Bases and helpers are found through the call graph, however many
    same-module classes stand between the task and the framework."""

    TRACKING = """
        from repro.mapreduce.api import Mapper

        class TrackingMapper(Mapper):
            def track(self, word):
                self.counts[word] = self.counts.get(word, 0) + 1
        {cleanup}
        class WordMapper(TrackingMapper):
            def map(self, key, value, context):
                for word in value.split():
                    self.track(word)
        """
    CLEANUP = """
            def cleanup(self, context):
                for word, count in sorted(self.counts.items()):
                    context.write(word, count)
        """

    def test_state_written_by_an_inherited_helper_is_flagged(self):
        findings = jobs_lint(self.TRACKING.format(cleanup=""))
        assert [(f.rule, f.line) for f in findings] == [("MRJ005", 11)]
        assert "through track()" in findings[0].message

    def test_inherited_cleanup_flushes_the_helper_state(self):
        assert jobs_lint(self.TRACKING.format(cleanup=self.CLEANUP)) == []

    def test_another_objects_constructor_is_not_task_state(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            class Pair:
                def __init__(self, key):
                    self.key = key

            class PairMapper(Mapper):
                def map(self, key, value, context):
                    context.write(key, Pair(value).key)
            """
        )
        assert findings == []

    def test_task_class_behind_intermediate_bases_is_linted(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Reducer

            class Base(Reducer):
                pass

            class Middle(Base):
                pass

            class LeafCombiner(Middle):
                def reduce(self, key, values, context):
                    values = list(values)
                    context.write(key, sum(values) / len(values))
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ007", 13)]



class TestKeptStateThroughHelpers:
    """MRJ005 reads what a per-record method keeps between calls from the
    same walk, whether the method writes it or a helper does."""

    def test_global_written_by_a_module_helper_is_flagged_at_the_call(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            COUNTER = 0

            def bump():
                global COUNTER
                COUNTER += 1

            class CountingMapper(Mapper):
                def map(self, key, value, context):
                    bump()
                    context.write(key, value)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ005", 12)]
        assert "global 'COUNTER' through bump()" in findings[0].message

    def test_nested_def_write_reports_at_the_write(self):
        # A def in map() is part of map()'s code, called or not.
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            class NoteMapper(Mapper):
                def map(self, key, value, context):
                    def note(word):
                        self.seen.add(word)
                    for word in value.split():
                        note(word)
                    context.write(key, value)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ005", 7)]
        assert "'self.seen' across calls" in findings[0].message

    def test_global_mutated_in_place_is_flagged_at_the_declaration(self):
        # The name is never rebound, but the module object it names is
        # written on every call: still per-process state.
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            COUNTS = {}

            class TallyMapper(Mapper):
                def map(self, key, value, context):
                    global COUNTS
                    COUNTS[key] = 1
                    context.write(key, value)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ005", 8)]
        assert "mutates global 'COUNTS'" in findings[0].message

    def test_global_appended_by_a_helper_is_flagged_at_the_call(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            SEEN = []

            def note(value):
                global SEEN
                SEEN.append(value)

            class NoteMapper(Mapper):
                def map(self, key, value, context):
                    note(value)
                    context.write(key, value)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ005", 12)]
        assert "global 'SEEN' through note()" in findings[0].message

    def test_write_through_a_local_alias_is_flagged(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            class SeenMapper(Mapper):
                def map(self, key, value, context):
                    seen = self.seen
                    seen[value] = 1
                    context.write(key, value)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ005", 7)]
        assert "'self.seen' across calls" in findings[0].message

    def test_write_through_a_helper_argument_is_flagged_at_the_call(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            def remember(memo, key):
                memo[key] = 1

            def note(into, key):
                remember(memo=into, key=key)

            class SeenMapper(Mapper):
                def map(self, key, value, context):
                    seen = self.seen
                    note(seen, value)
                    context.write(key, value)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ005", 13)]
        assert "'self.seen' through note() → remember()" in findings[0].message

    def test_a_copy_or_a_fresh_argument_is_clean(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            def remember(memo, key):
                memo[key] = 1

            class CopyMapper(Mapper):
                def map(self, key, value, context):
                    seen = dict(self.seen)
                    seen[value] = 1
                    remember({}, value)
                    remember(memo=seen, key=self.seen)
                    context.write(key, value)
            """
        )
        assert findings == []


class TestRunOverrides:
    """A ``run()`` override's loop over its split is per-record code:
    MRJ006 and MRJ002 read its body as they read ``map()``."""

    def test_fixture_pair(self):
        buggy = lint_paths([str(FIXTURES / "run_loop_buggy.py")], families=("jobs",))
        assert [(f.rule, f.line) for f in buggy] == [("MRJ006", 16), ("MRJ002", 17)]
        assert "run() streams a side file for every record" in buggy[0].message
        assert "run() mutates its input 'value'" in buggy[1].message
        clean = lint_paths([str(FIXTURES / "run_loop_clean.py")], families=("jobs",))
        assert clean == []

    def test_helper_read_in_the_loop_is_flagged_at_the_call(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            def load_lookup(context):
                return context.read_side_file("lookup.txt")

            class LineMapper(Mapper):
                def run(self, split, ctx):
                    for line in split.lines():
                        ctx.write(line, load_lookup(ctx))
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ006", 10)]
        assert "through load_lookup()" in findings[0].message

    def test_helper_read_in_the_loop_and_again_after_it(self):
        """The walk reports every call site that reaches a helper: the
        loop's call is flagged even when ``run()`` calls the same helper
        again after the loop, and that later call is not."""
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            def load(context):
                return context.read_side_file("lookup.txt")

            class TwiceMapper(Mapper):
                def run(self, split, context):
                    for line in split.lines():
                        context.write(line, load(context))
                    context.write("total", load(context))
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ006", 10)]
        assert "through load()" in findings[0].message

    def test_code_outside_the_loop_is_not_per_record(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            class OnceMapper(Mapper):
                def run(self, split, context):
                    table = context.read_side_file("lookup.txt")
                    rows = [value.value for _key, value in split]
                    for row in rows:
                        context.write(row, table)
            """
        )
        assert findings == []

    def test_a_record_key_edited_in_the_loop_is_flagged(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            class KeyMapper(Mapper):
                def run(self, records, context):
                    for key, value in records:
                        key.value += 1
                        context.write(value, 1)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ002", 7)]


class TestEveryTaskClassIsIndexed:
    """A task class is linted wherever its ``class`` statement sits."""

    def test_class_under_a_module_level_if_is_linted(self):
        findings = jobs_lint(
            """
            import random
            from repro.mapreduce.api import Mapper

            if True:
                class M(Mapper):
                    def map(self, key, value, context):
                        context.write(key, random.random())
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ001", 8)]

    def test_class_nested_in_a_class_is_linted(self):
        findings = jobs_lint(
            """
            import random
            from repro.mapreduce.api import Mapper

            class Outer:
                class InnerMapper(Mapper):
                    def map(self, key, value, context):
                        context.write(key, random.random())
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ001", 8)]
        assert "InnerMapper.map()" in findings[0].message

    @pytest.mark.parametrize(
        "body",
        [
            """
                if True:
                    def map(self, key, value, context):
                        context.write(key, random.random())
            """,
            """
                async def map(self, key, value, context):
                    context.write(key, random.random())
            """,
        ],
        ids=["guarded", "async"],
    )
    def test_method_anywhere_in_the_class_body_is_linted(self, body):
        header = """
            import random
            from repro.mapreduce.api import Mapper

            class M(Mapper):"""
        findings = jobs_lint(header + body)
        assert [f.rule for f in findings] == ["MRJ001"]

    def test_guarded_combiner_reduce_is_linted(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Reducer

            class MeanCombiner(Reducer):
                if True:
                    def reduce(self, key, values, context):
                        values = list(values)
                        context.write(key, sum(values) / len(values))
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ007", 8)]

    def test_global_only_read_is_clean(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            LOOKUP = {}

            class LookupMapper(Mapper):
                def map(self, key, value, context):
                    global LOOKUP
                    context.write(key, LOOKUP.get(value))
            """
        )
        assert findings == []


class TestSideFileThroughHelpers:
    """MRJ006 follows helpers from map()/reduce() only: a read that
    setup() makes through a helper is the taught fix."""

    def test_helper_only_setup_calls_is_clean(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            class SetupLoadMapper(Mapper):
                def setup(self, context):
                    self._load(context)

                def _load(self, context):
                    self.table = context.read_side_file("lookup.txt")

                def map(self, key, value, context):
                    context.write(key, self.table)
            """
        )
        assert findings == []

    def test_module_helper_map_calls_is_flagged_at_the_call(self):
        findings = jobs_lint(
            """
            from repro.mapreduce.api import Mapper

            def load_lookup(context):
                return context.read_side_file("lookup.txt")

            class HelperLoadMapper(Mapper):
                def map(self, key, value, context):
                    context.write(key, load_lookup(context))
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("MRJ006", 9)]
        assert "side file through load_lookup()" in findings[0].message


class TestReferenceJobsAreClean:
    def test_lint_jobs_is_clean(self):
        """Every shipped job in repro.jobs and examples/ passes mrlint."""
        assert lint_jobs() == []
