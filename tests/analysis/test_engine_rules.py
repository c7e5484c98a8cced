"""MRE1xx engine rules — the self-audit that makes the PR 2 bug un-landable.

The acceptance criterion for this rule family is concrete: a patch that
reintroduces the PR 2 replication-sweep pattern (an unsorted set
iteration, or a keyed selection over a set whose key does not tie-break
by the element itself, feeding a placement decision) must be caught.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_self, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: One buggy fixture per rule; MRE104 has none yet (ROADMAP item 2).
FIXTURE_RULES = {
    "buggy_mre101_set_order.py": "MRE101",
    "buggy_mre102_wall_clock.py": "MRE102",
    "buggy_mre103_blanket_except.py": "MRE103",
    "buggy_mre105_unjournaled_rename.py": "MRE105",
}


def engine_lint(source: str):
    return lint_source(source, "snippet.py", families=("engine",))


def rules_of(source: str) -> set[str]:
    return {f.rule for f in engine_lint(source)}


class TestFixtureCatalog:
    def test_fixture_files_exist(self):
        on_disk = {p.name for p in FIXTURES.glob("buggy_mre*.py")}
        assert on_disk == set(FIXTURE_RULES)


class TestEachFixtureTripsExactlyItsRule:
    @pytest.mark.parametrize(
        "filename,rule",
        sorted(FIXTURE_RULES.items()),
        ids=[rule for _, rule in sorted(FIXTURE_RULES.items())],
    )
    def test_fixture(self, filename, rule):
        findings = lint_paths([str(FIXTURES / filename)], families=("engine",))
        assert findings, f"{filename} produced no findings"
        assert {f.rule for f in findings} == {rule}


class TestPr2RegressionPattern:
    """Reintroduce the PR 2 set-iteration tie-break bug; mrlint must bite."""

    BUGGY = """
class BlockMeta:
    locations: set[str]

def pick_trim_target(meta, free_bytes):
    # ties in free space fall back to set hash order — the PR 2 bug
    ranked = sorted(meta.locations, key=lambda d: free_bytes(d))
    return ranked[0]
"""

    FIXED = """
class BlockMeta:
    locations: set[str]

def pick_trim_target(meta, free_bytes):
    ranked = sorted(meta.locations, key=lambda d: (free_bytes(d), d))
    return ranked[0]
"""

    def test_non_tie_broken_key_over_set_is_caught(self):
        findings = engine_lint(self.BUGGY)
        assert {f.rule for f in findings} == {"MRE101"}
        (finding,) = findings
        assert finding.severity == "error"
        assert "hash order" in finding.message

    def test_tie_broken_key_is_clean(self):
        assert engine_lint(self.FIXED) == []

    def test_raw_set_iteration_is_caught(self):
        src = """
class BlockMeta:
    locations: set[str]

def invalidate(meta, commands):
    for dn in meta.locations:
        commands.append(dn)
"""
        assert rules_of(src) == {"MRE101"}

    def test_sorted_set_iteration_is_clean(self):
        src = """
class BlockMeta:
    locations: set[str]

def invalidate(meta, commands):
    for dn in sorted(meta.locations):
        commands.append(dn)
"""
        assert engine_lint(src) == []


class TestMre101Variants:
    def test_set_literal_comprehension(self):
        assert rules_of("pairs = [x for x in {1, 2, 3}]\n") == {"MRE101"}

    def test_local_set_call_assignment(self):
        src = """
def f(items):
    seen = set(items)
    for x in seen:
        print(x)
"""
        assert rules_of(src) == {"MRE101"}

    def test_next_iter_of_set_is_error(self):
        src = """
def f(live: set):
    return next(iter(live))
"""
        findings = engine_lint(src)
        assert [f.rule for f in findings] == ["MRE101"]
        assert findings[0].severity == "error"

    def test_list_of_set_freezes_hash_order(self):
        src = """
def f(live: set):
    return list(live)
"""
        assert rules_of(src) == {"MRE101"}

    def test_dict_view_first_match_loop_is_warning(self):
        src = """
def f(trackers):
    for name, t in trackers.items():
        if t.alive:
            return name
        break
"""
        findings = engine_lint(src)
        assert [f.rule for f in findings] == ["MRE101"]
        assert findings[0].severity == "warning"

    def test_dict_view_full_scan_is_clean(self):
        src = """
def f(trackers):
    total = 0
    for t in trackers.values():
        total += t.slots
    return total
"""
        assert engine_lint(src) == []

    def test_keyed_min_over_dict_values_is_warning(self):
        src = """
def f(trackers):
    return min(trackers.values(), key=lambda t: t.load)
"""
        findings = engine_lint(src)
        assert [f.rule for f in findings] == ["MRE101"]
        assert findings[0].severity == "warning"

    def test_plain_sorted_set_no_key_is_clean(self):
        src = """
def f(live: set):
    return sorted(live)
"""
        assert engine_lint(src) == []


class TestMre102WallClock:
    def test_time_time_is_caught(self):
        src = """
import time

def stamp():
    return time.time()
"""
        assert rules_of(src) == {"MRE102"}

    def test_datetime_now_is_caught(self):
        src = """
import datetime

def stamp():
    return datetime.datetime.now()
"""
        assert rules_of(src) == {"MRE102"}

    def test_sim_clock_is_clean(self):
        src = """
def stamp(sim):
    return sim.now
"""
        assert engine_lint(src) == []


class TestNestedFunctions:
    """A nested def's sites belong to its outermost def's walk: reported
    once, not once per enclosing def."""

    def test_wall_clock_in_a_nested_def_is_reported_once(self):
        src = """
import time

def outer():
    def inner():
        return time.time()
    return inner
"""
        findings = engine_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRE102", 6)]

    def test_set_iteration_in_a_nested_def_is_reported_once(self):
        src = """
def outer(nodes, out):
    def inner():
        live = set(nodes)
        for node in live:
            out.append(node)
    return inner
"""
        findings = engine_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRE101", 5)]

    def test_set_annotated_parameter_of_a_nested_def_is_a_set(self):
        src = """
def outer(out):
    def inner(live: set[str]):
        for name in live:
            out.append(name)
    return inner
"""
        findings = engine_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRE101", 4)]


class TestClassBodies:
    """A class body runs once at import, like module code: its
    statements are checked too, with no local sets."""

    def test_class_body_statements_are_checked(self):
        src = """
import time

class Tracker:
    started = time.time()
    ORDER = list({"a", "b"})
"""
        findings = engine_lint(src)
        assert [(f.rule, f.line) for f in findings] == [
            ("MRE102", 5),
            ("MRE101", 6),
        ]


class TestMre103BlanketExcept:
    def test_bare_except_is_caught(self):
        src = """
def f(task):
    try:
        task.run()
    except:
        pass
"""
        assert rules_of(src) == {"MRE103"}

    def test_except_exception_pass_is_caught(self):
        src = """
def f(task):
    try:
        task.run()
    except Exception:
        pass
"""
        assert rules_of(src) == {"MRE103"}

    def test_except_exception_that_reraises_is_clean(self):
        src = """
def f(task):
    try:
        task.run()
    except Exception:
        task.abort()
        raise
"""
        assert engine_lint(src) == []

    def test_except_exception_that_records_is_clean(self):
        src = """
def f(task, log):
    try:
        task.run()
    except Exception as exc:
        log.append(exc)
"""
        assert engine_lint(src) == []

    def test_specific_exception_is_clean(self):
        src = """
def f(task):
    try:
        task.run()
    except KeyError:
        pass
"""
        assert engine_lint(src) == []


class TestMre104SharedMemoryLifecycle:
    """Shared-memory/mmap allocations need a guaranteed cleanup path."""

    BUGGY = """
from multiprocessing import shared_memory

def publish(blob):
    seg = shared_memory.SharedMemory(create=True, size=len(blob))
    seg.buf[: len(blob)] = blob
    return seg.name
"""

    def test_unguarded_allocation_is_caught(self):
        findings = engine_lint(self.BUGGY)
        assert {f.rule for f in findings} == {"MRE104"}
        (finding,) = findings
        assert finding.severity == "error"
        assert "close/unlink" in finding.message

    def test_unguarded_mmap_is_caught(self):
        src = """
import mmap

def read_segment(fd, length):
    mapped = mmap.mmap(fd, length, access=mmap.ACCESS_READ)
    return bytes(mapped)
"""
        assert rules_of(src) == {"MRE104"}

    def test_with_statement_is_clean(self):
        src = """
import mmap

def read_segment(fd, length):
    with mmap.mmap(fd, length, access=mmap.ACCESS_READ) as mapped:
        return bytes(mapped)
"""
        assert engine_lint(src) == []

    def test_try_finally_close_is_clean(self):
        src = """
from multiprocessing import shared_memory

def publish(blob):
    seg = shared_memory.SharedMemory(create=True, size=len(blob))
    try:
        seg.buf[: len(blob)] = blob
        return seg.name
    finally:
        seg.close()
"""
        assert engine_lint(src) == []

    def test_except_unlink_counts_as_guard(self):
        src = """
from multiprocessing import shared_memory

def publish(blob):
    seg = shared_memory.SharedMemory(create=True, size=len(blob))
    try:
        seg.buf[: len(blob)] = blob
        return seg.name
    except BaseException:
        seg.unlink()
        raise
    finally:
        seg.close()
"""
        assert engine_lint(src) == []

    def test_owning_class_with_close_is_clean(self):
        src = """
from multiprocessing import shared_memory

class Attachment:
    def open(self, name):
        self.seg = shared_memory.SharedMemory(name=name)
        return memoryview(self.seg.buf)

    def close(self):
        self.seg.close()
"""
        assert engine_lint(src) == []

    def test_owner_method_name_bound_to_a_value_is_not_cleanup(self):
        src = """
from multiprocessing import shared_memory

class Attachment:
    close = None

    def open(self, name):
        self.seg = shared_memory.SharedMemory(name=name)
        return memoryview(self.seg.buf)
"""
        assert rules_of(src) == {"MRE104"}

    def test_allocation_in_nested_function_blames_the_inner_scope(self):
        src = """
from multiprocessing import shared_memory

def outer(blob):
    def leaky():
        return shared_memory.SharedMemory(create=True, size=len(blob))
    try:
        return leaky()
    finally:
        pass
"""
        assert rules_of(src) == {"MRE104"}

    def test_suppression_comment_works(self):
        src = """
from multiprocessing import shared_memory

def publish(blob):
    seg = shared_memory.SharedMemory(create=True, size=len(blob))  # repro: lint-ok[MRE104] owner unlinks at scope release
    return seg.name
"""
        assert engine_lint(src) == []


class TestMre105JournalCoverage:
    """Namespace mutators without a journal record — the durability hole."""

    UNJOURNALED = """
def mkdirs(self, path):
    created = self.namespace.mkdirs(path, mtime=self.sim.now)
    return created
"""

    JOURNALED = """
def mkdirs(self, path):
    created = self.namespace.mkdirs(path, mtime=self.sim.now)
    if created:
        self.journal.log_mkdirs(path, self.sim.now)
    return created
"""

    def test_unjournaled_mutation_is_caught(self):
        findings = engine_lint(self.UNJOURNALED)
        assert {f.rule for f in findings} == {"MRE105"}
        (finding,) = findings
        assert finding.severity == "error"
        assert "crash recovery" in finding.message

    def test_journaled_mutation_is_clean(self):
        assert engine_lint(self.JOURNALED) == []

    def test_every_mutator_kind_is_covered(self):
        src = """
def wreck(self, src, dst):
    self.namespace.create_file(src, replication=2, mtime=0.0)
    self.namespace.rename(src, dst)
    self.namespace.delete(dst, recursive=True)
"""
        findings = engine_lint(src)
        assert [f.rule for f in findings] == ["MRE105"] * 3

    def test_any_journal_log_call_clears_the_function(self):
        src = """
def rename(self, src, dst):
    self.namespace.rename(src, dst)
    self.journal.log_rename(src, dst)
"""
        assert engine_lint(src) == []

    def test_journal_call_in_a_nested_def_does_not_cover_the_mutation(self):
        """The nested function is audited on its own (it may never be
        called); the old private walker descended into a ``def`` sitting
        directly in the body and let it clear the outer mutation."""
        src = """
def delete(self, path):
    self.namespace.delete(path)
    def later():
        self.journal.log_delete(path, False)
"""
        findings = engine_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRE105", 3)]

    def test_replay_code_under_another_name_is_exempt(self):
        # Journal replay rebuilds a namespace held in a local — it IS
        # the journal being applied, so it must not need a log call.
        src = """
def apply_edit(state, path, mtime):
    ns = state.namespace
    ns.mkdirs(path, mtime=mtime)
"""
        assert engine_lint(src) == []

    def test_suppression_comment_works(self):
        src = """
def scratch(self, path):
    self.namespace.mkdirs(path)  # repro: lint-ok[MRE105] ephemeral scratch namespace, never recovered
"""
        assert engine_lint(src) == []


class TestSelfAudit:
    def test_engine_packages_lint_clean(self):
        """`repro lint --self` over hdfs/mapreduce/faults/sim is clean —
        every remaining engine finding was either fixed or suppressed
        with a written justification."""
        assert lint_self() == []
