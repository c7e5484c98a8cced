"""MRS2xx sparklite rules: closure traps flagged, clean pipelines pass."""

from pathlib import Path

import pytest

from repro.analysis import SPARKLITE_RULES, lint_paths, lint_source
from repro.sparklite import lint_rdd_pipeline

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_RULES = {
    "buggy_mrs201_nondet_closure.py": "MRS201",
    "buggy_mrs202_captured_counter.py": "MRS202",
    "buggy_mrs203_nested_action.py": "MRS203",
    "buggy_mrs204_mean_reduce.py": "MRS204",
}


def sparklite_lint(source: str):
    return lint_source(source, "pipeline.py", families=("sparklite",))


class TestFixtureCatalog:
    def test_one_fixture_per_rule(self):
        assert sorted(FIXTURE_RULES.values()) == sorted(SPARKLITE_RULES)

    def test_fixture_files_exist(self):
        on_disk = {p.name for p in FIXTURES.glob("buggy_mrs*.py")}
        assert on_disk == set(FIXTURE_RULES)


class TestEachFixtureTripsExactlyItsRule:
    @pytest.mark.parametrize(
        "filename,rule",
        sorted(FIXTURE_RULES.items()),
        ids=[rule for _, rule in sorted(FIXTURE_RULES.items())],
    )
    def test_fixture(self, filename, rule):
        findings = lint_paths(
            [str(FIXTURES / filename)], families=("sparklite",)
        )
        assert findings, f"{filename} produced no findings"
        assert {f.rule for f in findings} == {rule}

    def test_clean_pipeline_fixture_passes(self):
        findings = lint_paths(
            [str(FIXTURES / "clean_sparklite_pipeline.py")],
            families=("sparklite",),
        )
        assert findings == []


class TestClosureResolution:
    """MRS201 is exactly as interprocedural as MRJ001."""

    def test_inline_lambda(self):
        src = (
            "import random\n"
            "def pipeline(sc):\n"
            "    rdd = sc.parallelize(range(10))\n"
            "    return rdd.map(lambda x: x + random.random()).collect()\n"
        )
        assert {f.rule for f in sparklite_lint(src)} == {"MRS201"}

    def test_helper_behind_a_helper(self):
        src = (
            "import random\n"
            "def noise():\n"
            "    return random.random()\n"
            "def jitter(x):\n"
            "    return x + noise()\n"
            "def pipeline(sc):\n"
            "    return sc.parallelize(range(10)).map(jitter).collect()\n"
        )
        findings = sparklite_lint(src)
        assert {f.rule for f in findings} == {"MRS201"}
        assert any("noise" in f.message for f in findings)

    def test_seeded_rng_closure_is_clean(self):
        src = (
            "import random\n"
            "def pipeline(sc, seed):\n"
            "    rng = random.Random(seed)\n"
            "    keep = rng.random()\n"
            "    rdd = sc.parallelize(range(10))\n"
            "    return rdd.map(lambda x: x * 2).collect()\n"
        )
        assert sparklite_lint(src) == []

    def test_shared_helper_reported_once(self):
        src = (
            "import time\n"
            "def stamp(x):\n"
            "    return (x, time.time())\n"
            "def pipeline(sc):\n"
            "    a = sc.parallelize(range(5)).map(stamp)\n"
            "    b = sc.parallelize(range(5)).map(stamp)\n"
            "    return a.union(b).collect()\n"
        )
        findings = sparklite_lint(src)
        assert len([f for f in findings if f.rule == "MRS201"]) == 1


class TestCapturedMutation:
    """MRS202 sees every way a closure can mutate captured state."""

    def test_del_of_a_captured_entry_is_flagged(self):
        src = (
            "def pipeline(sc, seen):\n"
            "    def forget(word):\n"
            "        del seen[word]\n"
            "        return word\n"
            "    sc.parallelize(['a']).map(forget).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 3)]
        assert "'seen'" in findings[0].message

    def test_chained_assignment_checks_every_target(self):
        # The last target is a local; the first one is captured.
        src = (
            "def pipeline(sc, seen):\n"
            "    def mark(word):\n"
            "        fresh = {}\n"
            "        seen[word] = fresh[word] = 1\n"
            "        return word\n"
            "    sc.parallelize(['a']).map(mark).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 4)]
        assert "'seen'" in findings[0].message

    def test_chained_assignment_to_two_captures_reports_the_site_once(self):
        src = (
            "def pipeline(sc, seen, last):\n"
            "    def mark(word):\n"
            "        seen[word] = last[word] = 1\n"
            "        return word\n"
            "    sc.parallelize(['a']).map(mark).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 3)]



class TestKeptState:
    """MRS202 sees every way a closure keeps state between calls, in its
    own code or in a helper it calls; MRS203 follows helpers too."""

    def test_nonlocal_counter_is_flagged(self):
        src = (
            "def pipeline(sc):\n"
            "    total = 0\n"
            "    def add(x):\n"
            "        nonlocal total\n"
            "        total += x\n"
            "        return x\n"
            "    sc.parallelize(range(3)).map(add).collect()\n"
            "    return total\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 4)]
        assert "nonlocal 'total'" in findings[0].message

    def test_global_counter_is_flagged(self):
        src = (
            "COUNT = 0\n"
            "def tally(x):\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "    return x\n"
            "def pipeline(sc):\n"
            "    return sc.parallelize(range(3)).map(tally).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 3)]
        assert "global 'COUNT'" in findings[0].message

    def test_mutable_default_is_flagged(self):
        src = (
            "def keep(x, seen=[]):\n"
            "    seen.append(x)\n"
            "    return len(seen)\n"
            "def pipeline(sc):\n"
            "    return sc.parallelize(range(3)).map(keep).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 1)]
        assert "mutable default argument" in findings[0].message

    def test_helper_appending_to_a_module_list_is_flagged_at_the_call(self):
        src = (
            "SEEN = []\n"
            "def record(x):\n"
            "    SEEN.append(x)\n"
            "def pipeline(sc):\n"
            "    def tag(x):\n"
            "        record(x)\n"
            "        return x\n"
            "    return sc.parallelize(range(3)).map(tag).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 6)]
        assert "captured 'SEEN' through record()" in findings[0].message

    def test_action_in_a_helper_is_flagged_at_the_call(self):
        src = (
            "from repro.sparklite import SparkliteContext\n"
            "sc = SparkliteContext()\n"
            "lookup = sc.parallelize([1, 2, 3])\n"
            "def known(x):\n"
            "    return lookup.count()\n"
            "def via(x):\n"
            "    return (x, known(x))\n"
            "def pipeline():\n"
            "    return sc.parallelize(range(3)).map(via).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS203", 7)]
        assert "lookup.count() through known()" in findings[0].message

    def test_helper_mutating_only_its_parameter_is_clean(self):
        src = (
            "def add(acc, x):\n"
            "    acc.append(x)\n"
            "def pairs(x):\n"
            "    out = []\n"
            "    add(out, x)\n"
            "    return out\n"
            "def pipeline(sc):\n"
            "    return sc.parallelize(range(3)).map(pairs).collect()\n"
        )
        assert sparklite_lint(src) == []

    def test_state_of_the_closures_own_call_is_clean(self):
        # ``acc`` and ``n`` are locals of ``pairs``: fresh on every call,
        # so the nested def that updates them keeps nothing.
        src = (
            "def pipeline(sc):\n"
            "    def pairs(x):\n"
            "        acc, n = [], 0\n"
            "        def add(y, fresh=[]):\n"
            "            nonlocal n\n"
            "            n += 1\n"
            "            acc.append(y)\n"
            "        add(x)\n"
            "        return acc, n\n"
            "    return sc.parallelize(range(3)).map(pairs).collect()\n"
        )
        assert sparklite_lint(src) == []

class TestScopes:
    """A closure's names resolve as Python resolves them: up the scope
    chain of the code that holds the closure."""

    def test_enclosing_functions_def_shadows_the_module_one(self):
        # The module's record() appends to SEEN; the lambda calls
        # build()'s own pure record().
        src = (
            "SEEN = []\n"
            "def record(x):\n"
            "    SEEN.append(x)\n"
            "    return x\n"
            "def build(sc):\n"
            "    def record(x):\n"
            "        return x\n"
            "    def stage():\n"
            "        return sc.parallelize(range(3)).map(lambda x: record(x))\n"
            "    return stage()\n"
        )
        assert sparklite_lint(src) == []

    def test_enclosing_functions_helper_is_followed(self):
        src = (
            "def build(sc):\n"
            "    hits = []\n"
            "    def record2(x):\n"
            "        hits.append(x)\n"
            "        return x\n"
            "    def stage():\n"
            "        return sc.parallelize(range(3)).map(lambda x: record2(x))\n"
            "    return stage()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 7)]
        assert "captured 'hits' through record2()" in findings[0].message

    def test_global_only_read_is_clean(self):
        src = (
            "LOOKUP = {}\n"
            "def find(x):\n"
            "    global LOOKUP\n"
            "    return LOOKUP.get(x)\n"
            "def pipeline(sc):\n"
            "    return sc.parallelize(range(3)).map(find).collect()\n"
        )
        assert sparklite_lint(src) == []

    def test_method_writing_self_is_flagged(self):
        src = (
            "class Driver:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def tally(self, x):\n"
            "        self.count += 1\n"
            "        return x\n"
            "    def run(self, sc):\n"
            "        return sc.parallelize(range(3)).map(self.tally).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRS202", 5)]
        assert "mutates 'self.count'" in findings[0].message

    def test_a_constructors_new_object_is_clean(self):
        src = (
            "class Point:\n"
            "    def __init__(self, x):\n"
            "        self.x = x\n"
            "def pipeline(sc):\n"
            "    sc.parallelize(range(3)).map(Point).collect()\n"
            "    return sc.parallelize(range(3)).map(lambda x: Point(x)).collect()\n"
        )
        assert sparklite_lint(src) == []

    def test_a_method_building_its_own_class_is_clean(self):
        # Driver() inside tally() runs __init__ on a new object.
        src = (
            "class Driver:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "    def tally(self, x):\n"
            "        return Driver().count + x\n"
            "    def run(self, sc):\n"
            "        return sc.parallelize(range(3)).map(self.tally).collect()\n"
        )
        assert sparklite_lint(src) == []

    def test_global_mutated_in_place_is_flagged(self):
        src = (
            "SEEN = []\n"
            "def note(x):\n"
            "    global SEEN\n"
            "    SEEN.append(x)\n"
            "    return x\n"
            "def pipeline(sc):\n"
            "    return sc.parallelize(range(3)).map(note).collect()\n"
        )
        findings = sparklite_lint(src)
        assert [(f.rule, f.line) for f in findings] == [
            ("MRS202", 3),
            ("MRS202", 4),
        ]


class TestAssociativity:
    def test_associative_reduce_is_clean(self):
        src = (
            "def pipeline(sc):\n"
            "    return sc.parallelize(range(10)).reduce(lambda a, b: a + b)\n"
        )
        assert sparklite_lint(src) == []

    def test_constant_scale_in_mapper_is_not_flagged(self):
        # x * 2 - 1 touches one value; only combining arithmetic counts.
        src = (
            "def pipeline(sc):\n"
            "    rdd = sc.parallelize(range(10)).map(lambda x: x * 2 - 1)\n"
            "    return rdd.reduce(lambda a, b: a + b)\n"
        )
        assert sparklite_lint(src) == []

    def test_reduce_by_key_subtraction_flagged(self):
        src = (
            "def pipeline(sc):\n"
            "    pairs = sc.parallelize([('a', 1), ('a', 2)])\n"
            "    return pairs.reduce_by_key(lambda a, b: a - b).collect()\n"
        )
        assert {f.rule for f in sparklite_lint(src)} == {"MRS204"}


class TestEntryPoint:
    def test_lint_rdd_pipeline_on_fixture(self):
        findings = lint_rdd_pipeline(
            str(FIXTURES / "buggy_mrs204_mean_reduce.py")
        )
        assert {f.rule for f in findings} == {"MRS204"}

    def test_lint_rdd_pipeline_default_examples_clean(self):
        assert lint_rdd_pipeline() == []
