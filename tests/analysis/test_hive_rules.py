"""MRH3xx hive rules: UDF purity, cross-call state, and SQL taint."""

from pathlib import Path

import pytest

from repro.analysis import HIVE_RULES, lint_paths, lint_source
from repro.analysis.hive_rules import lint_udf_callables

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_RULES = {
    "buggy_mrh301_nondet_udf.py": "MRH301",
    "buggy_mrh302_stateful_udf.py": "MRH302",
    "buggy_mrh303_tainted_query.py": "MRH303",
}


def hive_lint(source: str):
    return lint_source(source, "script.py", families=("hive",))


class TestFixtureCatalog:
    def test_one_fixture_per_rule(self):
        assert sorted(FIXTURE_RULES.values()) == sorted(HIVE_RULES)

    def test_fixture_files_exist(self):
        on_disk = {p.name for p in FIXTURES.glob("buggy_mrh*.py")}
        assert on_disk == set(FIXTURE_RULES)


class TestEachFixtureTripsExactlyItsRule:
    @pytest.mark.parametrize(
        "filename,rule",
        sorted(FIXTURE_RULES.items()),
        ids=[rule for _, rule in sorted(FIXTURE_RULES.items())],
    )
    def test_fixture(self, filename, rule):
        findings = lint_paths([str(FIXTURES / filename)], families=("hive",))
        assert findings, f"{filename} produced no findings"
        assert {f.rule for f in findings} == {rule}

    def test_clean_script_fixture_passes(self):
        findings = lint_paths(
            [str(FIXTURES / "clean_hive_script.py")], families=("hive",)
        )
        assert findings == []


class TestUdfResolution:
    def test_udf_calling_nondet_helper_flagged(self):
        src = (
            "import random\n"
            "def noise():\n"
            "    return random.random()\n"
            "def jitter(v):\n"
            "    return str(float(v) + noise())\n"
            "def build(engine):\n"
            "    engine.register_udf('jitter', jitter)\n"
        )
        findings = hive_lint(src)
        assert {f.rule for f in findings} == {"MRH301"}
        assert any("noise" in f.message for f in findings)

    def test_lambda_udf_with_default_arg_state(self):
        src = (
            "def build(engine):\n"
            "    def tag(v, seen={}):\n"
            "        seen[v] = True\n"
            "        return v\n"
            "    engine.register_udf('tag', tag)\n"
        )
        assert {f.rule for f in hive_lint(src)} == {"MRH302"}


    def test_with_bound_local_is_not_captured_state(self):
        """``with ... as seen`` binds ``seen`` in the UDF itself — the
        hive copy of the locals scan used to miss the ``With`` arm and
        report "captured 'seen'"."""
        src = (
            "from contextlib import closing\n"
            "def clean(x):\n"
            "    with closing(set()) as seen:\n"
            "        seen.add(x)\n"
            "        return x\n"
            "def build(engine):\n"
            "    engine.register_udf('clean', clean)\n"
        )
        assert hive_lint(src) == []


class TestCapturedMutation:
    """MRH302 names every captured object a UDF mutates."""

    def test_del_of_a_captured_entry_is_flagged(self):
        src = (
            "_CACHE = {}\n"
            "def evict(v):\n"
            "    del _CACHE[v]\n"
            "    return v\n"
            "def build(engine):\n"
            "    engine.register_udf('evict', evict)\n"
        )
        findings = hive_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRH302", 3)]
        assert "captured '_CACHE'" in findings[0].message

    def test_chained_assignment_names_each_root(self):
        src = (
            "_SEEN = {}\n"
            "_LAST = {}\n"
            "def mark(v):\n"
            "    _SEEN[v] = _LAST[v] = 1\n"
            "    return v\n"
            "def build(engine):\n"
            "    engine.register_udf('mark', mark)\n"
        )
        findings = hive_lint(src)
        assert [f.rule for f in findings] == ["MRH302", "MRH302"]
        assert sorted(f.message.split("'")[1] for f in findings) == [
            "_LAST",
            "_SEEN",
        ]


    def test_helper_appending_to_a_module_list_is_flagged_at_the_call(self):
        src = (
            "_ROWS = []\n"
            "def record(v):\n"
            "    _ROWS.append(v)\n"
            "def keep(v):\n"
            "    record(v)\n"
            "    return v\n"
            "def build(engine):\n"
            "    engine.register_udf('keep', keep)\n"
        )
        findings = hive_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRH302", 5)]
        assert "captured '_ROWS' through record()" in findings[0].message

    def test_lambda_with_a_mutable_default_is_flagged(self):
        src = (
            "def build(engine):\n"
            "    engine.register_udf(\n"
            "        'keep', lambda v, seen=[]: seen.append(v) or len(seen)\n"
            "    )\n"
        )
        findings = hive_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRH302", 3)]
        assert "mutable default argument" in findings[0].message

    def test_helper_mutating_only_its_parameter_is_clean(self):
        src = (
            "def add(acc, v):\n"
            "    acc.append(v)\n"
            "def pair(v):\n"
            "    out = []\n"
            "    add(out, v)\n"
            "    return str(out)\n"
            "def build(engine):\n"
            "    engine.register_udf('pair', pair)\n"
        )
        assert hive_lint(src) == []

class TestUdfState:
    """MRH302 reads what a UDF keeps from the scope table."""

    def test_global_rebound_is_flagged_at_the_declaration(self):
        src = (
            "COUNT = 0\n"
            "def tally(v):\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "    return v\n"
            "def build(engine):\n"
            "    engine.register_udf('tally', tally)\n"
        )
        findings = hive_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRH302", 3)]
        assert "global 'COUNT'" in findings[0].message

    def test_global_mutated_in_place_is_flagged_at_the_declaration(self):
        src = (
            "SEEN = {}\n"
            "def tag(v):\n"
            "    global SEEN\n"
            "    SEEN[v] = 1\n"
            "    return v\n"
            "def build(engine):\n"
            "    engine.register_udf('tag', tag)\n"
        )
        findings = hive_lint(src)
        assert [(f.rule, f.line) for f in findings] == [
            ("MRH302", 3),
            ("MRH302", 4),
        ]
        assert "global 'SEEN'" in findings[0].message

    def test_global_only_read_is_clean(self):
        src = (
            "LOOKUP = {}\n"
            "def find(v):\n"
            "    global LOOKUP\n"
            "    return LOOKUP.get(v)\n"
            "def build(engine):\n"
            "    engine.register_udf('find', find)\n"
        )
        assert hive_lint(src) == []

    def test_method_writing_self_is_flagged(self):
        src = (
            "class Tagger:\n"
            "    def __init__(self, engine):\n"
            "        self.count = 0\n"
            "        engine.register_udf('tally', self.tally)\n"
            "    def tally(self, v):\n"
            "        self.count += 1\n"
            "        return v\n"
        )
        findings = hive_lint(src)
        assert [(f.rule, f.line) for f in findings] == [("MRH302", 6)]
        assert "state in 'self.count'" in findings[0].message


class TestSqlSinks:
    def test_literal_sql_is_clean(self):
        src = (
            "def report(engine):\n"
            "    return engine.execute('SELECT carrier FROM flights')\n"
        )
        assert hive_lint(src) == []

    def test_conf_derived_threshold_is_clean(self):
        src = (
            "def report(engine, conf):\n"
            "    cutoff = int(conf.get('cutoff', 15))\n"
            "    q = f'SELECT carrier FROM flights WHERE delay > {cutoff}'\n"
            "    return engine.execute(q)\n"
        )
        assert hive_lint(src) == []

    def test_explain_is_also_a_sink(self):
        src = (
            "import time\n"
            "def report(engine):\n"
            "    q = f'SELECT carrier FROM flights -- {time.time()}'\n"
            "    return engine.explain(q)\n"
        )
        assert {f.rule for f in hive_lint(src)} == {"MRH303"}

    def test_module_level_sink(self):
        src = (
            "import time\n"
            "engine = get_engine()\n"
            "cutoff = time.time()\n"
            "engine.execute(f'SELECT x FROM t WHERE y > {cutoff}')\n"
        )
        assert {f.rule for f in hive_lint(src)} == {"MRH303"}

    def test_sinks_nested_in_statements_and_lambdas_still_report(self):
        # Only a scope with no sink call of its own is skipped; these
        # sinks sit in an if/try/except/with/loop body, a decorator and
        # a lambda, each with a sink-free outer scope or sibling.
        src = (
            "import time\n"
            "def plain(x):\n"
            "    return x + 1\n"
            "def nested(engine):\n"
            "    with open('f'):\n"
            "        for i in range(3):\n"
            "            try:\n"
            "                pass\n"
            "            except ValueError:\n"
            "                if i:\n"
            "                    engine.execute(f'SELECT {time.time()}')\n"
            "def outer(engine):\n"
            "    @wrap(engine.explain(f'SELECT {time.time()}'))\n"
            "    def inner():\n"
            "        return 1\n"
            "    return lambda: engine.execute(f'SELECT {time.time()}')\n"
        )
        assert [(f.rule, f.line) for f in hive_lint(src)] == [
            ("MRH303", 11),
            ("MRH303", 13),
            ("MRH303", 16),
            ("MRH303", 16),
        ]


class TestLiveCallables:
    def test_lint_udf_callables_flags_this_module(self):
        import random

        def noisy(v):
            return str(float(v) + random.random())

        findings = lint_udf_callables({"noisy": noisy})
        assert {f.rule for f in findings} == {"MRH301"}

    def test_pure_callable_is_clean(self):
        def shout(v):
            return v.upper()

        assert lint_udf_callables({"shout": shout}) == []

    def test_unrecoverable_source_is_skipped(self):
        assert lint_udf_callables({"upper": str.upper}) == []
