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
