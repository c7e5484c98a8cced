"""The shared analysis core: call graph and taint.

Rule tests exercise these modules end-to-end; the tests here pin the
*intermediate* contracts the rules depend on — resolution of each
callable form, effect summaries, and what flows where along the taint
pass's walk of a function's statements — so a regression points at the
layer that broke instead of at whichever rule noticed first.
"""

import ast
import textwrap

from repro.analysis import lint_source
from repro.analysis.callgraph import CallGraph, walk_own_nodes
from repro.analysis.taint import KIND_RANDOM, KIND_TIME, ModuleTaint


def graph_of(src: str) -> CallGraph:
    return CallGraph(ast.parse(textwrap.dedent(src)))


def callees(g: CallGraph, info) -> list:
    """What each of the function's own calls resolves to."""
    calls = [n for n in walk_own_nodes(info.node) if isinstance(n, ast.Call)]
    resolved = (g.resolve_call(call) for call in calls)
    return [callee for callee in resolved if callee is not None]


class TestCallGraph:
    def test_module_function_call(self):
        g = graph_of(
            """
            def helper():
                return 1
            def top():
                return helper()
            """
        )
        top = next(i for i in g.functions if i.name == "top")
        assert {c.name for c in callees(g, top)} == {"helper"}

    def test_self_method_resolution(self):
        g = graph_of(
            """
            class C:
                def a(self):
                    return self.b()
                def b(self):
                    return 2
            """
        )
        a = next(i for i in g.functions if i.qualname == "C.a")
        assert {c.qualname for c in callees(g, a)} == {"C.b"}

    def test_base_class_method_resolution(self):
        g = graph_of(
            """
            class Base:
                def shared(self):
                    return 0
            class Child(Base):
                def run(self):
                    return self.shared()
            """
        )
        run = next(i for i in g.functions if i.qualname == "Child.run")
        assert {c.qualname for c in callees(g, run)} == {"Base.shared"}

    def test_name_bound_lambda(self):
        g = graph_of(
            """
            double = lambda v: v * 2
            def top(x):
                return double(x)
            """
        )
        top = next(i for i in g.functions if i.name == "top")
        assert len(callees(g, top)) == 1

    def test_nested_call_not_attributed_to_outer(self):
        g = graph_of(
            """
            def outer():
                def inner():
                    return leaf()
                return inner
            def leaf():
                return 3
            """
        )
        outer = next(i for i in g.functions if i.name == "outer")
        assert {c.name for c in callees(g, outer)} != {"leaf"}


class TestScopes:
    def test_qualnames_are_pythons(self):
        g = graph_of(
            """
            def f():
                class C:
                    def m(self):
                        return lambda: 1
                return C
            """
        )
        assert [i.qualname for i in g.functions] == [
            "f",
            "f.<locals>.C.m",
            "f.<locals>.C.m.<locals>.<lambda>",
        ]

    def test_local_classes_of_two_functions_do_not_collide(self):
        g = graph_of(
            """
            def first():
                class M:
                    def run(self):
                        return self.helper()
                    def helper(self):
                        return 1
            def second():
                class M:
                    def run(self):
                        return self.helper()
                    def helper(self):
                        return 2
            """
        )
        runs = [i for i in g.functions if i.name == "run"]
        helpers = [i for i in g.functions if i.name == "helper"]
        assert [callees(g, run) for run in runs] == [[h] for h in helpers]

    def test_class_scope_is_invisible_to_its_methods(self):
        g = graph_of(
            """
            def helper():
                return 1
            class C:
                def helper(self):
                    return 2
                def run(self):
                    return helper()
            """
        )
        run = next(i for i in g.functions if i.qualname == "C.run")
        assert [c.qualname for c in callees(g, run)] == ["helper"]


def taint_of(src: str) -> ModuleTaint:
    return ModuleTaint(ast.parse(textwrap.dedent(src)))


class TestTaint:
    def test_direct_effect(self):
        t = taint_of(
            """
            import random
            def draw():
                return random.random()
            """
        )
        info = next(i for i in t.graph.functions if i.name == "draw")
        kinds = {e.kind for e in t.effects_of(info)}
        assert kinds == {KIND_RANDOM}

    def test_transitive_effect_carries_chain(self):
        t = taint_of(
            """
            import time
            def leaf():
                return time.time()
            def mid():
                return leaf()
            def top():
                return mid()
            """
        )
        top = next(i for i in t.graph.functions if i.name == "top")
        effects = t.effects_of(top)
        assert {e.kind for e in effects} == {KIND_TIME}
        chain = effects[0].render_chain()
        assert "mid" in chain and "leaf" in chain

    def test_seeded_rng_draw_is_clean(self):
        t = taint_of(
            """
            import random
            def f(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        info = next(i for i in t.graph.functions if i.name == "f")
        assert t.effects_of(info) == []

    def test_unseeded_rng_draw_is_flagged(self):
        t = taint_of(
            """
            import random
            def f():
                rng = random.Random()
                return rng.random()
            """
        )
        info = next(i for i in t.graph.functions if i.name == "f")
        assert {e.kind for e in t.effects_of(info)} == {KIND_RANDOM}

    def test_flow_sensitivity_across_branches(self):
        # On one path rng is unseeded: the draw must be flagged.
        t = taint_of(
            """
            import random
            def f(cond, seed):
                if cond:
                    rng = random.Random(seed)
                else:
                    rng = random.Random()
                return rng.random()
            """
        )
        info = next(i for i in t.graph.functions if i.name == "f")
        assert t.effects_of(info)

    def test_if_else_diamond_joins_both_arms(self):
        # Both arms reach the join: an unseeded RNG bound in either arm
        # alone taints the draw after the ``if``.
        t = taint_of(
            """
            import random
            def then_arm(cond):
                if cond:
                    rng = random.Random()
                else:
                    rng = random.Random(7)
                return rng.random()
            def else_arm(cond):
                if cond:
                    rng = random.Random(7)
                else:
                    rng = random.Random()
                return rng.random()
            def both_seeded(cond):
                if cond:
                    rng = random.Random(7)
                else:
                    rng = random.Random(8)
                return rng.random()
            """
        )
        kinds = {
            i.name: {e.kind for e in t.effects_of(i)} for i in t.graph.functions
        }
        assert kinds == {
            "then_arm": {KIND_RANDOM},
            "else_arm": {KIND_RANDOM},
            "both_seeded": set(),
        }

    def test_loop_back_edge_reaches_draw(self):
        # The first pass draws from the seeded RNG; the reseed at the end
        # of the body reaches the draw on the next pass.
        t = taint_of(
            """
            import random
            def f(n):
                rng = random.Random(7)
                while n:
                    n = rng.random()
                    rng = random.Random()
            """
        )
        info = next(i for i in t.graph.functions if i.name == "f")
        assert {e.kind for e in t.effects_of(info)} == {KIND_RANDOM}

    def test_draw_after_return_is_unreachable(self):
        t = taint_of(
            """
            import random
            def f():
                return 1
                random.random()
            """
        )
        info = next(i for i in t.graph.functions if i.name == "f")
        assert t.effects_of(info) == []

    def test_draw_after_break_is_unreachable(self):
        t = taint_of(
            """
            import random
            def f(items):
                for item in items:
                    break
                    random.random()
            """
        )
        info = next(i for i in t.graph.functions if i.name == "f")
        assert t.effects_of(info) == []

    def test_handler_sees_taint_from_inner_body_statement(self):
        # The unseeded RNG is replaced before the try body ends, but the
        # statement in between may raise while it is still live.
        t = taint_of(
            """
            import random
            def f(cond):
                try:
                    rng = random.Random()
                    if cond:
                        cond = 0
                    rng = random.Random(7)
                except ValueError:
                    return rng.random()
                return 0
            """
        )
        info = next(i for i in t.graph.functions if i.name == "f")
        assert {e.kind for e in t.effects_of(info)} == {KIND_RANDOM}

    def test_handler_sees_sql_taint_from_inner_body_statement(self):
        src = textwrap.dedent(
            """
            import time
            def report(hive, cond):
                try:
                    stamp = time.time()
                    if cond:
                        hive.execute("SELECT 1")
                    stamp = 0
                except ValueError:
                    hive.execute(f"SELECT * FROM t WHERE ts > {stamp}")
            """
        )
        findings = lint_source(src, "script.py", families=("hive",))
        assert [(f.rule, f.line) for f in findings] == [("MRH303", 10)]

    def test_module_level_sink_under_if(self):
        # Module code runs through the same walk: a name bound inside a
        # module-level ``if`` reaches the sink after it.
        src = textwrap.dedent(
            """
            import time
            if READY:
                stamp = time.time()
            hive.execute(f"SELECT * FROM t WHERE ts > {stamp}")
            """
        )
        findings = lint_source(src, "script.py", families=("hive",))
        assert [(f.rule, f.line) for f in findings] == [("MRH303", 5)]

    def test_cyclic_same_module_bases_terminate(self):
        # The second ``class B`` rebinds B, so A and B name each other
        # as bases; attribute lookup through them must still end.
        src = textwrap.dedent(
            """
            from repro.mapreduce.api import Mapper

            class B(Mapper):
                pass

            class A(B):
                def map(self, key, value, context):
                    context.write(self.k, value)

            class B(A):
                def map(self, key, value, context):
                    context.write(self.k, value)
            """
        )
        assert lint_source(src, "job.py", families=("jobs",)) == []


class TestMonotoneTaint:
    """More taint in never means less taint out, so the order the walk
    visits states in cannot change a result.  Each case read as clean
    at the parent."""

    def test_draw_from_maybe_parameter_rng_is_conditional(self):
        t = taint_of(
            """
            import random
            def f(cond, rng):
                if cond:
                    rng = random.Random(7)
                return rng.random()
            def g():
                return f(True, random.Random())
            """
        )
        g = next(i for i in t.graph.functions if i.name == "g")
        assert {e.kind for e in t.effects_of(g)} == {KIND_RANDOM}

    def test_attribute_assigned_on_one_path_keeps_its_old_taint(self):
        t = taint_of(
            """
            import random
            class Job:
                def setup(self):
                    self.rng = random.Random()
                def map(self, cond):
                    if cond:
                        self.rng = random.Random(7)
                    return self.rng.random()
            """
        )
        map_ = next(i for i in t.graph.functions if i.qualname == "Job.map")
        assert {e.kind for e in t.effects_of(map_)} == {KIND_RANDOM}

    def test_seed_tainted_once_attribute_taint_settles_does_not_sanitise(self):
        # On the first round self.s still reads clean, so seed(t) looks
        # clean; the class seeds only if it does once the fixpoint is done.
        t = taint_of(
            """
            import random
            class M:
                def setup(self, c):
                    while c:
                        t = self.s
                    self.s = random.Random()
                    random.seed(t)
                def map(self):
                    return random.random()
            """
        )
        map_ = next(i for i in t.graph.functions if i.qualname == "M.map")
        assert t.rng_seeding_classes == set()
        assert {e.kind for e in t.effects_of(map_)} == {KIND_RANDOM}

    def test_seed_tainted_on_a_later_pass_does_not_sanitise(self):
        t = taint_of(
            """
            import random
            import time
            def f(items):
                stamp = 0
                for item in items:
                    random.seed(stamp)
                    stamp = time.time()
            """
        )
        f = next(i for i in t.graph.functions if i.name == "f")
        assert not t.summary(f).seeds_module_rng
