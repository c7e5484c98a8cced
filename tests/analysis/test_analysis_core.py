"""The shared analysis core: CFG shape, dataflow, call graph, taint.

Rule tests exercise these modules end-to-end; the tests here pin the
*intermediate* contracts the rules depend on — edge structure, fixpoint
results, resolution of each callable form — so a regression points at
the layer that broke instead of at whichever rule noticed first.
"""

import ast
import textwrap

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import build_cfg
from repro.analysis.taint import KIND_RANDOM, KIND_TIME, ModuleTaint


def fn_cfg(body: str):
    src = f"def f(x):\n{textwrap.indent(textwrap.dedent(body), '    ')}"
    tree = ast.parse(src)
    return build_cfg(tree.body[0], "f")


class TestCfg:
    def test_straight_line_single_block(self):
        cfg = fn_cfg("a = 1\nb = a + 1\nreturn b")
        blocks = [b for b in cfg.reachable_blocks() if b.statements]
        assert len(blocks) == 1
        assert len(blocks[0].statements) == 3

    def test_if_else_diamond(self):
        cfg = fn_cfg("if x:\n    a = 1\nelse:\n    a = 2\nreturn a")
        stmts = cfg.statements_in_flow_order()
        # header, both branches and the join all reachable.
        assert len(stmts) == 4

    def test_while_loop_has_back_edge(self):
        cfg = fn_cfg("while x:\n    x = x - 1\nreturn x")
        has_back_edge = any(
            succ <= block.index
            for block in cfg.reachable_blocks()
            for succ in block.successors
        )
        assert has_back_edge

    def test_return_terminates_flow(self):
        cfg = fn_cfg("return 1\na = 2")
        reachable = {
            id(s)
            for block in cfg.reachable_blocks()
            for s in block.statements
        }
        tree_stmts = cfg.statements_in_flow_order()
        assert all(not isinstance(s, ast.Assign) for s in tree_stmts)
        assert reachable  # the return itself is reachable

    def test_try_except_edges_reach_handler(self):
        cfg = fn_cfg(
            """
            try:
                a = g()
            except ValueError:
                a = 0
            return a
            """
        )
        assert len(cfg.statements_in_flow_order()) >= 4

    def test_module_level_build(self):
        tree = ast.parse("y = (lambda v: v + 1)(2)\nprint(y)")
        assert build_cfg(tree, "<module>").statements_in_flow_order()


def graph_of(src: str) -> CallGraph:
    return CallGraph(ast.parse(textwrap.dedent(src)))


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
        assert {c.callee.name for c in g.callees_of(top)} == {"helper"}

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
        assert {c.callee.qualname for c in g.callees_of(a)} == {"C.b"}

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
        assert {c.callee.qualname for c in g.callees_of(run)} == {"Base.shared"}

    def test_name_bound_lambda(self):
        g = graph_of(
            """
            double = lambda v: v * 2
            def top(x):
                return double(x)
            """
        )
        top = next(i for i in g.functions if i.name == "top")
        assert len(g.callees_of(top)) == 1

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
        assert {c.callee.name for c in g.callees_of(outer)} != {"leaf"}


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
