"""The taint pass's statement walk agrees with the basic-block CFG.

``taint._FunctionAnalysis`` interprets a function's statements in source
order.  ``tests/analysis/cfg_oracle.py`` keeps the control-flow graph and
worklist solver it replaced, driving the same ``_statement`` and
``_join``.  Hypothesis generates small modules that nest ``if`` / ``for``
/ ``while`` / ``try`` / ``with`` / ``return`` / ``break`` / ``continue`` /
``raise`` around seeded and unseeded RNGs, ``time.time()``, reseeding
assignments and ``random.seed``, helper calls that pass an RNG along, and ``execute(f"…")``
sinks, in functions, methods and module code.  Both sides must give
every function the same summary (effects as a set, return taint, RNG
seeding), the same class-attribute taint, and the same environment
before every reachable statement.

Loops with an ``else`` clause are not generated: there the walk follows
Python (the clause runs only when the loop ends without ``break``) and
the graph did not.
"""

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.taint import ModuleTaint
from tests.analysis.cfg_oracle import CfgModuleTaint

_FUNCTIONS = ("f0", "f1")


class _Program:
    """Decodes hypothesis bytes into a small module, one choice per byte.

    Bytes past the end read as 0, which picks a one-statement body of
    plain assignments, so shrinking heads toward straight-line code.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def pick(self, options):
        byte = self.data[self.pos] if self.pos < len(self.data) else 0
        self.pos += 1
        return options[byte % len(options)]

    def body(self, depth, names, in_loop, in_function, indent):
        """Source lines of one non-empty statement list."""
        pad = " " * indent
        lines = []
        for _ in range(self.pick((1, 2, 3, 4))):
            kind = self.pick(("simple", "simple", "jump", "compound"))
            if kind == "compound" and depth > 0:
                lines += self.compound(depth, names, in_loop, in_function, indent)
                continue
            v, w = self.pick(names), self.pick(names)
            if kind == "jump":
                jumps = ["raise ValueError()"]
                if in_function:
                    jumps.append(f"return {v}")
                if in_loop:
                    jumps += ["break", "continue"]
                lines.append(pad + self.pick(jumps))
                continue
            lines.append(pad + self.pick((
                f"{v} = random.Random(7)",
                f"{v} = random.Random()",
                f"{v} = time.time()",
                f"{v} = 0",
                f"{v} = {w}",
                f"{v} = {w}.random()",
                f"{v} += {w}",
                "random.random()",
                f"random.seed({v})",
                f'db.execute(f"q {{{v}}}")',
                f"{v} = {self.pick(_FUNCTIONS)}(c, {w})",
            )))
        return lines

    def compound(self, depth, names, in_loop, in_function, indent):
        pad = " " * indent

        def sub(loop=in_loop):
            return self.body(depth - 1, names, loop, in_function, indent + 4)

        v, w = self.pick(names), self.pick(names)
        shape = self.pick(("if", "if-else", "for", "while", "try", "with"))
        if shape == "if":
            return [f"{pad}if {self.pick(('c', v))}:", *sub()]
        if shape == "if-else":
            return [f"{pad}if {self.pick(('c', v))}:", *sub(), f"{pad}else:", *sub()]
        if shape == "for":
            source = self.pick(("range(3)", w))
            return [f"{pad}for {v} in {source}:", *sub(True)]
        if shape == "while":
            return [f"{pad}while c:", *sub(True)]
        if shape == "with":
            return [f"{pad}with open({w}) as {v}:", *sub()]
        lines = [f"{pad}try:", *sub()]
        handlers = self.pick((0, 1, 1, 2))
        for _ in range(handlers):
            lines += [f"{pad}except ValueError:", *sub()]
        if handlers and self.pick((False, True)):
            lines += [f"{pad}else:", *sub()]
        if not handlers or self.pick((False, True)):
            lines += [f"{pad}finally:", *sub()]
        return lines


def _module(data: bytes) -> str:
    program = _Program(data)
    plain = ("r", "t")
    out = ["import random", "import time"]
    for name in _FUNCTIONS:
        out.append(f"def {name}(c, a):")
        out += program.body(2, plain + ("a",), False, True, 4)
    out.append("class M:")
    for name in ("setup", "map"):
        out.append(f"    def {name}(self, c, a):")
        out += program.body(2, plain + ("a", "self.s"), False, True, 8)
    out += program.body(2, plain, False, False, 0)
    return "\n".join(out) + "\n"


modules = st.binary(min_size=32, max_size=160).map(_module)


def _effects(summary):
    return {
        (e.kind, id(e.site), e.chain, e.param, e.module_rng)
        for e in summary.effects
    }


def _envs(taint, node):
    """Environment before each statement of the function defined by
    ``node`` (the module for None); a ``try`` has no header of its own,
    so only the walk lists it."""
    info = None if node is None else taint.graph.info_for(node)
    pairs = taint.analysis_for(info).statement_envs()
    return {
        id(stmt): env for stmt, env in pairs if not isinstance(stmt, ast.Try)
    }


@settings(max_examples=150, deadline=None)
@given(modules)
def test_walk_matches_cfg_oracle(source):
    tree = ast.parse(source)
    walk = ModuleTaint(tree)
    cfg = CfgModuleTaint(tree)
    for info in walk.graph.functions:
        ours = walk.summary(info)
        theirs = cfg.summary(cfg.graph.info_for(info.node))
        assert _effects(ours) == _effects(theirs), info.qualname
        assert ours.returns == theirs.returns, info.qualname
        assert ours.seeds_module_rng == theirs.seeds_module_rng
    assert walk.attr_taint == cfg.attr_taint
    assert walk.rng_seeding_classes == cfg.rng_seeding_classes
    for node in [*(info.node for info in walk.graph.functions), None]:
        assert _envs(walk, node) == _envs(cfg, node), ast.dump(node or tree)
