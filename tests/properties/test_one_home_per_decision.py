"""``ast`` pins: each master-side question keeps exactly one home.

A second copy of any of these is how the copies drifted apart before
(three meanings of "under-replicated", a balancer that corrupted the
reverse replica index, a rename that walked the tree seven times), so a
new one fails here and has to argue its case.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _tree(relative: str) -> ast.Module:
    return ast.parse((SRC / relative).read_text())


def _sources() -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(SRC)), path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    ]


def _looks_up_children(node: ast.AST) -> bool:
    """``x.children[...]`` read, or ``x.children.get(...)``."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        target = node.value
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
    ):
        target = node.func.value
    else:
        return False
    return isinstance(target, ast.Attribute) and target.attr == "children"


class TestOneHomePerMasterDecision:
    def test_where_is_this_path_one_descent(self):
        """Exactly one function in ``namespace.py`` looks a path
        component up in ``children`` inside a loop."""
        walkers = [
            function.name
            for function in ast.walk(_tree("hdfs/namespace.py"))
            if isinstance(function, ast.FunctionDef)
            and any(
                _looks_up_children(inner)
                for loop in ast.walk(function)
                if isinstance(loop, (ast.For, ast.While))
                for inner in ast.walk(loop)
            )
        ]
        assert walkers == ["_descend"]

    def test_who_is_alive_one_heap(self):
        """Neither master hand-rolls an expiry heap: ``LivenessTable``
        in ``repro.sim.engine`` is the one both use."""
        for module in ("hdfs/namenode.py", "mapreduce/jobtracker.py"):
            imported = {
                alias.name
                for node in ast.walk(_tree(module))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            assert "heapq" not in imported, module
            assert "LivenessTable" in imported, module

    def test_how_healthy_is_this_block_one_census(self):
        """Only the NameNode changes ``locations`` or asks a DataNode's
        liveness; everyone else reads ``NameNode.census``."""
        for name, text in _sources():
            if name == "hdfs/namenode.py":
                continue
            assert "_is_live(" not in text, name
            assert ".locations.discard(" not in text, name
            assert ".locations.add(" not in text, name
            assert "live_replicas" not in text, name

    def test_a_maps_output_is_gone_one_requeue(self):
        publishers = [
            name for name, text in _sources()
            for _ in range(text.count('"mr.jobtracker.map_output_lost"'))
        ]
        assert publishers == ["mapreduce/jobtracker.py"]
