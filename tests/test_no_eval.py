"""No ``eval``/``exec`` in the package.

Every text format the stack reads back (sparklite elements, Hive
partials, journal edits, wire frames) has a parser that accepts that
format and nothing else.  ``hive.engine.Partial.decode`` was the one
place that handed record text to ``eval``; this walk keeps it the last.
"""

import ast
from pathlib import Path

import repro

FORBIDDEN = {"eval", "exec"}


def _forbidden_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in FORBIDDEN:
            yield node.lineno, func.id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in FORBIDDEN
            and isinstance(func.value, ast.Name)
            and func.value.id in ("builtins", "__builtins__")
        ):
            yield node.lineno, f"{func.value.id}.{func.attr}"


def test_no_source_file_calls_eval_or_exec():
    root = Path(repro.__file__).parent
    files = sorted(root.rglob("*.py"))
    assert len(files) > 100  # the walk found the package, not an empty dir
    found = [
        f"{path.relative_to(root)}:{line}: {name}()"
        for path in files
        for line, name in _forbidden_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_walk_sees_what_it_is_looking_for():
    tree = ast.parse("x = eval('1')\nimport builtins\nbuiltins.exec('y = 2')\nre.compile('eval')")
    assert [name for _line, name in _forbidden_calls(tree)] == ["eval", "builtins.exec"]
