"""Every backticked ``repro.…`` name in README.md and DESIGN.md resolves.

A doc that names a symbol is a claim that the symbol exists; this keeps
the claim checked when code is renamed or deleted.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md")
#: A whole backtick span holding a dotted ``repro`` name, ``()`` allowed.
SYMBOL = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?`")


def doc_symbols():
    found = set()
    for doc in DOCS:
        found.update((doc, name) for name in SYMBOL.findall((ROOT / doc).read_text()))
    return sorted(found)


def resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_docs_name_some_symbols():
    assert len(doc_symbols()) > 20


@pytest.mark.parametrize("doc,name", doc_symbols())
def test_doc_symbol_resolves(doc, name):
    try:
        resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc} names `{name}`, which does not resolve: {exc}")
