"""Every backticked ``repro.…`` name in README.md and DESIGN.md resolves,
and so does every backticked setting spelled ``HdfsConfig.x`` (or on
another settings holder).

A doc that names a symbol is a claim that the symbol exists; this keeps
the claim checked when code is renamed or deleted.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from repro.core.campus import CampusScenario
from repro.core.classroom import ClassroomScenario
from repro.hdfs.config import HdfsConfig
from repro.mapreduce.config import JobConf, MapReduceConfig

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md")
#: A whole backtick span holding a dotted ``repro`` name, ``()`` allowed.
SYMBOL = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?`")
SETTINGS_HOLDERS = {
    cls.__name__: cls
    for cls in (
        HdfsConfig, MapReduceConfig, JobConf, ClassroomScenario, CampusScenario
    )
}
SPAN = re.compile(r"`([^`\n]+)`")
#: ``Holder.attr`` anywhere inside a backtick span.
SETTING = re.compile(r"\b(" + "|".join(SETTINGS_HOLDERS) + r")\.([A-Za-z_]\w*)")


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


def doc_settings():
    found = set()
    for doc in DOCS:
        for span in SPAN.findall((ROOT / doc).read_text()):
            found.update((doc, f"{cls}.{attr}") for cls, attr in SETTING.findall(span))
    return sorted(found)


def test_docs_name_some_settings():
    assert len(doc_settings()) >= 5


@pytest.mark.parametrize("doc,name", doc_settings())
def test_doc_setting_exists(doc, name):
    holder, attr = name.split(".")
    cls = SETTINGS_HOLDERS[holder]
    fields = {field.name for field in dataclasses.fields(cls)}
    assert attr in fields or hasattr(cls, attr), (
        f"{doc} names `{name}`, which {holder} no longer has"
    )
