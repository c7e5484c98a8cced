"""Cheap guards on the committed reachability census and its allow-list.

Regenerating the census runs every product entry point and the whole
suite (minutes; CI's ``census`` job does it).  These checks only read
the two committed files and the AST of ``src/repro``.
"""

import pytest

from tests.census.census import ALLOWLIST, CENSUS, CLASSES, functions

#: The allow-list may only shrink: lower this when lines go, never raise it.
MAX_ALLOWED = 229

#: Every reason names the consumer that keeps a non-product function.
CONSUMERS = ("paper ", "README ", "ROADMAP item ", "safety: ", "declaration: ")


def read_census() -> dict[str, str]:
    classes = {}
    for line in CENSUS.read_text().splitlines():
        if line and not line.startswith("#"):
            kind, key = line.split()
            classes[key] = kind
    return classes


def read_allowlist() -> dict[str, str]:
    reasons = {}
    for line in ALLOWLIST.read_text().splitlines():
        if line and not line.startswith("#"):
            key, sep, reason = line.partition(" -- ")
            assert sep, f"allow-list line without ' -- reason': {line!r}"
            assert key not in reasons, f"{key} listed twice"
            reasons[key] = reason
    return reasons


@pytest.fixture(scope="module")
def keys():
    return {func.key for func in functions()}


def test_every_function_is_in_the_census(keys):
    census = read_census()
    assert sorted(keys - set(census)) == [], "regenerate tests/census/census.txt"
    assert sorted(set(census) - keys) == [], "census names a function that is gone"
    assert set(census.values()) <= set(CLASSES)


def test_allowlist_names_existing_functions(keys):
    assert sorted(set(read_allowlist()) - keys) == []


def test_allowlist_only_shrinks():
    assert len(read_allowlist()) <= MAX_ALLOWED


def test_every_reason_names_a_consumer():
    for key, reason in read_allowlist().items():
        assert reason.startswith(CONSUMERS), f"{key}: {reason!r}"


def test_non_product_functions_are_exactly_the_allowlist():
    census = read_census()
    allowed = read_allowlist()
    non_product = {key for key, kind in census.items() if kind != "product"}
    assert sorted(non_product - set(allowed)) == [], "delete, move to tests/, or allow-list"
    assert sorted(set(allowed) - non_product) == [], "product now: drop its allow-list line"


def test_only_declarations_are_unreached():
    census = read_census()
    reasons = read_allowlist()
    for key, kind in census.items():
        if kind == "unreached":
            assert reasons[key].startswith("declaration: "), key
