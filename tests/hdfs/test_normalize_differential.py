"""``normalize`` against its full ``normpath`` body: the already-normal
fast path must answer exactly what the body would, for every path."""

import posixpath

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs.namespace import normalize
from repro.util.errors import FileNotFoundInHdfs


def normalize_oracle(path: str) -> str:
    """``normalize`` before the fast path."""
    if not path.startswith("/"):
        raise FileNotFoundInHdfs(f"HDFS paths must be absolute: {path!r}")
    return "/" + posixpath.normpath(path).lstrip("/")


def outcome(fn, path):
    try:
        return "ok", fn(path)
    except FileNotFoundInHdfs:
        return "raised", FileNotFoundInHdfs


TABLE = [
    # tests/hdfs/test_namespace.py's table
    "/", "/a//b", "/a/./b", "/a/b/../c", "/a/b/", "//", "//a//b",
    # either side of the fast path's test
    "/a", "/a/b", "/a/.", "/a/..", "/.", "/..", "/./a", "/../a", "/.a",
    "/a.", "/a/.b", "/a/b.", "/a..b", "/a/", "///", "/ ", "/ /", "/é",
    "/é/ . /a", "/a/./", "a", "", ".", "./a", " /a",
]


class TestNormalizeMatchesNormpath:
    @pytest.mark.parametrize("path", TABLE)
    def test_table(self, path):
        assert outcome(normalize, path) == outcome(normalize_oracle, path)

    @settings(max_examples=500, deadline=None)
    @given(path=st.text(alphabet="/.aé ", max_size=12))
    def test_any_path(self, path):
        assert outcome(normalize, path) == outcome(normalize_oracle, path)

    @settings(max_examples=500, deadline=None)
    @given(path=st.text(alphabet="/.aé ", max_size=12).map(lambda p: "/" + p))
    def test_any_absolute_path(self, path):
        assert normalize(path) == normalize_oracle(path)

    def test_normal_path_is_returned_as_is(self):
        path = "/user/stüdent/out/part-00000"
        assert normalize(path) is path
