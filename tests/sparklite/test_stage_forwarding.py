"""Compiled stages forward the encoded items they only move.

``split_pair`` slices the two encoded items out of a pair line and
``pair`` / ``encoded_list`` splice encoded items back into one, so a
join mapper, a join or group reducer and a reducer key never decode and
re-encode what their user code does not read.  The format is frozen, so:

- on every encoder output the helpers are byte-identical to decoding
  and re-encoding (``split_pair`` also for 2-lists, and for any other
  element ``k, v = decode_element(line)`` can unpack);
- on every one-character mutation of a pair line ``split_pair`` either
  slices the same frame — and then agrees with the decode path up to
  re-encoding a non-canonical item, and a corrupt item still fails the
  first decode that reads it — or it takes the decoding path and raises
  exactly the exception the parent's decode → unpack → re-encode raised;
- whole compiled pipelines over gnarly keys and values produce the same
  output, counters and simulated clock as the parent's stage bodies
  (``tests/sparklite/stage_oracle.py``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.backend import create_backend
from repro.mapreduce.cluster import MapReduceCluster
from repro.sparklite import SparkLiteContext
from repro.sparklite.codec import (
    CodecError,
    decode_element,
    encode_element,
    encoded_list,
    pair,
    split_pair,
)
from tests.sparklite import stage_oracle
from tests.sparklite.test_codec import CORPUS
from tests.sparklite.test_codec_differential import ELEMENTS, _mutants, _nests

SETTINGS = settings(max_examples=300, deadline=None)


def _parent_split(line: str) -> tuple[str, str]:
    """What a stage did with a pair line before it forwarded items."""
    first, other = decode_element(line)
    return encode_element(first), encode_element(other)


def _outcome(fn, line):
    try:
        return fn(line)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return exc


class TestHelpersMatchTheDecodePath:
    @SETTINGS
    @given(ELEMENTS, ELEMENTS)
    def test_split_pair_of_tuples_and_two_lists(self, a, b):
        expected = (encode_element(a), encode_element(b))
        assert split_pair(encode_element((a, b))) == expected
        assert split_pair(encode_element([a, b])) == expected

    @SETTINGS
    @given(ELEMENTS, ELEMENTS)
    def test_pair_is_the_encoder(self, a, b):
        assert pair(encode_element(a), encode_element(b)) == encode_element((a, b))

    @SETTINGS
    @given(st.lists(ELEMENTS, max_size=6))
    def test_encoded_list_is_the_encoder(self, items):
        assert encoded_list([encode_element(x) for x in items]) == encode_element(items)

    @pytest.mark.parametrize("value", CORPUS, ids=repr)
    def test_corpus_elements_split_as_the_decode_path_does(self, value):
        line = encode_element(value)
        got, expected = _outcome(split_pair, line), _outcome(_parent_split, line)
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
        else:
            assert got == expected

    @pytest.mark.parametrize(
        "value", ["ab", b"xy", (1, 2, 3), (1,), [], 7, None, "t2,2:i1,2:i2"], ids=repr
    )
    def test_anything_else_unpacks_or_raises_like_the_parent(self, value):
        line = encode_element(value)
        got, expected = _outcome(split_pair, line), _outcome(_parent_split, line)
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
        else:
            assert got == expected


def _check_mutant(line: str) -> None:
    got, expected = _outcome(split_pair, line), _outcome(_parent_split, line)
    if isinstance(got, Exception):
        # The decoding path: the parent's exception, word for word.
        assert isinstance(expected, Exception), f"{line!r}: {got!r}"
        assert type(got) is type(expected) and str(got) == str(expected), line
        return
    assert not isinstance(got, tuple) or len(got) == 2
    if isinstance(expected, Exception):
        # The frame is intact and only an item is corrupt: forwarded
        # unread, it fails the first decode that reads it.
        failures = 0
        for item in got:
            try:
                decode_element(item)
            except CodecError:
                failures += 1
        assert failures, f"{line!r}: split to {got!r}, the parent raised {expected!r}"
        return
    assert tuple(encode_element(decode_element(item)) for item in got) == expected, line
    if encode_element(decode_element(line)) == line:  # encoder output
        assert got == expected, line


class TestMutations:
    @settings(max_examples=60, deadline=None)
    @given(_nests(2, width=3), _nests(2, width=3), st.booleans())
    def test_one_character_mutations_of_a_pair_line(self, a, b, as_list):
        line = encode_element([a, b] if as_list else (a, b))
        for mutant in _mutants(line):
            _check_mutant(mutant)

    @pytest.mark.parametrize(
        "line",
        [
            "t2,2:i1,2:i2",
            "l2,4:sa:b,3:f.5",
            "t2,03:i10,2:i2",  # a leading-zero length: same frame
            "t02,2:i1,2:i2",  # a lenient count: the decoding path reads it
            "t2,3:i00,2:i2",  # a non-canonical item is forwarded as is
            "t2,3:i1x,2:i2",  # a corrupt item is forwarded, then refused
            "t2,0:,2:i2",
            "t2,2:i1,2:i2,",
            "t3,2:i1,2:i2,2:i3",
            "t2,2:i1",
            "t2",
            "",
        ],
    )
    def test_frames_at_the_edges(self, line):
        _check_mutant(line)


# --------------------------------------------------------------------------
# whole compiled pipelines: forwarding bodies ≡ the parent's bodies


def _nest(a, b):
    return (a, b)


def _swap(kv):
    return (kv[1], kv[0])


def _tagged(value):
    return [value, "right"]


def _run(pairs: list, partitions: int) -> dict:
    cluster = MapReduceCluster(num_workers=3, seed=1, backend=create_backend("serial"))
    counters: list = []
    run_job = cluster.run_job

    def recording_run_job(*args, **kwargs):
        report = run_job(*args, **kwargs)
        counters.append((report.name, report.counters.as_dict()))
        return report

    cluster.run_job = recording_run_job
    try:
        sc = SparkLiteContext.on_mapreduce(cluster=cluster)
        data = sc.parallelize(pairs, partitions).cache()
        other = data.map_values(_tagged).cache()
        grouped = data.group_by_key(partitions).cache()
        # Compared encoded: the bytes are the contract, and NaN != NaN.
        out = {
            "join": encode_element(data.join(other, partitions).collect()),
            "group": encode_element(grouped.collect()),
            "fold": encode_element(data.reduce_by_key(_nest, partitions).collect()),
            "regroup": encode_element(grouped.group_by_key(2).collect()),
            "union": encode_element(data.union(data.map(_swap)).collect()),
            "count": grouped.count(),
            "take": encode_element(data.join(grouped, 2).take(3)),
        }
        out["sim_now"] = cluster.sim.now
        out["counters"] = counters
        return out
    finally:
        cluster.close()


_KEYS = st.one_of(
    st.sampled_from([0, 1, "1", 1.0, True, None, b"k", (1, "a"), "tab\there", ""]),
    _nests(1, width=2),
)
_PAIRS = st.lists(
    st.tuples(_KEYS, _nests(2, width=3)).map(lambda kv: list(kv) if kv[0] == 0 else kv),
    min_size=1,
    max_size=12,
)


class TestPipelinesAgainstTheParentBodies:
    @settings(max_examples=25, deadline=None)
    @given(_PAIRS, st.integers(1, 3))
    def test_forwarding_stages_run_identical_jobs(self, pairs, partitions):
        shipped = _run(pairs, partitions)
        with pytest.MonkeyPatch.context() as patch:
            stage_oracle.patch_in(patch)
            with_oracles = _run(pairs, partitions)
        assert shipped["counters"]
        for key in shipped:
            assert shipped[key] == with_oracles[key], key
