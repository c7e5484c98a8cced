"""Determinism and independence of named RNG streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import RngStream, derive_seed


def choice_oracle(stream: RngStream, seq):
    """``RngStream.choice`` before it drew through ``integers``."""
    return seq[int(stream.rng.choice(len(seq)))]


#: One interleaved draw: a choice over ``n`` items, a uniform, a random.
_DRAWS = st.one_of(
    st.tuples(st.just("choice"), st.integers(1, 40)),
    st.tuples(st.just("uniform"), st.just(0)),
    st.tuples(st.just("random"), st.just(0)),
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 3) == derive_seed(7, "a", 3)

    def test_path_sensitive(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a", "b") != derive_seed(7, "ab")

    def test_seed_sensitive(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestRngStream:
    def test_same_path_same_draws(self):
        a = RngStream(5).child("hdfs", "dn", 3)
        b = RngStream(5).child("hdfs", "dn", 3)
        assert [a.integers(0, 100) for _ in range(10)] == [
            b.integers(0, 100) for _ in range(10)
        ]

    def test_sibling_streams_differ(self):
        root = RngStream(5)
        a = root.child("a")
        b = root.child("b")
        draws_a = [a.integers(0, 10**9) for _ in range(5)]
        draws_b = [b.integers(0, 10**9) for _ in range(5)]
        assert draws_a != draws_b

    def test_adding_consumer_does_not_perturb(self):
        # Drawing from one stream must not affect a sibling.
        root1 = RngStream(9)
        first = root1.child("stable")
        baseline = [first.uniform() for _ in range(5)]

        root2 = RngStream(9)
        noisy = root2.child("other")
        _ = [noisy.uniform() for _ in range(100)]
        second = root2.child("stable")
        assert [second.uniform() for _ in range(5)] == baseline

    def test_bernoulli_bounds(self):
        stream = RngStream(3).child("bern")
        assert not any(stream.bernoulli(0.0) for _ in range(50))
        stream2 = RngStream(3).child("bern2")
        assert all(stream2.bernoulli(1.0) for _ in range(50))

    def test_choice_uses_sequence_values(self):
        stream = RngStream(4).child("choice")
        seq = ["x", "y", "z"]
        for _ in range(20):
            assert stream.choice(seq) in seq

    def test_shuffle_is_permutation(self):
        stream = RngStream(4).child("shuffle")
        values = list(range(20))
        shuffled = list(values)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == values

    def test_integer_bounds_exclusive_high(self):
        stream = RngStream(8).child("ints")
        draws = [stream.integers(0, 3) for _ in range(100)]
        assert set(draws) <= {0, 1, 2}


class TestChoiceStream:
    """``choice`` draws through ``Generator.integers(0, n)``, which must
    leave every stream exactly where ``Generator.choice(n)`` left it:
    placement and the campus model replay from these streams."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.lists(_DRAWS, max_size=300))
    def test_same_stream_as_generator_choice(self, seed, draws):
        new, old = RngStream(seed).child("c"), RngStream(seed).child("c")
        for kind, n in draws:
            if kind == "choice":
                seq = list(range(100, 100 + n))
                assert new.choice(seq) == choice_oracle(old, seq)
            elif kind == "uniform":
                assert new.uniform() == old.uniform()
            else:
                assert new.rng.random() == old.rng.random()
        assert new.rng.random() == old.rng.random()

    def test_empty_sequence_is_a_value_error(self):
        stream = RngStream(1).child("empty")
        with pytest.raises(ValueError):
            stream.choice([])
        with pytest.raises(ValueError):
            choice_oracle(RngStream(1).child("empty"), [])
