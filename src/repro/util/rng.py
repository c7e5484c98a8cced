"""Deterministic randomness plumbing.

Every stochastic component in the stack (dataset generators, failure
injectors, the classroom student model, the survey synthesizer) draws
from a :class:`RngStream` derived from a single root seed, so an entire
classroom simulation replays bit-identically from one integer.

Streams are derived by *name* rather than by call order, so adding a new
consumer never perturbs existing ones — the property that makes
regression tests on simulation output stable.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a child seed from a root seed and a path of names.

    The derivation hashes the textual path, so it is stable across
    Python versions and process runs (unlike ``hash()``).

    >>> derive_seed(7, "hdfs", "datanode", 3) == derive_seed(7, "hdfs", "datanode", 3)
    True
    >>> derive_seed(7, "a") != derive_seed(7, "b")
    True
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode())
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode())
    return int.from_bytes(digest.digest()[:8], "big")


class RngStream:
    """A named, hierarchical random stream backed by numpy.

    >>> root = RngStream(seed=7)
    >>> child = root.child("datasets", "airline")
    >>> child.rng.integers(0, 10) == RngStream(seed=7).child("datasets", "airline").rng.integers(0, 10)
    True
    """

    def __init__(self, seed: int, path: tuple[str | int, ...] = ()):
        self.seed = int(seed)
        self.path = path
        self.rng: np.random.Generator = np.random.default_rng(
            derive_seed(self.seed, *path)
        )

    def child(self, *names: str | int) -> "RngStream":
        """Return an independent stream for a named sub-component."""
        return RngStream(self.seed, self.path + tuple(names))

    # Convenience passthroughs for the most common draws -----------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.rng.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)``."""
        return int(self.rng.integers(low, high))

    def exponential(self, scale: float) -> float:
        return float(self.rng.exponential(scale))

    def choice(self, seq):
        """Choose one element of a sequence, uniformly.

        ``integers(0, n)`` draws the same stream as ``Generator.choice(n)``
        at a fraction of its call cost; an empty ``seq`` is a ValueError.
        """
        return seq[int(self.rng.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        """Shuffle a list in place."""
        self.rng.shuffle(seq)

    def bernoulli(self, p: float) -> bool:
        return bool(self.rng.random() < p)
