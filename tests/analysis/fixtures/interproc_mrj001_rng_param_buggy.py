"""Conditional-parameter MRJ001 demo: the helper draws from its argument.

``noise(rng)`` is clean on its own; whether it is nondeterministic
depends on what the caller passes.  map() hands it a fresh unseeded
``random.Random()``, so every re-executed attempt draws a different
stream.  The taint engine records the draw as an effect *conditional on
parameter 0* and fires it at the call site that passes an unseeded RNG.
"""

import random

from repro.mapreduce.api import Context, Mapper
from repro.mapreduce.types import Writable


def noise(rng):
    return rng.random()


class NoisyMapper(Mapper):
    def map(self, key: Writable, value: Writable, context: Context) -> None:
        if noise(random.Random()) < 0.1:
            context.write(key.value, value.value)
