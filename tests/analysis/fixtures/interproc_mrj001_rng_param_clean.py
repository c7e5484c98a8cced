"""Conditional-parameter MRJ001 counter-demo: the same helper, a seeded RNG.

Identical ``noise(rng)`` helper to ``interproc_mrj001_rng_param_buggy.py``,
but map() passes ``self.rng``, which setup() seeds from a job parameter.
The conditional effect does not fire for a seeded argument, so
re-executed attempts replay the same draws and mrlint stays quiet.
"""

import random

from repro.mapreduce.api import Context, Mapper
from repro.mapreduce.types import Writable


def noise(rng):
    return rng.random()


class SeededNoisyMapper(Mapper):
    def setup(self, context: Context) -> None:
        self.rng = random.Random(context.conf.get("noise.seed"))

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        if noise(self.rng) < 0.1:
            context.write(key.value, value.value)
