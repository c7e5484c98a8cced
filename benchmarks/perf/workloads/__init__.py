"""The five workloads, and the interface the harness drives them by.

One repetition is ``setup()`` (timed as a ``setup_s`` sample) → ``body()``
(timed: ``wall_s``/``cpu_s``) → ``check()`` (the oracle, untimed) →
``teardown()``.  Every repetition starts from a fresh ``setup()``, so
repetitions are independent and their simulated clocks, event counts
and operation counts must repeat exactly.

``scale`` shrinks the inputs for the package's own smoke tests only;
results are recorded at scale 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

SpanFactory = Callable[[str], Any]


@dataclass
class Outcome:
    """What one repetition did, as judged by its oracle."""

    #: Units of stated work done (the ``throughput_per_s`` numerator).
    work: float
    #: Simulated-clock advance over the timed body.
    sim_s: float
    #: ``Simulation.events_processed`` over the timed body (0 when the
    #: body runs no engine).
    sim_events: int
    #: Operations attempted / failed; an oracle mismatch is a failure.
    attempted: int
    failed: int
    #: Oracle mismatch descriptions (empty when correct).
    errors: list[str] = field(default_factory=list)
    #: Everything that must be identical across repetitions of one run.
    witness: tuple = ()


class Workload:
    """One named workload; see the module docstring for the life cycle."""

    #: Fixed name (later issues refer to it) and throughput unit.
    name = ""
    work_unit = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def scaled(self, size: int, floor: int = 1) -> int:
        return max(floor, int(size * self.scale))

    # -- life cycle -------------------------------------------------------
    def setup(self) -> Any:
        """Generate inputs from the seed, build the cluster/runner, load."""
        raise NotImplementedError

    def body(self, ctx: Any, span: SpanFactory) -> Any:
        """The timed body; ``span(name)`` brackets client operations."""
        raise NotImplementedError

    def check(self, ctx: Any, raw: Any) -> Outcome:
        """Run the oracle over ``body``'s result."""
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        pass

    # -- traced pass only -------------------------------------------------
    def layer_facts(self, ctx: Any, raw: Any) -> dict[str, float]:
        """Workload-specific per-layer values the spans cannot show
        (cache tallies, job counters, planner counts)."""
        return {}

    def extra_arms(self) -> dict[str, float]:
        """Extra traced-pass measurements outside the timed body (they
        run after the wrappers are removed)."""
        return {}

    # -- tests ------------------------------------------------------------
    def input_digest(self, ctx: Any) -> str:
        """SHA-256 over the generated input bytes of one set-up."""
        digest = hashlib.sha256()
        for chunk in self.input_chunks(ctx):
            digest.update(chunk)
        return digest.hexdigest()

    def input_chunks(self, ctx: Any):
        raise NotImplementedError


def registry() -> dict[str, type[Workload]]:
    """Workload name -> class, in reporting order."""
    from benchmarks.perf.workloads.campus import CampusCtrl
    from benchmarks.perf.workloads.hdfs_churn import HdfsChurn
    from benchmarks.perf.workloads.pipelines import Pipelines
    from benchmarks.perf.workloads.wordcount import ShufflePooled, WcSerial

    classes = (WcSerial, ShufflePooled, CampusCtrl, HdfsChurn, Pipelines)
    return {cls.name: cls for cls in classes}
