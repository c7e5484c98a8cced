"""Whole-campus runs for the campus tests: every course cluster of a
:class:`~repro.core.campus.CampusScenario`, one after another, rolled up.

The replay and linearity tests compare these roll-ups across runs and
campus sizes; the product runs one :class:`CampusClusterRun` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.campus import CampusClusterRun, CampusScenario, ClusterStats


@dataclass
class CampusReport:
    """Campus-wide aggregate of every cluster's stats."""

    scenario: str
    num_students: int
    num_clusters: int
    clusters: list[ClusterStats] = field(default_factory=list)

    @property
    def jobs_submitted(self) -> int:
        return sum(c.jobs_submitted for c in self.clusters)

    @property
    def jobs_succeeded(self) -> int:
        return sum(c.jobs_succeeded for c in self.clusters)

    @property
    def events_per_job(self) -> float:
        events = sum(c.events_processed for c in self.clusters)
        return events / max(1, self.jobs_submitted)

    def per_user_completed(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for stats in self.clusters:
            for user, done in stats.per_user_completed.items():
                totals[user] = totals.get(user, 0) + done
        return totals


def run_campus(scenario: CampusScenario) -> CampusReport:
    """Run every course cluster to completion (sequentially: clusters
    are independent simulations, and one at a time bounds memory)."""
    report = CampusReport(
        scenario=scenario.name,
        num_students=scenario.num_students,
        num_clusters=scenario.num_clusters,
    )
    for index in range(scenario.num_clusters):
        run = CampusClusterRun(scenario, index)
        try:
            report.clusters.append(run.run_to_completion())
        finally:
            run.close()
    return report
