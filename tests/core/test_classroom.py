"""The classroom simulator: Version-1 meltdown vs Version-2 isolation.

These use scaled-down classes (fewer students, shorter windows) so they
run quickly; the benchmark reproduces the full 39-student semester.
"""

import pytest

from repro.core import classroom
from repro.core.classroom import (
    ClassroomReport,
    ClassroomScenario,
    StudentState,
    _draw_students,
    run_classroom,
)
from repro.util.rng import RngStream
from repro.util.units import HOUR


from repro.util.units import MINUTE


@pytest.fixture(autouse=True, scope="module")
def _short_head_start():
    """A scaled-down class starts hours, not a day, before its deadline."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classroom, "MEAN_HEAD_START", 4 * HOUR)
        yield


def small_scenario(**overrides):
    defaults = dict(
        num_students=16,
        window=16 * HOUR,
        buggy_probability=0.55,
        fix_probability=0.45,
        instructor_reaction_delay=45 * MINUTE,
        seed=7,
        input_bytes=60 * 1024,
    )
    defaults.update(overrides)
    return ClassroomScenario(**defaults)


class TestStudentModel:
    def test_start_times_within_window(self):
        scenario = small_scenario()
        students = _draw_students(scenario, RngStream(1).child("c"))
        assert len(students) == 16
        for student in students:
            assert 0.0 <= student.start_time < scenario.window

    def test_procrastination_skews_late(self):
        scenario = small_scenario(num_students=40)
        students = _draw_students(scenario, RngStream(2).child("c"))
        late = sum(
            1 for s in students if s.start_time > scenario.window * 0.5
        )
        assert late > len(students) * 0.6

    def test_buggy_fraction_plausible(self):
        scenario = small_scenario(num_students=60, buggy_probability=0.5)
        students = _draw_students(scenario, RngStream(3).child("c"))
        buggy = sum(1 for s in students if s.buggy)
        assert 15 <= buggy <= 45


class TestDedicatedScenario:
    @pytest.fixture(scope="class")
    def report(self) -> ClassroomReport:
        return run_classroom(
            small_scenario(name="mini-v1", platform="dedicated")
        )

    def test_some_students_complete(self, report):
        assert 0 < report.completed <= report.num_students

    def test_crashes_happen(self, report):
        assert report.daemon_crashes > 0

    def test_submissions_exceed_students(self, report):
        # Failures force resubmissions.
        assert report.total_job_submissions >= report.num_students

    def test_timeline_recorded(self, report):
        assert report.timeline
        assert report.describe().startswith("Classroom scenario")


class TestMyHadoopScenario:
    @pytest.fixture(scope="class")
    def report(self) -> ClassroomReport:
        return run_classroom(
            small_scenario(name="mini-v2", platform="myhadoop")
        )

    def test_high_completion(self, report):
        assert report.completion_fraction >= 0.7

    def test_no_shared_cluster_restarts(self, report):
        assert report.cluster_restarts == 0

    def test_crashes_stay_contained(self, report):
        # Daemons may die, but nobody else's blocks go missing.
        assert report.missing_blocks_at_deadline == 0


class TestShapeClaim:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_isolation_beats_sharing(self, seed):
        """The paper's core operational result, at mini scale."""
        v1 = run_classroom(
            small_scenario(name=f"a{seed}", platform="dedicated", seed=seed)
        )
        v2 = run_classroom(
            small_scenario(name=f"b{seed}", platform="myhadoop", seed=seed)
        )
        assert v2.completion_fraction > v1.completion_fraction

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            run_classroom(small_scenario(platform="cloud"))
