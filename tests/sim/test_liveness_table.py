"""``LivenessTable`` against the two loops it replaced.

Before the table, ``NameNode._check_liveness`` and
``JobTracker._check_trackers`` each hand-wrote the same lazy expiry
heap over their own descriptor dicts.  ``_TwinLoops`` keeps that body
(the NameNode's spelling; the JobTracker's differed only in names) as
the oracle: random beat / advance / sweep / re-register sequences must
expire the same names in the same order.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.engine import LivenessTable

TIMEOUT = 30.0


class _TwinLoops:
    """The parent's ``_track_liveness`` + ``_check_liveness``."""

    def __init__(self, timeout):
        self.timeout = timeout
        self.last_heartbeat, self.alive = {}, {}
        self.heap, self.scheduled = [], set()

    def _track(self, name, expiry):
        if name not in self.scheduled:
            self.scheduled.add(name)
            heapq.heappush(self.heap, (expiry, name))

    def beat(self, name, now):  # register_datanode and heartbeat alike
        self.last_heartbeat[name], self.alive[name] = now, True
        self._track(name, now + self.timeout)

    def check(self, now):
        dead = []
        while self.heap and self.heap[0][0] < now:
            _expiry, name = heapq.heappop(self.heap)
            self.scheduled.discard(name)
            if not self.alive.get(name):
                continue  # unregistered or already declared dead
            if now - self.last_heartbeat[name] > self.timeout:
                self.alive[name] = False
                dead.append(name)
            else:
                self._track(name, self.last_heartbeat[name] + self.timeout)
        return dead


_names = st.sampled_from(["node0", "node1", "node10", "node2", "a", "B"])
#: Halves and thirds of the timeout make equal deadlines (several names
#: beating at one instant) and exact-boundary sweeps common.
_steps = st.sampled_from([0.0, 1.0, 10.0, 15.0, 30.0, 30.5, 45.0, 100.0])
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("beat"), st.lists(_names, min_size=1, max_size=4)),
        st.tuples(st.just("advance"), _steps),
        st.tuples(st.just("sweep")),
    ),
    max_size=60,
)


class TestLivenessTableMatchesTheTwinLoops:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ops)
    def test_same_names_expire_in_the_same_order(self, ops):
        table, oracle = LivenessTable(TIMEOUT), _TwinLoops(TIMEOUT)
        now = 0.0
        for op in ops:
            if op[0] == "beat":  # a whole wave beats at one instant
                for name in op[1]:
                    table.beat(name, now)
                    oracle.beat(name, now)
            elif op[0] == "advance":
                now += op[1]
            else:
                assert table.expired(now) == oracle.check(now)
            # Exactly one heap entry per live name.
            assert sorted(name for _, name in table._heap) == sorted(table.alive)
            assert table.alive == {name for name, up in oracle.alive.items() if up}
            assert table.last_beat == oracle.last_heartbeat
        assert table.expired(now + 10 * TIMEOUT) == oracle.check(now + 10 * TIMEOUT)
        assert table.expired(now + 20 * TIMEOUT) == []  # nobody expires twice


class TestLivenessTable:
    def test_equal_deadlines_expire_in_name_order(self):
        table = LivenessTable(TIMEOUT)
        for name in ("node2", "node10", "node1"):  # registration order differs
            table.beat(name, 5.0)
        assert table.expired(35.0) == []  # silent for exactly the timeout
        assert table.expired(35.5) == ["node1", "node10", "node2"]

    def test_a_name_that_beat_since_its_deadline_is_rearmed_not_expired(self):
        table = LivenessTable(TIMEOUT)
        table.beat("node0", 0.0)
        table.beat("node0", 20.0)  # the queued deadline stays at 30.0
        assert table._heap == [(30.0, "node0")]
        assert table.expired(40.0) == []
        assert table._heap == [(50.0, "node0")]  # last beat + timeout
        assert table.expired(50.5) == ["node0"]
        assert table._heap == []

    def test_an_expired_name_is_tracked_again_once_it_beats(self):
        table = LivenessTable(TIMEOUT)
        table.beat("node0", 0.0)
        assert table.expired(31.0) == ["node0"]
        assert table.alive == set()
        assert table.last_beat == {"node0": 0.0}  # "Last contact" survives
        table.beat("node0", 100.0)
        assert table.alive == {"node0"}
        assert table.expired(131.0) == ["node0"]
