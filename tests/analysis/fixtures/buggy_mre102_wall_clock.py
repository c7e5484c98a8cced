"""MRE102 fixture: a heartbeat check that reads the host wall clock.

Inside the simulation, time is the engine's clock.  A DataNode declared
dead by ``time.time()`` dies at a different simulated moment on every
run, so the classroom replay and the pooled run disagree.
"""

import time

HEARTBEAT_TIMEOUT_S = 30.0


def is_dead(last_heartbeat_s: float) -> bool:
    return time.time() - last_heartbeat_s > HEARTBEAT_TIMEOUT_S
