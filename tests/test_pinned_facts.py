"""Exact facts pinned to recorded values, not only to a replay.

The campus tests compare a run with its own replay; a change that moves
every run the same way passes them.  These pin a 200-student
``campus_ctrl``-shaped cluster (digest, simulated seconds, engine
events) on ``serial`` and ``auto``, and the sha256 of the edit log one
fixed namespace script writes, to the values recorded before the
control-plane fast paths (unheard events, compiled edit layouts, the
normal-path shortcut, the tuple heap) landed; and the sha256 of the
fsimage ``save_namespace()`` then writes, recorded before both journal
files shared one compiled field codec.
"""

import hashlib

import pytest

from repro.core.campus import CampusClusterRun, CampusScenario
from repro.mapreduce import backend as backend_mod
from repro.util.units import HOUR
from tests.conftest import make_hdfs

CAMPUS_DIGEST = "dafffc208508f10961ac2ff3d2e87fcb355573f56961c4063afa2e6e37f7fecc"
CAMPUS_SIM_SECONDS = 7200.0
CAMPUS_EVENTS = 1210

EDIT_LOG_SHA256 = "588779df7b0524ec8e7460b6fbf54c9213aff581baa251e4a7a50cbf1b174930"
EDIT_LOG_EDITS = 20
EDIT_LOG_BYTES = 853

FSIMAGE_SHA256 = "4f4c62b6a671ed32919c6c600a30e6029942751d29d5bf81aca0f3315c99de41"
FSIMAGE_BYTES = 412


@pytest.mark.parametrize("policy", ["serial", "auto"])
def test_campus_cluster_facts(policy):
    original = backend_mod._default_spec
    backend_mod.set_default_backend(policy, 1)
    try:
        run = CampusClusterRun(
            CampusScenario(
                name="campus_ctrl",
                num_students=200,
                num_clusters=1,
                jobs_per_student=1,
                window=2 * HOUR,
                input_bytes=64,
                block_size=4096,
                seed=23,
            ),
            0,
        )
    finally:
        backend_mod.set_default_backend(*original)
    assert run.mr.backend.policy == policy
    try:
        stats = run.run_to_completion()
    finally:
        run.close()
    assert stats.jobs_succeeded == 200
    assert stats.digest == CAMPUS_DIGEST
    assert stats.sim_seconds == CAMPUS_SIM_SECONDS
    assert stats.events_processed == CAMPUS_EVENTS


def run_fixed_namespace_script():
    hdfs = make_hdfs(num_datanodes=3, block_size=64)
    client = hdfs.client()
    namenode = hdfs.namenode
    client.mkdirs("/user/stüdent/in")
    client.put_text("/user/stüdent/in/a.txt", "alpha beta\n" * 20)
    client.put_text("/user/b/x y.txt", "é" * 100)
    client.rename("/user/b/x y.txt", "/user/stüdent/in/b.txt")
    client.set_replication("/user/stüdent/in/a.txt", 3)
    namenode.set_quota("/user/stüdent", 50, None)
    namenode.set_quota("/user/b", None, 10_000)
    namenode.set_quota("/user/b", None, None)
    client.delete("/user/b", recursive=True)
    namenode.start_decommission(sorted(namenode.datanodes)[0])
    return namenode


def test_edit_log_bytes_of_a_fixed_namespace_script():
    namenode = run_fixed_namespace_script()
    blob = namenode.journal.storage.edits_blob()
    assert namenode.journal.edits_logged == EDIT_LOG_EDITS
    assert len(blob) == EDIT_LOG_BYTES
    assert hashlib.sha256(blob).hexdigest() == EDIT_LOG_SHA256


def test_fsimage_bytes_of_a_fixed_namespace_script():
    namenode = run_fixed_namespace_script()
    stats = namenode.save_namespace()
    blob = namenode.journal.storage.read_image()
    assert (stats.image_inodes, stats.image_blocks) == (6, 8)
    assert len(blob) == FSIMAGE_BYTES
    assert hashlib.sha256(blob).hexdigest() == FSIMAGE_SHA256
