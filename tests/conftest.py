"""Shared fixtures: small, fast clusters with classroom-scale blocks."""

from __future__ import annotations

import pytest

from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.config import HdfsConfig
from repro.mapreduce.cluster import MapReduceCluster


def make_hdfs(
    num_datanodes: int = 4,
    block_size: int = 1024,
    replication: int = 2,
    seed: int = 1,
    **config_kwargs,
) -> HdfsCluster:
    config = HdfsConfig(
        block_size=block_size, replication=replication, **config_kwargs
    )
    return HdfsCluster(num_datanodes=num_datanodes, config=config, seed=seed)


def make_mr(
    num_workers: int = 4,
    block_size: int = 2048,
    replication: int = 2,
    seed: int = 1,
    backend=None,
) -> MapReduceCluster:
    config = HdfsConfig(block_size=block_size, replication=replication)
    return MapReduceCluster(
        num_workers=num_workers, hdfs_config=config, seed=seed, backend=backend
    )


@pytest.fixture
def hdfs() -> HdfsCluster:
    return make_hdfs()


@pytest.fixture
def mr() -> MapReduceCluster:
    return make_mr()
