"""Configuration validation across the stack."""

import dataclasses

import pytest

from repro.hdfs.config import HdfsConfig
from repro.mapreduce.config import JobConf, MapReduceConfig, cpu_time, sort_time
from repro.util.errors import ConfigError


class TestHdfsConfig:
    def test_defaults_match_hadoop_1(self):
        config = HdfsConfig()
        assert config.block_size == 64 * 1024 * 1024
        assert config.replication == 3

    def test_block_size_parses_strings(self):
        assert HdfsConfig(block_size="1MB").block_size == 1024 * 1024

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0},
            {"replication": 0},
            {"heartbeat_interval": 0},
            {"checksum_chunk_size": 0},
            {"block_cache_bytes": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            HdfsConfig(**kwargs)

    def test_dead_node_timeout_derived(self):
        assert HdfsConfig(heartbeat_interval=5.0).dead_node_timeout == 50.0

    def test_field_names(self):
        """Knobs are a cost: adding one should be a deliberate act.  An
        option nobody sets is a module constant beside its reader."""
        assert {f.name for f in dataclasses.fields(HdfsConfig)} == {
            "block_size",
            "replication",
            "heartbeat_interval",
            "replication_check_interval",
            "startup_scan_bw",
            "checksum_chunk_size",
            "block_cache_bytes",
            "journal",
            "journal_dir",
            "checkpoint_edit_limit",
        }


class TestMapReduceConfig:
    def test_tracker_timeout_derived(self):
        assert MapReduceConfig(tasktracker_heartbeat=2.0).tracker_timeout == 20.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"map_slots_per_tracker": 0},
            {"reduce_slots_per_tracker": 0},
            {"tasktracker_heartbeat": 0},
            {"shuffle_transport": "object"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MapReduceConfig(**kwargs)

    def test_field_count(self):
        """Knobs are a cost: adding one should be a deliberate act."""
        assert {f.name for f in dataclasses.fields(MapReduceConfig)} == {
            "map_slots_per_tracker",
            "reduce_slots_per_tracker",
            "tasktracker_heartbeat",
            "sort_buffer_bytes",
            "shuffle_transport",
            "shuffle_retry_jitter",
            "sanitize",
        }

    @pytest.mark.parametrize(
        "kwargs", [{"execution_backend": "pooled"}, {"backend_workers": 2}]
    )
    def test_backend_is_not_a_config_field(self, kwargs):
        """A cluster's backend is its ``backend=`` argument (or the CLI
        default), never a config knob."""
        with pytest.raises(TypeError):
            MapReduceConfig(**kwargs)

    def test_cost_is_not_a_config_field(self):
        """The timing model is module constants in
        ``repro.mapreduce.config``, which nothing sets."""
        with pytest.raises(TypeError):
            MapReduceConfig(cost=None)


class TestCostModel:
    def test_cpu_time_linear(self):
        assert cpu_time(2000, 0) == pytest.approx(2 * cpu_time(1000, 0))

    def test_sort_time_superlinear(self):
        assert sort_time(10_000) > 10 * sort_time(1_000)
        assert sort_time(1) == 0.0
        assert sort_time(0) == 0.0


class TestJobConf:
    def test_defaults(self):
        conf = JobConf()
        assert conf.num_reduces == 1
        assert conf.max_attempts == 4
        assert conf.heap_leak_probability == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_reduces": 0},
            {"max_attempts": 0},
            {"heap_leak_probability": -0.1},
            {"heap_leak_probability": 1.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            JobConf(**kwargs)

    def test_params_bag(self):
        conf = JobConf(params={"movies_path": "/m"})
        assert conf.params["movies_path"] == "/m"
