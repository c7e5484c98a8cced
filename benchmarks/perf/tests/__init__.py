"""Tests of the benchmark itself: ``python -m pytest benchmarks/perf/tests -q``."""
