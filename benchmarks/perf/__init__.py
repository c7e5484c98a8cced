"""The repo's single performance benchmark (see ``README.md`` here).

Five named workloads measure *host time of the reproduction*, untraced;
a separate traced pass times calls into each layer's public functions
from this package's own files and attributes the wall time per layer.
The metric names, units, directions and regression bounds live in the
root ``BENCHMARK.json``; nothing outside this directory is part of the
benchmark.
"""
