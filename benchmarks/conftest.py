"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table/figure/claim from the paper,
prints it next to the published numbers, and asserts the *shape* —
orderings, rough factors, crossovers — not absolute values (our
substrate is a simulator, not the authors' testbed).
"""

from __future__ import annotations


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def show(text: str) -> None:
    print(text)
