"""Tracer arithmetic and the install/restore discipline."""

from __future__ import annotations

import sys

import pytest

from benchmarks.perf import trace
from benchmarks.perf.harness import _subtree
from benchmarks.perf.trace import TRACE_TABLE, Tracer, _resolve, summarize


@pytest.fixture
def clock(monkeypatch):
    """A settable clock in place of ``perf_counter``."""

    class Clock:
        now = 0.0

        def __call__(self) -> float:
            return self.now

    fake = Clock()
    monkeypatch.setattr(trace, "_clock", fake)
    return fake


def test_nested_spans_give_self_time_and_parent_links(clock):
    tracer = Tracer()
    with tracer.span("outer"):  # 0 .. 10
        clock.now = 1.0
        with tracer.span("inner"):  # 1 .. 4
            clock.now = 2.0
            with tracer.span("leaf"):  # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with tracer.span("inner"):  # 6 .. 8
            clock.now = 8.0
        clock.now = 10.0

    assert [span[0] for span in tracer.spans] == ["outer", "inner", "leaf", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]
    stats = summarize(tracer.spans)
    assert stats["outer"].total_s == 10.0
    assert stats["outer"].self_s == 10.0 - 3.0 - 2.0
    assert stats["inner"].count == 2
    assert stats["inner"].total_s == 5.0
    assert stats["inner"].self_s == 4.0  # the leaf's second is not inner's own
    assert stats["leaf"].self_s == stats["leaf"].total_s == 1.0
    # Self times partition the root's duration.
    assert sum(entry.self_s for entry in stats.values()) == 10.0
    assert set(summarize(tracer.spans, under="inner")) == {"leaf"}
    assert summarize(tracer.spans, under="outer")["inner"].total_s == 5.0


def test_outermost_ignores_same_name_nesting(clock):
    tracer = Tracer()

    def run(depth: int) -> None:
        clock.now += 1.0
        if depth:
            wrapped(depth - 1)
        clock.now += 1.0

    wrapped = tracer.wrap("sim.run", run)
    wrapped(2)  # 0..6 containing 1..5 containing 2..4
    entry = summarize(tracer.spans)["sim.run"]
    assert entry.count == 3
    assert entry.total_s == 6.0 + 4.0 + 2.0
    assert entry.outermost_s == 6.0
    assert entry.self_s == 6.0


def test_span_closes_when_the_call_raises(clock):
    tracer = Tracer()

    def boom():
        clock.now = 2.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    with tracer.span("after"):
        pass
    assert tracer.spans[0][:3] == ["boom", 0.0, 2.0]
    assert tracer.spans[1][3] == -1  # the stack was unwound


def test_subtree_drops_what_follows_the_body(clock):
    tracer = Tracer()
    with tracer.span("setup"):
        pass
    with tracer.span("body"):
        with tracer.span("child"):
            pass
    with tracer.span("oracle"):
        pass
    body = _subtree(tracer.spans, 1)
    assert [(span[0], span[3]) for span in body] == [("body", -1), ("child", 0)]


def test_take_hands_over_and_clears():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    assert len(tracer.take()) == 1
    assert tracer.spans == []


def _aliases(original) -> list[tuple[object, str]]:
    return [
        (module, name)
        for module in trace._patchable_modules()
        for name, value in list(vars(module).items())
        if value is original
    ]


def test_install_patches_every_target_and_restore_puts_all_back():
    import benchmarks.perf.workloads as workloads

    workloads.registry()  # import every module the workloads use
    before = {}
    for _name, target in TRACE_TABLE:
        owner, attribute = _resolve(target)
        original = vars(owner)[attribute]
        before[target] = (owner, attribute, original, _aliases(original))

    tracer = Tracer()
    tracer.install()
    try:
        for owner, attribute, original, aliases in before.values():
            assert vars(owner)[attribute] is not original
            for module, name in aliases:
                assert vars(module)[name] is not original
        # ``from runtime import execute_map`` in local_runner is patched too.
        runtime = sys.modules["repro.mapreduce.runtime"]
        local_runner = sys.modules["repro.mapreduce.local_runner"]
        assert local_runner.execute_map is runtime.execute_map
    finally:
        tracer.restore()

    for owner, attribute, original, aliases in before.values():
        assert vars(owner)[attribute] is original
        for module, name in aliases:
            assert vars(module)[name] is original
    assert tracer._patched == []


def test_wrapped_static_and_class_methods_still_bind():
    from repro.mapreduce.outputformat import TextOutputFormat
    from repro.mapreduce.types import IntWritable, Text

    tracer = Tracer()
    tracer.install(
        [
            ("render", "repro.mapreduce.outputformat:TextOutputFormat.render"),
            ("splits", "repro.mapreduce.inputformat:TextInputFormat.splits_for_file"),
        ]
    )
    try:
        from repro.mapreduce.inputformat import TextInputFormat

        text = TextOutputFormat.render([(Text("a"), IntWritable(1))])
        splits = TextInputFormat.splits_for_file("/f", [3, 2], [("n",), ("n",)])
    finally:
        tracer.restore()
    assert text == "a\t1\n"
    assert len(splits) == 2
    assert [span[0] for span in tracer.spans] == ["render", "splits"]
