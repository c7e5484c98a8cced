"""Counter accounting and rendering."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.mapreduce.counters import C, Counters


class TestCounters:
    def test_increment_and_get(self):
        counters = Counters()
        counters.increment(C.MAP_INPUT_RECORDS, 5)
        counters.increment(C.MAP_INPUT_RECORDS)
        assert counters.get(C.MAP_INPUT_RECORDS) == 6

    def test_get_missing_is_zero(self):
        assert Counters().get(C.SPILLED_RECORDS) == 0

    def test_set_overrides(self):
        counters = Counters()
        counters.increment(C.HDFS_BYTES_READ, 10)
        counters.set(C.HDFS_BYTES_READ, 3)
        assert counters.get(C.HDFS_BYTES_READ) == 3

    def test_merge_adds(self):
        a, b = Counters(), Counters()
        a.increment(C.MAP_OUTPUT_RECORDS, 1)
        b.increment(C.MAP_OUTPUT_RECORDS, 2)
        b.increment(C.REDUCE_INPUT_GROUPS, 7)
        a.merge(b)
        assert a.get(C.MAP_OUTPUT_RECORDS) == 3
        assert a.get(C.REDUCE_INPUT_GROUPS) == 7

    def test_groups_sorted(self):
        counters = Counters()
        counters.increment(C.MAP_INPUT_RECORDS)
        counters.increment(C.HDFS_BYTES_READ)
        counters.increment(C.DATA_LOCAL_MAPS)
        assert counters.groups() == [
            "FileSystemCounters",
            "Job Counters",
            "Map-Reduce Framework",
        ]

    def test_render_hadoop_style(self):
        counters = Counters()
        counters.increment(C.MAP_INPUT_RECORDS, 42)
        text = counters.render()
        assert "Counters:" in text
        assert "Map-Reduce Framework" in text
        assert "Map input records=42" in text

    def test_as_dict(self):
        counters = Counters()
        counters.increment(C.DATA_LOCAL_MAPS, 2)
        assert counters.as_dict() == {
            "Job Counters": {"Data-local map tasks": 2}
        }


# ---------------------------------------------------------------------------
# Model test: the flat (group, name)-keyed store against the nested
# {group: {name: int}} report students read, under random operation
# sequences.

counter_keys = st.tuples(
    st.sampled_from(
        ["Job Counters", "Map-Reduce Framework", "FileSystemCounters", "Zeta"]
    ),
    st.sampled_from(["a", "b", "Launched map tasks", "Spilled Records", "z"]),
)
amounts = st.integers(min_value=-(2**40), max_value=2**40)
plain_ops = st.one_of(
    st.tuples(st.just("increment"), counter_keys, amounts),
    st.tuples(st.just("set"), counter_keys, amounts),
)
ops = st.one_of(
    plain_ops,
    st.tuples(st.just("merge"), st.lists(plain_ops, max_size=8)),
)


def model_apply(model: dict, op) -> None:
    if op[0] == "merge":
        other: dict = {}
        for inner in op[1]:
            model_apply(other, inner)
        for group, names in other.items():
            for name, value in names.items():
                into = model.setdefault(group, {})
                into[name] = into.get(name, 0) + value
        return
    kind, (group, name), amount = op
    names = model.setdefault(group, {})
    names[name] = amount if kind == "set" else names.get(name, 0) + amount


def counters_apply(counters: Counters, op) -> None:
    if op[0] == "merge":
        other = Counters()
        for inner in op[1]:
            counters_apply(other, inner)
        counters.merge(other)
    elif op[0] == "set":
        counters.set(op[1], op[2])
    else:
        counters.increment(op[1], op[2])


def model_render(model: dict) -> str:
    lines = ["Counters:"]
    for group in sorted(model):
        lines.append(f"  {group}")
        lines += [f"    {n}={v}" for n, v in sorted(model[group].items())]
    return "\n".join(lines)


def ordered(nested: dict) -> list:
    return [(g, list(names.items())) for g, names in nested.items()]


class TestCountersModel:
    @settings(max_examples=200, deadline=None)
    @given(
        sequence=st.lists(ops, max_size=30),
        probes=st.lists(counter_keys, max_size=6),
    )
    def test_matches_nested_model(self, sequence, probes):
        model: dict = {}
        counters = Counters()
        for op in sequence:
            model_apply(model, op)
            counters_apply(counters, op)
        known = [(g, n) for g, names in model.items() for n in names]
        for group, name in probes + known:
            assert counters.get((group, name)) == model.get(group, {}).get(name, 0)
        assert counters.groups() == sorted(model)
        for group in [*model, "absent group"]:
            assert counters.items(group) == sorted(model.get(group, {}).items())
        assert ordered(counters.as_dict()) == ordered(model)
        assert counters.render() == model_render(model)

        # Equality is by content, whatever order the counters were first seen.
        rebuilt = Counters()
        for group, names in reversed(model.items()):
            for name, value in reversed(names.items()):
                rebuilt.set((group, name), value)
        assert rebuilt == counters
        if model:
            group, names = next(iter(model.items()))
            name, value = next(iter(names.items()))
            rebuilt.set((group, name), value + 1)
            assert rebuilt != counters

        # Pool workers ship Counters between processes.
        shipped = pickle.loads(pickle.dumps(counters))
        assert shipped == counters
        assert ordered(shipped.as_dict()) == ordered(model)
        assert shipped.render() == counters.render()
