"""Model-based testing: HBase-lite vs a plain-dict reference.

Hypothesis drives random operation sequences — puts, flushes, even
RegionServer crash+recover — against both the real store and a dict
model.  After every sequence,
a full scan must agree with the model exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.hbase import Get, HBaseCluster, Put, Scan
from repro.hbase.region import RegionConfig

ROWS = [f"row{i}" for i in range(6)]
QUALIFIERS = ["a", "b"]

OPERATION = st.one_of(
    st.tuples(
        st.just("put"),
        st.sampled_from(ROWS),
        st.sampled_from(QUALIFIERS),
        st.text(alphabet="xyz09", min_size=1, max_size=5),
    ),
    st.tuples(st.just("flush")),
    st.tuples(st.just("crash_recover")),
)


def apply_to_model(model: dict, op: tuple) -> None:
    kind = op[0]
    if kind == "put":
        _, row, qualifier, value = op
        model[(row, qualifier)] = value
    # flush/crash_recover don't change visible contents.


def apply_to_store(hb: HBaseCluster, table, op: tuple) -> None:
    kind = op[0]
    if kind == "put":
        _, row, qualifier, value = op
        table.put(Put(row=row).add("f", qualifier, value))
    elif kind == "flush":
        for entry in hb.master.regions_of("t"):
            hb.master.region_handle(entry).flush()
    elif kind == "crash_recover":
        # Crash the server hosting the first region, then recover.
        victim = hb.master.regions_of("t")[0].server
        hb.crash_server(victim)
        hb.recover(victim)
        hb.servers[victim].alive = True  # node repaired for later ops


def store_contents(table) -> dict:
    contents = {}
    for row_result in table.scan(Scan()):
        for (family, qualifier), value in row_result.cells.items():
            contents[(row_result.row, qualifier)] = value
    return contents


class TestHBaseAgainstModel:
    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(OPERATION, min_size=1, max_size=25))
    def test_scan_matches_dict_model(self, ops):
        hb = HBaseCluster(
            num_servers=3,
            seed=17,
            wal_sync_every=1,  # full durability: crashes lose nothing
            region_config=RegionConfig(
                memstore_flush_bytes=256,  # frequent flushes
                split_threshold_bytes=4 * 1024,  # splits under load
            ),
        )
        table = hb.create_table("t", families=["f"])
        model: dict = {}
        for op in ops:
            apply_to_store(hb, table, op)
            apply_to_model(model, op)
        assert store_contents(table) == model

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(OPERATION, min_size=1, max_size=20))
    def test_gets_match_model_per_row(self, ops):
        hb = HBaseCluster(num_servers=2, seed=18, wal_sync_every=1)
        table = hb.create_table("t", families=["f"])
        model: dict = {}
        for op in ops:
            apply_to_store(hb, table, op)
            apply_to_model(model, op)
        for row in ROWS:
            result = table.get(Get(row=row))
            expected = {
                ("f", q): v for (r, q), v in model.items() if r == row
            }
            assert result.cells == expected
