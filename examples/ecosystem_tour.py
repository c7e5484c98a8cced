#!/usr/bin/env python
"""The Version-4 ecosystem lecture, runnable: HBase, Hive, and Spark.

Fall 2013 added "one lecture introducing HBase/Hive ... to provide a
more comprehensive view of the Hadoop ecosystem", and the paper's
conclusion points at the next wave: resource managers, in-memory
computing, interactive processing, distributed data stores.  This tour
runs all three higher layers over one simulated HDFS:

1. HBase-lite — random access on top of append-only HDFS, with a
   region split and a WAL crash recovery;
2. Hive-lite — SQL compiled to the same MapReduce the course teaches;
3. Spark-lite — in-memory RDDs whose lineage survives an executor loss.

Run:  python examples/ecosystem_tour.py
"""

from repro.datasets.airline import generate_airline
from repro.hbase import Get, HBaseCluster, Put
from repro.hbase.region import RegionConfig
from repro.hive import ColumnType, HiveLite, TableSchema
from repro.mapreduce.cluster import MapReduceCluster
from repro.hdfs.config import HdfsConfig
from repro.sparklite import SparkLiteContext


def hbase_demo() -> None:
    print("=" * 68)
    print("1. HBase-lite: random access over HDFS")
    print("=" * 68)
    hb = HBaseCluster(
        num_servers=3,
        seed=8,
        wal_sync_every=1,
        region_config=RegionConfig(
            memstore_flush_bytes=1024, split_threshold_bytes=4096
        ),
    )
    table = hb.create_table("users", families=["profile"])
    for i in range(100):
        table.put(
            Put(row=f"user{i:04d}")
            .add("profile", "name", f"Student {i}")
            .add("profile", "year", str(2010 + i % 4))
        )
    print(f"100 rows written; regions now: "
          f"{[e.spec.name for e in hb.master.regions_of('users')]}")
    print(f"random read: user0042 -> "
          f"{table.get(Get(row='user0042')).value('profile', 'name')}")
    hfiles = [p for p in hb.hdfs_footprint() if "hfile" in p]
    print(f"it's all HDFS underneath: {len(hfiles)} HFiles on disk")

    victim = hb.master.regions_of("users")[0].server
    hb.crash_server(victim)
    replayed = hb.recover(victim)
    print(f"crashed {victim}; master reassigned its regions and replayed "
          f"{replayed} WAL edits")
    assert table.get(Get(row="user0042")).value("profile", "name") == (
        "Student 42"
    )
    print("all 100 rows intact after recovery:", table.count() == 100)


def hive_demo() -> None:
    print()
    print("=" * 68)
    print("2. Hive-lite: SQL compiled to MapReduce")
    print("=" * 68)
    cluster = MapReduceCluster(
        num_workers=4,
        hdfs_config=HdfsConfig(block_size=16 * 1024, replication=2),
        seed=8,
    )
    hive = HiveLite(cluster)
    airline = generate_airline(seed=8, num_rows=3000)
    hive.create_table(
        TableSchema(
            name="flights",
            columns=(
                ("year", ColumnType.INT), ("month", ColumnType.INT),
                ("day", ColumnType.INT), ("dow", ColumnType.INT),
                ("deptime", ColumnType.INT), ("carrier", ColumnType.STRING),
                ("flightnum", ColumnType.INT), ("arrdelay", ColumnType.INT),
                ("depdelay", ColumnType.INT), ("origin", ColumnType.STRING),
                ("dest", ColumnType.STRING), ("distance", ColumnType.INT),
                ("cancelled", ColumnType.INT),
            ),
            location="/warehouse/flights.csv",
            skip_header=True,
        ),
        data=airline.csv_text,
    )
    sql = ("SELECT carrier, AVG(arrdelay), COUNT(*) FROM flights "
           "WHERE cancelled = 0 GROUP BY carrier "
           "ORDER BY AVG(arrdelay) LIMIT 5")
    print(hive.explain(sql))
    print()
    result = hive.execute(sql)
    print(result.render())
    print(f"(one MapReduce job: {result.report.num_maps} maps, "
          f"combiner installed automatically)")


def spark_demo() -> None:
    print()
    print("=" * 68)
    print("3. Spark-lite: in-memory RDDs with lineage recovery")
    print("=" * 68)
    from repro.hdfs.cluster import HdfsCluster

    hdfs = HdfsCluster(
        num_datanodes=4,
        config=HdfsConfig(block_size=2048, replication=2),
        seed=8,
    )
    hdfs.client().put_text(
        "/data/log.txt",
        "\n".join(f"evt{i % 7} payload {i}" for i in range(400)) + "\n",
    )
    sc = SparkLiteContext.on_cluster(hdfs)
    events = (
        sc.text_file("/data/log.txt")
        .map(lambda line: (line.split()[0], 1))
        .reduce_by_key(lambda a, b: a + b)
        .cache()
    )
    print("event histogram:", dict(events.collect()))
    print("lineage:")
    print("\n".join("  " + line for line in events.lineage()))

    victim = next(iter(sc.executors))
    lost = sc.crash_executor(victim)
    before = sc.recomputations
    again = dict(events.collect())
    print(f"crashed {victim} (lost {lost} cached partitions); "
          f"lineage recomputed {sc.recomputations - before} partitions; "
          f"answers unchanged: {again == dict(events.collect())}")


if __name__ == "__main__":
    hbase_demo()
    hive_demo()
    spark_demo()
