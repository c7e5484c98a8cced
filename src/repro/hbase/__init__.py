"""HBase-lite: the "distributed data store" of the Version-4 lecture.

Fall 2013 "spent one lecture introducing HBase/Hive to the students to
provide a more comprehensive view of the Hadoop ecosystem", and the
paper's conclusion names the "distributed data store [Apache HBase]" as
a component future course versions should cover.  This package is that
coverage, executable: a log-structured, region-sharded, column-family
store layered on this repository's HDFS.

The architecture follows HBase 0.94 (the release contemporary with the
course), simplified but honest:

- :class:`~repro.hbase.model.Cell`\\ s with timestamps, newest wins;
- a per-region :class:`~repro.hbase.memstore.MemStore` flushed into
  immutable, sorted :class:`~repro.hbase.hfile.HFile`\\ s stored *in
  HDFS* (you can watch the blocks appear with ``hadoop fs -ls``);
- :class:`~repro.hbase.region.Region`\\ s covering row-key ranges, with
  midpoint splits;
- :class:`~repro.hbase.server.RegionServer`\\ s with write-ahead logs on
  HDFS, so a crashed server's unflushed edits replay on reassignment;
- an :class:`~repro.hbase.master.HMaster` owning the table catalog,
  region assignment and failure recovery;
- a client :class:`~repro.hbase.client.Table` API: put / get / scan.

``examples/ecosystem_tour.py`` shows each of these in turn.
"""

from repro.hbase.model import Cell, Get, Put, Scan
from repro.hbase.cluster import HBaseCluster

__all__ = ["Cell", "Put", "Get", "Scan", "HBaseCluster"]
