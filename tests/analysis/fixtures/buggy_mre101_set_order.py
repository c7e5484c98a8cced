"""MRE101 fixture: a replica trim that picks by set hash order.

The replication-sweep bug, as a student writes it: the first replica
found on a nearly full DataNode is dropped, but "first" is set
iteration order, so when two DataNodes qualify the surviving replica —
and every later placement — changes with ``PYTHONHASHSEED``.
"""

LOW_WATER_BYTES = 1 << 20


class BlockMeta:
    locations: set[str]


def pick_replica_to_drop(meta: BlockMeta, free_bytes: dict[str, int]) -> str:
    for dn in meta.locations:
        if free_bytes[dn] < LOW_WATER_BYTES:
            return dn
    return ""
