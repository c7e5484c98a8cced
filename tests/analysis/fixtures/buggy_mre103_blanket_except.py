"""MRE103 fixture: a block report that swallows every exception.

``except Exception: pass`` also eats the escalation a fault drill
injects, so the "crashed" DataNode keeps reporting as if nothing
happened and the drill silently tests nothing.
"""


def send_block_report(datanode, namenode) -> None:
    try:
        namenode.block_report(datanode.name, datanode.block_ids())
    except Exception:
        pass
