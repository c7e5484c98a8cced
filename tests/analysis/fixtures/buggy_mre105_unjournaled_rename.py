"""MRE105 fixture: a rename the NameNode never journals.

The namespace changes in memory only.  After a NameNode crash, recovery
replays the journal and the file is back under its old name.
"""


class TinyNameNode:
    def __init__(self, namespace, journal):
        self.namespace = namespace
        self.journal = journal

    def rename(self, src: str, dst: str) -> bool:
        return self.namespace.rename(src, dst)
