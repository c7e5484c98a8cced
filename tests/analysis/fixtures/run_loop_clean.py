"""run() fixture: the fixed twin of ``run_loop_buggy.py``.

The side file is read once per split, before the loop, and each record
is copied out, never edited: no finding.
"""

from repro.mapreduce.api import Context, Mapper


class LookupOnceRunMapper(Mapper):
    def run(self, split, context: Context) -> None:
        self.setup(context)
        table = context.read_side_file("/data/lookup.txt")
        for line in split.lines():
            movie_id = line.strip().split(",")[0]
            if movie_id in table:
                context.write(movie_id, 1)
        self.cleanup(context)
