"""run() fixture: map()'s per-record bugs in an overridden run().

A Mapper that overrides ``run()`` loops over its split itself, so the
body of that loop is per-record code: a side-file read there streams
the whole file for every record (MRJ006), and an edit of the record in
place rewrites the framework's input object (MRJ002).
"""

from repro.mapreduce.api import Context, Mapper


class LookupPerRecordRunMapper(Mapper):
    def run(self, split, context: Context) -> None:
        self.setup(context)
        for key, value in split:
            table = context.read_side_file("/data/lookup.txt")
            value.value = value.value.strip()
            movie_id = value.value.split(",")[0]
            if movie_id in table:
                context.write(movie_id, 1)
        self.cleanup(context)
