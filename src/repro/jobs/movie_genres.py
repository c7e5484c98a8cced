"""Per-genre rating statistics — assignment 1, part 1.

"The matching of the ratings for individual movies into the relevant
genres ... requires the map tasks to interact with an additional data
file.  ...the optimized implementation of this external access ... can
make the program run one order of magnitude faster."

Three side-file strategies, selected by the ``strategy`` parameter:

- ``"naive"`` — open and parse ``movies.dat`` *inside every map()
  call* ("the easiest, but inefficient approach, is to read the
  additional file from inside each mapper");
- ``"per_task"`` — read it once per task in ``setup()``;
- ``"cached"`` — "implement a Java object that reads the additional
  file once and stores the content in memory": read once per *node*,
  via the node cache.

All three produce identical answers; the benchmarks show the runtime
gap.
"""

from __future__ import annotations

from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.config import JobConf
from repro.mapreduce.types import Text, Writable, record_writable
from repro.util.errors import ConfigError

#: The statistics monoid: (count, sum, min, max) merges associatively,
#: so the same class serves as combiner output and reducer input.
GenreStatsWritable = record_writable(
    "GenreStatsWritable",
    [("count", int), ("total", float), ("minimum", float), ("maximum", float)],
)

STRATEGIES = ("naive", "per_task", "cached")


def parse_movies_file(text: str) -> dict[int, list[str]]:
    """``MovieID::Title::Genre1|Genre2`` -> {movie_id: [genres]}."""
    table: dict[int, list[str]] = {}
    for line in text.splitlines():
        if not line:
            continue
        movie_id, _title, genre_field = line.split("::", 2)
        table[int(movie_id)] = genre_field.split("|")
    return table


def parse_rating(line: str) -> tuple[int, int, float] | None:
    """``UserID::MovieID::Rating::Timestamp`` -> (user, movie, rating)."""
    if not line:
        return None
    fields = line.split("::")
    if len(fields) != 4:
        return None
    return int(fields[0]), int(fields[1]), float(fields[2])


class GenreJoinMapper(Mapper):
    """Join each rating to its genres via the chosen side-file strategy."""

    MOVIES_CACHE_KEY = "movies-table"

    def setup(self, context: Context) -> None:
        self._strategy = context.get("strategy", "cached")
        if self._strategy not in STRATEGIES:
            raise ConfigError(f"unknown side-file strategy {self._strategy!r}")
        self._side_path = context.get("movies_path")
        if self._side_path is None:
            raise ConfigError("GenreStatsJob requires movies_path=...")
        self._table: dict[int, list[str]] | None = None
        if self._strategy == "per_task":
            self._table = parse_movies_file(
                context.read_side_file(self._side_path)
            )
        elif self._strategy == "cached":
            cache = context.node_cache
            if self.MOVIES_CACHE_KEY not in cache:
                cache[self.MOVIES_CACHE_KEY] = parse_movies_file(
                    context.cached_side_file(self._side_path)
                )
            self._table = cache[self.MOVIES_CACHE_KEY]

    def _genres_of(self, movie_id: int, context: Context) -> list[str]:
        if self._strategy == "naive":
            # Re-open and re-parse the side file for every single record.
            table = parse_movies_file(context.read_side_file(self._side_path))
            return table.get(movie_id, [])
        assert self._table is not None
        return self._table.get(movie_id, [])

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        parsed = parse_rating(value.value)
        if parsed is None:
            return
        _user, movie, rating = parsed
        # repro: lint-ok[MRJ006] deliberate teaching anti-pattern: the
        # "naive" strategy exists to measure exactly this slowdown
        for genre in self._genres_of(movie, context):
            context.write(
                Text(genre),
                GenreStatsWritable(
                    count=1, total=rating, minimum=rating, maximum=rating
                ),
            )


class GenreStatsCombiner(Reducer):
    """Merge partial statistics (associative; safe as a combiner)."""

    def reduce(self, key: Writable, values, context: Context) -> None:
        count, total = 0, 0.0
        minimum, maximum = float("inf"), float("-inf")
        for value in values:
            count += value.count
            total += value.total
            minimum = min(minimum, value.minimum)
            maximum = max(maximum, value.maximum)
        context.write(
            key,
            GenreStatsWritable(
                count=count, total=total, minimum=minimum, maximum=maximum
            ),
        )


class GenreStatsReducer(Reducer):
    """Final descriptive statistics, rendered as a readable record."""

    def reduce(self, key: Writable, values, context: Context) -> None:
        count, total = 0, 0.0
        minimum, maximum = float("inf"), float("-inf")
        for value in values:
            count += value.count
            total += value.total
            minimum = min(minimum, value.minimum)
            maximum = max(maximum, value.maximum)
        mean = total / count if count else 0.0
        context.write(
            key,
            Text(
                f"count={count},mean={mean:.4f},min={minimum:g},max={maximum:g}"
            ),
        )


class GenreStatsJob(Job):
    """Descriptive statistics of ratings per genre.

    Parameters (via ``params``): ``movies_path`` (side file, required)
    and ``strategy`` (one of :data:`STRATEGIES`, default ``"cached"``).
    """

    mapper = GenreJoinMapper
    combiner = GenreStatsCombiner
    reducer = GenreStatsReducer
    shares_node_state = True  # side-file reads, all three strategies

    def __init__(self, conf: JobConf | None = None, **params):
        strategy = params.get("strategy", "cached")
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown side-file strategy {strategy!r}")
        conf = conf or JobConf(name=f"genre-stats-{strategy}")
        super().__init__(conf=conf, **params)


def parse_stats_value(text: str) -> dict[str, float]:
    """Parse the reducer's ``count=..,mean=..`` rendering back out."""
    out: dict[str, float] = {}
    for piece in text.split(","):
        name, value = piece.split("=")
        out[name] = float(value)
    return out
