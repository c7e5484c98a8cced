"""Assignment 1, part 2: "a single MapReduce program to identify the
user that provides the most ratings and that user's favorite movie
genre".

The teaching point: "the students need to implement a customized Hadoop
output value class, as the information needed in the reduce step
requires several values for each key" — here
:data:`RaterProfileWritable`, carrying (rating count, favourite genre).

Implementation: mappers join ratings to genres (cached side file) and
emit ``(user, genre)`` once per genre of the rated movie, plus one
``(user, RATING_MARKER)`` per rating; a single reducer tallies each
user's ratings and per-genre votes, tracks the global maximum, and
emits one winner at ``cleanup`` — so the whole answer comes from one
job, as required.
"""

from __future__ import annotations

from collections import Counter

from repro.jobs.movie_genres import parse_movies_file, parse_rating
from repro.mapreduce.api import Context, Job, Mapper, Reducer
from repro.mapreduce.config import JobConf
from repro.mapreduce.types import IntWritable, Text, Writable, record_writable
from repro.util.errors import ConfigError

#: The "customized Hadoop output value class": several values per key.
RaterProfileWritable = record_writable(
    "RaterProfileWritable", [("num_ratings", int), ("favorite_genre", str)]
)


class UserGenreMapper(Mapper):
    """Emits a rating marker, then one genre vote per genre of the movie."""

    MOVIES_CACHE_KEY = "movies-table"

    def setup(self, context: Context) -> None:
        path = context.get("movies_path")
        if path is None:
            raise ConfigError("TopRaterJob requires movies_path=...")
        cache = context.node_cache
        if self.MOVIES_CACHE_KEY not in cache:
            cache[self.MOVIES_CACHE_KEY] = parse_movies_file(
                context.cached_side_file(path)
            )
        self._table: dict[int, list[str]] = cache[self.MOVIES_CACHE_KEY]

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        parsed = parse_rating(value.value)
        if parsed is None:
            return
        user, movie, _rating = parsed
        context.write(IntWritable(user), Text(TopRaterReducer.RATING_MARKER))
        for genre in self._table.get(movie, []):
            context.write(IntWritable(user), Text(genre))


class TopRaterReducer(Reducer):
    """Track the most active user across all keys; emit at cleanup.

    A user's rating count is the number of ``RATING_MARKER`` values the
    mapper sent, one per rating.  The genre values cannot stand in for
    it: a movie with several genres sends several genre votes for one
    rating.  The favourite genre is the one with the most votes (ties
    go to the alphabetically first), and ties on the rating count go to
    the lower user id.
    """

    RATING_MARKER = "__rating__"

    def setup(self, context: Context) -> None:
        self._best_user: int | None = None
        self._best_count = -1
        self._best_genre = ""

    def reduce(self, key: Writable, values, context: Context) -> None:
        genre_counts: Counter = Counter()
        num_ratings = 0
        for value in values:
            if value.value == self.RATING_MARKER:
                num_ratings += 1
            else:
                genre_counts[value.value] += 1
        if not genre_counts:
            return
        top = max(genre_counts.values())
        favorite = min(g for g, c in genre_counts.items() if c == top)
        user = key.value
        if num_ratings > self._best_count or (
            num_ratings == self._best_count
            and (self._best_user is None or user < self._best_user)
        ):
            self._best_user = user
            self._best_count = num_ratings
            self._best_genre = favorite

    def cleanup(self, context: Context) -> None:
        if self._best_user is not None:
            context.write(
                IntWritable(self._best_user),
                RaterProfileWritable(
                    num_ratings=self._best_count,
                    favorite_genre=self._best_genre,
                ),
            )


class TopRaterJob(Job):
    """One job, one answer: (top user, RaterProfileWritable)."""

    mapper = UserGenreMapper
    reducer = TopRaterReducer
    shares_node_state = True  # cached side file via node_cache

    def __init__(self, conf: JobConf | None = None, **params):
        conf = conf or JobConf(name="top-rater", num_reduces=1)
        conf.num_reduces = 1  # a global argmax needs a single reducer
        super().__init__(conf=conf, **params)
