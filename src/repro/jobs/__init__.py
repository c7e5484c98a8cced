"""The course's example and assignment MapReduce programs.

Each module implements one lecture example or assignment question from
the paper, usually in several algorithmic variants whose performance
difference *is* the lesson:

- :mod:`~repro.jobs.wordcount` — WordCount plain / reducer-as-combiner /
  in-mapper combining (the MapReduce lecture's three examples);
- :mod:`~repro.jobs.top_word` — "the word with highest count in the
  complete Shakespeare collection" (Version 1, assignment 1);
- :mod:`~repro.jobs.airline_delay` — average delay per airline, three
  implementations following Lin's "Monoidify!" design pattern;
- :mod:`~repro.jobs.movie_genres` — per-genre rating statistics with
  naive / per-task / cached side-file strategies (assignment 1);
- :mod:`~repro.jobs.top_rater` — most-active user and their favourite
  genre via a custom composite output value (assignment 1, part 2);
- :mod:`~repro.jobs.album_rating` — highest-average-rating album
  (assignment 2);
- :mod:`~repro.jobs.trace_resubmissions` — the job with the most task
  resubmissions in the Google trace (Version 1, assignment 2);
- :mod:`~repro.jobs.pagerank` — iterative PageRank on sparklite
  (cached link table, per-iteration stage reuse on the compiled
  backend);
- :mod:`~repro.jobs.ngrams` — n-gram corpus pipeline over the
  vectorised tokenizer, one shuffle.
"""

from repro.jobs.wordcount import (
    WordCountJob,
    WordCountWithCombinerJob,
    WordCountInMapperJob,
)
from repro.jobs.top_word import TopWordJob, find_top_word
from repro.jobs.airline_delay import (
    AirlineDelayNaiveJob,
    AirlineDelayCombinerJob,
    AirlineDelayInMapperJob,
)
from repro.jobs.movie_genres import GenreStatsJob
from repro.jobs.top_rater import TopRaterJob
from repro.jobs.album_rating import AlbumRatingJob, best_album_from_output
from repro.jobs.trace_resubmissions import (
    TraceResubmissionsJob,
    MaxResubmissionsJob,
    find_max_resubmission_job,
)
from repro.jobs.pagerank import (
    PageRankResult,
    generate_web_graph,
    pagerank,
)
from repro.jobs.ngrams import ngram_counts, top_ngrams

__all__ = [
    "WordCountJob",
    "WordCountWithCombinerJob",
    "WordCountInMapperJob",
    "TopWordJob",
    "find_top_word",
    "AirlineDelayNaiveJob",
    "AirlineDelayCombinerJob",
    "AirlineDelayInMapperJob",
    "GenreStatsJob",
    "TopRaterJob",
    "AlbumRatingJob",
    "best_album_from_output",
    "TraceResubmissionsJob",
    "MaxResubmissionsJob",
    "find_max_resubmission_job",
    "PageRankResult",
    "generate_web_graph",
    "pagerank",
    "ngram_counts",
    "top_ngrams",
]
