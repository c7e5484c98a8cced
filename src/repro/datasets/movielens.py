"""Synthetic MovieLens-style movie ratings.

Stands in for the GroupLens MovieLens 10M dataset ("250MB in size and
contains 10 million ratings for 10,000 movies by 72,000 users") used by
the first assignment:

1. descriptive statistics of ratings per *genre* — which forces the map
   side to join each rating against the ``movies.dat`` side file (the
   whole point: side-file access strategy dominates runtime);
2. the user with the most ratings, and that user's favourite genre —
   which forces a custom composite output value.

Formats follow MovieLens::

    ratings.dat:  UserID::MovieID::Rating::Timestamp
    movies.dat:   MovieID::Title (Year)::Genre1|Genre2|...
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import RngStream

GENRES = [
    "Action",
    "Adventure",
    "Animation",
    "Children",
    "Comedy",
    "Crime",
    "Documentary",
    "Drama",
    "Fantasy",
    "Film-Noir",
    "Horror",
    "Musical",
    "Mystery",
    "Romance",
    "Sci-Fi",
    "Thriller",
    "War",
    "Western",
]

#: Genre rating biases (stars added/subtracted from the base mean) —
#: gives each genre a distinct true mean for the statistics assignment.
_GENRE_BIAS = {
    "Film-Noir": 0.45,
    "Documentary": 0.40,
    "War": 0.30,
    "Drama": 0.20,
    "Crime": 0.15,
    "Mystery": 0.10,
    "Animation": 0.05,
    "Western": 0.00,
    "Musical": 0.00,
    "Romance": -0.05,
    "Thriller": -0.05,
    "Adventure": -0.10,
    "Comedy": -0.15,
    "Action": -0.20,
    "Fantasy": -0.10,
    "Sci-Fi": -0.15,
    "Children": -0.25,
    "Horror": -0.45,
}


@dataclass
class GenreStats:
    """Exact descriptive statistics for one genre's ratings."""

    count: int
    mean: float
    minimum: float
    maximum: float


@dataclass
class MovieLensDataset:
    """Ratings + movies side file + exact ground truths."""

    ratings_text: str
    movies_text: str
    num_ratings: int
    num_movies: int
    num_users: int
    genre_stats: dict[str, GenreStats] = field(default_factory=dict)
    ratings_per_user: Counter = field(default_factory=Counter)
    user_genre_counts: dict[int, Counter] = field(default_factory=dict)

    def top_rater(self) -> int:
        """The user with the most ratings (count desc, id asc)."""
        best_count = max(self.ratings_per_user.values())
        return min(
            u for u, c in self.ratings_per_user.items() if c == best_count
        )

    def favorite_genre_of(self, user: int) -> str:
        counts = self.user_genre_counts[user]
        best = max(counts.values())
        return min(g for g, c in counts.items() if c == best)


_TITLE_WORDS = (
    "Midnight Return Last Golden Silent Broken Secret Lost City River "
    "Winter Crimson Iron Paper Glass Distant Burning Final Empty Hollow"
).split()


def generate_movielens(
    seed: int = 0,
    num_movies: int = 200,
    num_users: int = 300,
    num_ratings: int = 8_000,
) -> MovieLensDataset:
    """Generate a laptop-scale MovieLens with exact ground truth."""
    rng = RngStream(seed=seed).child("datasets", "movielens")
    gen = rng.rng

    # Movies: 1-3 genres each, title with release year.
    movie_genres: list[list[str]] = []
    movie_lines: list[str] = []
    for movie_id in range(1, num_movies + 1):
        count = int(gen.integers(1, 4))
        picks = sorted(
            GENRES[i] for i in gen.choice(len(GENRES), size=count, replace=False)
        )
        movie_genres.append(picks)
        w1, w2 = gen.choice(len(_TITLE_WORDS), size=2, replace=False)
        title = f"{_TITLE_WORDS[w1]} {_TITLE_WORDS[w2]} ({1950 + int(gen.integers(0, 60))})"
        movie_lines.append(f"{movie_id}::{title}::{'|'.join(picks)}")

    # Users: heavy-tailed activity (a clear top rater emerges naturally).
    activity = gen.pareto(1.3, size=num_users) + 1.0
    activity /= activity.sum()

    user_ids = gen.choice(num_users, size=num_ratings, p=activity) + 1
    movie_ids = gen.integers(1, num_movies + 1, size=num_ratings)
    timestamps = gen.integers(978_000_000, 1_100_000_000, size=num_ratings)

    # Ratings in bulk: one normal draw per rating, in rating order (the
    # same stream, value for value, as one scalar draw each), centred on
    # the mean bias of the rated movie's genres, rounded to half stars.
    movie_bias = np.array(
        [float(np.mean([_GENRE_BIAS[g] for g in genres])) for genres in movie_genres]
    )
    raw = gen.normal(3.5 + movie_bias[movie_ids - 1], 1.0)
    ratings = np.clip(np.round(raw * 2) / 2, 0.5, 5.0).tolist()

    rating_lines: list[str] = []
    genre_acc: dict[str, list] = {g: [0, 0.0, 9.9, -9.9] for g in GENRES}
    ratings_per_user: Counter = Counter()
    user_genre_counts: dict[int, Counter] = defaultdict(Counter)
    for user, movie, rating, timestamp in zip(
        user_ids.tolist(), movie_ids.tolist(), ratings, timestamps.tolist()
    ):
        genres = movie_genres[movie - 1]
        rating_lines.append(f"{user}::{movie}::{rating:g}::{timestamp}")
        ratings_per_user[user] += 1
        for genre in genres:
            acc = genre_acc[genre]
            acc[0] += 1
            acc[1] += rating
            acc[2] = min(acc[2], rating)
            acc[3] = max(acc[3], rating)
            user_genre_counts[user][genre] += 1

    genre_stats = {
        g: GenreStats(
            count=acc[0],
            mean=acc[1] / acc[0],
            minimum=acc[2],
            maximum=acc[3],
        )
        for g, acc in genre_acc.items()
        if acc[0] > 0
    }
    return MovieLensDataset(
        ratings_text="\n".join(rating_lines) + "\n",
        movies_text="\n".join(movie_lines) + "\n",
        num_ratings=num_ratings,
        num_movies=num_movies,
        num_users=num_users,
        genre_stats=genre_stats,
        ratings_per_user=ratings_per_user,
        user_genre_counts=dict(user_genre_counts),
    )
