"""MovieLens bytes are pinned: the ratings and movies texts hash to the
digests recorded when every rating was drawn one scalar at a time, so a
bulk draw (or any later rewrite) must reproduce them exactly."""

import hashlib

import pytest

from repro.datasets.movielens import generate_movielens

CASES = [
    (
        dict(seed=0),
        "373b9cca142d7e26565c0762e7bf2e5975cd45cf18d56c0fe1154ebf0f1cb732",
        "3b5b3a69ca9ead92232dd7b312e2e507735da386e597f64f68f412843b0b7e3d",
    ),
    (
        dict(seed=23, num_ratings=20_000),
        "75bd1bf3823843e4323c3202d419ff07e9f4082502a8c7b3e93efd2bb6563af9",
        "7026cde0482b5d6081643c50994d995e9af26f00ff83e17ea4afce033f3b9d56",
    ),
    (
        dict(seed=7, num_ratings=800, num_movies=40, num_users=50),
        "e117f0b5f662b281f4588abc0c274ff4d69254d97078a85334c79a897c0d1724",
        "e56aa7d6d949449f0aaf8a5be3bb1e50631734b78720901c932554e895b147c4",
    ),
    (
        dict(seed=3, num_ratings=30, num_movies=2, num_users=1),
        "112abcc882aa9ef01b5d32b5b8296245bb7b770bc4cfcd9be1522e54ba80f574",
        "5792c9341a14d54503a0c03e2641a10725429ebe87125b113a7effc10c5f6477",
    ),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASE_IDS = ["default", "seed23-20k", "seed7-800", "one-user-two-movies"]


@pytest.mark.parametrize("kwargs, ratings_sha, movies_sha", CASES, ids=CASE_IDS)
def test_texts_match_the_recorded_digests(kwargs, ratings_sha, movies_sha):
    data = generate_movielens(**kwargs)
    assert sha256(data.ratings_text) == ratings_sha
    assert sha256(data.movies_text) == movies_sha


@pytest.mark.parametrize("kwargs", [case[0] for case in CASES], ids=CASE_IDS)
def test_ground_truth_agrees_with_the_text(kwargs):
    data = generate_movielens(**kwargs)
    movie_genres = {
        int(line.split("::")[0]): line.split("::")[2].split("|")
        for line in data.movies_text.splitlines()
    }
    per_user, sums = {}, {}
    for line in data.ratings_text.splitlines():
        user, movie, rating, _timestamp = line.split("::")
        per_user[int(user)] = per_user.get(int(user), 0) + 1
        for genre in movie_genres[int(movie)]:
            count, total = sums.get(genre, (0, 0.0))
            sums[genre] = (count + 1, total + float(rating))
    assert per_user == dict(data.ratings_per_user)
    assert {g: (s.count, s.mean) for g, s in data.genre_stats.items()} == {
        g: (count, total / count) for g, (count, total) in sums.items()
    }
