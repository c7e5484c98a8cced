"""Synthetic Yahoo!-Music-style song ratings.

Stands in for the Yahoo! Webscope music dataset (~10 GB, "a complex set
of tables that is similar to the Movie Rating dataset") used by the
second assignment: "identify the album that has the highest average
rating using MapReduce and HDFS", which again requires joining against
"the list of songs in each album" — a side file.

Formats::

    ratings.txt:  UserID<TAB>SongID<TAB>Rating        (0-100 scale)
    songs.txt:    SongID<TAB>AlbumID<TAB>ArtistID
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import RngStream


@dataclass
class YahooMusicDataset:
    """Ratings + song/album side table + exact ground truth."""

    ratings_text: str
    songs_text: str
    num_ratings: int
    num_songs: int
    num_albums: int
    #: album id -> (rating sum, count)
    album_sums: dict[int, tuple[float, int]] = field(default_factory=dict)

    def true_album_averages(self, min_ratings: int = 1) -> dict[int, float]:
        return {
            album: total / count
            for album, (total, count) in self.album_sums.items()
            if count >= min_ratings
        }

    def best_album(self, min_ratings: int = 1) -> int:
        """Highest average rating (avg desc, id asc) — the assignment
        answer."""
        averages = self.true_album_averages(min_ratings)
        best = max(averages.values())
        return min(a for a, avg in averages.items() if avg == best)


def generate_yahoo_music(
    seed: int = 0,
    num_albums: int = 60,
    songs_per_album: int = 8,
    num_users: int = 250,
    num_ratings: int = 6_000,
) -> YahooMusicDataset:
    """Generate a laptop-scale Yahoo! Music with exact ground truth."""
    rng = RngStream(seed=seed).child("datasets", "yahoo_music")
    gen = rng.rng

    num_songs = num_albums * songs_per_album
    song_album = np.repeat(np.arange(1, num_albums + 1), songs_per_album)
    song_artist = gen.integers(1, max(2, num_albums // 2), size=num_songs)
    songs_text = (
        "\n".join(
            f"{song_id}\t{song_album[song_id - 1]}\t{song_artist[song_id - 1]}"
            for song_id in range(1, num_songs + 1)
        )
        + "\n"
    )

    # Album quality varies; ratings on Yahoo's 0-100 scale.
    album_quality = gen.normal(60.0, 12.0, size=num_albums)
    users = gen.integers(1, num_users + 1, size=num_ratings)
    songs = gen.integers(1, num_songs + 1, size=num_ratings)
    albums = song_album[songs - 1]
    ratings = np.clip(
        np.round(gen.normal(album_quality[albums - 1], 15.0)), 0, 100
    ).astype(np.int64)

    lines = [
        f"{users[i]}\t{songs[i]}\t{ratings[i]}" for i in range(num_ratings)
    ]
    album_sums: dict[int, list] = {}
    for i in range(num_ratings):
        acc = album_sums.setdefault(int(albums[i]), [0.0, 0])
        acc[0] += float(ratings[i])
        acc[1] += 1
    return YahooMusicDataset(
        ratings_text="\n".join(lines) + "\n",
        songs_text=songs_text,
        num_ratings=num_ratings,
        num_songs=num_songs,
        num_albums=num_albums,
        album_sums={k: (v[0], v[1]) for k, v in album_sums.items()},
    )
