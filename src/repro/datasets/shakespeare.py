"""A "complete Shakespeare collection" stand-in.

The first Version-1 assignment was "a slight modification of the
WordCount [... to] find the word with highest count in the complete
Shakespeare collection".  This generator produces a multi-play corpus
with Zipfian dialogue, play headers and scene markers, plus the exact
word-count ground truth so the grader can check the student answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.datasets.zipf_text import ZipfTextGenerator
from repro.util.rng import RngStream

PLAY_TITLES = [
    "HAMLET",
    "MACBETH",
    "KING LEAR",
    "OTHELLO",
    "ROMEO AND JULIET",
    "JULIUS CAESAR",
    "THE TEMPEST",
    "TWELFTH NIGHT",
    "A MIDSUMMER NIGHT'S DREAM",
    "THE MERCHANT OF VENICE",
]


#: Byte-translation table for ASCII text: every byte that cannot extend
#: a word (``ch.isalnum() or ch == "'"``) becomes a space.  Bytes above
#: 0x7F never occur in ASCII input, so their entries are unused.
_ASCII_SEPARATORS = bytes(
    i for i in range(256) if not (chr(i).isalnum() or chr(i) == "'")
)
_ASCII_TO_SPACE = bytes.maketrans(
    _ASCII_SEPARATORS, b" " * len(_ASCII_SEPARATORS)
)


def tokenize(text: str) -> list[str]:
    """The course's WordCount tokenizer: lowercase, alphanumeric runs
    (apostrophes count as word characters).

    Vectorized form of the per-character scan: every character that
    cannot extend a word is mapped to a space, then ``str.split`` cuts
    the runs — all C loops, so map tasks spend their time in the data
    path rather than in tokenisation.  ASCII text (the common case)
    goes through a 256-entry byte table; anything else builds a mapping
    from the text's *distinct* characters, so the Python-level
    predicate runs once per alphabet symbol, not once per character.
    """
    text = text.lower()
    if text.isascii():
        translated = text.encode("ascii").translate(_ASCII_TO_SPACE)
        return translated.decode("ascii").split()
    table = {
        ord(ch): " " for ch in set(text) if not (ch.isalnum() or ch == "'")
    }
    return text.translate(table).split()


@dataclass
class ShakespeareCorpus:
    """Generated corpus plus exact ground truth."""

    text: str
    word_counts: Counter
    num_plays: int

    @property
    def top_word(self) -> tuple[str, int]:
        """The answer to assignment 1 (ties broken alphabetically)."""
        best = max(self.word_counts.items(), key=lambda kv: (kv[1], kv[0]))
        # Deterministic: highest count, then lexicographically smallest.
        top_count = best[1]
        candidates = sorted(
            w for w, c in self.word_counts.items() if c == top_count
        )
        return candidates[0], top_count


def generate_shakespeare(
    seed: int = 0,
    num_plays: int = 4,
    words_per_play: int = 3000,
    vocab_size: int = 1500,
) -> ShakespeareCorpus:
    """Generate a corpus of ``num_plays`` plays."""
    rng = RngStream(seed=seed).child("datasets", "shakespeare")
    gen = ZipfTextGenerator(rng.child("words"), vocab_size=vocab_size)
    pieces: list[str] = []
    for play_index in range(num_plays):
        title = PLAY_TITLES[play_index % len(PLAY_TITLES)]
        pieces.append(f"{title}\n")
        acts = 1 + rng.integers(2, 5)
        for act in range(1, acts + 1):
            pieces.append(f"ACT {act}. SCENE {rng.integers(1, 6)}.\n")
            pieces.append(gen.text(max(1, words_per_play // acts)))
    text = "".join(pieces)
    counts = Counter(tokenize(text))
    return ShakespeareCorpus(text=text, word_counts=counts, num_plays=num_plays)
