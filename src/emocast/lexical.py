"""The text layer: one pass over a corpus's dialogue, and word contrasts.

``text_pass`` tokenizes every dialogue exactly once. From that pass come
both the dialogue x 8 primary-count matrix the emotion vectors are built
from and the word counts per gender group, with stopwords removed. The
word contrast restricts those counts to nouns via a bundled word list (no
tagger dependency, fully deterministic) and drops every noun both groups
use so only the distinctive vocabulary remains. Both resource files are
plain newline-delimited text and can be swapped out by the caller.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import Corpus
from .emotion import PRIMARY_EMOTIONS, EmotionLexicon, tokenize
from .errors import read_utf8

MIN_TOKEN_LEN = 2
GROUPS = ("female", "male")


@dataclass(frozen=True)
class TextPass:
    """Primary-affect counts per dialogue, in corpus order, and word counts."""

    counts: np.ndarray  # int64, dialogues x PRIMARY_EMOTIONS
    words: dict[str, Counter]  # group label -> Counter of lowercase words


def load_word_list(text: str) -> set[str]:
    """Newline-delimited words, lowercased; blank lines and # comments skipped."""
    words = set()
    for line in text.splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return words


def _bundled(name: str) -> str:
    return resources.files("emocast").joinpath(f"data/{name}").read_text(encoding="utf-8")


def default_stopwords() -> set[str]:
    return load_word_list(_bundled("stopwords.txt"))


def default_nouns() -> set[str]:
    return load_word_list(_bundled("nouns.txt"))


def load_word_list_file(path: str | Path) -> set[str]:
    """A word list file; one that is not UTF-8 raises InputEncodingError naming its line."""
    return load_word_list(read_utf8(path))


def text_pass(corpus: Corpus, lexicon: EmotionLexicon, stopwords: set[str]) -> TextPass:
    """Tokenize each dialogue once; count its primary affects and its words.

    Every affect assignment of every matched token adds one to that
    primary's count. Words are counted per gender group, without stopwords
    or tokens shorter than MIN_TOKEN_LEN; UNKNOWN characters belong to
    neither group. Each dialogue's tokens are counted as they come, and
    the unwanted words are dropped once per distinct word at the end.
    """
    column = {affect: j for j, affect in enumerate(PRIMARY_EMOTIONS)}
    # word -> its primaries' columns, one tuple per distinct affect set
    shared = {affects: tuple(column[a] for a in affects) for affects in set(lexicon.entries.values())}
    columns = {word: shared[affects] for word, affects in lexicon.entries.items()}
    words = {group: Counter() for group in GROUPS}
    rows = []
    for rec in corpus.records:
        counter = words.get(rec.gender.value)
        for dialogue in rec.dialogues:
            tokens = tokenize(dialogue)
            row = [0] * len(PRIMARY_EMOTIONS)
            for token in tokens:
                for j in columns.get(token, ()):
                    row[j] += 1
            rows.append(row)
            if counter is not None:
                counter.update(tokens)
    words = {
        group: Counter({w: n for w, n in counter.items() if len(w) >= MIN_TOKEN_LEN and w not in stopwords})
        for group, counter in words.items()
    }
    counts = np.array(rows, dtype=np.int64).reshape(len(rows), len(PRIMARY_EMOTIONS))
    return TextPass(counts=counts, words=words)


def exclusive_nouns(
    freq: dict[str, Counter],
    nouns: Iterable[str],
    top_n: int,
) -> dict[str, list[tuple[str, int]]]:
    """Top nouns per group after dropping every word both groups use.

    Ranking is by count descending, then alphabetically, so the output is
    deterministic. The two lists are disjoint by construction.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    noun_set = set(nouns)
    female = freq.get("female", Counter())
    male = freq.get("male", Counter())
    shared = set(female) & set(male)

    def top(counter: Counter) -> list[tuple[str, int]]:
        candidates = [
            (word, count)
            for word, count in counter.items()
            if word in noun_set and word not in shared
        ]
        candidates.sort(key=lambda pair: (-pair[1], pair[0]))
        return candidates[:top_n]

    return {"female": top(female), "male": top(male)}
