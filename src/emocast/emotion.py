"""Plutchik emotion embeddings for dialogue.

A dialogue is scored against a word-affect lexicon (NRC word-level TSV
format): every affect assignment of every matched token adds one to that
primary's count. ``lexical.text_pass`` scores a whole corpus this way into
an integer dialogue x 8 count matrix, tokenizing each dialogue once.
``primary_shares`` normalizes each count row to a distribution over the
eight primaries. ``emotion_values`` expands shares, where a value is read,
to 32 dimensions through the wheel's 24 compound emotions (dyads), each the
mean of its two constituents, e.g. envy is the mean of sadness and anger.

Dialogues with no lexicon hit carry no affect evidence; they score as the
all-zero row, and ``character_means`` leaves them out of per-character
averages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LexiconError

PRIMARY_EMOTIONS = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "trust",
)

# Sentiment columns of the NRC format; accepted in input, not scored here.
_SENTIMENT_AFFECTS = ("positive", "negative")

# Dyad -> its two primaries, following the wheel's adjacency rings.
DYADS: dict[str, tuple[str, str]] = {
    "love": ("joy", "trust"),
    "submission": ("trust", "fear"),
    "awe": ("fear", "surprise"),
    "disapproval": ("surprise", "sadness"),
    "remorse": ("sadness", "disgust"),
    "contempt": ("disgust", "anger"),
    "aggression": ("anger", "anticipation"),
    "optimism": ("anticipation", "joy"),
    "guilt": ("joy", "fear"),
    "curiosity": ("trust", "surprise"),
    "despair": ("fear", "sadness"),
    "confined": ("surprise", "disgust"),
    "envy": ("sadness", "anger"),
    "cynicism": ("disgust", "anticipation"),
    "pride": ("anger", "joy"),
    "hope": ("anticipation", "trust"),
    "delight": ("joy", "surprise"),
    "sentimentality": ("trust", "sadness"),
    "shame": ("fear", "disgust"),
    "outrage": ("surprise", "anger"),
    "pessimism": ("sadness", "anticipation"),
    "morbidness": ("disgust", "joy"),
    "dominance": ("anger", "trust"),
    "anxiety": ("anticipation", "fear"),
}

# Canonical 32-column report order: primaries and dyads interleaved.
EMOTION_COLUMNS = (
    "anger",
    "joy",
    "anticipation",
    "surprise",
    "trust",
    "delight",
    "sadness",
    "disgust",
    "hope",
    "curiosity",
    "despair",
    "confined",
    "envy",
    "cynicism",
    "pride",
    "love",
    "submission",
    "shame",
    "awe",
    "disapproval",
    "remorse",
    "aggression",
    "anxiety",
    "outrage",
    "fear",
    "dominance",
    "guilt",
    "sentimentality",
    "optimism",
    "pessimism",
    "contempt",
    "morbidness",
)

_PRIMARY_SET = frozenset(PRIMARY_EMOTIONS)
_AFFECTS = _PRIMARY_SET | frozenset(_SENTIMENT_AFFECTS)

_TOKEN_RE = re.compile(r"[^\W\d_]+(?:['’][^\W\d_]+)*")


@dataclass(frozen=True)
class EmotionLexicon:
    """Word -> set of primary affects, plus a count of skipped phrase rows."""

    entries: dict[str, frozenset[str]]
    skipped_phrases: int = 0

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(text: str) -> EmotionLexicon:
    """Parse NRC-format rows ``word<TAB>affect<TAB>flag``.

    Rows with flag 1 and a primary affect populate the lexicon; positive
    and negative sentiment rows are accepted but not stored. Multi-word
    phrase entries are skipped and counted, token matching cannot reach
    them. Anything else raises LexiconError with its line number.
    """
    entries: dict[str, set[str]] = {}
    skipped = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            word, affect, flag = line.split("\t")
        except ValueError:
            raise LexiconError(f"line {lineno}: expected 3 tab-separated fields") from None
        word = word.strip()
        affect = affect.strip().lower()
        flag = flag.strip()
        if not word:
            raise LexiconError(f"line {lineno}: empty word")
        if affect not in _AFFECTS:
            raise LexiconError(f"line {lineno}: unknown affect {affect!r}")
        if flag not in ("0", "1"):
            raise LexiconError(f"line {lineno}: flag must be 0 or 1, got {flag!r}")
        if flag == "1" and affect in _PRIMARY_SET:
            word = word.lower()
            if any(ch.isspace() for ch in word):
                skipped += 1
            else:
                entries.setdefault(word, set()).add(affect)
    return EmotionLexicon(
        entries={word: frozenset(affects) for word, affects in entries.items()},
        skipped_phrases=skipped,
    )


def tokenize(dialogue: str) -> list[str]:
    """Lowercase word tokens; letters and internal apostrophes only."""
    return _TOKEN_RE.findall(dialogue.lower())


# Column j of EMOTION_COLUMNS is the mean of primaries _PAIRS[0, j] and
# _PAIRS[1, j]. A primary is paired with itself: (x + x) / 2 == x exactly.
_PAIRS = np.array(
    [[PRIMARY_EMOTIONS.index(p) for p in DYADS.get(name, (name, name))] for name in EMOTION_COLUMNS]
).T


def primary_shares(counts: np.ndarray) -> np.ndarray:
    """Each row's primary hits as fractions of its total, n x 8; a row without hits stays zero."""
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)


def emotion_values(shares: np.ndarray, columns: int | slice = slice(None)) -> np.ndarray:
    """EMOTION_COLUMNS ``columns`` of each row of ``shares``: a primary as it is, a dyad the mean of
    its two primaries. C-ordered, so that an axis-0 sum adds the rows in order."""
    return np.ascontiguousarray((shares[:, _PAIRS[0, columns]] + shares[:, _PAIRS[1, columns]]) / 2)


def character_means(shares: np.ndarray, lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-character mean of its dialogues' emotion values, and no-affect flags.

    ``shares`` lists each character's dialogues consecutively and ``lengths``
    says how many each has. Zero-hit dialogues would dilute the
    distribution with no evidence, so they are left out of the mean; a
    character whose every dialogue is zero-hit gets the zero row and the
    no-affect flag. Each character's hit rows are expanded alone and summed
    in order, so a mean has the bits of a running float sum over the hits.
    """
    hit = shares.any(axis=1)
    means = np.zeros((len(lengths), len(EMOTION_COLUMNS)))
    no_affect = np.ones(len(lengths), dtype=bool)
    start = 0
    for i, length in enumerate(lengths):
        scored = shares[start : start + length][hit[start : start + length]]
        start += length
        if len(scored):
            means[i] = emotion_values(scored).sum(axis=0) / len(scored)
            no_affect[i] = False
    return means, no_affect
