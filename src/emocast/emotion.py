"""Plutchik emotion embeddings for dialogue.

A dialogue is scored against a word-affect lexicon (NRC word-level TSV
format): every affect assignment of every matched token adds one to that
primary's count. ``lexical.text_pass`` scores a whole corpus this way into
an integer dialogue x 8 count matrix, tokenizing each dialogue once.
``emotion_rows`` normalizes each count row to a distribution over the eight
primaries and expands it to 32 dimensions through the 24 compound emotions
(dyads) of the wheel, each scored as the arithmetic mean of its two
constituents, e.g. envy is the mean of sadness and anger.

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


def emotion_rows(counts: np.ndarray) -> np.ndarray:
    """32-dim emotion rows, in EMOTION_COLUMNS order, from primary counts.

    Each row of ``counts`` holds one dialogue's hits per primary, in
    PRIMARY_EMOTIONS order. Primaries become fractions of the row total and
    each dyad the mean of its two primaries; a row without hits stays zero.
    """
    primaries = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return (primaries[:, _PAIRS[0]] + primaries[:, _PAIRS[1]]) / 2


def character_means(rows: np.ndarray, lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-character mean of its dialogues' emotion rows, and no-affect flags.

    ``rows`` lists each character's dialogues consecutively and ``lengths``
    says how many each has. Zero-hit dialogues would dilute the
    distribution with no evidence, so they are left out of the mean; a
    character whose every dialogue is zero-hit gets the zero row and the
    no-affect flag. The axis-0 sum adds rows in order, so a mean has the
    bits of a running sum of Python floats divided by the hit count.
    """
    hit = rows.any(axis=1)
    means = np.zeros((len(lengths), rows.shape[1]))
    no_affect = np.ones(len(lengths), dtype=bool)
    start = 0
    for i, length in enumerate(lengths):
        scored = rows[start : start + length][hit[start : start + length]]
        start += length
        if len(scored):
            means[i] = scored.sum(axis=0) / len(scored)
            no_affect[i] = False
    return means, no_affect
