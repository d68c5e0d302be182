"""Output checks for the emocast benchmark, computed apart from the program.

Nothing here imports emocast. The expected corpus comes from the
generator's ``truth.json``; emotion vectors are recomputed by a short
scorer written from the method's definition (count every primary affect of
every matched token, normalise to one, dyads are the mean of their two
primaries, a character is the mean of its dialogues with a hit); the rank
tests are recomputed with ``scipy.stats.mannwhitneyu``.

Every check raises ``CheckError`` with the artifact and the reason.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu

PRIMARIES = ("anger", "anticipation", "disgust", "fear", "joy", "sadness", "surprise", "trust")
# Plutchik's 24 dyads: primary, secondary and tertiary pairs around the wheel.
DYADS = {
    "love": ("joy", "trust"), "submission": ("trust", "fear"), "awe": ("fear", "surprise"),
    "disapproval": ("surprise", "sadness"), "remorse": ("sadness", "disgust"),
    "contempt": ("disgust", "anger"), "aggression": ("anger", "anticipation"),
    "optimism": ("anticipation", "joy"), "guilt": ("joy", "fear"),
    "curiosity": ("trust", "surprise"), "despair": ("fear", "sadness"),
    "confined": ("surprise", "disgust"), "envy": ("sadness", "anger"),
    "cynicism": ("disgust", "anticipation"), "pride": ("anger", "joy"),
    "hope": ("anticipation", "trust"), "delight": ("joy", "surprise"),
    "sentimentality": ("trust", "sadness"), "shame": ("fear", "disgust"),
    "outrage": ("surprise", "anger"), "pessimism": ("sadness", "anticipation"),
    "morbidness": ("disgust", "joy"), "dominance": ("anger", "trust"),
    "anxiety": ("anticipation", "fear"),
}
COLUMNS = PRIMARIES + tuple(DYADS)
_INDEX = {name: i for i, name in enumerate(PRIMARIES)}
# 8 primaries -> 32 columns: identity on the primaries, a half on each dyad's two.
EXPAND = np.zeros((8, len(COLUMNS)))
EXPAND[:, :8] = np.eye(8)
for _col, (_a, _b) in enumerate(DYADS.values(), start=8):
    EXPAND[_INDEX[_a], _col] = EXPAND[_INDEX[_b], _col] = 0.5

# The generator writes ASCII letters, spaces and end punctuation only.
_WORD_RE = re.compile(r"[a-z]+")
PLANTED_P = 1e-6


class CheckError(Exception):
    """An artifact disagrees with the independently computed expectation."""


def _require(ok: bool, where: str, message: str) -> None:
    if not ok:
        raise CheckError(f"{where}: {message}")


def _read_csv(path: Path) -> list[dict[str, str]]:
    _require(path.is_file(), path.name, "missing")
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


class Expected:
    """Ground truth plus the independently scored dialogues."""

    def __init__(self, corpus_dir: Path) -> None:
        self.truth = json.loads((corpus_dir / "truth.json").read_text(encoding="utf-8"))
        self.affects = self._load_affects(corpus_dir / "lexicon.tsv")
        self.no_affect = {tuple(pair) for pair in self.truth["no_affect"]}
        self.characters = [
            (movie, name)
            for movie in sorted(self.truth["characters"])
            for name in sorted(self.truth["characters"][movie])
        ]
        self.vectors: dict[tuple[str, str], np.ndarray] = {}
        self.dialogue_rows: dict[str, list[np.ndarray]] = {"female": [], "male": []}
        for key in self.characters:
            counts = np.array([self._primary_counts(d) for d in self.dialogues(key)], dtype=float)
            totals = counts.sum(axis=1)
            shares = np.divide(counts, totals[:, None], out=np.zeros_like(counts),
                               where=totals[:, None] > 0)
            expanded = shares @ EXPAND
            hit = totals > 0
            self.vectors[key] = expanded[hit].mean(axis=0) if hit.any() else None
            if self.gender(key) in self.dialogue_rows:
                self.dialogue_rows[self.gender(key)].append(expanded)

    @staticmethod
    def _load_affects(path: Path) -> dict[str, list[int]]:
        """word -> indices of its flag-1 primaries; phrases and sentiments skipped."""
        affects: dict[str, list[int]] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            word, affect, flag = line.split("\t")
            if flag == "1" and affect in _INDEX and " " not in word:
                affects.setdefault(word.lower(), []).append(_INDEX[affect])
        return affects

    def _primary_counts(self, dialogue: str) -> list[int]:
        counts = [0] * 8
        for token in _WORD_RE.findall(dialogue.lower()):
            for i in self.affects.get(token, ()):
                counts[i] += 1
        return counts

    def dialogues(self, key: tuple[str, str]) -> list[str]:
        return self.truth["characters"][key[0]][key[1]]

    def gender(self, key: tuple[str, str]) -> str:
        return self.truth["genders"][key[0]][key[1]]

    def kept(self) -> list[tuple[str, str]]:
        """Characters with affect evidence, the ones clustering and t-SNE see."""
        return [key for key in self.characters if self.vectors[key] is not None]


# -- parse ------------------------------------------------------------------

def check_characters(out: Path, exp: Expected) -> None:
    path = out / "characters.json"
    _require(path.is_file(), path.name, "missing")
    got = json.loads(path.read_text(encoding="utf-8"))
    if got != exp.truth["characters"]:
        movies = sorted(set(got) ^ set(exp.truth["characters"]))
        wrong = [m for m in sorted(exp.truth["characters"]) if got.get(m) != exp.truth["characters"][m]]
        raise CheckError(f"characters.json: differs from the generated corpus "
                         f"(movies missing or extra: {movies[:3]}, differing: {wrong[:3]})")


_PARSE_LINE = re.compile(
    r"\[parse\] (\d+) movies -> (\d+) characters, (\d+) dialogues "
    r"\((\d+) female / (\d+) male / (\d+) unknown\)"
)


def check_summary(stdout: str, exp: Expected, out: Path | None = None) -> None:
    """The parse line, and report.json when given, carry the generator's counts."""
    match = _PARSE_LINE.search(stdout)
    _require(match is not None, "stdout", "no [parse] summary line")
    keys = ("movies", "characters", "dialogues", "female", "male", "unknown")
    got = dict(zip(keys, map(int, match.groups())))
    _require(got == exp.truth["summary"], "stdout", f"summary {got} != {exp.truth['summary']}")
    if out is not None:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        _require(report["summary"] == exp.truth["summary"], "report.json",
                 f"summary {report['summary']} != {exp.truth['summary']}")


# -- score ------------------------------------------------------------------

def check_emotions(out: Path, exp: Expected) -> None:
    rows = _read_csv(out / "emotions.csv")
    where = "emotions.csv"
    _require(rows and set(COLUMNS) <= set(rows[0]), where, "missing emotion columns")
    _require(len(rows[0]) == len(COLUMNS) + 5, where, "unexpected columns")
    got_keys = [(r["movie"], r["name"]) for r in rows]
    _require(sorted(got_keys) == exp.characters and len(set(got_keys)) == len(got_keys),
             where, "rows are not exactly the parsed characters")
    for r in rows:
        key = (r["movie"], r["name"])
        label = f"{where} {key[0]}/{key[1]}"
        _require(r["gender"] == exp.gender(key), label, f"gender {r['gender']!r}")
        _require(int(r["dialogue_count"]) == len(exp.dialogues(key)), label, "dialogue_count")
        values = np.array([float(r[c]) for c in COLUMNS])
        expected = exp.vectors[key]
        no_affect = r["no_affect"] == "true"
        _require(r["no_affect"] in ("true", "false"), label, "no_affect is not a boolean")
        _require(no_affect == (expected is None), label, "no_affect flag disagrees with the lexicon")
        _require(no_affect == (key in exp.no_affect), label, "no_affect flag disagrees with the generator")
        if no_affect:
            _require(not values.any(), label, "no-affect row is not all zeros")
            continue
        _require(_close(values[:8].sum(), 1.0, 0.0, 1e-9), label, "primaries do not sum to 1")
        halves = (values[[_INDEX[a] for a, _ in DYADS.values()]]
                  + values[[_INDEX[b] for _, b in DYADS.values()]]) / 2
        _require(np.allclose(values[8:], halves, rtol=0, atol=1e-12), label,
                 "a dyad is not the mean of its two primaries")
        worst = float(np.abs(values - expected).max())
        _require(worst <= 1e-12, label, f"differs from the recomputed vector by {worst:.3g}")


def affect_matrix(out: Path) -> tuple[list[tuple[str, str, str]], np.ndarray]:
    """(movie, name, gender) and vectors of the rows clustering and t-SNE use."""
    rows = [r for r in _read_csv(out / "emotions.csv") if r["no_affect"] == "false"]
    keys = [(r["movie"], r["name"], r["gender"]) for r in rows]
    return keys, np.array([[float(r[c]) for c in COLUMNS] for r in rows])


# -- stats ------------------------------------------------------------------

def check_stats(out: Path, exp: Expected) -> None:
    rows = _read_csv(out / "stats.csv")
    where = "stats.csv"
    _require(sorted(r["emotion"] for r in rows) == sorted(COLUMNS), where,
             "rows are not one per emotion")
    female = np.vstack(exp.dialogue_rows["female"])
    male = np.vstack(exp.dialogue_rows["male"])
    n1, n2 = len(female), len(male)
    last_p = -math.inf
    seen_degenerate = False
    for r in rows:
        col = COLUMNS.index(r["emotion"])
        label = f"{where} {r['emotion']}"
        a, b = female[:, col], male[:, col]
        pooled = np.concatenate([a, b])
        if r["p_value"] == "":
            _require(np.all(pooled == pooled[0]), label, "reported degenerate, column varies")
            _require(r["higher_group"] == "degenerate", label, "degenerate row mislabelled")
            seen_degenerate = True
            continue
        _require(not seen_degenerate, where, "a tested row follows a degenerate one")
        ref = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic", use_continuity=True)
        u1, u2, p = float(r["u1"]), float(r["u2"]), float(r["p_value"])
        _require(u1 + u2 == n1 * n2, label, f"u1 + u2 = {u1 + u2} != n1*n2 = {n1 * n2}")
        _require(_close(u1, float(ref.statistic), 1e-12), label, f"u1 {u1} != scipy {ref.statistic}")
        _require(_close(p, float(ref.pvalue), 1e-6, 1e-300), label, f"p {p} != scipy {ref.pvalue}")
        higher = "female" if u1 > u2 else "male" if u2 > u1 else "tie"
        _require(r["higher_group"] == higher, label, f"higher_group {r['higher_group']!r}")
        _require(p >= last_p, where, f"rows not sorted by p at {r['emotion']}")
        last_p = p
    by_emotion = {r["emotion"]: r for r in rows}
    for emotion, group in (("joy", "female"), ("anger", "male")):
        r = by_emotion[emotion]
        _require(r["higher_group"] == group and r["p_value"] != "" and float(r["p_value"]) < PLANTED_P,
                 where, f"planted {emotion} signal for {group} not found")


def check_timebins(out: Path, exp: Expected) -> None:
    rows = _read_csv(out / "timebins.csv")
    totals = {g: sum(int(r[g]) for r in rows) for g in ("female", "male", "unknown")}
    want = {g: exp.truth["summary"][g] for g in totals}
    _require(totals == want, "timebins.csv", f"gender totals {totals} != {want}")


# -- cluster ----------------------------------------------------------------

_CLUSTER_LINE = re.compile(r"\[cluster\] k=(\d+) ")


def check_clusters(out: Path, exp: Expected, stdout: str, fixed_k: int | None = None) -> None:
    match = _CLUSTER_LINE.search(stdout)
    _require(match is not None, "stdout", "no [cluster] line")
    k = int(match.group(1))
    _require(fixed_k is None or k == fixed_k, "stdout", f"k={k}, asked for {fixed_k}")
    keys, matrix = affect_matrix(out)
    _require(sorted((m, n) for m, n, _ in keys) == exp.kept(), "emotions.csv",
             "affect rows are not the characters with lexicon hits")

    rows = _read_csv(out / "clusters.csv")
    where = "clusters.csv"
    _require(sorted((r["movie"], r["name"], r["gender"]) for r in rows) == sorted(keys), where,
             "rows are not exactly one per character with affect")
    counts = {}
    for method in ("kmeans", "ward"):
        labels = [int(r[f"{method}_cluster"]) for r in rows]
        _require(set(labels) == set(range(k)), where, f"{method} labels are not 0..{k - 1}")
        per = {c: [0, 0] for c in range(k)}
        for r, c in zip(rows, labels):
            if r["gender"] in ("female", "male"):
                per[c][r["gender"] == "male"] += 1
        counts[method] = per

    comp = _read_csv(out / "composition.csv")
    female = sum(1 for _, _, g in keys if g == "female")
    male = sum(1 for _, _, g in keys if g == "male")
    for method in ("kmeans", "ward"):
        mine = [r for r in comp if r["method"] == method]
        got = {int(r["cluster"]): [int(r["female"]), int(r["male"])] for r in mine}
        _require(sum(f for f, _ in got.values()) == female and sum(m for _, m in got.values()) == male,
                 "composition.csv", f"{method} gender counts do not sum to {female}/{male}")
        _require(got == counts[method], "composition.csv", f"{method} counts disagree with clusters.csv")

    curve = _read_csv(out / "ssecurve.csv")
    _require([int(r["k"]) for r in curve] == list(range(1, min(10, len(keys)) + 1)),
             "ssecurve.csv", "k does not run 1..k_max")
    scatter = float(((matrix - matrix.mean(axis=0)) ** 2).sum())
    sse1 = float(curve[0]["sse"])
    _require(_close(sse1, scatter, 1e-9), "ssecurve.csv", f"k=1 SSE {sse1} != total scatter {scatter}")


# -- project ----------------------------------------------------------------

def check_tsne(out: Path) -> None:
    keys, _ = affect_matrix(out)
    rows = _read_csv(out / "tsne.csv")
    _require([(r["movie"], r["name"], r["gender"]) for r in rows] == keys, "tsne.csv",
             "rows are not the characters with affect")
    coords = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    _require(bool(np.isfinite(coords).all()), "tsne.csv", "non-finite coordinate")
    scale = max(1.0, float(np.abs(coords).max()))
    centre = np.abs(coords.mean(axis=0)).max()
    _require(centre <= 1e-9 * scale, "tsne.csv", f"embedding not centred (mean {centre:.3g})")


# -- words ------------------------------------------------------------------

def check_words(out: Path, exp: Expected) -> None:
    rows = _read_csv(out / "wordfreq.csv")
    lists = {g: [r for r in rows if r["group"] == g] for g in ("female", "male")}
    _require(not set(r["word"] for r in lists["female"]) & set(r["word"] for r in lists["male"]),
             "wordfreq.csv", "the two lists share a word")
    for group, planted in exp.truth["private_nouns"].items():
        entries = lists[group]
        _require([int(r["rank"]) for r in entries] == list(range(1, len(entries) + 1)),
                 "wordfreq.csv", f"{group} ranks are not 1..n")
        lead = {r["word"]: int(r["count"]) for r in entries[: len(planted)]}
        _require(set(lead) == set(planted), "wordfreq.csv",
                 f"{group} list is not led by its planted nouns: {sorted(lead)}")
        said = Counter(
            token
            for key in exp.characters if exp.gender(key) == group
            for d in exp.dialogues(key)
            for token in _WORD_RE.findall(d.lower())
        )
        for noun, count in lead.items():
            _require(count == said[noun], "wordfreq.csv",
                     f"{group} {noun}: count {count} != {said[noun]}")


def check_run_all(out: Path, exp: Expected, stdout: str) -> None:
    check_characters(out, exp)
    check_summary(stdout, exp, out)
    check_emotions(out, exp)
    check_stats(out, exp)
    check_timebins(out, exp)
    check_clusters(out, exp, stdout)
    check_tsne(out)
    check_words(out, exp)
