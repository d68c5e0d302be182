"""Tests of the benchmark itself: its checks must catch corrupted artifacts.

Run from the repository root: ``python3 -m pytest emobench/test_checks.py -q``.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

import checks
import corpus_gen
import run


def _rewrite_csv(path: Path, edit) -> None:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set_cell(column: str, change, row_filter=lambda row: True):
    """Apply ``change`` (old text -> new text) to one cell of ``column``."""
    def edit(rows):
        col = rows[0].index(column)
        row = next(r for r in rows[1:] if row_filter(r))
        row[col] = change(row[col])
    return edit


def _add(delta: float):
    return lambda text: repr(float(text) + delta)


def _swap_rows(i: int, j: int, column: int | None = None):
    """Swap rows i and j, or only one column of them."""
    def edit(rows):
        if column is None:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i][column], rows[j][column] = rows[j][column], rows[i][column]
    return edit


def _edit_characters(out: Path) -> None:
    path = out / "characters.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    movie = sorted(data)[0]
    name = sorted(data[movie])[0]
    data[movie][name][0] += " extra"
    path.write_text(json.dumps(data), encoding="utf-8")


def _affect_row(row):
    return row[-2] == "false"


CORRUPTIONS = {
    "emotions cell": ("emotions.csv", _set_cell("joy", _add(1e-3), _affect_row)),
    "emotions dyad": ("emotions.csv", _set_cell("love", _add(1e-9), _affect_row)),
    "no-affect flag": ("emotions.csv", _set_cell("no_affect", lambda _: "true", _affect_row)),
    "stats rows swapped": ("stats.csv", _swap_rows(1, 2)),
    "stats labels swapped": ("stats.csv", _swap_rows(1, 5, column=0)),
    "stats p": ("stats.csv", _set_cell("p_value", lambda _: "0.5")),
    "cluster label": ("clusters.csv", _set_cell("ward_cluster", lambda _: "99")),
    "composition count": ("composition.csv", _set_cell("female", lambda v: str(int(v) + 1))),
    "sse at k=1": ("ssecurve.csv", _set_cell("sse", _add(1e-3))),
    "tsne shifted": ("tsne.csv", _set_cell("x", _add(5.0))),
    "wordfreq shared word": ("wordfreq.csv", _set_cell("word", lambda _: "door")),
    "characters.json": ("characters.json", None),
}


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> tuple[Path, checks.Expected, str]:
    root = tmp_path_factory.mktemp("bench")
    corpus = root / "corpus"
    corpus_gen.generate(corpus, seed=7, movies=6, cast=8, dialogues=(10, 14))
    out = root / "out"
    child = run.launch(
        [*run.EMOCAST, "run-all", "--scripts", str(corpus / "scripts"),
         "--metadata", str(corpus / "metadata.csv"), "--lexicon", str(corpus / "lexicon.tsv"),
         "--out", str(out)],
        root,
    )
    assert child.code == 0, child.stderr
    return out, checks.Expected(corpus), child.stdout


def test_clean_run_passes(clean):
    out, exp, stdout = clean
    checks.check_run_all(out, exp, stdout)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_artifact_fails(clean, tmp_path, name):
    out, exp, stdout = clean
    broken = tmp_path / "out"
    shutil.copytree(out, broken)
    artifact, edit = CORRUPTIONS[name]
    if edit is None:
        _edit_characters(broken)
    else:
        _rewrite_csv(broken / artifact, edit)
    with pytest.raises(checks.CheckError):
        checks.check_run_all(broken, exp, stdout)


def test_summary_mismatch_fails(clean):
    out, exp, stdout = clean
    with pytest.raises(checks.CheckError):
        checks.check_summary(stdout.replace(" movies ->", "0 movies ->", 1), exp)


def test_generator_is_seeded(tmp_path):
    a = corpus_gen.generate(tmp_path / "a", seed=3, movies=3, cast=5, dialogues=(5, 6))
    b = corpus_gen.generate(tmp_path / "b", seed=3, movies=3, cast=5, dialogues=(5, 6))
    assert a == b
    for name in ("lexicon.tsv", "metadata.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[:: 4096] = b"x" * len(range(0, len(ballast), 4096))
    child = run.launch(["-c", "pass"], tmp_path)
    assert child.code == 0
    assert child.rss_mb < 100, child.rss_mb
    del ballast


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
