"""Artifact bytes against the golden files, atomic replacement, and the scripts."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from emocast.cli import main

from synth import build_planted_corpus

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDEN = FIXTURES / "golden"
# tsne.csv and tsne.svg are left out: the t-SNE matrix products go through
# BLAS, whose last bits may differ from one machine to another.
GOLDEN_CSVS = (
    "emotions.csv", "stats.csv", "timebins.csv", "clusters.csv",
    "composition.csv", "ssecurve.csv", "wordfreq.csv",
)


def run_fixture(command, out, *extra):
    return main([
        command,
        "--scripts", str(FIXTURES / "scripts"),
        "--metadata", str(FIXTURES / "metadata.csv"),
        "--lexicon", str(FIXTURES / "lexicon.tsv"),
        "--out", str(out),
        *extra,
    ])


def test_run_all_matches_golden_files(tmp_path):
    assert run_fixture("run-all", tmp_path) == 0
    for name in GOLDEN_CSVS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    del report["projection"], report["run"]["timestamp"]
    golden = (GOLDEN / "report.json").read_text(encoding="utf-8")
    assert json.dumps(report, indent=2, ensure_ascii=True) + "\n" == golden


def _cell(value):
    """A report.json value as its CSV cell."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def test_report_holds_the_csv_records(tmp_path):
    # the planted corpus has a cluster without females, so a ratio is inf
    inputs = build_planted_corpus(tmp_path / "inputs", seed=0)
    out = tmp_path / "out"
    assert main([
        "run-all",
        "--scripts", str(inputs["scripts"]),
        "--metadata", str(inputs["metadata"]),
        "--lexicon", str(inputs["lexicon"]),
        "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    clusters = report["clusters"]
    composition = [
        {"method": method, **row} for method, rows in clusters["composition"].items() for row in rows
    ]
    assert "inf" in [row["ratio"] for row in composition]
    renamed = {"kmeans": "kmeans_cluster", "ward": "ward_cluster"}
    for name, records in (
        ("stats.csv", report["tests"]),
        ("timebins.csv", report["timebins"]),
        ("clusters.csv", [{renamed.get(k, k): v for k, v in row.items()} for row in clusters["assignments"]]),
        ("composition.csv", composition),
        ("ssecurve.csv", clusters["sse_curve"]),
        ("tsne.csv", report["projection"]),
    ):
        with (out / name).open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(records[0]), name
        assert rows == [[_cell(value) for value in record.values()] for record in records], name


def test_failed_replace_keeps_the_earlier_artifact(tmp_path, monkeypatch):
    assert run_fixture("parse", tmp_path) == 0
    assert run_fixture("score", tmp_path) == 0
    earlier = (tmp_path / "emotions.csv").read_bytes()
    # one more character in corpus.json, so a score that completed would change emotions.csv
    assert run_fixture("parse", tmp_path, "--min-dialogues", "1") == 0

    def fail(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", fail)
    assert run_fixture("score", tmp_path, "--min-dialogues", "1") == 1
    monkeypatch.undo()
    assert (tmp_path / "emotions.csv").read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["characters.json", "corpus.json", "emotions.csv", "manifest.json"]


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("run_fixture.py", ["{out}"], r"^chosen k: 2 \(auto: True\)$"),
        ("planted_bias_experiment.py", ["--out", "{out}"], r"^  joy +p=\S+ higher=female +\[ok\]$"),
    ],
)
def test_script_runs(tmp_path, script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *(arg.format(out=tmp_path) for arg in args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(expected, proc.stdout, re.MULTILINE), proc.stdout
