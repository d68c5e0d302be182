"""Artifact bytes against the golden files, atomic replacement, and the scripts."""

import codecs
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from emocast.cli import main

from synth import build_planted_corpus

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDEN = FIXTURES / "golden"
GOLDEN_CSVS = (
    "emotions.csv", "stats.csv", "timebins.csv", "clusters.csv",
    "composition.csv", "ssecurve.csv", "tsne.csv", "wordfreq.csv",
)
sys.path.insert(0, str(REPO / "emobench"))

import corpus_gen  # noqa: E402


def run_fixture(command, out, *extra):
    return main([
        command,
        "--scripts", str(FIXTURES / "scripts"),
        "--metadata", str(FIXTURES / "metadata.csv"),
        "--lexicon", str(FIXTURES / "lexicon.tsv"),
        "--out", str(out),
        *extra,
    ])


def subprocess_env(blas_threads=None):
    """os.environ with src on PYTHONPATH and OPENBLAS_NUM_THREADS set to
    ``blas_threads``, or unset for None. Importing emocast here has already
    pinned this process's copy, so an unset variable is removed, not kept."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def run_all_in_subprocess(inputs, out, blas_threads=None, args=None):
    """``run-all`` in a fresh process, which imports numpy after emocast as
    the console script does: the pin cannot act in this process, where numpy
    is already loaded. ``args`` replaces the flags naming inputs and out."""
    if args is None:
        args = [
            "--scripts", str(inputs / "scripts"),
            "--metadata", str(inputs / "metadata.csv"),
            "--lexicon", str(inputs / "lexicon.tsv"),
            "--out", str(out),
        ]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from emocast.cli import main; sys.exit(main())", "run-all", *args],
        capture_output=True, text=True, env=subprocess_env(blas_threads), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def report_without_timestamp(out):
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["run"]["timestamp"]
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def test_run_all_matches_golden_files(tmp_path):
    run_all_in_subprocess(FIXTURES, tmp_path)
    for name in GOLDEN_CSVS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert report_without_timestamp(tmp_path) == (GOLDEN / "report.json").read_text(encoding="utf-8")


def test_leading_byte_order_marks_are_not_content(tmp_path):
    inputs = tmp_path / "inputs"
    shutil.copytree(FIXTURES, inputs, ignore=shutil.ignore_patterns("golden"))
    for name in ("metadata.csv", "lexicon.tsv", "scripts/harbor_lights.txt", "scripts/glass_orchard.jsonl"):
        path = inputs / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    out = tmp_path / "out"
    config = tmp_path / "run.conf"
    config.write_bytes(codecs.BOM_UTF8 + "".join(
        f"{key} = {path}\n"
        for key, path in (("scripts", inputs / "scripts"), ("metadata", inputs / "metadata.csv"),
                          ("lexicon", inputs / "lexicon.tsv"), ("out", out))
    ).encode("utf-8"))
    run_all_in_subprocess(inputs, out, args=["--config", str(config)])
    for name in GOLDEN_CSVS:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert report_without_timestamp(out) == (GOLDEN / "report.json").read_text(encoding="utf-8")


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 300 characters: enough for OpenBLAS to split the t-SNE products across threads
    inputs = tmp_path / "inputs"
    truth = corpus_gen.generate(inputs, seed=1, movies=30, cast=10, dialogues=(5, 6))
    assert truth["summary"]["characters"] >= 300
    runs = {}
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads-{threads}"
        run_all_in_subprocess(inputs, out, threads)
        runs[threads] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs[threads]["report.json"] = report_without_timestamp(out).encode()
    assert "tsne.csv" in runs[None]
    for name in runs[None]:
        assert runs[None][name] == runs["1"][name] == runs["2"][name], name


def test_blas_is_pinned_when_a_layer_module_is_imported_first():
    # emobench's tracer imports emocast.emotion before the CLI; the pin must hold there too
    code = "import emocast.emotion, numpy; from bench import openblas_threads; print(openblas_threads())"
    env = subprocess_env("2")
    env["PYTHONPATH"] += os.pathsep + str(REPO / "scripts")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


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
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "characters.json", "corpus.json", "emotions.csv", "manifest.json", "stats.csv", "timebins.csv", "wordfreq.csv"
    ]


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("run_fixture.py", ["{out}"], r"^chosen k: 2 \(auto: True\)$"),
        ("planted_bias_experiment.py", ["--out", "{out}"], r"^  joy +p=\S+ higher=female +\[ok\]$"),
    ],
)
def test_script_runs(tmp_path, script, args, expected):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *(arg.format(out=tmp_path) for arg in args)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(expected, proc.stdout, re.MULTILINE), proc.stdout
