"""cluster_cache.json: a hit reuses the k-means sweep and the Ward merge
history, a miss of any kind recomputes them, and both write the same bytes."""

import csv
import json
import math
import os
import re
import shutil
from pathlib import Path

import pytest

import emocast.clustering
import emocast.pipeline
from emocast.cli import main
from emocast.pipeline import CLUSTER_CACHE

from synth import build_planted_corpus

CLUSTER_ARTIFACTS = ("clusters.csv", "composition.csv", "ssecurve.csv")


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """The planted corpus (40 characters) after parse and score."""
    root = tmp_path_factory.mktemp("planted")
    inputs = build_planted_corpus(root / "inputs", seed=0)
    out = root / "scored"
    args = ["--scripts", inputs["scripts"], "--metadata", inputs["metadata"], "--lexicon", inputs["lexicon"]]
    for stage in ("parse", "score"):
        assert main([str(a) for a in [stage, *args, "--out", out]]) == 0
    return args, out


@pytest.fixture
def workdir(scored, tmp_path):
    """A fresh copy of the scored output directory and a CLI runner on it
    (or, with ``into``, on another directory)."""
    args, source = scored
    out = tmp_path / "out"
    shutil.copytree(source, out)

    def run(command, *extra, into=out):
        return main([str(a) for a in [command, *args, "--out", into, *extra]])

    return out, run


@pytest.fixture
def calls(monkeypatch):
    """Counts of kmeans runs and Ward merge loops (only ward_cluster runs one)."""
    counts = {"kmeans": 0, "ward_cluster": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(emocast.clustering, "kmeans")  # best_kmeans looks it up as a module global
    counted(emocast.clustering, "ward_cluster")
    counted(emocast.pipeline, "ward_cluster")
    return counts


def artifacts(out, names=CLUSTER_ARTIFACTS):
    return {name: (out / name).read_bytes() for name in names}


def without_timestamp(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines() if '"timestamp"' not in line]


def test_staged_hits_write_what_cold_runs_write(workdir, tmp_path, capsys):
    out, run = workdir
    cold = tmp_path / "cold"
    shutil.copytree(out, cold)
    for k in ("auto", "3", "auto", "12", "12"):
        assert run("cluster", "--k", k) == 0
        (cold / CLUSTER_CACHE).unlink(missing_ok=True)
        assert run("cluster", "--k", k, into=cold) == 0
        assert artifacts(out) == artifacts(cold), k
        assert (out / CLUSTER_CACHE).read_bytes() == (cold / CLUSTER_CACHE).read_bytes(), k
    assert "warning" not in capsys.readouterr().err


def test_run_all_rerun_hits_and_writes_the_same_report(workdir, tmp_path, calls):
    out, run = workdir
    assert run("run-all") == 0
    first = artifacts(out, (*CLUSTER_ARTIFACTS, "emotions.csv"))
    report = without_timestamp(out / "report.json")
    calls.update(kmeans=0, ward_cluster=0)
    assert run("run-all") == 0
    assert calls == {"kmeans": 0, "ward_cluster": 0}
    assert artifacts(out, (*CLUSTER_ARTIFACTS, "emotions.csv")) == first
    assert without_timestamp(out / "report.json") == report


def test_hit_runs_no_kmeans_and_no_ward_merges(workdir, calls):
    out, run = workdir
    assert run("cluster", "--k", "auto") == 0
    assert calls == {"kmeans": 100, "ward_cluster": 1}  # k = 1..10, 10 restarts each
    cache = (out / CLUSTER_CACHE).read_bytes()
    mtime = (out / CLUSTER_CACHE).stat().st_mtime_ns
    for k in ("auto", "3", "10"):
        assert run("cluster", "--k", k) == 0
    assert calls == {"kmeans": 100, "ward_cluster": 1}
    assert (out / CLUSTER_CACHE).read_bytes() == cache
    assert (out / CLUSTER_CACHE).stat().st_mtime_ns == mtime  # a hit does not rewrite


def test_fixed_k_above_the_characters_fails_before_clustering(workdir, calls, capsys):
    out, run = workdir
    assert run("cluster", "--k", "100") == 1
    assert re.search(r"^error in stage cluster: cluster: k=100 exceeds \d+ characters$", capsys.readouterr().err, re.M)
    assert calls == {"kmeans": 0, "ward_cluster": 0}
    assert not (out / CLUSTER_CACHE).exists()


def test_fixed_k_above_the_sweep_gets_its_own_entry(workdir, calls):
    out, run = workdir
    assert run("cluster") == 0
    assert run("cluster", "--k", "12") == 0
    assert calls == {"kmeans": 110, "ward_cluster": 1}  # only k = 12's 10 restarts added
    assert "12" in json.loads((out / CLUSTER_CACHE).read_text())["kmeans"]
    assert run("cluster", "--k", "12") == 0
    assert calls == {"kmeans": 110, "ward_cluster": 1}


def _edited(change):
    def corrupt(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc).encode()

    return corrupt


def _set_sse(doc, value):
    doc["kmeans"]["2"]["sse"] = value(doc["kmeans"]["2"]["sse"])


CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2].encode(),
    "not json": lambda text: b"not json\n",
    "not utf-8": lambda text: b"\xff" + text.encode(),
    "not an object": lambda text: b"[]",
    "wrong key": _edited(lambda doc: doc.update(key="0" * 64)),
    "wrong n": _edited(lambda doc: doc.update(n=doc["n"] + 1)),
    "missing k": _edited(lambda doc: doc["kmeans"].pop("4")),
    "label out of range": _edited(lambda doc: doc["kmeans"]["3"]["assignments"].__setitem__(5, 3)),
    "label far out of range": _edited(lambda doc: doc["kmeans"]["3"]["assignments"].__setitem__(5, 10**12)),
    "short assignments": _edited(lambda doc: doc["kmeans"]["3"]["assignments"].pop()),
    "tampered sse": _edited(lambda doc: _set_sse(doc, lambda sse: math.nextafter(sse, math.inf))),
    "sse not a float": _edited(lambda doc: _set_sse(doc, repr)),
    "ward pair missing": _edited(lambda doc: doc["ward"].pop()),
    "ward id merged twice": _edited(lambda doc: doc["ward"].__setitem__(1, doc["ward"][0])),
    "ward id not yet made": _edited(lambda doc: doc["ward"][0].__setitem__(1, doc["n"])),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_cache_is_a_miss(workdir, calls, capsys, corruption):
    out, run = workdir
    assert run("cluster", "--k", "3") == 0
    expected = artifacts(out)
    cache_path = out / CLUSTER_CACHE
    valid = cache_path.read_bytes()
    cache_path.write_bytes(CORRUPTIONS[corruption](valid.decode()))
    for name in expected:
        (out / name).unlink()
    capsys.readouterr()
    calls.update(kmeans=0, ward_cluster=0)

    assert run("cluster", "--k", "3") == 0
    assert calls == {"kmeans": 100, "ward_cluster": 1}
    assert artifacts(out) == expected
    assert cache_path.read_bytes() == valid
    warnings = [line for line in capsys.readouterr().err.splitlines() if CLUSTER_CACHE in line]
    assert len(warnings) == 1, warnings


def test_missing_cache_is_a_silent_miss(workdir, capsys):
    out, run = workdir
    capsys.readouterr()
    assert run("cluster") == 0
    assert capsys.readouterr().err == ""
    assert (out / CLUSTER_CACHE).is_file()


def test_new_seed_is_a_miss(workdir, calls):
    out, run = workdir
    assert run("cluster") == 0
    key = json.loads((out / CLUSTER_CACHE).read_text())["key"]
    assert run("cluster", "--seed", "7") == 0
    assert calls["kmeans"] == 200
    assert json.loads((out / CLUSTER_CACHE).read_text())["key"] != key


def test_changed_emotion_value_is_a_miss(workdir, calls, capsys):
    out, run = workdir
    assert run("cluster") == 0
    key = json.loads((out / CLUSTER_CACHE).read_text())["key"]
    path = out / "emotions.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][3] = repr(float(rows[1][3]) + 1e-6)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    assert run("cluster") == 0
    assert calls["kmeans"] == 200
    assert calls["ward_cluster"] == 2
    assert json.loads((out / CLUSTER_CACHE).read_text())["key"] != key
    assert "other inputs" in capsys.readouterr().err  # the key, not the sse check, missed


@pytest.mark.parametrize("module", [emocast.clustering, emocast.pipeline], ids=lambda module: module.__name__)
def test_edited_source_is_a_miss(workdir, calls, capsys, monkeypatch, tmp_path, module):
    out, run = workdir
    assert run("cluster") == 0
    expected = artifacts(out)
    edited = tmp_path / "edited.py"
    edited.write_bytes(Path(module.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(module, "__file__", str(edited))
    capsys.readouterr()
    assert run("cluster") == 0
    assert calls == {"kmeans": 200, "ward_cluster": 2}
    assert artifacts(out) == expected
    assert "other inputs" in capsys.readouterr().err


def test_touched_emotions_csv_is_a_hit(workdir, calls):
    out, run = workdir
    assert run("cluster") == 0
    future = os.stat(out / "emotions.csv").st_mtime + 60
    os.utime(out / "emotions.csv", (future, future))
    assert run("cluster") == 0
    assert calls == {"kmeans": 100, "ward_cluster": 1}


def test_cache_file_is_deterministic(workdir, tmp_path):
    out, run = workdir
    assert run("cluster") == 0
    first = (out / CLUSTER_CACHE).read_bytes()
    (out / CLUSTER_CACHE).unlink()
    assert run("cluster") == 0
    assert (out / CLUSTER_CACHE).read_bytes() == first
    doc = json.loads(first)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == first.decode()
    assert sorted(doc) == ["key", "kmeans", "n", "ward"]
