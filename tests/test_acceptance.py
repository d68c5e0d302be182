"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they stream; timings are asserted where a budget applies.
"""

import csv
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from emocast.cli import main as cli_main
from emocast.clustering import elbow_detect, kmeans, sse_curve, ward_cluster
from emocast.corpus import CharacterRecord, Corpus, Gender
from emocast.emotion import DYADS, EMOTION_COLUMNS, PRIMARY_EMOTIONS, emotion_values, primary_shares
from emocast.lexical import text_pass
from emocast.stats import mann_whitney_u
from emocast.tsne import (
    TsneConfig,
    _gradient,
    _student_t_kernel,
    joint_probabilities,
    pairwise_sq_distances,
    perplexity_calibration,
    tsne,
)

from oracles import (
    kl_divergence_reference,
    kmeans_optimal_sse,
    merge_tuples,
    mwu_brute,
    silhouette,
    ward_naive,
)
from synth import build_planted_corpus

# Recorded before the build from the direct formula: u1 = 0, mu = 4.5,
# sigma = sqrt(5.25), z = -4/sigma, p = erfc(|z|/sqrt(2)).
REFERENCE_P = 0.0808555983700523


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def test_01_mann_whitney_oracle_equivalence():
    with criterion(1, "U1/U2 match brute-force counting on 1000 random instances, < 5 s"):
        rng = np.random.default_rng(20240501)
        started = time.perf_counter()
        for i in range(1000):
            n1 = int(rng.integers(1, 51))
            n2 = int(rng.integers(1, 51))
            if i % 2 == 0:  # tie-heavy integer draws
                a = rng.integers(0, 8, n1).astype(float)
                b = rng.integers(0, 8, n2).astype(float)
            else:
                a = rng.normal(size=n1)
                b = rng.normal(size=n2)
            ref_u1, ref_u2 = mwu_brute(a.tolist(), b.tolist())
            pooled = np.concatenate([a, b])
            if np.all(pooled == pooled[0]):
                continue
            res = mann_whitney_u(a, b)
            assert res.u1 == ref_u1
            assert res.u2 == ref_u2
            assert res.u1 + res.u2 == n1 * n2
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_02_mann_whitney_reference_values():
    with criterion(2, "a=[1,2,3] b=[4,5,6] gives U1=0, U2=9, p within 1e-6 of the recorded value"):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.u1 == 0.0
        assert res.u2 == 9.0
        assert abs(res.p_value - REFERENCE_P) < 1e-6


def test_03_emotion_embedding_fixture(fixture_lexicon):
    with criterion(3, "200-dialogue fixture: unit-sum primaries, exact dyad identity, envy rule"):
        assert len(fixture_lexicon) == 50
        words = sorted(fixture_lexicon.entries) + ["filler", "asphalt", "penguin", "quiet"]
        rnd = random.Random(7)
        dialogues = [
            " ".join(rnd.choice(words) for _ in range(rnd.randint(1, 12))) for _ in range(200)
        ]
        speaker = CharacterRecord(
            name="X", movie="m", year=2000, gender=Gender.FEMALE, dialogues=tuple(dialogues)
        )
        counts = text_pass(Corpus(records=[speaker], provenance={}), fixture_lexicon, set()).counts
        rows = emotion_values(primary_shares(counts))
        assert rows.shape == (200, 32)
        col = {name: j for j, name in enumerate(EMOTION_COLUMNS)}
        primaries = rows[:, [col[name] for name in PRIMARY_EMOTIONS]]
        hit = counts.sum(axis=1) > 0
        assert np.all(np.abs(primaries[hit].sum(axis=1) - 1.0) < 1e-9)
        assert not rows[~hit].any()
        for name, (a, b) in DYADS.items():
            assert np.array_equal(rows[:, col[name]], (rows[:, col[a]] + rows[:, col[b]]) / 2)
        assert np.array_equal(rows[:, col["envy"]], (rows[:, col["sadness"]] + rows[:, col["anger"]]) / 2)
        assert hit.sum() > 150  # the fixture is lexicon-dense by construction


def test_04_dyad_table_structure():
    with criterion(4, "24 dyads, each primary in exactly 6, names match the 32-column list"):
        assert len(DYADS) == 24
        from collections import Counter

        participation = Counter(p for pair in DYADS.values() for p in pair)
        assert participation == {p: 6 for p in PRIMARY_EMOTIONS}
        assert len({frozenset(pair) for pair in DYADS.values()}) == 24
        assert set(EMOTION_COLUMNS) == set(PRIMARY_EMOTIONS) | set(DYADS)
        assert len(EMOTION_COLUMNS) == 32


def test_05_parser_golden(fixtures_dir, tmp_path):
    with criterion(5, "fixture scripts (text + positional) parse byte-identical to golden, < 1 s"):
        out = tmp_path / "golden_run"
        started = time.perf_counter()
        code = cli_main(
            [
                "parse",
                "--scripts", str(fixtures_dir / "scripts"),
                "--metadata", str(fixtures_dir / "metadata.csv"),
                "--lexicon", str(fixtures_dir / "lexicon.tsv"),
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        produced = (out / "characters.json").read_bytes()
        golden = (fixtures_dir / "golden" / "characters.json").read_bytes()
        assert produced == golden
        data = json.loads(produced)
        names = {name for movie in data.values() for name in movie}
        assert "JONAS" in names and "ELENA" in names  # (V.O.)/(O.S.) cues folded in
        assert not any("(" in name for name in names)
        assert "DOCKHAND" not in names  # under five dialogues, filtered
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_06_ward_oracle_equivalence():
    with criterion(6, "200 random instances (n <= 20): merge sequences match naive SSE search, < 30 s"):
        rng = np.random.default_rng(77)
        started = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 21))
            dim = int(rng.integers(1, 5))
            pts = rng.normal(size=(n, dim))
            expected = ward_naive(pts)
            got = merge_tuples(*ward_cluster(pts))
            assert [(a, b, s) for a, b, _, s in got] == [(a, b, s) for a, b, _, s in expected]
            for (_, _, cost, _), (_, _, ref, _) in zip(got, expected):
                assert abs(cost - ref) <= 1e-9
            costs = [cost for _, _, cost, _ in got]
            assert all(later >= earlier - 1e-12 for earlier, later in zip(costs, costs[1:]))
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_07_kmeans_monotone_and_optimal_fixture():
    with criterion(7, "Lloyd SSE never increases (asserted in-loop); 4-point fixture hits optimum 1.0"):
        # the implementation asserts monotone SSE on every iteration; drive
        # it across a spread of instances so the assertion gets exercised
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, min(n, 8) + 1))
            kmeans(rng.normal(size=(n, 3)), k=k, seed=int(rng.integers(1 << 31)))
        fixture = [[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]
        res = kmeans(fixture, k=2, seed=42)
        assert res.sse == pytest.approx(1.0, abs=1e-12)
        assert res.sse == pytest.approx(kmeans_optimal_sse(np.asarray(fixture), 2), abs=1e-12)


def test_08_elbow_detection():
    with criterion(8, "elbow picks k=3 on the reference curve and on 3-blob data for >= 9/10 seeds"):
        curve = list(zip(range(1, 7), [100.0, 60.0, 30.0, 28.0, 27.0, 26.0]))
        assert elbow_detect(curve) == 3
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(9000 + seed)
            centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
            pts = np.vstack([c + rng.normal(0.0, 0.1, size=(30, 2)) for c in centers])
            curve = [(k, best.sse) for k, best in sse_curve(pts, 8, seed=seed).items()]
            hits += elbow_detect(curve) == 3
        assert hits >= 9, f"only {hits}/10 seeds found k=3"


def test_09_tsne_checks():
    with criterion(9, "gradient matches finite differences, entropies hit target, blobs separate, < 60 s"):
        started = time.perf_counter()
        rng = np.random.default_rng(5)
        # analytic vs central-difference gradient on random instances
        for _ in range(3):
            pts = rng.normal(size=(10, 6))
            P = joint_probabilities(pts, perplexity=3.0)
            Y = rng.normal(size=(10, 2))
            grad = _gradient(P, Y, *_student_t_kernel(Y))
            h = 1e-5
            numeric = np.zeros_like(Y)
            for i in range(10):
                for j in range(2):
                    up, down = Y.copy(), Y.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    numeric[i, j] = (
                        kl_divergence_reference(P, up) - kl_divergence_reference(P, down)
                    ) / (2 * h)
            rel = np.linalg.norm(grad - numeric) / max(
                np.linalg.norm(grad), np.linalg.norm(numeric)
            )
            assert rel < 1e-4
        # calibrated row entropies
        pts = rng.normal(size=(50, 12))
        perplexity = 12.0
        P = perplexity_calibration(pairwise_sq_distances(pts), perplexity)
        target = math.log2(perplexity)
        for row in P:
            nz = row[row > 0]
            assert abs(-(nz * np.log2(nz)).sum() - target) <= 1e-5
        # two well-separated blobs stay separated in 2-D
        blob_rng = np.random.default_rng(1)
        a = blob_rng.normal(0.0, 0.5, size=(10, 32))
        b = blob_rng.normal(0.0, 0.5, size=(10, 32))
        b[:, 0] += 25.0
        emb = tsne(np.vstack([a, b]), TsneConfig(seed=0))
        labels = [0] * 10 + [1] * 10
        assert silhouette(emb.coords, labels) > 0.5
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_10_planted_bias_end_to_end(tmp_path):
    with criterion(10, "planted 3:1 corpus: joy/anger significant with correct direction, "
                       "skewed cluster found, noun lists disjoint, < 2 min"):
        started = time.perf_counter()
        inputs = build_planted_corpus(tmp_path / "inputs", seed=0)
        out = tmp_path / "out"
        code = cli_main(
            [
                "run-all",
                "--scripts", str(inputs["scripts"]),
                "--metadata", str(inputs["metadata"]),
                "--lexicon", str(inputs["lexicon"]),
                "--out", str(out),
            ]
        )
        assert code == 0

        corpus = json.loads((out / "corpus.json").read_text())
        genders = [rec["gender"] for rec in corpus["records"]]
        assert genders.count("female") == 10 and genders.count("male") == 30

        stats_rows = {row["emotion"]: row for row in _read_csv(out / "stats.csv")}
        joy, anger = stats_rows["joy"], stats_rows["anger"]
        assert float(joy["p_value"]) < 0.01 and joy["higher_group"] == "female"
        assert float(anger["p_value"]) < 0.01 and anger["higher_group"] == "male"

        skewed = False
        for row in _read_csv(out / "composition.csv"):
            female, male = int(row["female"]), int(row["male"])
            if female + male == 0:
                continue
            ratio = math.inf if female == 0 else male / female
            factor = math.inf if ratio in (0.0, math.inf) else max(ratio / 3.0, 3.0 / ratio)
            if factor >= 2.0:
                skewed = True
        assert skewed, "no cluster deviated from 3:1 by a factor of 2"

        words = _read_csv(out / "wordfreq.csv")
        female_words = {row["word"] for row in words if row["group"] == "female"}
        male_words = {row["word"] for row in words if row["group"] == "male"}
        assert female_words and male_words
        assert not female_words & male_words

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_11_run_all_determinism(fixtures_dir, tmp_path):
    with criterion(11, "two run-all invocations with seed 42 produce byte-identical CSV artifacts"):
        outputs = []
        for label in ("first", "second"):
            out = tmp_path / label
            code = cli_main(
                [
                    "run-all",
                    "--scripts", str(fixtures_dir / "scripts"),
                    "--metadata", str(fixtures_dir / "metadata.csv"),
                    "--lexicon", str(fixtures_dir / "lexicon.tsv"),
                    "--out", str(out),
                    "--seed", "42",
                ]
            )
            assert code == 0
            outputs.append(out)
        first, second = outputs
        csv_names = sorted(p.name for p in first.glob("*.csv"))
        assert csv_names  # sanity: the run produced CSV artifacts
        for name in csv_names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        for name in ("characters.json", "corpus.json", "tsne.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
