"""scripts/bench.py at tiny sizes: every kernel entry runs, agrees with its
reference and writes the keys of the BENCH file it first produced."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import bench  # noqa: E402

# kernel -> (the BENCH file its script first wrote, tiny sizes)
TINY = {
    "kmeans": ("BENCH_8.json", (40,)),
    "tsne": ("BENCH_6.json", (30,)),
    "ward": ("BENCH_5.json", (40,)),
    "text": ("BENCH_10.json", (0.15,)),
}
# kernel -> keys its historical file holds that a new report no longer writes.
# rows_refreshed counted the rows the bounded loop did not certify; since the
# loop has one bound test that is the same count as rows_all_centres.
RETIRED_KEYS = {"kmeans": {"rows_refreshed"}}


def run_main(monkeypatch, tmp_path, name, **entry):
    monkeypatch.setitem(bench.KERNELS, name, replace(bench.KERNELS[name], **entry))
    out = tmp_path / f"{name}.json"
    code = bench.main([name, "--out", str(out), "--repeats", "1"])
    return code, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_report_reads_like_the_historical_file(name, tmp_path, monkeypatch):
    historical_file, sizes = TINY[name]
    code, report = run_main(monkeypatch, tmp_path, name, sizes=sizes)
    historical = json.loads((REPO_ROOT / historical_file).read_text(encoding="utf-8"))
    retired = RETIRED_KEYS.get(name, set())
    assert code == 0
    assert historical.keys() - retired <= report.keys()
    assert historical["machine"].keys() | {"blas", "blas_config", "blas_threads", "src_lines"} <= (
        report["machine"].keys()
    )
    row_keys = set().union(*historical["rows"]) - retired
    assert report["rows"]
    for row in report["rows"]:
        assert row_keys <= row.keys()
        assert row["identical"] is True


def test_exit_code_marks_a_differing_row(tmp_path, monkeypatch):
    def cases(n):
        yield bench.Case({"n": n}, lambda: [1.0, 2.0], lambda: [1.0, 2.5])

    code, report = run_main(monkeypatch, tmp_path, "ward", sizes=(3,), cases=cases)
    assert code == 1
    assert report["rows"][0]["identical"] is False


def test_ward_rows_past_the_dense_limit_have_no_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "DENSE_MAX_N", 30)
    code, report = run_main(monkeypatch, tmp_path, "ward", sizes=(20, 40))
    assert code == 0
    first, second = report["rows"]
    assert first["identical"] is True and "dense_cpu_s" in first
    assert "identical" not in second and "dense_cpu_s" not in second
    # scipy's independent Ward linkage checks every row, past the dense limit too
    assert first["scipy_agrees"] is True and second["scipy_agrees"] is True


def test_scipy_check_catches_a_wrong_history(tmp_path, monkeypatch):
    package = bench.clustering.ward_cluster

    def off_by_one_cost(points):
        pairs, costs = package(points)
        costs[-1] *= 1 + 1e-9
        return pairs, costs

    monkeypatch.setattr(bench, "DENSE_MAX_N", 0)
    monkeypatch.setattr(bench.clustering, "ward_cluster", off_by_one_cost)
    code, report = run_main(monkeypatch, tmp_path, "ward", sizes=(20,))
    assert code == 1
    assert report["rows"][0]["scipy_agrees"] is False


def test_scipy_check_compares_partitions():
    pts = bench.points(30)
    pairs, costs = bench.clustering.ward_cluster(pts)
    merges = bench.oracles.merge_tuples(pairs, costs)
    assignments = bench.clustering.ward_cut(pairs, bench.CENTRES)
    assert bench.scipy_ward_agrees(pts, merges, assignments)
    renamed = [1 - label if label < 2 else label for label in assignments]
    assert bench.scipy_ward_agrees(pts, merges, renamed)  # the same partition
    moved = [*assignments[:-1], (assignments[-1] + 1) % bench.CENTRES]
    assert not bench.scipy_ward_agrees(pts, merges, moved)
