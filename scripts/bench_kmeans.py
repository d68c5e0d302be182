#!/usr/bin/env python3
"""Scaling curve of the k-means sweep: CPU time, page faults and work done.

Runs ``emocast.clustering.sse_curve`` for k = 1..10 with 10 restarts each
(100 ``kmeans`` calls, as ``stage_cluster`` does) twice per size: once with
the package's bounded Lloyd loop and once with the loop it replaced
(``kmeans_reference`` in tests/oracles.py) swapped in for ``kmeans``. The
points are emotion-like, in [0, 1]^32: noisy copies of six random centres.
At every size the best result per k (assignments, centroids, SSE and
iteration count) of the two sweeps is compared for equality.

Per sweep the script records CPU time (``time.process_time``), minor page
faults (``ru_minflt`` of this process), Lloyd iterations, and the rows
measured against every centre. The replaced loop measures all n rows on
every iteration; the bounded loop measures only the rows its bounds leave
uncertified, and also counts the rows whose own-centre distance it
refreshed. CPU time and faults are medians of ``--repeats`` sweeps.

Usage: PYTHONPATH=src python scripts/bench_kmeans.py [--out BENCH_8.json] [--repeats 1]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))  # the replaced loop lives with the oracles

from oracles import kmeans_reference  # noqa: E402

import emocast.clustering as clustering  # noqa: E402

DIM = 32
CENTRES = 6
SIZES = (300, 1000, 3000, 5000)
K_MAX = 10
SEED = 42
PACKAGE_KMEANS = clustering.kmeans
PACKAGE_NEAREST = clustering._nearest_centres


def points(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    centres = rng.random(size=(CENTRES, DIM))
    noisy = centres[rng.integers(CENTRES, size=n)] + rng.normal(0.0, 0.05, size=(n, DIM))
    return np.clip(noisy, 0.0, 1.0)


def sweep(pts: np.ndarray, reference: bool):
    """One sse_curve; returns (cpu_s, minor faults, best per k, work counters)."""
    work = {"iterations": 0, "rows_all_centres": 0, "rows_refreshed": 0}

    def reference_kmeans(points, k, seed):
        result, _repairs = kmeans_reference(points, k, seed)
        work["iterations"] += result.iterations
        work["rows_all_centres"] += result.iterations * len(points)
        return result

    def package_kmeans(points, k, seed):
        result = PACKAGE_KMEANS(points, k, seed)
        work["iterations"] += result.iterations
        return result

    def counted_nearest(*args):
        refreshed, full = PACKAGE_NEAREST(*args)
        work["rows_refreshed"] += refreshed
        work["rows_all_centres"] += full
        return refreshed, full

    clustering.kmeans = reference_kmeans if reference else package_kmeans
    clustering._nearest_centres = counted_nearest
    best: dict = {}
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.process_time()
        clustering.sse_curve(pts, 1, K_MAX, SEED, results=best)
        cpu_s = time.process_time() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        clustering.kmeans = PACKAGE_KMEANS
        clustering._nearest_centres = PACKAGE_NEAREST
    return cpu_s, faults, best, work


def measure(pts: np.ndarray, reference: bool, repeats: int):
    runs = [sweep(pts, reference) for _ in range(repeats)]
    _, _, best, work = runs[-1]
    return (
        statistics.median(r[0] for r in runs),
        statistics.median(r[1] for r in runs),
        best,
        work,
    )


def same(a: dict, b: dict) -> bool:
    return sorted(a) == sorted(b) and all(
        a[k].assignments == b[k].assignments
        and np.array_equal(a[k].centroids, b[k].centroids)
        and a[k].sse == b[k].sse
        and a[k].iterations == b[k].iterations
        for k in a
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_8.json")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args()

    rows = []
    for n in SIZES:
        pts = points(n)
        cpu_s, faults, ours, work = measure(pts, False, args.repeats)
        row = {"n": n, "cpu_s": round(cpu_s, 3), "minflt": faults, **work}
        cpu_s, faults, reference, work = measure(pts, True, args.repeats)
        row.update(
            reference_cpu_s=round(cpu_s, 3),
            reference_minflt=faults,
            reference_iterations=work["iterations"],
            reference_rows_all_centres=work["rows_all_centres"],
            identical=same(ours, reference),
        )
        if not row["identical"]:
            print(f"n={n}: the sweep differs from the reference", file=sys.stderr)
        rows.append(row)
        print(json.dumps(row), flush=True)

    report = {
        "kernel": "emocast.clustering.sse_curve (k = 1..10, 10 restarts: 100 kmeans calls)",
        "baseline": "tests/oracles.py kmeans_reference (the Lloyd loop it replaced)",
        "input": f"n points in [0,1]^{DIM}, noisy copies of {CENTRES} random centres, seed n; sweep seed {SEED}",
        "cpu_s": f"median of {args.repeats} sweeps of time.process_time",
        "minflt": "minor page faults of this process during the sweep (ru_minflt), same median",
        "rows_all_centres": "rows whose squared distances to every centre were computed",
        "rows_refreshed": "rows whose own-centre distance the bounded loop recomputed",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if all(row["identical"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
