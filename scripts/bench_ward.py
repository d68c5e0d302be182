#!/usr/bin/env python3
"""Scaling curve of Ward clustering: CPU time and traced peak memory.

Times ``emocast.clustering.ward_cluster`` against the dense kernel it
replaced (``ward_dense_reference`` in tests/oracles.py) on emotion-like
points in [0, 1]^32: noisy copies of six random centres, cut at k = 6.
The dense kernel holds a (2n-1)^2 cost matrix plus an n x n x 32
difference tensor, so it runs only up to n = 1500 here; the slot-matrix
kernel also runs at 3000 and 5000. Where both run, the merge histories
and assignments are compared for equality.

CPU time is the median of ``--repeats`` runs of ``time.process_time``
with tracing off; the peak comes from one more run under ``tracemalloc``
(numpy reports its buffers to it).

Usage: PYTHONPATH=src python scripts/bench_ward.py [--out BENCH_5.json] [--repeats 3]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))  # the dense kernel lives with the oracles

from oracles import ward_dense_reference  # noqa: E402

from emocast.clustering import ward_cluster  # noqa: E402

DIM = 32
K = 6
DENSE_SIZES = (500, 1000, 1500)
SLOT_SIZES = (500, 1000, 1500, 3000, 5000)


def points(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    centres = rng.random(size=(K, DIM))
    noisy = centres[rng.integers(K, size=n)] + rng.normal(0.0, 0.05, size=(n, DIM))
    return np.clip(noisy, 0.0, 1.0)


def slot_kernel(pts):
    dendrogram, assignments = ward_cluster(pts, K)
    return [(m.id_a, m.id_b, m.cost, m.new_size) for m in dendrogram.merges], assignments


def dense_kernel(pts):
    return ward_dense_reference(pts, K)


def measure(kernel, pts, repeats: int):
    times = []
    for _ in range(repeats):
        start = time.process_time()
        result = kernel(pts)
        times.append(time.process_time() - start)
    tracemalloc.start()
    try:
        kernel(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_5.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rows = []
    for n in SLOT_SIZES:
        pts = points(n)
        cpu_s, peak, slot_result = measure(slot_kernel, pts, args.repeats)
        row = {"n": n, "slot_cpu_s": round(cpu_s, 4), "slot_peak_mb": round(peak / 1e6, 2)}
        if n in DENSE_SIZES:
            cpu_s, peak, dense_result = measure(dense_kernel, pts, args.repeats)
            row.update(
                dense_cpu_s=round(cpu_s, 4),
                dense_peak_mb=round(peak / 1e6, 2),
                identical=slot_result == dense_result,
            )
        rows.append(row)
        print(json.dumps(row), flush=True)

    report = {
        "kernel": "emocast.clustering.ward_cluster",
        "baseline": "tests/oracles.py ward_dense_reference (the dense kernel it replaced)",
        "input": f"n points in [0,1]^{DIM}, noisy copies of {K} random centres, seed n, k={K}",
        "cpu_s": f"median of {args.repeats} runs of time.process_time, tracing off",
        "peak_mb": "tracemalloc peak of one further run, 1e6 bytes",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
