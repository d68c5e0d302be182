#!/usr/bin/env python3
"""Scaling curve of the exact t-SNE descent: CPU time and traced peak memory.

Times ``emocast.tsne.tsne`` against the descent it replaced
(``tsne_reference`` in tests/oracles.py) on emotion-like points in
[0, 1]^32: noisy copies of six random centres, with the pipeline's default
``TsneConfig`` (1000 iterations, perplexity 30, seed 42). The reference
builds the n x n Student-t kernel twice per iteration after exaggeration
and allocates fresh n x n temporaries for every gradient and objective; the
package builds one kernel per new position into buffers it allocates once.
At every size the coordinates and KL traces of the two are compared for
equality.

CPU time is the median of ``--repeats`` runs of ``time.process_time``
with tracing off; the peak comes from one more run under ``tracemalloc``
(numpy reports its buffers to it). Both include the perplexity
calibration, which the two share.

Usage: PYTHONPATH=src python scripts/bench_tsne.py [--out BENCH_6.json] [--repeats 1]
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
sys.path.insert(0, str(REPO / "tests"))  # the first descent lives with the oracles

from oracles import tsne_reference  # noqa: E402

from emocast.tsne import TsneConfig, tsne  # noqa: E402

DIM = 32
CENTRES = 6
SIZES = (300, 1000, 2000)
CONFIG = TsneConfig()


def points(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    centres = rng.random(size=(CENTRES, DIM))
    noisy = centres[rng.integers(CENTRES, size=n)] + rng.normal(0.0, 0.05, size=(n, DIM))
    return np.clip(noisy, 0.0, 1.0)


def package_descent(pts):
    return tsne(pts, CONFIG)


def reference_descent(pts):
    embedding, _rejections = tsne_reference(pts, CONFIG)
    return embedding


def measure(descent, pts, repeats: int):
    times = []
    for _ in range(repeats):
        start = time.process_time()
        result = descent(pts)
        times.append(time.process_time() - start)
    tracemalloc.start()
    try:
        descent(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_6.json")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args()

    rows = []
    for n in SIZES:
        pts = points(n)
        cpu_s, peak, ours = measure(package_descent, pts, args.repeats)
        row = {"n": n, "cpu_s": round(cpu_s, 3), "peak_mb": round(peak / 1e6, 2)}
        cpu_s, peak, reference = measure(reference_descent, pts, args.repeats)
        row.update(
            reference_cpu_s=round(cpu_s, 3),
            reference_peak_mb=round(peak / 1e6, 2),
            identical=bool(np.array_equal(ours.coords, reference.coords))
            and ours.kl_trace == reference.kl_trace,
        )
        if not row["identical"]:
            print(f"n={n}: the descent differs from the reference", file=sys.stderr)
        rows.append(row)
        print(json.dumps(row), flush=True)

    report = {
        "kernel": "emocast.tsne.tsne",
        "baseline": "tests/oracles.py tsne_reference (the descent it replaced)",
        "input": f"n points in [0,1]^{DIM}, noisy copies of {CENTRES} random centres, seed n",
        "config": "TsneConfig() defaults: 1000 iterations, perplexity 30, seed 42",
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
    return 0 if all(row["identical"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
