#!/usr/bin/env python3
"""Scaling curves of the package's numeric kernels against the code they replaced.

Each kernel in ``KERNELS`` is timed at a few sizes twice: once with the
package's code and once with the code it replaced, kept as a reference in
tests/oracles.py. Every row records the median CPU time
(``time.process_time``) of ``--repeats`` runs of each side and whether the
two returned equal values; some kernels add a ``tracemalloc`` peak from one
further run, or per-row work counters.

* ``kmeans``: ``clustering.sse_curve`` for k = 1..10 with 10 restarts each
  (100 ``kmeans`` calls, as ``stage_cluster`` does) against the same sweep
  with ``kmeans_reference`` swapped in. It counts minor page faults, Lloyd
  iterations and the rows measured against every centre.
* ``tsne``: ``tsne.tsne`` with the default ``TsneConfig`` against
  ``tsne_reference``, with peak memory.
* ``ward``: ``clustering.ward_cluster``, cut at k = 6 by ``ward_cut``, against
  ``ward_dense_reference``, with peak memory. The dense kernel holds a
  (2n-1)^2 cost matrix plus an n x n x 32 difference tensor, so it runs
  only up to n = 1500. At every n the history is also checked against
  ``scipy.cluster.hierarchy.linkage(method="ward")``, code that shares
  nothing with ours: the same partition at k = 6, and each merge cost
  equal to ``height**2 / 2`` within 1e-12 relative once both are sorted
  (``scipy_agrees``).
* ``text``: ``parse_script`` (.txt and .jsonl), ``load_lexicon`` and
  ``text_pass`` against their per-block and per-row references, on the
  benchmark's ``long-scripts`` corpus (``emobench/corpus_gen.py``) at 1x,
  3x and 10x the movie count, with the lexicon rows cycled to the same
  scale.

The first three run on emotion-like points in [0, 1]^32: noisy copies of
six random centres, seeded by n. The package is imported before numpy, so
every kernel runs on the one BLAS thread the pipeline runs on. The report
also records the machine, including the BLAS library and its live thread
count, which decide both the bits of BLAS products and how much CPU time
they take.

Usage: PYTHONPATH=src python scripts/bench.py {kmeans,tsne,ward,text} [--out PATH] [--repeats N]

Exits 1 when any row's two sides differ or a row fails its own check.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from itertools import cycle, islice
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import emocast  # noqa: F401  # before numpy: it pins BLAS to the pipeline's one thread

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))  # the replaced code lives with the oracles
sys.path.insert(0, str(REPO / "emobench"))  # the benchmark's corpus generator

import corpus_gen  # noqa: E402
import oracles  # noqa: E402

import emocast.clustering as clustering  # noqa: E402
from emocast.corpus import assemble_corpus, ingest_metadata  # noqa: E402
from emocast.emotion import load_lexicon  # noqa: E402
from emocast.lexical import default_stopwords, text_pass  # noqa: E402
from emocast.screenplay import filter_min_dialogues, parse_script  # noqa: E402
from emocast.tsne import TsneConfig, tsne  # noqa: E402

DIM = 32
CENTRES = 6
K_MAX = 10
KMEANS_SEED = 42
DENSE_MAX_N = 1500
TSNE_CONFIG = TsneConfig()
TEXT_SEED = 7
TEXT_CORPUS = {"movies": 20, "cast": 6, "dialogues": (150, 250)}  # emobench's long-scripts


class Counted(NamedTuple):
    """A call's value together with work counters to report beside its time."""

    value: Any
    counters: dict


class Case(NamedTuple):
    """One row: its leading fields, the package call, the reference call (or
    None) and a check of the package's value giving boolean row fields."""

    head: dict
    package: Callable[[], Any]
    reference: Callable[[], Any] | None
    check: Callable[[Any], dict[str, bool]] | None = None


CHECK_FIELDS = ("identical", "scipy_agrees")  # a row with any of these false fails the run


@dataclass(frozen=True)
class Kernel:
    cases: Callable[[Any], Iterable[Case]]  # the rows of one size
    sizes: tuple
    repeats: int  # default --repeats
    sides: tuple[str, str]  # row-key prefixes of the package and the reference side
    traced: bool  # one further run of each side under tracemalloc gives peak_mb
    about: dict  # what the report says it measured, work counters included


def points(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    centres = rng.random(size=(CENTRES, DIM))
    noisy = centres[rng.integers(CENTRES, size=n)] + rng.normal(0.0, 0.05, size=(n, DIM))
    return np.clip(noisy, 0.0, 1.0)


def kmeans_sweep(pts: np.ndarray, reference: bool) -> Counted:
    """One sse_curve, with the package's or the reference ``kmeans`` in place."""
    package_kmeans, package_nearest = clustering.kmeans, clustering._nearest_centres
    work = {"minflt": 0, "iterations": 0, "rows_all_centres": 0}

    def reference_kmeans(points, k, seed):
        result, _repairs = oracles.kmeans_reference(points, k, seed)
        work["iterations"] += result.iterations
        work["rows_all_centres"] += result.iterations * len(points)
        return result

    def counted_kmeans(points, k, seed):
        result = package_kmeans(points, k, seed)
        work["iterations"] += result.iterations
        return result

    def counted_nearest(*args):
        full = package_nearest(*args)
        work["rows_all_centres"] += full
        return full

    clustering.kmeans = reference_kmeans if reference else counted_kmeans
    clustering._nearest_centres = counted_nearest
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        best = clustering.sse_curve(pts, K_MAX, KMEANS_SEED)
        work["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        clustering.kmeans, clustering._nearest_centres = package_kmeans, package_nearest
    values = {k: (r.assignments, r.centroids, r.sse, r.iterations) for k, r in best.items()}
    return Counted(values, work)


def kmeans_cases(n: int) -> Iterable[Case]:
    pts = points(n)
    yield Case({"n": n}, lambda: kmeans_sweep(pts, False), lambda: kmeans_sweep(pts, True))


def tsne_cases(n: int) -> Iterable[Case]:
    pts = points(n)

    def package():
        embedding = tsne(pts, TSNE_CONFIG)
        return embedding.coords, embedding.kl_trace

    def reference():
        embedding, _rejections = oracles.tsne_reference(pts, TSNE_CONFIG)
        return embedding.coords, embedding.kl_trace

    yield Case({"n": n}, package, reference)


def ward_cases(n: int) -> Iterable[Case]:
    pts = points(n)

    def package():
        pairs, costs = clustering.ward_cluster(pts)
        return oracles.merge_tuples(pairs, costs), clustering.ward_cut(pairs, CENTRES)

    dense = (lambda: oracles.ward_dense_reference(pts, CENTRES)) if n <= DENSE_MAX_N else None
    yield Case({"n": n}, package, dense, lambda value: {"scipy_agrees": scipy_ward_agrees(pts, *value)})


def first_seen_labels(labels) -> list[int]:
    """``labels`` renamed 0, 1, ... in order of first appearance."""
    order: dict = {}
    return [order.setdefault(label, len(order)) for label in labels]


def scipy_ward_agrees(pts: np.ndarray, merges: list, assignments: list[int]) -> bool:
    """Whether scipy's Ward linkage of ``pts`` cuts into the same partition
    at k = CENTRES and its merge costs, ``height**2 / 2``, sorted, equal ours
    within 1e-12 relative."""
    tree = linkage(pts, method="ward")
    theirs = np.sort(tree[:, 2] ** 2 / 2)
    ours = np.sort([cost for _, _, cost, _ in merges])
    same_costs = bool(np.allclose(ours, theirs, rtol=1e-12, atol=0.0))
    cut = fcluster(tree, CENTRES, criterion="maxclust")
    same_partition = first_seen_labels(cut) == first_seen_labels(assignments)
    return same_costs and same_partition


def text_cases(scale: float) -> Iterable[Case]:
    """The four text pieces on the long-scripts corpus at ``scale`` times its movie count."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        movies = round(TEXT_CORPUS["movies"] * scale)
        corpus_gen.generate(root, TEXT_SEED, **{**TEXT_CORPUS, "movies": movies})
        scripts = sorted((root / "scripts").iterdir())
        rows = (root / "lexicon.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        lexicon_text = "".join(islice(cycle(rows), round(len(rows) * scale)))
        lexicon = load_lexicon(lexicon_text)
        dicts = {path.stem: filter_min_dialogues(parse_script(path)) for path in scripts}
        metadata = ingest_metadata((root / "metadata.csv").read_text(encoding="utf-8"))
        corpus = assemble_corpus(dicts, metadata)
        stopwords = default_stopwords()
        for suffix in (".txt", ".jsonl"):
            paths = [path for path in scripts if path.suffix == suffix]
            yield Case(
                {
                    "scale": scale,
                    "piece": f"parse_script {suffix}",
                    "size": f"{len(paths)} scripts, {sum(p.stat().st_size for p in paths)} bytes",
                },
                lambda paths=paths: [parse_script(p) for p in paths],
                lambda paths=paths: [oracles.parse_script_reference(p) for p in paths],
            )

        def package_lexicon():
            lex = load_lexicon(lexicon_text)
            return lex.entries, lex.skipped_phrases

        yield Case(
            {"scale": scale, "piece": "load_lexicon", "size": f"{lexicon_text.count(chr(10))} rows"},
            package_lexicon,
            lambda: oracles.load_lexicon_reference(lexicon_text),
        )

        def package_text_pass():
            result = text_pass(corpus, lexicon, stopwords)
            return result.counts, result.words

        dialogues = sum(len(rec.dialogues) for rec in corpus.records)
        yield Case(
            {"scale": scale, "piece": "text_pass", "size": f"{dialogues} dialogues"},
            package_text_pass,
            lambda: oracles.text_pass_reference(corpus, lexicon, stopwords),
        )


EMOTION_LIKE = f"n points in [0,1]^{DIM}, noisy copies of {CENTRES} random centres, seed n"

KERNELS = {
    "kmeans": Kernel(
        kmeans_cases,
        sizes=(300, 1000, 3000, 5000),
        repeats=1,
        sides=("", "reference_"),
        traced=False,
        about={
            "kernel": f"emocast.clustering.sse_curve (k = 1..{K_MAX}, 10 restarts: 100 kmeans calls)",
            "baseline": "tests/oracles.py kmeans_reference (the Lloyd loop it replaced)",
            "input": f"{EMOTION_LIKE}; sweep seed {KMEANS_SEED}",
            "minflt": "minor page faults of this process during the sweep (ru_minflt), median of the runs",
            "rows_all_centres": "rows whose squared distances to every centre were computed",
        },
    ),
    "tsne": Kernel(
        tsne_cases,
        sizes=(300, 1000, 2000),
        repeats=1,
        sides=("", "reference_"),
        traced=True,
        about={
            "kernel": "emocast.tsne.tsne",
            "baseline": "tests/oracles.py tsne_reference (the descent it replaced)",
            "input": EMOTION_LIKE,
            "config": "TsneConfig() defaults: 1000 iterations, perplexity 30, seed 42",
        },
    ),
    "ward": Kernel(
        ward_cases,
        sizes=(500, 1000, 1500, 3000, 5000),
        repeats=3,
        sides=("slot_", "dense_"),
        traced=True,
        about={
            "kernel": "emocast.clustering.ward_cluster",
            "baseline": "tests/oracles.py ward_dense_reference (the dense kernel it replaced)",
            "input": f"{EMOTION_LIKE}, k={CENTRES}; the dense kernel only up to n = {DENSE_MAX_N}",
            "scipy_agrees": "scipy.cluster.hierarchy.linkage(method='ward'): the same partition at k, "
            "and the sorted merge costs equal to the sorted height**2 / 2 within 1e-12 relative",
        },
    ),
    "text": Kernel(
        text_cases,
        sizes=(1, 3, 10),
        repeats=3,
        sides=("", "reference_"),
        traced=False,
        about={
            "kernel": "the text layer: parse_script (.txt and .jsonl), load_lexicon, text_pass",
            "baseline": "tests/oracles.py: parse_script_reference, load_lexicon_reference, "
            "text_pass_reference",
            "input": f"emobench/corpus_gen.py long-scripts corpus, seed {TEXT_SEED}, at "
            "scale x the movie count; the lexicon rows cycled to scale x their count",
        },
    ),
}


def identical(a, b) -> bool:
    """Equal values, with arrays compared by dtype and every element."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(identical(a[key], b[key]) for key in a)
    return a == b


def measure(call: Callable[[], Any], repeats: int, traced: bool) -> tuple[dict, Any]:
    """Row fields of one side (median CPU time and counters, traced peak) and its value."""
    times, runs = [], []
    for _ in range(repeats):
        start = time.process_time()
        result = call()
        times.append(time.process_time() - start)
        value, counters = result if isinstance(result, Counted) else (result, {})
        runs.append(counters)
    fields = {"cpu_s": round(statistics.median(times), 4)}
    if traced:
        tracemalloc.start()
        try:
            call()
            fields["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
        finally:
            tracemalloc.stop()
    fields.update({key: statistics.median(run[key] for run in runs) for key in counters})
    return fields, value


def openblas_threads() -> int | None:
    """The live thread count of the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except FileNotFoundError:  # no procfs: the loaded libraries cannot be listed
        return None
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": openblas_threads(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in (REPO / "src/emocast").glob("*.py")),
    }


def run(kernel: Kernel, sizes: tuple | None = None, repeats: int | None = None) -> dict:
    """The report of ``kernel`` at ``sizes`` (default its own), printing each row as it comes."""
    sizes, repeats = sizes or kernel.sizes, repeats or kernel.repeats
    ours, theirs = kernel.sides
    rows = []
    for size in sizes:
        for head, package, reference, check in kernel.cases(size):
            fields, value = measure(package, repeats, kernel.traced)
            row = {**head, **{ours + key: v for key, v in fields.items()}}
            if reference is not None:
                fields, expected = measure(reference, repeats, kernel.traced)
                row.update({theirs + key: v for key, v in fields.items()})
                row["identical"] = identical(value, expected)
            if check is not None:
                row.update(check(value))
            for key in CHECK_FIELDS:
                if row.get(key) is False:
                    print(f"{head}: {key} is false", file=sys.stderr)
            rows.append(row)
            print(json.dumps(row), flush=True)
    report = {**kernel.about, "cpu_s": f"median of {repeats} runs of time.process_time"}
    if kernel.traced:
        report["cpu_s"] += ", tracing off"
        report["peak_mb"] = "tracemalloc peak of one further run, 1e6 bytes"
    return {**report, "machine": machine(), "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kernel", choices=KERNELS)
    parser.add_argument("--out", type=Path, help="report path (default: bench_KERNEL.json)")
    parser.add_argument("--repeats", type=int, help="timed runs per side (default: per kernel)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    report = run(KERNELS[args.kernel], repeats=args.repeats)
    out = args.out or Path(f"bench_{args.kernel}.json")
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    failed = any(row.get(key) is False for row in report["rows"] for key in CHECK_FIELDS)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
