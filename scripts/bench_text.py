#!/usr/bin/env python3
"""CPU time of the text layer against the code it replaced, at three sizes.

Generates the benchmark's ``long-scripts`` corpus (``emobench/corpus_gen.py``:
20 movies of 6 characters with 150-250 dialogues each, a third of the
scripts ``.jsonl``) at 1x, 3x and 10x the movie count, then times four
pieces on it, each with the package's code and with the per-block and
per-row code kept in tests/oracles.py:

* ``parse_script`` over the ``.txt`` scripts, and over the ``.jsonl`` ones;
* ``load_lexicon`` on the lexicon text repeated once per scale (the rows
  repeat, so the lexicon read is the same);
* ``text_pass`` over the corpus assembled from the parsed scripts.

Each row records the median CPU time (``time.process_time``) of
``--repeats`` runs of each side and whether the two returned equal values.

Usage: PYTHONPATH=src python scripts/bench_text.py [--out BENCH_10.json] [--repeats 3]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))  # the replaced code lives with the oracles
sys.path.insert(0, str(REPO / "emobench"))  # the benchmark's corpus generator

import corpus_gen  # noqa: E402
import oracles  # noqa: E402

from emocast.corpus import assemble_corpus, ingest_metadata  # noqa: E402
from emocast.emotion import load_lexicon  # noqa: E402
from emocast.lexical import default_stopwords, text_pass  # noqa: E402
from emocast.screenplay import filter_min_dialogues, parse_script  # noqa: E402

SCALES = (1, 3, 10)
SEED = 7
CORPUS = {"movies": 20, "cast": 6, "dialogues": (150, 250)}  # emobench's long-scripts


def cpu(fn, repeats: int):
    """(median CPU seconds, last result) of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        result = fn()
        times.append(time.process_time() - start)
    return statistics.median(times), result


def text_pass_values(result):
    return result.counts, result.words


def equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def pieces(root: Path, scale: int):
    """(piece, size, package call, reference call) for one generated corpus."""
    scripts = sorted((root / "scripts").iterdir())
    lexicon_text = (root / "lexicon.tsv").read_text(encoding="utf-8") * scale
    lexicon = load_lexicon(lexicon_text)
    dicts = {path.stem: filter_min_dialogues(parse_script(path)) for path in scripts}
    corpus = assemble_corpus(dicts, ingest_metadata((root / "metadata.csv").read_text(encoding="utf-8")))
    stopwords = default_stopwords()
    for suffix in (".txt", ".jsonl"):
        paths = [path for path in scripts if path.suffix == suffix]
        size = f"{len(paths)} scripts, {sum(p.stat().st_size for p in paths)} bytes"
        yield (
            f"parse_script {suffix}",
            size,
            lambda paths=paths: [parse_script(p) for p in paths],
            lambda paths=paths: [oracles.parse_script_reference(p) for p in paths],
        )
    yield (
        "load_lexicon",
        f"{lexicon_text.count(chr(10))} rows",
        lambda: (lambda lex: (lex.entries, lex.skipped_phrases))(load_lexicon(lexicon_text)),
        lambda: oracles.load_lexicon_reference(lexicon_text),
    )
    yield (
        "text_pass",
        f"{sum(len(rec.dialogues) for rec in corpus.records)} dialogues",
        lambda: text_pass_values(text_pass(corpus, lexicon, stopwords)),
        lambda: oracles.text_pass_reference(corpus, lexicon, stopwords),
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_10.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rows = []
    for scale in SCALES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            corpus_gen.generate(root, SEED, **{**CORPUS, "movies": CORPUS["movies"] * scale})
            for piece, size, ours, reference in pieces(root, scale):
                cpu_s, result = cpu(ours, args.repeats)
                reference_cpu_s, expected = cpu(reference, args.repeats)
                row = {
                    "scale": scale,
                    "piece": piece,
                    "size": size,
                    "cpu_s": round(cpu_s, 4),
                    "reference_cpu_s": round(reference_cpu_s, 4),
                    "identical": equal(result, expected),
                }
                if not row["identical"]:
                    print(f"{piece} at {scale}x differs from the reference", file=sys.stderr)
                rows.append(row)
                print(json.dumps(row), flush=True)

    report = {
        "kernel": "the text layer: parse_script (.txt and .jsonl), load_lexicon, text_pass",
        "baseline": "tests/oracles.py: parse_script_reference, load_lexicon_reference, text_pass_reference",
        "input": (
            f"emobench/corpus_gen.py long-scripts corpus, seed {SEED}, at "
            f"{', '.join(f'{s}x' for s in SCALES)} the movie count; the lexicon text repeated per scale"
        ),
        "cpu_s": f"median of {args.repeats} runs of time.process_time",
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
