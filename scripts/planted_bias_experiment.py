#!/usr/bin/env python3
"""Sanity experiment: plant a known gender bias and confirm the pipeline finds it.

Builds a synthetic corpus (male:female 3:1) where female characters speak
joy-lexicon words and male characters anger-lexicon words, runs the whole
pipeline, and prints whether the planted signal surfaces in the test
battery, the cluster composition, and the exclusive-noun lists.

Usage: python scripts/planted_bias_experiment.py [--seed N] [--out DIR]
"""

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))  # reuse the seeded corpus builder

from synth import build_planted_corpus  # noqa: E402

from emocast.pipeline import RunConfig, run_pipeline  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    workdir = args.out or Path(tempfile.mkdtemp(prefix="planted_bias_"))
    inputs = build_planted_corpus(workdir / "inputs", seed=args.seed)
    cfg = RunConfig(
        script_dir=inputs["scripts"],
        metadata_path=inputs["metadata"],
        lexicon_path=inputs["lexicon"],
        output_dir=workdir / "out",
        seed=42,
    )
    report = run_pipeline(cfg)

    rows = {row["emotion"]: row for row in report["tests"]}
    print()
    print(f"planted signal check (seed {args.seed}):")
    for emotion, wanted in (("joy", "female"), ("anger", "male")):
        row = rows[emotion]
        verdict = "ok" if row["higher_group"] == wanted and row["p_value"] < 0.01 else "MISSED"
        print(f"  {emotion:<6} p={row['p_value']:.3e} higher={row['higher_group']:<6} [{verdict}]")
    worst = None
    for method, comp in report["clusters"]["composition"].items():
        for r in comp:
            label = f"{method} c{r['cluster']}"
            print(f"  {label}: {r['female']}F/{r['male']}M (expected {r['expected_female']:.1f}F)")
            if r["female"] == 0 and r["male"] > 0:
                worst = label
    if worst:
        print(f"  most skewed cluster: {worst} (no females at all)")
    print(f"artifacts in {workdir / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
