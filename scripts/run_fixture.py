#!/usr/bin/env python3
"""Run the full pipeline on the bundled fixture corpus and print a digest.

Usage: python scripts/run_fixture.py [output_dir]
"""

import sys
from pathlib import Path

from emocast.pipeline import RunConfig, run_pipeline

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "out" / "fixture"
    cfg = RunConfig(
        script_dir=REPO / "fixtures" / "scripts",
        metadata_path=REPO / "fixtures" / "metadata.csv",
        lexicon_path=REPO / "fixtures" / "lexicon.tsv",
        output_dir=out,
    )
    report = run_pipeline(cfg)

    print()
    print("strongest group differences (dialogue level):")
    for row in report["tests"][:5]:
        if row["p_value"] is None:
            continue
        print(f"  {row['emotion']:<15} p={row['p_value']:.3e}  higher: {row['higher_group']}")
    clusters = report["clusters"]
    print(f"chosen k: {clusters['k']} (auto: {clusters['auto']})")
    for method, rows in clusters["composition"].items():
        balance = ", ".join(f"c{r['cluster']}: {r['female']}F/{r['male']}M" for r in rows)
        print(f"  {method}: {balance}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
