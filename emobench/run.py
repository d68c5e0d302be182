#!/usr/bin/env python3
"""emocast benchmark: seeded corpora through the emocast CLI, end to end.

Usage, from the repository root:

    python3 emobench/run.py --workload ensemble-cast --seed 1 --seconds 32 --trace 0

Each run generates its corpus from ``--seed``, byte-compiles ``src/emocast``
(what an install does), measures one cold start of a fresh ``emocast``
process (``setup_s``), runs any untimed preparation, then repeats the
workload's command round in fresh child processes for about ``--seconds``
seconds of command time, with at least two rounds. Every artifact of the
first round is checked against values computed apart from the program
(``checks.py``); every later round must write byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics, read per command with
``os.wait4`` (so the benchmark's own process is not counted): the median
round's CPU time (``cpu_s``, user + system, summed over the round's
commands), the median of each round's largest peak RSS (``peak_rss_mb``)
and the CPU time of the cold start (``setup_s``). CPU time rather than wall
time, because on a shared VM stolen time swings wall time by more than any
usable bound while CPU time holds; each round's wall time is logged on
standard error. ``--trace 1`` alternates an untraced round with a round run
under ``trace_child.py`` and reports the per-layer metrics of the traced
rounds (medians), with the traced and untraced wall times side by side:
their difference is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (counted per emocast command) and ``metrics``.
Without ``src/emocast`` next to this directory the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus_gen

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORK = BENCH / "_work"
CHILD_TIMEOUT_S = 160
RUN_LIMIT_S = 150  # no new round starts after this much time in the run
EMOCAST = ("-c", "import sys; from emocast.cli import main; sys.exit(main())")
FIXED_K = 6


@dataclass(frozen=True)
class Workload:
    corpus: dict  # corpus_gen.generate arguments
    commands: tuple[tuple[str, ...], ...]  # one round; each runs in a fresh process
    prepare: tuple[tuple[str, ...], ...] = ()  # untimed, before the first round


WORKLOADS = {
    # t-SNE (exact, O(n^2) per iteration) dominates; Ward and the SSE curve
    # at moderate n; the text layers see few, short dialogues.
    "ensemble-cast": Workload(
        corpus={"movies": 30, "cast": 10, "dialogues": (5, 12)},
        commands=(("run-all",),),
    ),
    # Parsing, two lexicon loads, scoring twice, the U battery and word
    # counts dominate; clustering and t-SNE see only ~115 characters.
    "long-scripts": Workload(
        corpus={"movies": 20, "cast": 6, "dialogues": (150, 250)},
        commands=(("run-all",),),
    ),
    # The clustering loop on persisted emotions.csv: no text layer, no t-SNE,
    # Ward's O(n^3) time and (2n-1)^2 + n^2*d memory at ~1000 characters.
    "recluster": Workload(
        corpus={"movies": 100, "cast": 10, "dialogues": (5, 8)},
        prepare=(("parse",), ("score",)),
        commands=(("cluster", "--k", "auto"), ("cluster", "--k", str(FIXED_K))),
    ),
}

# Per-layer metrics: (name, unit, source). A source is a span field
# ("total", "calls" or "self" of a wrapped function), a counter, or derived.
SPAN_METRICS = (
    ("screenplay.parse_script_s", "s", "screenplay.parse_script", "total"),
    ("screenplay.scripts", "count", "screenplay.parse_script", "calls"),
    ("corpus.ingest_metadata_s", "s", "corpus.ingest_metadata", "total"),
    ("corpus.assemble_corpus_s", "s", "corpus.assemble_corpus", "total"),
    ("corpus.corpus_to_json_s", "s", "corpus.corpus_to_json", "total"),
    ("corpus.corpus_from_json_s", "s", "corpus.corpus_from_json", "total"),
    ("corpus.corpus_from_json_calls", "count", "corpus.corpus_from_json", "calls"),
    ("emotion.load_lexicon_s", "s", "emotion.load_lexicon", "total"),
    ("emotion.load_lexicon_calls", "count", "emotion.load_lexicon", "calls"),
    ("emotion.aggregate_character_s", "s", "emotion.aggregate_character", "total"),
    ("emotion.score_dialogue_calls", "count", "emotion.score_dialogue", "calls"),
    ("emotion.dyad_expand_calls", "count", "emotion.dyad_expand", "calls"),
    ("stats.emotion_test_battery_s", "s", "stats.emotion_test_battery", "total"),
    ("stats.mann_whitney_u_calls", "count", "stats.mann_whitney_u", "calls"),
    ("stats.gender_distribution_over_time_s", "s", "stats.gender_distribution_over_time", "total"),
    ("clustering.sse_curve_s", "s", "clustering.sse_curve", "total"),
    ("clustering.best_kmeans_s", "s", "clustering.best_kmeans", "total"),
    ("clustering.kmeans_calls", "count", "clustering.kmeans", "calls"),
    ("clustering.ward_cluster_s", "s", "clustering.ward_cluster", "total"),
    ("clustering.composition_audit_s", "s", "clustering.composition_audit", "total"),
    ("tsne.joint_probabilities_s", "s", "tsne.joint_probabilities", "total"),
    ("tsne.perplexity_calibration_s", "s", "tsne.perplexity_calibration", "total"),
    ("tsne.kl_gradient_calls", "count", "tsne.kl_gradient", "calls"),
    ("tsne.kl_divergence_calls", "count", "tsne.kl_divergence", "calls"),
    ("tsne.scatter_svg_s", "s", "tsne.scatter_svg", "total"),
    ("lexical.group_frequencies_s", "s", "lexical.group_frequencies", "total"),
    ("lexical.exclusive_nouns_s", "s", "lexical.exclusive_nouns", "total"),
    ("lexical.word_list_loads", "count", "lexical.load_word_list", "calls"),
)
STAGES = ("parse", "score", "stats", "cluster", "project", "words")
SPAN_METRICS += tuple(
    (f"pipeline.stage_{stage}{suffix}", "s", f"pipeline.stage_{stage}", field)
    for stage in STAGES
    for suffix, field in (("_s", "total"), (".self_s", "self"))
)
COUNTER_METRICS = (
    ("screenplay.dialogues", "count"),
    ("stats.battery_rows", "count"),
    ("clustering.lloyd_iterations", "count"),
    ("clustering.ward_bytes", "bytes"),
)
DERIVED_METRICS = (
    ("tsne.descent_s", "s"),
    ("pipeline.report_s", "s"),
    ("pipeline.artifact_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
)
PER_LAYER = tuple((name, unit) for name, unit, *_ in SPAN_METRICS) + COUNTER_METRICS + DERIVED_METRICS
END_TO_END = (("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def launch(argv: list[str], log_dir: Path) -> Child:
    """Run ``python3 ARGV`` to its end through spawn.py, which reads its own
    wall time and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    paths = [log_dir / name for name in ("spawn.json", "stdout.txt", "stderr.txt")]
    spawner = subprocess.Popen(
        [sys.executable, "-S", str(BENCH / "spawn.py"), *map(str, paths), str(CHILD_TIMEOUT_S),
         "--", sys.executable, *argv],
        env=env, cwd=REPO,
    )
    try:
        spawner.wait()
    except BaseException:
        spawner.terminate()  # spawn.py kills and reaps the command on SIGTERM
        spawner.wait()
        raise
    if spawner.returncode != 0:
        raise RuntimeError(f"spawn.py exited with {spawner.returncode}")
    result = json.loads(paths[0].read_text(encoding="utf-8"))
    return Child(
        code=result["code"],
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        rss_mb=result["maxrss_kib"] / 1024.0,
        stdout=paths[1].read_text(encoding="utf-8", errors="replace"),
        stderr=paths[2].read_text(encoding="utf-8", errors="replace"),
    )


def csv_digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def snapshot(out: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in out.iterdir() if p.is_file()}


def written_bytes(before: dict, after: dict) -> int:
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


class Run:
    """State of one benchmark run: corpus, expectations, counts and problems."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.root = WORK / f"{name}-{seed}-{os.getpid()}"
        self.root.mkdir(parents=True)
        corpus = self.root / "corpus"
        corpus_gen.generate(corpus, seed, **self.workload.corpus)
        self.expected = checks.Expected(corpus)
        self.out = self.root / "out"
        self.io = [
            "--scripts", str(corpus / "scripts"),
            "--metadata", str(corpus / "metadata.csv"),
            "--lexicon", str(corpus / "lexicon.tsv"),
            "--out", str(self.out),
        ]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[dict[str, str]] | None = None

    def check(self, command: tuple[str, ...], child: Child) -> None:
        """Independent checks of the artifacts one command just wrote."""
        c, exp, out = checks, self.expected, self.out
        try:
            if command[0] == "parse":
                c.check_characters(out, exp)
                c.check_summary(child.stdout, exp)
            elif command[0] == "score":
                c.check_emotions(out, exp)
            elif command[0] == "cluster":
                fixed = None if command[2] == "auto" else int(command[2])
                c.check_clusters(out, exp, child.stdout, fixed)
            elif command[0] == "run-all":
                c.check_run_all(out, exp, child.stdout)
        except c.CheckError as exc:
            self.problems.append(f"{' '.join(command)}: {exc}")
        except Exception as exc:  # a malformed artifact fails the run, it does not end it
            self.problems.append(f"{' '.join(command)}: unreadable artifact: {exc!r}")

    def command(self, command: tuple[str, ...], traced: bool = False) -> tuple[Child, dict | None]:
        spans_path = self.root / "spans.json"
        if traced:
            argv = [str(BENCH / "trace_child.py"), str(spans_path), "--", *command, *self.io]
        else:
            argv = [*EMOCAST, *command, *self.io]
        child = launch(argv, self.root)
        if child.code != 0:
            tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            print(f"{' '.join(command)}: exit {child.code}: {tail[0]}", file=sys.stderr)
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if traced and child.code == 0 else None
        return child, spans

    def prepare(self) -> None:
        for command in self.workload.prepare:
            child, _ = self.command(command)
            if child.code != 0:
                raise RuntimeError(f"preparation {' '.join(command)} failed")
            self.check(command, child)

    def round(self, traced: bool = False) -> dict | None:
        """One pass over the workload's commands; None if a command failed."""
        wall = cpu = rss = 0.0
        written = 0
        spans: list[dict] = []
        digests = []
        ok = True
        for command in self.workload.commands:
            before = snapshot(self.out) if self.out.is_dir() else {}
            child, traced_spans = self.command(command, traced)
            self.attempted += 1
            if child.code != 0:
                self.failed += 1
                ok = False
                continue
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            written += written_bytes(before, snapshot(self.out))
            if traced_spans is not None:
                spans.append(traced_spans)
            digests.append(csv_digest(self.out))
            if self.reference is None:
                self.check(command, child)
        print(f"round{' (traced)' if traced else ''}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
              f"peak rss {rss:.1f} MB", file=sys.stderr)
        if not ok:
            return None
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            self.problems.append("CSV bytes differ between two rounds on the same inputs")
        return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "written": written, "spans": spans}


def merge_spans(per_command: list[dict]) -> tuple[dict, dict]:
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for doc in per_command:
        for key, values in doc["spans"].items():
            acc = spans.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for key, value in doc["counters"].items():
            combine = max if key == "clustering.ward_bytes" else (lambda a, b: a + b)
            counters[key] = combine(counters.get(key, 0), value)
    return spans, counters


def layer_values(traced: dict, untraced_wall: float) -> dict[str, float]:
    spans, counters = merge_spans(traced["spans"])
    fields = {"calls": 0, "total": 1, "self": 2}
    values = {
        name: spans.get(key, [0, 0.0, 0.0])[fields[field]]
        for name, _, key, field in SPAN_METRICS
    }
    values.update({name: counters.get(name, 0) for name, _ in COUNTER_METRICS})

    def total(key: str) -> float:
        return spans.get(key, [0, 0.0, 0.0])[1]

    values["tsne.descent_s"] = total("tsne.tsne") - total("tsne.joint_probabilities")
    run_all = total("pipeline.run_pipeline")
    values["pipeline.report_s"] = (
        run_all - sum(total(f"pipeline.stage_{s}") for s in STAGES) if run_all else 0.0
    )
    values["pipeline.artifact_bytes"] = traced["written"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced_wall
    return values


def measure(run: Run, seconds: float, trace: bool, started: float) -> dict[str, float]:
    """Repeat rounds for about ``seconds`` of command time; return metric values."""
    rounds: list[dict] = []
    traced_rounds: list[dict] = []
    busy = 0.0
    passes = 0
    while True:
        t0 = time.perf_counter()
        result = run.round()
        if result is not None:
            rounds.append(result)
        if trace:
            traced = run.round(traced=True)
            if traced is not None and result is not None:
                traced_rounds.append(layer_values(traced, result["wall_s"]))
        busy += time.perf_counter() - t0
        passes += 1
        enough = passes >= (1 if trace else 2) and busy + busy / passes > seconds
        if enough or time.perf_counter() - started > RUN_LIMIT_S:
            break
    if trace and traced_rounds:
        return {name: statistics.median(r[name] for r in traced_rounds) for name, _ in PER_LAYER}
    if trace or not rounds:
        return {}
    return {
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="emocast end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    # On SIGTERM, unwind: the running command is stopped and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "emocast" / "cli.py").is_file():
        print(f"error: no emocast sources under {SRC}", file=sys.stderr)
        return 2
    run = None
    try:
        # The build: byte-compile the package, as installing it would.
        if not compileall.compile_dir(SRC / "emocast", quiet=1):
            print("error: src/emocast does not compile", file=sys.stderr)
            return 2
        run = Run(args.workload, args.seed)
        setup = launch([*EMOCAST, "--help"], run.root)
        if setup.code != 0 or "usage: emocast" not in setup.stdout:
            print(f"error: emocast --help failed: {setup.stderr.strip()}", file=sys.stderr)
            return 2
        print(f"setup: wall {setup.wall_s:.3f} s, cpu {setup.cpu_s:.3f} s", file=sys.stderr)
        run.prepare()
        values = measure(run, args.seconds, bool(args.trace), started)
        values["setup_s"] = setup.cpu_s
        names = PER_LAYER if args.trace else END_TO_END
        if any(name not in values for name, _ in names):
            run.problems.append("no round completed")
    except Exception:  # the run cannot finish; report and print no result
        traceback.print_exc()
        return 1
    finally:
        if run is not None:
            shutil.rmtree(run.root, ignore_errors=True)
            try:
                WORK.rmdir()  # only when no other run is using it
            except OSError:
                pass

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in names if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
