"""End-to-end analysis pipeline and its persisted artifacts.

Each stage reads the persisted outputs of the one before it, so expensive
stages can be rerun on their own. Artifact bytes are deterministic for a
fixed config and inputs: rows are sorted, floats use their shortest repr,
and every CSV uses "\\n" line endings. Only report.json carries a
timestamp.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .clustering import (
    KMeansResult,
    best_kmeans,
    composition_audit,
    elbow_detect,
    sse_curve,
    ward_cluster,
)
from .corpus import (
    Corpus,
    Gender,
    assemble_corpus,
    corpus_from_json,
    corpus_to_json,
    ingest_metadata,
)
from .emotion import (
    EMOTION_COLUMNS,
    EmotionLexicon,
    aggregate_character,
    dyad_expand,
    load_lexicon_file,
    score_dialogue,
    vector_row,
)
from .errors import CurveError, EmocastError, MetadataError, StaleInputError
from .lexical import default_nouns, default_stopwords, exclusive_nouns, group_frequencies
from .screenplay import filter_min_dialogues, parse_script
from .stats import emotion_test_battery, gender_distribution_over_time
from .tsne import Embedding2D, TsneConfig, scatter_svg, tsne

SCRIPT_SUFFIXES = (".txt", ".jsonl", ".json")
DEFAULT_TOP_WORDS = 50
K_MAX_DEFAULT = 10


@dataclass
class RunConfig:
    """Everything a run needs; file paths must exist when a stage starts."""

    script_dir: Path
    metadata_path: Path
    lexicon_path: Path
    output_dir: Path
    min_dialogues: int = 5
    k: int | str = "auto"
    seed: int = 42
    perplexity: float = 30.0
    bin_years: int = 5
    strict: bool = False
    top_words: int = DEFAULT_TOP_WORDS

    def validate(self) -> None:
        if not self.script_dir.is_dir():
            raise FileNotFoundError(f"script directory not found: {self.script_dir}")
        if not self.metadata_path.is_file():
            raise FileNotFoundError(f"metadata file not found: {self.metadata_path}")
        if not self.lexicon_path.is_file():
            raise FileNotFoundError(f"lexicon file not found: {self.lexicon_path}")
        if self.min_dialogues < 0:
            raise ValueError("min_dialogues must be >= 0")
        if isinstance(self.k, str):
            if self.k != "auto":
                raise ValueError(f"k must be 'auto' or a positive integer, got {self.k!r}")
        elif self.k < 1:
            raise ValueError("k must be >= 1")
        if self.perplexity <= 0:
            raise ValueError("perplexity must be positive")
        if self.bin_years < 1:
            raise ValueError("bin_years must be >= 1")
        if self.top_words < 1:
            raise ValueError("top_words must be >= 1")
        self.output_dir.mkdir(parents=True, exist_ok=True)


@dataclass
class AnalysisReport:
    summary: dict
    tests: list[dict]
    timebins: list[dict]
    clusters: dict
    projection: list[dict]
    words: dict
    run: dict = field(default_factory=dict)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value config; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        values[key.strip()] = value
    return values


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


def _check_fresh(cfg: RunConfig, artifact: Path, sources: Sequence[Path], stage: str) -> None:
    if not artifact.is_file():
        raise FileNotFoundError(
            f"{stage}: missing {artifact.name}; run the earlier stage first"
        )
    newest = max((src.stat().st_mtime for src in sources if src.exists()), default=0.0)
    if newest > artifact.stat().st_mtime:
        message = f"{stage}: {artifact.name} is older than the configured sources"
        if cfg.strict:
            raise StaleInputError(message)
        print(f"warning: {message}", file=sys.stderr)


def _script_files(cfg: RunConfig) -> list[Path]:
    files = [
        p
        for p in sorted(cfg.script_dir.iterdir())
        if p.is_file() and p.suffix.lower() in SCRIPT_SUFFIXES
    ]
    if not files:
        raise FileNotFoundError(f"no script files in {cfg.script_dir}")
    return files


def _load_corpus(cfg: RunConfig, stage: str) -> Corpus:
    artifact = cfg.output_dir / "corpus.json"
    _check_fresh(cfg, artifact, [*_script_files(cfg), cfg.metadata_path], stage)
    return corpus_from_json(artifact.read_text(encoding="utf-8"))


def _load_lexicon(cfg: RunConfig) -> EmotionLexicon:
    lexicon = load_lexicon_file(cfg.lexicon_path)
    if lexicon.skipped_phrases:
        print(
            f"warning: skipped {lexicon.skipped_phrases} multi-word lexicon entries",
            file=sys.stderr,
        )
    return lexicon


def stage_parse(cfg: RunConfig) -> Corpus:
    """Parse every script, apply the dialogue-count filter, join metadata."""
    dicts = {}
    provenance = {}
    for path in _script_files(cfg):
        movie = path.stem
        if movie in dicts:
            raise ValueError(f"{path.name}: movie id {movie!r} already seen as {provenance[movie]}")
        try:
            dicts[movie] = filter_min_dialogues(parse_script(path), cfg.min_dialogues)
        except (EmocastError, ValueError) as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc
        provenance[movie] = path.name
    try:
        meta = ingest_metadata(cfg.metadata_path.read_text(encoding="utf-8"))
    except MetadataError as exc:
        raise MetadataError(f"{cfg.metadata_path.name}: {exc}") from exc
    corpus = assemble_corpus(dicts, meta, provenance)

    characters = {movie: dict(sorted(entries.items())) for movie, entries in sorted(dicts.items())}
    (cfg.output_dir / "characters.json").write_text(
        json.dumps(characters, indent=2, sort_keys=True, ensure_ascii=True) + "\n",
        encoding="utf-8",
    )
    (cfg.output_dir / "corpus.json").write_text(corpus_to_json(corpus), encoding="utf-8")
    s = corpus.summary()
    print(
        f"[parse] {len(dicts)} movies -> {s.characters} characters, {s.dialogues} dialogues "
        f"({s.female} female / {s.male} male / {s.unknown} unknown)"
    )
    return corpus


def stage_score(cfg: RunConfig) -> list[dict]:
    """Aggregate per-character 32-dim emotion vectors into emotions.csv."""
    corpus = _load_corpus(cfg, "score")
    lexicon = _load_lexicon(cfg)
    rows = []
    for rec in corpus.records:
        agg = aggregate_character(rec, lexicon)
        rows.append(
            {
                "movie": rec.movie,
                "name": rec.name,
                "gender": rec.gender.value,
                "vector": agg.vector,
                "no_affect": agg.no_affect,
                "dialogue_count": len(rec.dialogues),
            }
        )
    _write_csv(
        cfg.output_dir / "emotions.csv",
        ["movie", "name", "gender", *EMOTION_COLUMNS, "no_affect", "dialogue_count"],
        [
            [
                row["movie"],
                row["name"],
                row["gender"],
                *vector_row(row["vector"]),
                row["no_affect"],
                row["dialogue_count"],
            ]
            for row in rows
        ],
    )
    flagged = sum(row["no_affect"] for row in rows)
    print(f"[score] {len(rows)} characters scored, {flagged} with no affect evidence")
    return rows


def _load_emotion_rows(cfg: RunConfig, stage: str) -> list[dict]:
    artifact = cfg.output_dir / "emotions.csv"
    _check_fresh(cfg, artifact, [cfg.output_dir / "corpus.json", cfg.lexicon_path], stage)
    rows = []
    with artifact.open(encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                {
                    "movie": record["movie"],
                    "name": record["name"],
                    "gender": record["gender"],
                    "vector": {name: float(record[name]) for name in EMOTION_COLUMNS},
                    "no_affect": record["no_affect"] == "true",
                    "dialogue_count": int(record["dialogue_count"]),
                }
            )
    return rows


def _dialogue_matrix(corpus: Corpus, lexicon: EmotionLexicon) -> tuple[np.ndarray, list[str]]:
    """One 32-dim row per dialogue of every gendered character."""
    vectors = []
    labels = []
    for rec in corpus.records:
        if rec.gender is Gender.UNKNOWN:
            continue
        for dialogue in rec.dialogues:
            vectors.append(vector_row(dyad_expand(score_dialogue(dialogue, lexicon))))
            labels.append(rec.gender.value)
    matrix = np.asarray(vectors, dtype=float) if vectors else np.empty((0, len(EMOTION_COLUMNS)))
    return matrix, labels


def stage_stats(cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    """Dialogue-level U-test battery plus the release-year gender table."""
    corpus = _load_corpus(cfg, "stats")
    lexicon = _load_lexicon(cfg)
    matrix, labels = _dialogue_matrix(corpus, lexicon)
    battery = emotion_test_battery(matrix, labels)
    test_rows = []
    for row in battery:
        if row.result is None:
            test_rows.append(
                {"emotion": row.emotion, "u1": None, "u2": None, "z": None,
                 "p_value": None, "higher_group": row.higher_group}
            )
        else:
            test_rows.append(
                {
                    "emotion": row.emotion,
                    "u1": row.result.u1,
                    "u2": row.result.u2,
                    "z": row.result.z,
                    "p_value": row.result.p_value,
                    "higher_group": row.higher_group,
                }
            )
    _write_csv(
        cfg.output_dir / "stats.csv",
        ["emotion", "u1", "u2", "z", "p_value", "higher_group"],
        [[r["emotion"], r["u1"], r["u2"], r["z"], r["p_value"], r["higher_group"]] for r in test_rows],
    )

    bins = gender_distribution_over_time(corpus, cfg.bin_years)
    bin_rows = [
        {
            "bin_start": b.bin_start,
            "bin_end": b.bin_end,
            "female": b.female,
            "male": b.male,
            "unknown": b.unknown,
            "female_pct": b.female_pct,
        }
        for b in bins
    ]
    _write_csv(
        cfg.output_dir / "timebins.csv",
        ["bin_start", "bin_end", "female", "male", "unknown", "female_pct"],
        [[r["bin_start"], r["bin_end"], r["female"], r["male"], r["unknown"], r["female_pct"]] for r in bin_rows],
    )
    degenerate = sum(1 for r in test_rows if r["p_value"] is None)
    print(f"[stats] {len(test_rows)} emotion tests ({degenerate} degenerate), {len(bin_rows)} year bins")
    return test_rows, bin_rows


def _affect_matrix(rows: list[dict]) -> tuple[np.ndarray, list[dict]]:
    kept = [row for row in rows if not row["no_affect"]]
    matrix = np.asarray([vector_row(row["vector"]) for row in kept], dtype=float)
    return matrix, kept


def stage_cluster(cfg: RunConfig) -> dict:
    """K-means and Ward assignments, elbow curve, and the gender audit."""
    rows = _load_emotion_rows(cfg, "cluster")
    matrix, kept = _affect_matrix(rows)
    n = len(kept)
    if n < 2:
        raise ValueError(f"cluster: need at least 2 characters with affect, have {n}")

    k_max = min(K_MAX_DEFAULT, n)
    best_per_k: dict[int, KMeansResult] = {}
    curve = sse_curve(matrix, 1, k_max, cfg.seed, results=best_per_k)
    if cfg.k == "auto":
        try:
            chosen_k = elbow_detect(curve)
        except CurveError:
            chosen_k = 1
        auto = True
    else:
        chosen_k = int(cfg.k)
        auto = False
        if chosen_k > n:
            raise ValueError(f"cluster: k={chosen_k} exceeds {n} characters")

    if chosen_k in best_per_k:
        km = best_per_k[chosen_k]
    else:  # a fixed --k above k_max was not swept
        km = best_kmeans(matrix, chosen_k, cfg.seed)
    _, ward_assign = ward_cluster(matrix, chosen_k)

    genders = [row["gender"] for row in kept]
    female = sum(1 for g in genders if g == "female")
    male = sum(1 for g in genders if g == "male")
    audits = {
        "kmeans": composition_audit(km.assignments, genders, (female, male)),
        "ward": composition_audit(ward_assign, genders, (female, male)),
    }

    _write_csv(
        cfg.output_dir / "clusters.csv",
        ["movie", "name", "gender", "kmeans_cluster", "ward_cluster"],
        [
            [row["movie"], row["name"], row["gender"], km.assignments[i], ward_assign[i]]
            for i, row in enumerate(kept)
        ],
    )
    _write_csv(
        cfg.output_dir / "composition.csv",
        ["method", "cluster", "female", "male", "ratio", "expected_female", "deviation"],
        [
            [method, row.cluster, row.female, row.male, row.ratio, row.expected_female, row.deviation]
            for method in ("kmeans", "ward")
            for row in audits[method]
        ],
    )
    _write_csv(cfg.output_dir / "ssecurve.csv", ["k", "sse"], [[k, s] for k, s in curve])
    excluded = len(rows) - n
    print(f"[cluster] k={chosen_k} ({'elbow' if auto else 'fixed'}), {n} characters, {excluded} no-affect excluded")
    return {
        "k": chosen_k,
        "auto": auto,
        "sse_curve": [{"k": k, "sse": s} for k, s in curve],
        "kmeans_sse": km.sse,
        "excluded_no_affect": excluded,
        "assignments": [
            {
                "movie": row["movie"],
                "name": row["name"],
                "gender": row["gender"],
                "kmeans": km.assignments[i],
                "ward": ward_assign[i],
            }
            for i, row in enumerate(kept)
        ],
        "composition": {
            method: [
                {
                    "cluster": row.cluster,
                    "female": row.female,
                    "male": row.male,
                    "ratio": row.ratio if math.isfinite(row.ratio) else _fmt(row.ratio),
                    "expected_female": row.expected_female,
                    "deviation": row.deviation,
                }
                for row in audits[method]
            ]
            for method in ("kmeans", "ward")
        },
    }


def stage_project(cfg: RunConfig) -> list[dict]:
    """t-SNE scatter of the character emotion vectors."""
    rows = _load_emotion_rows(cfg, "project")
    matrix, kept = _affect_matrix(rows)
    if len(kept) < 5:
        raise ValueError(f"project: t-SNE needs at least 5 characters with affect, have {len(kept)}")
    embedding: Embedding2D = tsne(matrix, TsneConfig(perplexity=cfg.perplexity, seed=cfg.seed))
    out_rows = [
        {
            "movie": row["movie"],
            "name": row["name"],
            "gender": row["gender"],
            "x": float(embedding.coords[i, 0]),
            "y": float(embedding.coords[i, 1]),
        }
        for i, row in enumerate(kept)
    ]
    _write_csv(
        cfg.output_dir / "tsne.csv",
        ["movie", "name", "gender", "x", "y"],
        [[r["movie"], r["name"], r["gender"], r["x"], r["y"]] for r in out_rows],
    )
    (cfg.output_dir / "tsne.svg").write_text(
        scatter_svg(embedding.coords, [row["gender"] for row in kept]),
        encoding="utf-8",
    )
    print(f"[project] {len(kept)} characters embedded, final KL {embedding.kl_trace[-1]:.4f}")
    return out_rows


def stage_words(cfg: RunConfig) -> dict:
    """Exclusive noun lists per gender for word-cloud consumption."""
    corpus = _load_corpus(cfg, "words")
    freq = group_frequencies(corpus, default_stopwords())
    contrasts = exclusive_nouns(freq, default_nouns(), cfg.top_words)
    rows = []
    for group in sorted(contrasts):
        for rank, (word, count) in enumerate(contrasts[group], start=1):
            rows.append([group, word, count, rank])
    _write_csv(cfg.output_dir / "wordfreq.csv", ["group", "word", "count", "rank"], rows)
    print(
        f"[words] exclusive nouns: {len(contrasts['female'])} female, {len(contrasts['male'])} male"
    )
    return {
        group: [{"word": word, "count": count} for word, count in pairs]
        for group, pairs in contrasts.items()
    }


def run_pipeline(cfg: RunConfig) -> AnalysisReport:
    """All six stages in order, then report.json tying the results together."""
    cfg.validate()
    corpus = stage_parse(cfg)
    stage_score(cfg)
    tests, timebins = stage_stats(cfg)
    clusters = stage_cluster(cfg)
    projection = stage_project(cfg)
    words = stage_words(cfg)

    s = corpus.summary()
    report = AnalysisReport(
        summary={
            "movies": len(corpus.provenance),
            "characters": s.characters,
            "dialogues": s.dialogues,
            "female": s.female,
            "male": s.male,
            "unknown": s.unknown,
        },
        tests=tests,
        timebins=timebins,
        clusters=clusters,
        projection=projection,
        words=words,
        run={
            "seed": cfg.seed,
            "min_dialogues": cfg.min_dialogues,
            "perplexity": cfg.perplexity,
            "bin_years": cfg.bin_years,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    (cfg.output_dir / "report.json").write_text(
        json.dumps(
            {
                "summary": report.summary,
                "tests": report.tests,
                "timebins": report.timebins,
                "clusters": report.clusters,
                "projection": report.projection,
                "words": report.words,
                "run": report.run,
            },
            indent=2,
            ensure_ascii=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"[run-all] artifacts written to {cfg.output_dir}")
    return report
