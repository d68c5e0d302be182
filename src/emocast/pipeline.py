"""End-to-end analysis pipeline and its persisted artifacts.

Each stage takes its inputs as arguments and writes its artifacts.
``run_pipeline`` hands each stage's results to the next in memory. So that
an expensive stage can be rerun on its own, the staged commands in
``STAGES`` (parse, score, cluster, project) read them from the earlier
stages' artifacts, warning unless manifest.json records each, and each
artifact upstream of it, as made from the inputs ``PRODUCERS`` lists.
Either route loads the lexicon and tokenizes each dialogue once (staged
score writes the stats and word tables too); both write the same bytes.
Each record is built once, as a dict in column order; the stats, clustering
and corpus kernels return theirs as the rows their artifacts hold. The CSVs
are written from those dicts, report.json embeds them, and ``_write``
replaces every artifact in one step.
Artifact bytes are deterministic for a fixed config and inputs: rows are
sorted, floats use their shortest repr, and every CSV uses "\\n" line
endings. Only report.json carries a timestamp. cluster_cache.json keeps the
cluster stage's k-means sweep and Ward merges for the next run on the same
emotions.csv and seed; it changes no other artifact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO, TypeVar

import numpy as np

from . import __version__, clustering, emotion
from .clustering import (
    best_kmeans,
    centroid_sse,
    composition_audit,
    elbow_detect,
    merge_pairs,
    sse_curve,
    ward_cluster,
    ward_cut,
)
from .corpus import (
    Corpus,
    Gender,
    assemble_corpus,
    corpus_from_json,
    corpus_to_json,
    ingest_metadata,
)
from .emotion import EMOTION_COLUMNS, EmotionLexicon, character_means, primary_shares
from .errors import CurveError, EmocastError, InputEncodingError, StaleInputError, read_utf8
from .lexical import default_nouns, default_stopwords, exclusive_nouns, text_pass
from .screenplay import filter_min_dialogues, parse_script
from .stats import emotion_test_battery, gender_distribution_over_time
from .tsne import TsneConfig, scatter_svg, tsne

SCRIPT_SUFFIXES = (".txt", ".jsonl", ".json")
DEFAULT_TOP_WORDS = 50
K_MAX_DEFAULT = 10
EMOTIONS_HEADER = ["movie", "name", "gender", *EMOTION_COLUMNS, "no_affect", "dialogue_count"]
GENDER_LABELS = {g.value for g in Gender}
WORD_FIELDS = ("word", "count")
# The only CSV column named apart from its record key
CLUSTERS_CSV_NAMES = {"kmeans": "kmeans_cluster", "ward": "ward_cluster"}
CLUSTER_CACHE = "cluster_cache.json"

T = TypeVar("T")


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.perplexity < math.inf:
            raise ValueError("perplexity must be positive and finite")
        if self.bin_years < 1:
            raise ValueError("bin_years must be >= 1")
        if self.top_words < 1:
            raise ValueError("top_words must be >= 1")
        self.output_dir.mkdir(parents=True, exist_ok=True)


@dataclass(frozen=True)
class CharacterTable:
    """Per-character mean emotion rows, as emotions.csv holds them."""

    keys: list[tuple[str, str, str]]  # (movie, name, gender)
    vectors: np.ndarray  # characters x EMOTION_COLUMNS
    no_affect: np.ndarray  # bool per character

    def with_affect(self) -> tuple[np.ndarray, list[tuple[str, str, str]]]:
        """The rows and keys of the characters with affect evidence."""
        keep = ~self.no_affect
        return self.vectors[keep], [key for key, kept in zip(self.keys, keep.tolist()) if kept]


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value config; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    try:
        text = read_utf8(path)
    except InputEncodingError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
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


def _write(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temp file in the same
    directory and ``os.replace``: a run that dies mid-write leaves the old
    file whole, never a truncated one the next stage would accept."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Iterable[object]]) -> None:
    """A header line, then one line per row, each cell through _fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    _write(path, buf.getvalue())


def _fingerprint(files: Iterable[Path], config: dict) -> str:
    """sha256 over the package version, ``config`` and each file's name and content."""
    import hashlib  # here, so that `emocast --help` does not import it

    digests = []
    for path in files:
        with open(path, "rb") as fh:
            digests.append([path.name, hashlib.file_digest(fh, "sha256").hexdigest()])
    return hashlib.sha256(json.dumps([__version__, config, digests], sort_keys=True).encode()).hexdigest()


def _records(cfg: RunConfig) -> dict:
    """manifest.json's fingerprint per producer; none when it is missing or unreadable."""
    try:
        return dict(json.loads((cfg.output_dir / "manifest.json").read_bytes()))
    except (OSError, ValueError, TypeError, RecursionError):
        return {}


def _record(cfg: RunConfig, *producers: str) -> None:
    """Record in manifest.json what each producer made its artifact from."""
    records = _records(cfg) | {producer: _fingerprint(*PRODUCERS[producer](cfg)) for producer in producers}
    _write(cfg.output_dir / "manifest.json", json.dumps(records, indent=2, sort_keys=True) + "\n")


def _script_files(cfg: RunConfig) -> list[Path]:
    files = [
        p
        for p in sorted(cfg.script_dir.iterdir())
        if p.is_file() and p.suffix.lower() in SCRIPT_SUFFIXES
    ]
    if not files:
        raise FileNotFoundError(f"no script files in {cfg.script_dir}")
    return files


def _parsed(path: Path, parse: Callable[[TextIO], T], stage: str = "") -> T:
    """``parse`` of ``path`` opened as UTF-8 text, a BOM and line breaks as in read_utf8.
    A failure becomes one error starting ``[<stage>: ]<file>: ``: a package
    error keeps its type, a parser's other errors become ValueError, and a
    byte that is not UTF-8 is named by its line."""
    where = f"{stage}: {path.name}" if stage else path.name
    try:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                return parse(fh)
        except UnicodeDecodeError:
            read_utf8(path)  # a stream cannot tell the line of a bad byte; this raises naming it
            raise
    except EmocastError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except (ValueError, csv.Error, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise ValueError(f"{where}: {exc}") from None


def _load(cfg: RunConfig, stage: str, producer: str, parse: Callable[[TextIO], T]) -> T:
    """``producer``'s artifact, parsed for ``stage``. That producer and each
    one upstream of it, nearest first, must have recorded in manifest.json
    what it would make its artifact from now: a missing or different record
    or a missing upstream artifact warns, or fails under strict. Only
    ``producer``'s own artifact missing is an error whatever the mode."""
    artifact = PRODUCERS[producer](cfg)[0][-1]
    if not artifact.is_file():
        raise FileNotFoundError(f"{stage}: missing {artifact.name}; run {producer} first")
    records = _records(cfg)
    names = list(PRODUCERS)
    for name in names[names.index(producer) :: -1]:
        files, config = PRODUCERS[name](cfg)
        if not all(path.is_file() for path in files[:-1]):
            continue  # an upstream artifact is missing, which the next check reports
        if not (files[-1].is_file() and records.get(name) == _fingerprint(files, config)):
            message = f"{stage}: {files[-1].name} was not made from the current inputs and settings; rerun {name}"
            if cfg.strict:
                raise StaleInputError(message)
            print(f"warning: {message}", file=sys.stderr)
    del files  # parse's entry lists every script; free them before the parse below peaks
    return _parsed(artifact, parse, stage)


def _load_lexicon(cfg: RunConfig) -> EmotionLexicon:
    lexicon = _parsed(cfg.lexicon_path, lambda fh: emotion.load_lexicon(fh.read()))
    if lexicon.skipped_phrases:
        print(f"warning: skipped {lexicon.skipped_phrases} multi-word lexicon entries", file=sys.stderr)
    return lexicon


def stage_parse(cfg: RunConfig) -> Corpus:
    """Parse every script, apply the dialogue-count filter, join metadata."""
    dicts = {}
    provenance = {}
    for path in _script_files(cfg):
        movie = path.stem
        if movie in dicts:
            raise ValueError(f"{path.name}: movie id {movie!r} already seen as {provenance[movie]}")
        dicts[movie] = filter_min_dialogues(_parsed(path, lambda fh: parse_script(path, fh.read())), cfg.min_dialogues)
        provenance[movie] = path.name
    meta = _parsed(cfg.metadata_path, lambda fh: ingest_metadata(fh.read()))
    corpus = assemble_corpus(dicts, meta, provenance)

    _write(cfg.output_dir / "characters.json", json.dumps(dicts, indent=2, sort_keys=True, ensure_ascii=True) + "\n")
    _write(cfg.output_dir / "corpus.json", corpus_to_json(corpus))
    s = corpus.summary()
    print(
        f"[parse] {len(dicts)} movies -> {s['characters']} characters, {s['dialogues']} dialogues "
        f"({s['female']} female / {s['male']} male / {s['unknown']} unknown)"
    )
    return corpus


def stage_score(cfg: RunConfig, corpus: Corpus) -> tuple[CharacterTable, np.ndarray, dict[str, Counter]]:
    """Score the corpus text once; write per-character means to emotions.csv.

    Returns the character table, each dialogue's primary shares and the
    word counts, the inputs of the cluster, project, stats and words stages.
    """
    scored = text_pass(corpus, _load_lexicon(cfg), default_stopwords())
    shares = primary_shares(scored.counts)
    means, no_affect = character_means(shares, [len(rec.dialogues) for rec in corpus.records])
    table = CharacterTable(
        keys=[(rec.movie, rec.name, rec.gender.value) for rec in corpus.records],
        vectors=means,
        no_affect=no_affect,
    )
    # .tolist() hands _fmt Python floats and bools, whose repr and type the CSV relies on
    _write_csv(
        cfg.output_dir / "emotions.csv",
        EMOTIONS_HEADER,
        [
            [*key, *vector, flag, len(rec.dialogues)]
            for key, vector, flag, rec in zip(table.keys, means.tolist(), no_affect.tolist(), corpus.records)
        ],
    )
    print(f"[score] {len(corpus.records)} characters scored, {int(no_affect.sum())} with no affect evidence")
    return table, shares, scored.words


def _read_characters(fh: TextIO) -> CharacterTable:
    """The table stage_score wrote to emotions.csv, read a row at a time."""
    reader = csv.reader(fh)
    if next(reader, None) != EMOTIONS_HEADER:
        raise ValueError("line 1: expected the emotions.csv header")
    keys, vectors, no_affect = [], [], []
    try:
        for rec in reader:
            if len(rec) != len(EMOTIONS_HEADER) or rec[-2] not in ("true", "false"):
                raise ValueError(f"expected {len(EMOTIONS_HEADER)} fields with no_affect true or false")
            if rec[2] not in GENDER_LABELS:
                raise ValueError(f"gender must be female/male/unknown, got {rec[2]!r}")
            # float(repr(x)) == x, so these are the bits stage_score computed
            vectors.append([float(cell) for cell in rec[3:-2]])
            if not all(map(math.isfinite, vectors[-1])):
                raise ValueError("emotion values must be finite, not nan or inf")
            if not all(0.0 <= value <= 1.0 for value in vectors[-1]):  # each is a mean of shares
                raise ValueError("emotion values must lie in [0, 1]")
            keys.append((rec[0], rec[1], rec[2]))
            no_affect.append(rec[-2] == "true")
    except UnicodeDecodeError:
        raise  # _parsed names its line
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return CharacterTable(
        keys=keys,
        vectors=np.array(vectors).reshape(len(keys), len(EMOTION_COLUMNS)),
        no_affect=np.array(no_affect, dtype=bool),
    )


def stage_stats(cfg: RunConfig, corpus: Corpus, shares: np.ndarray) -> tuple[list[dict], list[dict]]:
    """Dialogue-level U-test battery plus the release-year gender table.

    ``shares`` holds the primary shares of every dialogue in corpus order;
    the battery reads those of female and male characters.
    """
    labels = [rec.gender.value for rec in corpus.records for _ in rec.dialogues]
    tests = emotion_test_battery(shares, labels)
    # the battery has a row per emotion and found both groups, so neither table is empty
    _write_csv(cfg.output_dir / "stats.csv", list(tests[0]), (test.values() for test in tests))
    timebins = gender_distribution_over_time(corpus, cfg.bin_years)
    _write_csv(cfg.output_dir / "timebins.csv", list(timebins[0]), (row.values() for row in timebins))
    degenerate = sum(1 for test in tests if test["p_value"] is None)
    print(f"[stats] {len(tests)} emotion tests ({degenerate} degenerate), {len(timebins)} year bins")
    return tests, timebins


def _cached_clusters(
    path: Path, key: str, matrix: np.ndarray, k_max: int
) -> tuple[dict[int, tuple[float, list[int]]], np.ndarray]:
    """The best k-means (sse, assignments) per k and the Ward merge pairs
    that the cluster cache at ``path`` holds. Raises OSError when it cannot
    be read, and ValueError unless it is JSON, the key matches, the sweep
    1..k_max is complete and every entry checks out: each k-means sse must
    equal, bit for bit, the one recomputed from its assignments the way
    ``kmeans`` computes it, and the pairs must form a merge history."""
    doc = json.loads(path.read_bytes())  # ValueError covers bad JSON and UTF-8
    if not isinstance(doc, dict) or doc.get("key") != key:
        raise ValueError("it was made for other inputs or settings")
    n = matrix.shape[0]
    if doc.get("n") != n:
        raise ValueError(f"it holds n={doc.get('n')!r}, not {n}")
    entries = doc.get("kmeans")
    if not isinstance(entries, dict) or any(str(k) not in entries for k in range(1, k_max + 1)):
        raise ValueError(f"it lacks k-means results for k = 1..{k_max}")
    sweep = {}
    for name, entry in entries.items():
        k = int(name) if name.isdecimal() else 0
        sse = entry.get("sse") if isinstance(entry, dict) else None
        if str(k) != name or not 1 <= k <= n or not isinstance(sse, float):
            raise ValueError(f"k-means entry {name!r} is malformed")
        labels = entry.get("assignments")
        if centroid_sse(matrix, labels, k).hex() != sse.hex():
            raise ValueError(f"k={k}: its sse is not that of its assignments")
        sweep[k] = (sse, labels)
    return sweep, merge_pairs(n, doc.get("ward"))


def stage_cluster(cfg: RunConfig, characters: CharacterTable) -> dict:
    """K-means and Ward assignments, elbow curve, and the gender audit.

    The k-means sweep and the Ward merge history are kept in
    cluster_cache.json, keyed by the fingerprint of emotions.csv, the code
    that computes and stores them, the seed and numpy's version, and reused
    while they validate. A missing cache is recomputed silently, an
    unusable one with one warning; from there both routes share one cut and
    one audit, so artifacts are the same either way.
    """
    matrix, kept = characters.with_affect()
    n = len(kept)
    if n < 2:
        raise ValueError(f"cluster: need at least 2 characters with affect, have {n}")
    auto = cfg.k == "auto"
    if not auto and int(cfg.k) > n:
        raise ValueError(f"cluster: k={int(cfg.k)} exceeds {n} characters")

    k_max = min(K_MAX_DEFAULT, n)
    cache_path = cfg.output_dir / CLUSTER_CACHE
    sources = [cfg.output_dir / "emotions.csv", Path(clustering.__file__), Path(__file__)]
    key = _fingerprint(sources, {"seed": cfg.seed, "numpy": np.__version__})
    try:
        sweep, pairs = _cached_clusters(cache_path, key, matrix, k_max)
        changed = False
    except (OSError, ValueError, RecursionError) as exc:
        if not isinstance(exc, FileNotFoundError):
            print(f"warning: {CLUSTER_CACHE} not used, recomputing: {exc}", file=sys.stderr)
        sweep = {k: (best.sse, best.assignments) for k, best in sse_curve(matrix, k_max, cfg.seed).items()}
        pairs = ward_cluster(matrix)[0]
        changed = True
    curve = [(k, sweep[k][0]) for k in range(1, k_max + 1)]
    if auto:
        try:
            chosen_k = elbow_detect(curve)
        except CurveError:
            chosen_k = 1
    else:
        chosen_k = int(cfg.k)

    if chosen_k not in sweep:  # a fixed --k above k_max was not swept
        km = best_kmeans(matrix, chosen_k, cfg.seed)
        sweep[chosen_k] = (km.sse, km.assignments)
        changed = True
    km_sse, km_assign = sweep[chosen_k]
    ward_assign = ward_cut(pairs, chosen_k)
    if changed:
        doc = {
            "key": key,
            "n": n,
            "kmeans": {str(k): {"sse": sse, "assignments": labels} for k, (sse, labels) in sweep.items()},
            "ward": pairs.tolist(),
        }
        _write(cache_path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")

    genders = [gender for _, _, gender in kept]
    composition = {
        method: composition_audit(assign, genders) for method, assign in (("kmeans", km_assign), ("ward", ward_assign))
    }
    assignments = [
        {"movie": movie, "name": name, "gender": gender, "kmeans": km_assign[i], "ward": ward_assign[i]}
        for i, (movie, name, gender) in enumerate(kept)
    ]
    sse = [{"k": k, "sse": s} for k, s in curve]

    out = cfg.output_dir
    _write_csv(
        out / "clusters.csv",
        [CLUSTERS_CSV_NAMES.get(key, key) for key in assignments[0]],
        (row.values() for row in assignments),
    )
    _write_csv(
        out / "composition.csv",
        ["method", *composition["kmeans"][0]],
        ([method, *row.values()] for method, rows in composition.items() for row in rows),
    )
    _write_csv(out / "ssecurve.csv", list(sse[0]), (row.values() for row in sse))
    excluded = len(characters.keys) - n
    print(f"[cluster] k={chosen_k} ({'elbow' if auto else 'fixed'}), {n} characters, {excluded} no-affect excluded")
    return {
        "k": chosen_k,
        "auto": auto,
        "sse_curve": sse,
        "kmeans_sse": km_sse,
        "excluded_no_affect": excluded,
        "assignments": assignments,
        # JSON has no inf or nan, so a non-finite ratio is the string the CSV holds
        "composition": {
            method: [
                {**row, "ratio": row["ratio"] if math.isfinite(row["ratio"]) else _fmt(row["ratio"])}
                for row in rows
            ]
            for method, rows in composition.items()
        },
    }


def stage_project(cfg: RunConfig, characters: CharacterTable) -> list[dict]:
    """t-SNE scatter of the character emotion vectors."""
    matrix, kept = characters.with_affect()
    if len(kept) < 5:
        raise ValueError(f"project: t-SNE needs at least 5 characters with affect, have {len(kept)}")
    embedding = tsne(matrix, TsneConfig(perplexity=cfg.perplexity, seed=cfg.seed))
    projection = [
        {"movie": movie, "name": name, "gender": gender, "x": x, "y": y}
        for (movie, name, gender), (x, y) in zip(kept, embedding.coords.tolist())
    ]
    _write_csv(cfg.output_dir / "tsne.csv", list(projection[0]), (row.values() for row in projection))
    _write(cfg.output_dir / "tsne.svg", scatter_svg(embedding.coords, [gender for _, _, gender in kept]))
    print(f"[project] {len(kept)} characters embedded, final KL {embedding.kl_trace[-1]:.4f}")
    return projection


def stage_words(cfg: RunConfig, words: dict[str, Counter]) -> dict:
    """Exclusive noun lists per gender for word-cloud consumption."""
    contrasts = exclusive_nouns(words, default_nouns(), cfg.top_words)
    ranked = {group: [dict(zip(WORD_FIELDS, pair)) for pair in pairs] for group, pairs in contrasts.items()}
    _write_csv(
        cfg.output_dir / "wordfreq.csv",
        ["group", *WORD_FIELDS, "rank"],
        ([group, *row.values(), rank] for group in sorted(ranked) for rank, row in enumerate(ranked[group], 1)),
    )
    print(f"[words] exclusive nouns: {len(ranked['female'])} female, {len(ranked['male'])} male")
    return ranked


# The stages whose artifact a later stage reads, in pipeline order (each reads
# the one before's): the files and settings each makes it from, then the
# artifact itself, so that a record matches only outputs its own run wrote.
PRODUCERS: dict[str, Callable[[RunConfig], tuple[list[Path], dict]]] = {
    "parse": lambda cfg: (
        [*_script_files(cfg), cfg.metadata_path, cfg.output_dir / "corpus.json"], {"min_dialogues": cfg.min_dialogues}
    ),
    "score": lambda cfg: ([cfg.output_dir / "corpus.json", cfg.lexicon_path, cfg.output_dir / "emotions.csv"], {}),
}


def _text_stages(cfg: RunConfig, corpus: Corpus) -> tuple[CharacterTable, list[dict], list[dict], dict]:
    """The score, stats and words stages on one text pass; its shares and word counts die on return."""
    characters, shares, words = stage_score(cfg, corpus)
    tests, timebins = stage_stats(cfg, corpus, shares)
    return characters, tests, timebins, stage_words(cfg, words)


# Each staged command: its inputs loaded from the artifacts, its stages, then a producer's record.
STAGES: dict[str, Callable[[RunConfig], object]] = {
    "parse": lambda cfg: (stage_parse(cfg), _record(cfg, "parse")),
    "score": lambda cfg: (
        _text_stages(cfg, _load(cfg, "score", "parse", lambda fh: corpus_from_json(fh.read()))), _record(cfg, "score")
    ),
    "cluster": lambda cfg: stage_cluster(cfg, _load(cfg, "cluster", "score", _read_characters)),
    "project": lambda cfg: stage_project(cfg, _load(cfg, "project", "score", _read_characters)),
}


def run_pipeline(cfg: RunConfig) -> dict:
    """Parse, score, stats, words, cluster and project in order, each handed the last
    one's results, then report.json tying them together. Returns the report's dict."""
    cfg.validate()
    corpus = stage_parse(cfg)
    characters, tests, timebins, words = _text_stages(cfg, corpus)
    report = {
        "summary": {"movies": len(corpus.provenance), **corpus.summary()},
        "tests": tests,
        "timebins": timebins,
        "clusters": stage_cluster(cfg, characters),
        "projection": stage_project(cfg, characters),
        "words": words,
        "run": {
            "seed": cfg.seed,
            "min_dialogues": cfg.min_dialogues,
            "perplexity": cfg.perplexity,
            "bin_years": cfg.bin_years,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }
    _record(cfg, *PRODUCERS)  # not in parse and score: hashlib there would raise their peak RSS
    _write(cfg.output_dir / "report.json", json.dumps(report, indent=2, ensure_ascii=True) + "\n")
    print(f"[run-all] artifacts written to {cfg.output_dir}")
    return report
