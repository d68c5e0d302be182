"""Independent reference implementations the tests check against.

These deliberately avoid the code paths under test: the U statistic comes
from direct pair enumeration, Ward merges from full SSE recomputation (and,
at sizes where that is too slow, from the first dense Ward kernel), the
k-means optimum from exhaustive partition search (and each Lloyd run from
the loop the package shipped first), silhouette from the textbook
definition, the t-SNE descent from the loop the package shipped first,
dialogue emotions from the per-dialogue dict path the package shipped
first, and the script parser and lexicon reader from the per-block and
per-row code the package shipped first.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum, auto
from itertools import product
from pathlib import Path

import numpy as np

from emocast.clustering import KMeansResult, _kmeanspp_init, _repair_empty
from emocast.emotion import DYADS, EMOTION_COLUMNS, PRIMARY_EMOTIONS, tokenize
from emocast.errors import CharacterNameError, InvariantError, LexiconError, ProfileError
from emocast.screenplay import (
    POSITIONAL_TOLERANCE,
    TEXT_TOLERANCE,
    IndentProfile,
    normalize_character_name,
)
from emocast.tsne import (
    EARLY_EXAGGERATION,
    EXAGGERATION_ITERS,
    KL_RECORD_EVERY,
    LEARNING_RATE,
    MOMENTUM_SWITCH_ITER,
    Embedding2D,
    TsneConfig,
    perplexity_calibration,
)


def mwu_brute(a, b):
    """U1 as pairwise wins plus half-ties; U2 as the complement."""
    u1 = 0.0
    for x in a:
        for y in b:
            if x > y:
                u1 += 1.0
            elif x == y:
                u1 += 0.5
    return u1, len(a) * len(b) - u1


def cluster_sse(X, idxs):
    pts = X[list(idxs)]
    return float(((pts - pts.mean(axis=0)) ** 2).sum())


def ward_naive(X):
    """Merge sequence by recomputing each candidate's SSE increase from scratch.

    Tie rule mirrors the implementation: strict improvement over pairs
    visited in ascending (id_a, id_b) order keeps the lowest pair.
    """
    n = len(X)
    clusters = {i: [i] for i in range(n)}
    next_id = n
    merges = []
    while len(clusters) > 1:
        best = None
        ids = sorted(clusters)
        for pos, id_a in enumerate(ids):
            for id_b in ids[pos + 1 :]:
                cost = (
                    cluster_sse(X, clusters[id_a] + clusters[id_b])
                    - cluster_sse(X, clusters[id_a])
                    - cluster_sse(X, clusters[id_b])
                )
                if best is None or cost < best[0]:
                    best = (cost, id_a, id_b)
        cost, id_a, id_b = best
        members = clusters.pop(id_a) + clusters.pop(id_b)
        clusters[next_id] = members
        merges.append((id_a, id_b, cost, len(members)))
        next_id += 1
    return merges


def ward_dense_reference(points, k):
    """The dense Lance-Williams Ward kernel the package shipped first.

    Keeps a (2n-1)^2 cost matrix, fills it from an n x n x d difference
    tensor and scans all of it on every merge, so it needs O(n^2 d) memory
    and O(n^3) time, but its costs carry the exact bits the slot-reusing
    kernel must reproduce. Returns ``(merges, assignments)`` with merges as
    ``(id_a, id_b, cost, new_size)`` tuples, like ``ward_naive``.
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[0]

    m = 2 * n - 1
    cost = np.full((m, m), np.inf)
    diff = X[:, None, :] - X[None, :, :]
    pair_sq = np.einsum("ijd,ijd->ij", diff, diff)
    cost[:n, :n] = 0.5 * pair_sq
    np.fill_diagonal(cost, np.inf)

    sizes = np.zeros(m, dtype=float)
    sizes[:n] = 1.0
    members = {i: [i] for i in range(n)}
    active = set(range(n))

    def snapshot_assignments():
        clusters = sorted((min(members[cid]), cid) for cid in active)
        label_of = {cid: label for label, (_, cid) in enumerate(clusters)}
        assignment = [0] * n
        for cid in active:
            for point in members[cid]:
                assignment[point] = label_of[cid]
        return assignment

    assignments = snapshot_assignments() if len(active) == k else None
    merges = []
    for step in range(n - 1):
        flat = int(np.argmin(cost))
        i, j = divmod(flat, m)
        merge_cost = float(cost[i, j])
        new_id = n + step
        new_size = sizes[i] + sizes[j]

        ids = np.fromiter(
            (c for c in active if c != i and c != j), dtype=int, count=len(active) - 2
        )
        if ids.size:
            updated = (
                (sizes[i] + sizes[ids]) * cost[np.minimum(i, ids), np.maximum(i, ids)]
                + (sizes[j] + sizes[ids]) * cost[np.minimum(j, ids), np.maximum(j, ids)]
                - sizes[ids] * merge_cost
            ) / (new_size + sizes[ids])
            cost[np.minimum(ids, new_id), np.maximum(ids, new_id)] = updated
            cost[np.maximum(ids, new_id), np.minimum(ids, new_id)] = updated

        cost[i, :] = np.inf
        cost[:, i] = np.inf
        cost[j, :] = np.inf
        cost[:, j] = np.inf

        sizes[new_id] = new_size
        members[new_id] = members.pop(i) + members.pop(j)
        active.discard(i)
        active.discard(j)
        active.add(new_id)
        merges.append((i, j, merge_cost, int(new_size)))
        if len(active) == k:
            assignments = snapshot_assignments()

    assert assignments is not None
    return merges, assignments


def ward_snapshot_reference(n, merges, k):
    """Labels at k clusters the way the Ward kernel first took them: inside
    the merge loop, from a member list per live cluster, replayed here over
    the ``(id_a, id_b, ...)`` merges. Clusters are labeled 0..k-1 in order of
    each one's smallest point index."""
    members = {i: [i] for i in range(n)}
    for step, (id_a, id_b, *_) in enumerate(merges[: n - k]):
        members[n + step] = members.pop(id_a) + members.pop(id_b)
    clusters = sorted((min(points), cid) for cid, points in members.items())
    assignment = [0] * n
    for label, (_, cid) in enumerate(clusters):
        for point in members[cid]:
            assignment[point] = label
    return assignment


def merge_tuples(pairs, costs):
    """A ``ward_cluster`` history, ``(pairs, costs)``, as the
    ``(id_a, id_b, cost, new_size)`` tuples the references return, each
    size counted from the pairs: cluster n + step holds the points of the
    two clusters merge ``step`` joins."""
    sizes = [1] * (len(pairs) + 1)
    merges = []
    for (id_a, id_b), cost in zip(pairs.tolist(), costs.tolist()):
        sizes.append(sizes[id_a] + sizes[id_b])
        merges.append((id_a, id_b, cost, sizes[-1]))
    return merges


def kmeans_optimal_sse(X, k):
    """Exhaustive search over all assignments; only viable for tiny n."""
    n = len(X)
    best = np.inf
    for assignment in product(range(k), repeat=n):
        sse = 0.0
        for j in range(k):
            idxs = [i for i in range(n) if assignment[i] == j]
            if idxs:
                sse += cluster_sse(X, idxs)
        best = min(best, sse)
    return best


def kmeans_reference(points, k, seed, max_iter=300):
    """The Lloyd loop the package shipped first.

    Builds the n x k x d difference tensor and a boolean mask per cluster
    on every iteration, but its assignments, centroids, SSE and iteration
    count carry the exact bits the bounded loop must reproduce. Seeding and
    the empty-cluster repair are shared with the package. Returns
    ``(result, repairs)``, the second counting iterations that repaired an
    empty cluster.
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(X, k, rng)

    prev_assign = None
    prev_sse = math.inf
    assign = np.zeros(n, dtype=int)
    repairs = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        diff = X[:, None, :] - centers[None, :, :]
        assign = np.einsum("nkd,nkd->nk", diff, diff).argmin(axis=1)
        repaired = np.bincount(assign, minlength=k).min() == 0
        repairs += int(repaired)
        assign = _repair_empty(X, centers, assign, k)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        for j in range(k):
            centers[j] = X[assign == j].mean(axis=0)
        sse = float(((X - centers[assign]) ** 2).sum())
        if math.isfinite(prev_sse) and sse > prev_sse + 1e-9 * (1.0 + prev_sse):
            raise InvariantError(f"kmeans: SSE rose from {prev_sse!r} to {sse!r}")
        prev_assign, prev_sse = assign.copy(), sse
        if repaired and len(np.unique(X, axis=0)) < k:
            break  # identical rows share a centre: the repair cannot hold

    sse = float(((X - centers[assign]) ** 2).sum())
    result = KMeansResult(
        assignments=[int(a) for a in assign], centroids=centers, sse=sse, iterations=iterations
    )
    return result, repairs


def silhouette(points, labels):
    """Mean silhouette coefficient, straight from the definition."""
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    scores = []
    for i in range(len(pts)):
        own = labels == labels[i]
        dists = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        same = dists[own & (np.arange(len(pts)) != i)]
        if same.size == 0:
            scores.append(0.0)
            continue
        a = same.mean()
        b = min(dists[labels == other].mean() for other in set(labels) - {labels[i]})
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


_TSNE_EPS = 1e-12


def _sq_distances_reference(points):
    sq = (points**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _student_t_weights_reference(coords):
    num = 1.0 / (1.0 + _sq_distances_reference(coords))
    np.fill_diagonal(num, 0.0)
    return num


def kl_divergence_reference(P, coords):
    num = _student_t_weights_reference(coords)
    Q = num / num.sum()
    mask = P > 0
    return float((P[mask] * np.log(P[mask] / np.maximum(Q[mask], _TSNE_EPS))).sum())


def kl_decomposed_reference(P, p_log_p, coords):
    """KL(P || Q) as sum P log P - sum P log num + log Z, Q = num / Z floored at 1e-12.

    ``p_log_p`` is sum P log P over P's support. Every array is fresh; the
    floor is taken on num at 1e-12 Z, and P's zeros add nothing to the dot.
    """
    num = _student_t_weights_reference(coords)
    total = num.sum()
    log_num = np.log(np.maximum(num, _TSNE_EPS * total))
    return float(p_log_p - np.vdot(P, log_num) + math.log(total))


def p_log_p_reference(P):
    support = P[P > 0]
    return float((support * np.log(support)).sum())


def kl_gradient_reference(P, coords):
    num = _student_t_weights_reference(coords)
    Q = num / num.sum()
    W = (P - Q) * num
    return 4.0 * (W.sum(axis=1)[:, None] * coords - W @ coords)


def tsne_reference(points, config=TsneConfig()):
    """The exact t-SNE descent the package shipped first, with its objective
    rearranged as ``kl_decomposed_reference``.

    Builds the Student-t kernel from scratch for every gradient and every
    objective evaluation (twice per iteration once exaggeration ends) and
    allocates fresh n x n temporaries for each, but its coordinates and KL
    trace carry the exact bits the kernel-reusing descent must reproduce.
    Only the perplexity calibration is shared with the package. Returns
    ``(embedding, rejections)``, the second counting rejected uphill steps.
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[0]
    perplexity = min(config.perplexity, (n - 1) / 3.0)
    cond = perplexity_calibration(_sq_distances_reference(X), perplexity)
    P = (cond + cond.T) / (2.0 * n)
    p_log_p = p_log_p_reference(P)

    rng = np.random.default_rng(config.seed)
    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    step_scale = 1.0
    current_kl = None
    trace = []
    rejections = 0

    for iteration in range(1, config.iterations + 1):
        exaggerate = iteration <= EXAGGERATION_ITERS
        P_eff = P * EARLY_EXAGGERATION if exaggerate else P
        grad = kl_gradient_reference(P_eff, Y)

        momentum = 0.5 if iteration <= MOMENTUM_SWITCH_ITER else 0.8
        same_direction = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_direction, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        velocity = momentum * velocity - LEARNING_RATE * step_scale * gains * grad
        candidate = Y + velocity
        candidate -= candidate.mean(axis=0)

        if exaggerate:
            Y = candidate
        else:
            if current_kl is None:
                current_kl = kl_decomposed_reference(P, p_log_p, Y)
            candidate_kl = kl_decomposed_reference(P, p_log_p, candidate)
            if candidate_kl > current_kl:  # reject the uphill step
                rejections += 1
                velocity[:] = 0.0
                gains[:] = 1.0
                step_scale = max(step_scale * 0.5, 1e-6)
            else:
                Y = candidate
                current_kl = candidate_kl
                step_scale = min(step_scale * 1.05, 1.0)

        if iteration % KL_RECORD_EVERY == 0 or iteration == config.iterations:
            trace.append(
                current_kl if current_kl is not None else kl_decomposed_reference(P, p_log_p, Y)
            )

    return Embedding2D(coords=Y, kl_trace=trace), rejections


def score_dialogue_reference(dialogue, lexicon):
    """Primary name -> share of the dialogue's affect hits, and the hit count."""
    counts = Counter()
    for token in tokenize(dialogue):
        for affect in lexicon.entries.get(token, ()):
            counts[affect] += 1
    total = sum(counts.values())
    if total == 0:
        return {name: 0.0 for name in PRIMARY_EMOTIONS}, 0
    return {name: counts[name] / total for name in PRIMARY_EMOTIONS}, total


def dyad_expand_reference(scores):
    """Emotion name -> value in EMOTION_COLUMNS order; a dyad averages its pair."""
    return {
        name: scores[name] if name in scores else (scores[DYADS[name][0]] + scores[DYADS[name][1]]) / 2
        for name in EMOTION_COLUMNS
    }


def aggregate_character_reference(dialogues, lexicon):
    """(mean 32-dim dict over the dialogues with hits, no_affect flag)."""
    vectors = []
    for dialogue in dialogues:
        scores, hits = score_dialogue_reference(dialogue, lexicon)
        if hits:
            vectors.append(dyad_expand_reference(scores))
    if not vectors:
        return {name: 0.0 for name in EMOTION_COLUMNS}, True
    return {name: sum(v[name] for v in vectors) / len(vectors) for name in EMOTION_COLUMNS}, False


def group_frequencies_reference(corpus, stopwords, min_len=2):
    """Group label -> Counter of the tokens of its characters' dialogues."""
    counts = {"female": Counter(), "male": Counter()}
    for rec in corpus.records:
        if rec.gender.value in counts:
            for dialogue in rec.dialogues:
                for token in tokenize(dialogue):
                    if len(token) >= min_len and token not in stopwords:
                        counts[rec.gender.value][token] += 1
    return counts


_PRIMARY_SET = frozenset(PRIMARY_EMOTIONS)


@dataclass(frozen=True)
class RawBlock:
    """The block the first parser built: a frozen dataclass, one per line."""

    text: str
    left: int
    order: int


def load_text_blocks_reference(source):
    """One block per non-blank line: tabs expanded on every line."""
    blocks = []
    for i, line in enumerate(source.splitlines()):
        line = line.expandtabs()
        text = line.strip()
        if not text:
            continue
        left = len(line) - len(line.lstrip(" "))
        blocks.append(RawBlock(text=text, left=left, order=i))
    return blocks


def load_positional_blocks_reference(source):
    """One block per JSON line, split by ``str.splitlines`` and read by
    ``json.loads``: a string ``text`` and a numeric ``left``, truncated."""
    blocks = []
    for i, line in enumerate(source.splitlines()):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            left = int(obj["left"])
            if type(obj["text"]) is not str or type(obj["left"]) in (bool, str):
                raise TypeError("'text' must be a JSON string and 'left' a JSON number")
            text = obj["text"].strip()
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {i + 1}: bad positional block: {exc}") from exc
        if left < 0:
            raise ValueError(f"line {i + 1}: bad positional block: negative left offset")
        if not text:
            continue
        blocks.append(RawBlock(text=text, left=left, order=i))
    return blocks


def infer_indent_profile_reference(blocks, tolerance=TEXT_TOLERANCE):
    """Group offsets into levels around the most frequent ungrouped offset."""
    if not blocks:
        raise ProfileError("no blocks to profile")
    counts = Counter(b.left for b in blocks)
    ungrouped = set(counts)
    levels = []
    for seed, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if seed not in ungrouped:
            continue
        members = sorted(left for left in ungrouped if abs(left - seed) <= tolerance)
        ungrouped.difference_update(members)
        levels.append((sum(counts[left] for left in members), (members[0] + members[-1]) // 2))
    if len(levels) < 3:
        raise ProfileError(
            f"need at least 3 distinct left offset levels (within {tolerance} grouped), "
            f"found {len(levels)}"
        )
    top3 = sorted(levels, key=lambda level: (-level[0], level[1]))[:3]
    action, dialogue, cue = sorted(left for _, left in top3)
    return IndentProfile(action, dialogue, cue)


class BlockKind(Enum):
    SCENE_HEADING = auto()
    ACTION = auto()
    CHARACTER_CUE = auto()
    DIALOGUE = auto()
    PARENTHETICAL = auto()
    OTHER = auto()


def _is_all_caps(text):
    return text.isupper()


def _is_parenthetical(text):
    return text.startswith("(") and text.endswith(")")


def _is_slugline(text):
    return text.upper().startswith(("INT.", "EXT.", "INT/", "EXT/", "I/E."))


def classify_blocks_reference(blocks, profile, tolerance=TEXT_TOLERANCE):
    """Exactly one BlockKind per block, from its offset and its text."""
    classified = []
    for b in blocks:
        if abs(b.left - profile.cue_indent) <= tolerance and _is_all_caps(b.text):
            kind = BlockKind.CHARACTER_CUE
        elif abs(b.left - profile.dialogue_indent) <= tolerance:
            kind = BlockKind.PARENTHETICAL if _is_parenthetical(b.text) else BlockKind.DIALOGUE
        elif abs(b.left - profile.action_indent) <= tolerance:
            kind = BlockKind.SCENE_HEADING if _is_slugline(b.text) else BlockKind.ACTION
        else:
            kind = BlockKind.OTHER
        classified.append((b, kind))
    return classified


def build_character_dictionary_reference(classified):
    """Dialogue runs under their preceding cue, from classified blocks."""
    entries = {}
    current = None
    run = []

    def flush():
        nonlocal run
        if current is not None and run:
            entries.setdefault(current, []).append(" ".join(run))
        run = []

    for block, kind in classified:
        if kind is BlockKind.CHARACTER_CUE:
            flush()
            try:
                current = normalize_character_name(block.text)
            except CharacterNameError:
                current = None
        elif kind is BlockKind.DIALOGUE:
            if current is not None and block.text:
                run.append(block.text)
        elif kind is BlockKind.PARENTHETICAL:
            continue
        else:
            flush()
            current = None
    flush()
    return entries


def parse_script_reference(path):
    """The whole reference parse of one script file."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".jsonl", ".json"):
        blocks, tolerance = load_positional_blocks_reference(source), POSITIONAL_TOLERANCE
    else:
        blocks, tolerance = load_text_blocks_reference(source), TEXT_TOLERANCE
    profile = infer_indent_profile_reference(blocks, tolerance)
    return build_character_dictionary_reference(classify_blocks_reference(blocks, profile, tolerance))


def load_lexicon_reference(text):
    """(word -> frozenset of primaries, skipped phrase rows), one row at a time."""
    entries = {}
    skipped = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise LexiconError(f"line {lineno}: expected 3 tab-separated fields")
        word, affect, flag = (part.strip() for part in parts)
        affect = affect.lower()
        if not word:
            raise LexiconError(f"line {lineno}: empty word")
        if affect not in _PRIMARY_SET and affect not in ("positive", "negative"):
            raise LexiconError(f"line {lineno}: unknown affect {affect!r}")
        if flag not in ("0", "1"):
            raise LexiconError(f"line {lineno}: flag must be 0 or 1, got {flag!r}")
        if flag == "0" or affect in ("positive", "negative"):
            continue
        word = word.lower()
        if any(ch.isspace() for ch in word):
            skipped += 1
            continue
        entries.setdefault(word, set()).add(affect)
    return {word: frozenset(affects) for word, affects in entries.items()}, skipped


def text_pass_reference(corpus, lexicon, stopwords, min_len=2):
    """(dialogue x 8 count rows, group word Counters), one token list per dialogue."""
    column = {affect: j for j, affect in enumerate(PRIMARY_EMOTIONS)}
    words = {"female": Counter(), "male": Counter()}
    rows = []
    for rec in corpus.records:
        counter = words.get(rec.gender.value)
        for dialogue in rec.dialogues:
            tokens = tokenize(dialogue)
            row = [0] * len(PRIMARY_EMOTIONS)
            for token in tokens:
                for affect in lexicon.entries.get(token, ()):
                    row[column[affect]] += 1
            rows.append(row)
            if counter is not None:
                counter.update([t for t in tokens if len(t) >= min_len and t not in stopwords])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(PRIMARY_EMOTIONS)), words
