"""Character clustering: Lloyd k-means with k-means++ seeding, elbow
selection over the SSE curve, and Ward agglomerative merging.

Everything here is deterministic given its seed. Ties are broken by fixed
rules (lowest centroid index for assignments, lowest id pair for merges)
so that repeated runs and the from-scratch oracles in the test suite see
identical sequences.

The Lloyd loop skips distance work with Hamerly's bounds ("Making k-means
even faster", SDM 2010) and still assigns every point exactly as an
``argmin`` over all its squared distances would. Each point keeps an upper
bound on the distance to its own centre and a lower bound on the distance
to every other centre. After a centre update the upper bound grows by the
own centre's movement and the lower bound shrinks by the largest movement.
A point is certified, and skipped, while ``upper * (1 + 1e-9) < lower``.
Otherwise its distances to all centres are computed, and its bounds become
its exact nearest and second-nearest distances. A computed distance or
movement is off by a relative ``(d + 2) * 2**-53`` at most, and each bound
update adds about one more ulp; each movement is also inflated by
``1 + 1e-9`` before it enters the bounds. While d and the iteration count
stay far below 1e6, the margin covers all of it, so rounding can never
certify a point whose ``argmin``, ties to the lowest index, would pick
another centre. Distances are computed one centre at a time with
``einsum("nd,nd->n")``, which gives the same bits as an n x k x d
difference tensor without holding it. Each centre is the sum of its
cluster's rows, gathered by a boolean mask in row order, divided by the
count: the same ``mean(axis=0)`` over the same rows in the same order.
After ``_repair_empty`` moves a centre the bounds are reset. The scratch
buffers (two n x d, one k x n, the bounds) are allocated once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CurveError, DimensionError, InvariantError, NonFiniteError

KMEANS_MAX_ITER = 300
DEFAULT_RESTARTS = 10
_WARD_ROW_BLOCK = 16  # rows of pairwise differences held at once
_BOUND_MARGIN = 1e-9  # relative slack of the Hamerly bound test, see the module docstring


@dataclass(frozen=True)
class KMeansResult:
    assignments: list[int]
    centroids: np.ndarray
    sse: float
    iterations: int


def _as_matrix(points: Sequence[Sequence[float]]) -> np.ndarray:
    if isinstance(points, np.ndarray) and points.dtype == np.float64 and points.ndim == 2:
        mat = np.ascontiguousarray(points)  # copies only a non-contiguous view
    else:
        arr = np.asarray(points, dtype=object)
        if arr.ndim != 2:
            raise DimensionError("points must form a 2-D matrix with equal-length rows")
        mat = arr.astype(float)
    if not np.all(np.isfinite(mat)):
        raise NonFiniteError("points must be finite")
    return mat


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _repair_empty(
    points: np.ndarray, centers: np.ndarray, assign: np.ndarray, k: int
) -> np.ndarray:
    """Reseed each empty cluster with the point farthest from its centroid.

    Only points in clusters of size >= 2 are eligible, otherwise the steal
    would just move the hole to another cluster.
    """
    while True:
        counts = np.bincount(assign, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return assign
        j = int(empty[0])
        dist_to_own = ((points - centers[assign]) ** 2).sum(axis=1)
        eligible = counts[assign] >= 2
        farthest = int(np.argmax(np.where(eligible, dist_to_own, -np.inf)))
        assign[farthest] = j
        centers[j] = points[farthest]


def _nearest_centres(
    X: np.ndarray,
    centers: np.ndarray,
    assign: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> int:
    """Point ``assign`` at each row's nearest centre, ties to the lowest index.

    Rows whose bounds certify their centre are skipped. The rest get all k
    squared distances, after which ``upper`` and ``lower`` hold their
    nearest and second-nearest distances. ``scratch`` is (rows, diff, d2)
    of shapes n x d, n x d and k x n. Returns the number of rows measured.
    """
    rows, diff, d2 = scratch
    # a NaN bound fails the comparison, so it is never trusted
    stale = np.flatnonzero(~(upper * (1.0 + _BOUND_MARGIN) < lower))
    m = stale.size
    if m == 0:
        return 0
    pts = np.take(X, stale, axis=0, out=rows[:m])
    block = d2[:, :m]
    for j in range(centers.shape[0]):
        np.subtract(pts, centers[j], out=diff[:m])
        np.einsum("nd,nd->n", diff[:m], diff[:m], out=block[j])
    nearest = block.argmin(axis=0)
    cols = np.arange(m)
    assign[stale] = nearest
    upper[stale] = np.sqrt(block[nearest, cols])
    block[nearest, cols] = np.inf
    lower[stale] = np.sqrt(block.min(axis=0))
    return m


def _centroids(X: np.ndarray, assign: np.ndarray, counts: np.ndarray, centers: np.ndarray) -> None:
    """Write each cluster's mean into ``centers``: the sum of its rows in row
    order divided by its count, the bits of ``X[assign == j].mean(axis=0)``."""
    for j in range(centers.shape[0]):
        np.add.reduce(X[assign == j], axis=0, out=centers[j])
    centers /= counts[:, None]  # what mean(axis=0) does after its sum


def _sse(X: np.ndarray, centers: np.ndarray, assign: np.ndarray, out: np.ndarray) -> float:
    """Squared distance of every row to its centre, summed; ``out`` is n x d scratch."""
    np.take(centers, assign, axis=0, out=out)
    np.subtract(X, out, out=out)
    return float(np.square(out, out=out).sum())


def kmeans(
    points: Sequence[Sequence[float]],
    k: int,
    seed: int,
    max_iter: int = KMEANS_MAX_ITER,
) -> KMeansResult:
    """Lloyd iterations from a k-means++ start until assignments stabilize.

    Nearest-centroid ties go to the lowest centroid index; an emptied
    cluster is reseeded with the farthest point. Identical rows share a
    nearest centroid, so with fewer distinct rows than k every iteration
    empties a cluster again: the loop then stops after its first repaired
    iteration. SSE never increases across iterations; an increase raises
    InvariantError.
    """
    X = _as_matrix(points)
    n, dim = X.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(X, k, rng)

    scratch = (np.empty((n, dim)), np.empty((n, dim)), np.empty((k, n)))
    upper = np.full(n, np.inf)  # >= distance to the own centre
    lower = np.zeros(n)  # <= distance to every other centre
    assign = np.zeros(n, dtype=np.intp)
    prev_assign = np.empty(n, dtype=np.intp)
    previous = np.empty_like(centers)
    prev_sse = math.inf
    too_few_rows = False
    for iterations in range(1, max_iter + 1):
        _nearest_centres(X, centers, assign, upper, lower, scratch)
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            _repair_empty(X, centers, assign, k)
            counts = np.bincount(assign, minlength=k)
            upper.fill(np.inf)  # a centre jumped and a point changed cluster
            lower.fill(0.0)
            ordered = X[np.lexsort(X.T)]  # equal rows side by side; numpy's unique keeps ~0.5 MB of heap on first use
            too_few_rows = 1 + int((ordered[1:] != ordered[:-1]).any(axis=1).sum()) < k  # then no repair can hold
        if iterations > 1 and np.array_equal(assign, prev_assign):
            break
        previous[...] = centers
        _centroids(X, assign, counts, centers)
        np.subtract(centers, previous, out=previous)
        shift = np.sqrt(np.einsum("kd,kd->k", previous, previous)) * (1.0 + _BOUND_MARGIN)
        upper += shift[assign]
        lower -= shift.max()
        sse = _sse(X, centers, assign, scratch[1])
        if math.isfinite(prev_sse) and sse > prev_sse + 1e-9 * (1.0 + prev_sse):
            raise InvariantError(
                f"kmeans: SSE rose from {prev_sse!r} to {sse!r} in iteration {iterations}"
            )
        prev_assign[...] = assign
        prev_sse = sse
        if too_few_rows:
            break

    # At every exit the centres and assignments are the ones the last SSE
    # was computed from: a repair just before convergence moves a one-point
    # cluster's centre onto that point, which was already its mean.
    return KMeansResult(
        assignments=assign.tolist(),
        centroids=centers,
        sse=prev_sse,
        iterations=iterations,
    )


def centroid_sse(points: Sequence[Sequence[float]], assignments: Sequence[int], k: int) -> float:
    """SSE of ``assignments`` around their k centroids, computed the way
    ``kmeans`` computes its result's: a result's own assignments give its
    ``sse`` bit for bit. Raises ValueError unless the assignments label
    each point with one of 0..k-1 and leave no cluster empty."""
    X = _as_matrix(points)
    assign = np.asarray(assignments)
    if assign.shape != (X.shape[0],) or assign.dtype.kind not in "iu":
        raise ValueError("assignments must hold one integer label per point")
    if assign.min() < 0 or assign.max() >= k:  # before bincount sizes its output by them
        raise ValueError(f"assignments must use labels 0..{k - 1} only")
    counts = np.bincount(assign.astype(np.intp, copy=False), minlength=k)
    if not counts.all():
        raise ValueError(f"assignments must use every label 0..{k - 1}")
    centers = np.empty((k, X.shape[1]))
    _centroids(X, assign, counts, centers)
    return _sse(X, centers, assign, np.empty_like(X))


def _derived_seed(seed: int, k: int, restart: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(k, restart)).generate_state(1)[0])


def best_kmeans(points: Sequence[Sequence[float]], k: int, seed: int) -> KMeansResult:
    """Best of ``DEFAULT_RESTARTS`` runs by SSE; ties keep the earliest restart."""
    best = kmeans(points, k, _derived_seed(seed, k, 0))
    for restart in range(1, DEFAULT_RESTARTS):
        result = kmeans(points, k, _derived_seed(seed, k, restart))
        if result.sse < best.sse:
            best = result
    return best


def sse_curve(points: Sequence[Sequence[float]], k_max: int, seed: int) -> dict[int, KMeansResult]:
    """``best_kmeans`` at each k = 1..k_max, the sweep the elbow is read from."""
    X = _as_matrix(points)
    if not 1 <= k_max <= X.shape[0]:
        raise ValueError(f"need 1 <= k_max <= {X.shape[0]}")
    return {k: best_kmeans(X, k, seed) for k in range(1, k_max + 1)}


def elbow_detect(curve: Sequence[tuple[int, float]]) -> int:
    """k with the largest second difference of SSE; ties pick the smaller k."""
    if len(curve) < 3:
        raise CurveError("elbow detection needs at least 3 curve points")
    ks = [k for k, _ in curve]
    sses = [s for _, s in curve]
    for prev_k, next_k in zip(ks, ks[1:]):
        if next_k != prev_k + 1:
            raise CurveError("curve points must cover consecutive k")
    best_k, best_val = ks[1], -math.inf
    for i in range(1, len(curve) - 1):
        val = sses[i - 1] - 2.0 * sses[i] + sses[i + 1]
        if val > best_val:
            best_k, best_val = ks[i], val
    return best_k


def ward_cluster(points: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Agglomerative merging that minimizes the within-cluster SSE increase.

    Singleton clusters start with ids 0..n-1; each merge creates id n+step.
    Pair costs are maintained with the Lance-Williams recurrence for the
    Ward criterion, so each recorded cost is the exact SSE increase of that
    merge. Cost ties resolve to the lowest (id_a, id_b) pair, id_a < id_b.
    Returns the merge history as ``(pairs, costs)``: an (n-1) x 2 array of
    the (id_a, id_b) merged at each step and the (n-1) costs, the pairs and
    heights of a scipy linkage matrix. ``ward_cut`` labels it at any k.

    Memory is O(n^2): one n x n cost matrix indexed by slot. Slot i starts
    with cluster i; a merge puts the new cluster in the slot of id_a and
    retires the slot of id_b. Each slot caches its cheapest partner among
    the clusters with a larger id (ties to the lowest id), so a merge
    rescans only the rows whose cached partner took part in it.
    """
    X = _as_matrix(points)
    n = X.shape[0]
    if n < 2:
        raise ValueError("ward_cluster needs at least 2 points")

    cost = np.empty((n, n))
    for lo in range(0, n, _WARD_ROW_BLOCK):
        diff = X[lo : lo + _WARD_ROW_BLOCK, None, :] - X[None, :, :]
        cost[lo : lo + _WARD_ROW_BLOCK] = 0.5 * np.einsum("ijd,ijd->ij", diff, diff)
    np.fill_diagonal(cost, np.inf)

    ids = np.arange(n)  # cluster id held by each slot
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    nn_cost = np.full(n, np.inf)
    nn_slot = np.full(n, -1)

    def rescan(slot: int) -> None:
        row = np.where(active & (ids > ids[slot]), cost[slot], np.inf)
        best = row.min()
        ties = np.flatnonzero(row == best)
        nn_cost[slot] = best
        nn_slot[slot] = ties[np.argmin(ids[ties])]

    for slot in range(n - 1):
        rescan(slot)
    pairs = np.empty((n - 1, 2), dtype=np.intp)
    costs = np.empty(n - 1)
    for step in range(n - 1):
        best = nn_cost.min()
        if not math.isfinite(best):
            raise NonFiniteError("ward_cluster: merge cost overflowed")
        ties = np.flatnonzero(nn_cost == best)
        a = int(ties[np.argmin(ids[ties])])
        b = int(nn_slot[a])
        merge_cost = costs[step] = cost[a, b]
        pairs[step] = ids[a], ids[b]
        new_size = sizes[a] + sizes[b]

        active[a] = active[b] = False
        others = np.flatnonzero(active)
        s = sizes[others]
        updated = (
            (sizes[a] + s) * cost[a, others]
            + (sizes[b] + s) * cost[b, others]
            - s * merge_cost
        ) / (new_size + s)
        cost[a, others] = updated
        cost[others, a] = updated
        active[a] = True
        ids[a] = n + step
        sizes[a] = new_size
        nn_cost[a] = nn_cost[b] = np.inf
        nn_slot[a] = nn_slot[b] = -1

        # Rows whose cached partner was merged away are rescanned. Any other
        # row keeps its partner unless the new cluster is strictly cheaper:
        # the new id is the largest, so it never wins a cost tie.
        stale = others[(nn_slot[others] == a) | (nn_slot[others] == b)]
        lower = updated < nn_cost[others]
        nn_cost[others[lower]] = updated[lower]
        nn_slot[others[lower]] = a
        for slot in stale:
            rescan(int(slot))

    return pairs, costs


def merge_pairs(n_points: int, pairs: Sequence[Sequence[int]]) -> np.ndarray:
    """``pairs`` as an (n-1) x 2 id array, once checked to be a merge history.

    Merge ``step`` must join two clusters that exist by then and were not
    merged before: ``0 <= id_a < id_b < n + step``, and no id appears twice.
    Anything else raises ValueError.
    """
    merged = np.asarray(pairs)
    if n_points < 2 or merged.shape != (n_points - 1, 2) or merged.dtype.kind not in "iu":
        raise ValueError(f"a merge history of {n_points} points is {n_points - 1} pairs of ids")
    ids = merged.astype(np.intp)
    live = (ids[:, 0] >= 0) & (ids[:, 0] < ids[:, 1]) & (ids[:, 1] < n_points + np.arange(n_points - 1))
    if not live.all():
        step = int(np.argmin(live))
        raise ValueError(f"merge {step} {ids[step].tolist()} does not join two existing clusters")
    if np.bincount(ids.ravel()).max() > 1:
        raise ValueError("a cluster id is merged more than once")
    return ids


def ward_cut(pairs: np.ndarray, k: int) -> list[int]:
    """Cluster labels after the first n-k merges of a merge history, the
    (n-1) x 2 id array that ``ward_cluster`` builds and ``merge_pairs`` checks.

    Replays those merges in a union-find forest (each merge is the parent of
    its two clusters) and labels the k roots 0..k-1 in order of each one's
    smallest point index.
    """
    n = len(pairs) + 1
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    steps = n - k
    parent = np.arange(2 * n - 1)
    parent[pairs[:steps, 0]] = parent[pairs[:steps, 1]] = np.arange(n, n + steps)
    while True:  # pointer jumping: after t rounds each id points 2**t levels up
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand
    points = np.arange(n)
    roots = parent[:n]
    smallest = np.full(2 * n - 1, n)
    np.minimum.at(smallest, roots, points)
    head = smallest[roots]  # each point's cluster, named by its smallest point
    label = np.cumsum(head == points) - 1  # at a head point: how many heads precede it
    return label[head].tolist()


def composition_audit(assignments: Sequence[int], genders: Sequence[str]) -> list[dict]:
    """Per-cluster gender balance against the female share of all ``genders``:
    the composition.csv rows of one method, without the method column.

    ``genders`` holds the labels emotions.csv holds: "female", "male" or
    "unknown". ratio is male per female, inf with no females and nan with
    neither. The expected female count of a cluster scales its female+male
    size by the female fraction of all female and male labels; deviation is
    the absolute gap to the observed count.
    """
    if len(assignments) != len(genders):
        raise ValueError("assignments and genders must align")
    female_total = genders.count("female")
    total = female_total + genders.count("male")
    fraction = female_total / total if total else 0.0

    counts: dict[int, list[int]] = {}
    for cluster, gender in zip(assignments, genders):
        pair = counts.setdefault(int(cluster), [0, 0])
        if gender == "female":
            pair[0] += 1
        elif gender == "male":
            pair[1] += 1
    rows = []
    for cluster in sorted(counts):
        female, male = counts[cluster]
        if female > 0:
            ratio = male / female
        elif male > 0:
            ratio = math.inf
        else:
            ratio = math.nan
        expected = (female + male) * fraction
        rows.append(
            {
                "cluster": cluster,
                "female": female,
                "male": male,
                "ratio": ratio,
                "expected_female": expected,
                "deviation": abs(female - expected),
            }
        )
    return rows
