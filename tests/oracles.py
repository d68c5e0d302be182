"""Independent reference implementations the tests check against.

These deliberately avoid the code paths under test: the U statistic comes
from direct pair enumeration, Ward merges from full SSE recomputation (and,
at sizes where that is too slow, from the first dense Ward kernel), the
k-means optimum from exhaustive partition search, and silhouette from the
textbook definition.
"""

from itertools import product

import numpy as np


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
