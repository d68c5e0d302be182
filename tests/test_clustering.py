import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emocast.clustering
from emocast.clustering import (
    KMEANS_MAX_ITER,
    _as_matrix,
    _nearest_centres,
    best_kmeans,
    composition_audit,
    elbow_detect,
    centroid_sse,
    kmeans,
    merge_pairs,
    sse_curve,
    ward_cluster,
    ward_cut,
)
from emocast.errors import CurveError, DimensionError, NonFiniteError

from oracles import (
    cluster_sse,
    kmeans_optimal_sse,
    kmeans_reference,
    merge_tuples,
    ward_dense_reference,
    ward_naive,
    ward_snapshot_reference,
)

TWO_BLOBS_4PT = [[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]


def planted_clusters(rng, n, dim=32, centers=6):
    """Emotion-like vectors in [0, 1]: noisy copies of a few random centres."""
    means = rng.random(size=(centers, dim))
    noisy = means[rng.integers(centers, size=n)] + rng.normal(0.0, 0.05, size=(n, dim))
    return np.clip(noisy, 0.0, 1.0)


def tie_heavy(rng, n, dim=32):
    """Points on a coarse grid in three of ``dim`` axes: duplicates and equal costs everywhere."""
    pts = np.zeros((n, dim))
    pts[:, :3] = rng.integers(0, 3, size=(n, 3))
    return pts


def three_blobs(rng, per_blob=30, sigma=0.1, separation=10.0):
    centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
    points = np.vstack(
        [center + rng.normal(0.0, sigma, size=(per_blob, 2)) for center in centers]
    )
    return points


class TestKMeans:
    def test_two_blob_optimum(self):
        res = kmeans(TWO_BLOBS_4PT, k=2, seed=42)
        assert res.sse == pytest.approx(1.0, abs=1e-12)
        assert res.sse == pytest.approx(kmeans_optimal_sse(np.asarray(TWO_BLOBS_4PT), 2), abs=1e-12)
        groups = {frozenset(i for i, a in enumerate(res.assignments) if a == j) for j in range(2)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_k1_centroid_is_mean(self):
        pts = np.random.default_rng(0).normal(size=(12, 3))
        res = kmeans(pts, k=1, seed=7)
        assert np.allclose(res.centroids[0], pts.mean(axis=0))
        assert res.assignments == [0] * 12

    def test_identical_points(self):
        res = kmeans([[2.0, 2.0]] * 6, k=2, seed=1)
        assert res.sse == 0.0
        assert sorted(set(res.assignments)) == [0, 1]

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(size=(40, 5))
        a = kmeans(pts, k=4, seed=99)
        b = kmeans(pts, k=4, seed=99)
        assert a.assignments == b.assignments
        assert a.sse == b.sse
        assert np.array_equal(a.centroids, b.centroids)

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            kmeans([[1.0, 2.0], [3.0]], k=1, seed=0)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans([[0.0], [1.0]], k=3, seed=0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            kmeans(TWO_BLOBS_4PT, k=2, seed=0, max_iter=max_iter)

    def test_float_matrix_used_without_conversion(self):
        pts = np.random.default_rng(0).random((30, 4))
        assert _as_matrix(pts) is pts
        view = pts[:, ::2]
        assert np.array_equal(_as_matrix(view), view) and _as_matrix(view).flags.c_contiguous
        pts[3, 1] = np.nan
        with pytest.raises(NonFiniteError):
            kmeans(pts, k=2, seed=0)

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_sse_never_worse_than_single_cluster(self, seed, k):
        pts = np.random.default_rng(seed).normal(size=(20, 3))
        total = cluster_sse(pts, range(20))
        res = kmeans(pts, k=k, seed=seed)
        assert res.sse <= total + 1e-9
        assert all(0 <= a < k for a in res.assignments)


def few_distinct(rng, n, dim=4, distinct=3):
    """n draws from a handful of random points: k above ``distinct`` empties clusters."""
    points = rng.random(size=(distinct, dim))
    return points[rng.integers(distinct, size=n)]


class TestMatchesReferenceLoop:
    """The bounded loop against the loop it replaced, bit for bit."""

    @staticmethod
    def check(points, k, seed, max_iter=300):
        got = kmeans(points, k, seed, max_iter=max_iter)
        expected, repairs = kmeans_reference(points, k, seed, max_iter=max_iter)
        assert got.assignments == expected.assignments
        assert np.array_equal(got.centroids, expected.centroids)
        assert got.sse == expected.sse
        assert got.iterations == expected.iterations
        # what a cluster cache hit recomputes from the assignments alone
        assert centroid_sse(points, got.assignments, k).hex() == got.sse.hex()
        return repairs

    @pytest.mark.parametrize(
        "labels",
        [[0, 1, 1], [0, 0, 2, 1], [0, 2, 2, 1], [0, -1, 1, 1], [0, 10**12, 1, 1], [0, 2**63, 1, 1], [0.0, 1.0, 1.0, 0.0], None],
    )
    def test_centroid_sse_rejects_labels_kmeans_never_returns(self, labels):
        pts = [[0.0], [1.0], [2.0], [3.0]]
        assert centroid_sse(pts, [0, 0, 1, 1], 2) == 1.0
        with pytest.raises(ValueError):
            centroid_sse(pts, labels, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_blobs(self, seed):
        pts = planted_clusters(np.random.default_rng(seed), 300)
        for k in (2, 4, 6, 10):
            self.check(pts, k, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicate_grid_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        pts = tie_heavy(rng, 200)
        for k in (2, 5, 9, 14):
            self.check(pts, k, seed)
        # a 2-D grid of multiples of 0.1: ties between centres that are not exact binary fractions
        grid = rng.integers(0, 4, size=(120, 2)) * 0.1
        for k in (3, 7, 12):
            self.check(grid, k, seed)

    def test_empty_cluster_repairs(self):
        rng = np.random.default_rng(7)
        repaired = 0
        for seed in range(20):
            pts = few_distinct(rng, int(rng.integers(20, 60)))
            repaired += self.check(pts, int(rng.integers(4, 9)), seed) > 0
        assert repaired == 20

    @pytest.mark.parametrize("seed, k", [(2534, 12), (2843, 12), (5551, 10)])
    def test_repair_that_holds(self, seed, k):
        # 30 distinct rows: the repaired cluster keeps its point and the loop goes on
        pts = np.random.default_rng(seed).normal(size=(30, 1))
        assert self.check(pts, k, seed) == 1
        assert kmeans(pts, k, seed).iterations == 4
        # constant columns on either side move no distance and make no two rows equal
        padded = np.hstack([np.zeros((30, 1)), pts, np.ones((30, 1))])
        assert self.check(padded, k, seed) == 1
        assert kmeans(padded, k, seed).iterations == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_fewer_distinct_rows_than_k_stop(self, seed):
        pts = few_distinct(np.random.default_rng(seed), 50)
        self.check(pts, 8, seed)
        result = kmeans(pts, 8, seed)
        assert result.iterations < KMEANS_MAX_ITER
        assert sorted(set(result.assignments)) == list(range(8))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_k_one_and_k_n(self, seed):
        pts = planted_clusters(np.random.default_rng(seed), 40, dim=5)
        self.check(pts, 1, seed)
        self.check(pts, 40, seed)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_recluster_sized(self, seed):
        pts = planted_clusters(np.random.default_rng(seed), 1000, centers=4)
        for k in (3, 10):
            self.check(pts, k, seed)

    def test_unconverged_runs_match(self):
        pts = planted_clusters(np.random.default_rng(5), 300)
        for max_iter in (1, 2, 3):
            self.check(pts, 8, 5, max_iter=max_iter)
            assert kmeans(pts, 8, 5, max_iter=max_iter).iterations == max_iter


class TestBounds:
    @staticmethod
    def scratch(n, k, dim):
        return np.empty((n, dim)), np.empty((n, dim)), np.empty((k, n))

    def test_gap_inside_margin_does_not_certify(self):
        # The point sits exactly halfway between centres 0 and 1 (all values
        # are exact binary fractions), so the squared distances tie and
        # argmin picks centre 0. Bounds that put centre 1 ahead by less than
        # the relative margin are within rounding of the distances and must
        # not keep the point on centre 1.
        x = np.array([[0.5, 0.25, 1.0]])
        v = np.array([0.25, 0.125, 0.5])
        centers = np.vstack([x[0] - v, x[0] + v])
        dist = math.sqrt(float(v @ v))
        assign = np.array([1])
        upper = np.array([dist])
        lower = np.array([dist * (1.0 + 1e-12)])
        _nearest_centres(x, centers, assign, upper, lower, self.scratch(1, 2, 3))
        assert assign[0] == 0

    def test_clear_gap_skips_the_row(self):
        x = np.array([[0.0, 0.0], [10.0, 0.0]])
        centers = np.array([[0.0, 0.5], [10.0, 0.5]])
        assign = np.array([0, 1])
        upper = np.array([0.5, 0.5])
        lower = np.array([9.0, 9.0])
        measured = _nearest_centres(x, centers, assign, upper, lower, self.scratch(2, 2, 2))
        assert measured == 0
        assert assign.tolist() == [0, 1]

    def test_stale_row_is_measured_with_exact_bounds(self):
        # The row's upper bound is stale, but its true own distance (1) is
        # below its lower bound (2), so refreshing the own distance alone
        # would certify it. It is measured against every centre instead,
        # and its bounds become the exact nearest and second-nearest
        # distances.
        x = np.array([[0.0, 0.0]])
        centers = np.array([[1.0, 0.0], [0.0, 3.0], [0.0, -4.0]])
        assign = np.array([0])
        upper = np.array([5.0])
        lower = np.array([2.0])
        measured = _nearest_centres(x, centers, assign, upper, lower, self.scratch(1, 3, 2))
        assert measured == 1
        assert assign.tolist() == [0]
        d2 = ((x[0] - centers) ** 2).sum(axis=1)
        assert upper[0] == math.sqrt(np.sort(d2)[0])
        assert lower[0] == math.sqrt(np.sort(d2)[1])

    def test_sweep_measures_few_rows_against_every_centre(self, monkeypatch):
        pts = planted_clusters(np.random.default_rng(3), 1000, centers=4)
        full = 0

        def counted(*args):
            nonlocal full
            measured = _nearest_centres(*args)
            full += measured
            return measured

        monkeypatch.setattr(emocast.clustering, "_nearest_centres", counted)
        iterations = sum(kmeans(pts, k, seed=k).iterations for k in range(2, 11))
        assert full < 0.5 * iterations * len(pts)

    def test_peak_memory_linear_in_n_times_d(self):
        n, dim, k = 4000, 32, 10
        pts = planted_clusters(np.random.default_rng(4), n, dim)
        tracemalloc.start()
        try:
            kmeans(pts, k, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an n x k x d difference tensor alone would be 10 MB
        assert peak < 5 * n * dim * 8, f"peak {peak / 1e6:.1f} MB"


def curve_of(points, k_max, seed):
    """The (k, sse) elbow curve of ``sse_curve``'s sweep."""
    return [(k, best.sse) for k, best in sse_curve(points, k_max, seed).items()]


class TestSseCurve:
    def test_k_equals_n_reaches_zero(self):
        pts = np.random.default_rng(5).normal(size=(8, 2))
        curve = curve_of(pts, 8, seed=11)
        assert curve[-1] == (8, pytest.approx(0.0, abs=1e-18))

    def test_single_k_is_total_scatter(self):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        [(k, sse)] = curve_of(pts, 1, seed=1)
        assert k == 1
        assert sse == pytest.approx(cluster_sse(pts, range(10)))

    def test_three_blob_drop_then_flat(self):
        pts = three_blobs(np.random.default_rng(4))
        curve = dict(curve_of(pts, 6, seed=4))
        assert curve[2] < 0.5 * curve[1]
        assert curve[3] < 0.01 * curve[2]
        assert curve[4] > 0.5 * curve[3]  # little left to gain past 3

    def test_restart_minimum_is_deterministic(self):
        pts = three_blobs(np.random.default_rng(8), per_blob=10)
        assert curve_of(pts, 5, seed=2) == curve_of(pts, 5, seed=2)

    def test_results_are_best_kmeans_per_k(self):
        pts = three_blobs(np.random.default_rng(9), per_blob=10)
        results = sse_curve(pts, 5, seed=3)
        assert list(results) == [1, 2, 3, 4, 5]
        for k, result in results.items():
            expected = best_kmeans(pts, k, seed=3)
            assert result.sse == expected.sse
            assert result.assignments == expected.assignments
            assert np.array_equal(result.centroids, expected.centroids)

    @pytest.mark.parametrize("k_max", [0, 31])
    def test_k_max_outside_1_to_n_rejected(self, k_max):
        with pytest.raises(ValueError):
            sse_curve(three_blobs(np.random.default_rng(1), per_blob=10), k_max, seed=0)


class TestElbow:
    def test_reference_curve(self):
        curve = list(zip(range(1, 7), [100.0, 60.0, 30.0, 28.0, 27.0, 26.0]))
        assert elbow_detect(curve) == 3

    def test_linear_decline_ties_to_smallest(self):
        curve = [(k, 100.0 - 10.0 * k) for k in range(1, 7)]
        assert elbow_detect(curve) == 2

    def test_too_few_points(self):
        with pytest.raises(CurveError):
            elbow_detect([(1, 10.0), (2, 5.0)])

    def test_non_consecutive_rejected(self):
        with pytest.raises(CurveError):
            elbow_detect([(1, 10.0), (3, 5.0), (4, 4.0)])

    def test_three_blob_elbow_across_seeds(self):
        hits = 0
        for seed in range(10):
            pts = three_blobs(np.random.default_rng(1000 + seed))
            curve = curve_of(pts, 8, seed=seed)
            hits += elbow_detect(curve) == 3
        assert hits >= 9


class TestWard:
    def test_one_dim_reference(self):
        pairs, costs = ward_cluster([[0.0], [1.0], [10.0]])
        assert pairs[0].tolist() == [0, 1]
        assert costs[0] == pytest.approx(0.5, abs=1e-12)
        assert ward_cut(pairs, 2) == [0, 0, 1]

    def test_two_points_cost_is_half_sq_distance(self):
        _, costs = ward_cluster([[0.0, 0.0], [3.0, 4.0]])
        assert costs[0] == pytest.approx(12.5, abs=1e-12)

    def test_duplicate_points_merge_free(self):
        _, costs = ward_cluster([[1.0], [1.0], [5.0]])
        assert costs[0] == 0.0

    def test_merge_count_and_sizes(self):
        pts = np.random.default_rng(2).normal(size=(9, 4))
        pairs, costs = ward_cluster(pts)
        assert (pairs.shape, pairs.dtype, costs.shape, costs.dtype) == ((8, 2), np.intp, (8,), np.float64)
        assert merge_tuples(pairs, costs)[-1][3] == 9
        assert sorted(set(ward_cut(pairs, 3))) == [0, 1, 2]

    @given(st.integers(0, 10_000), st.integers(2, 12), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_recomputation(self, seed, n, dim):
        pts = np.random.default_rng(seed).normal(size=(n, dim))
        expected = ward_naive(pts)
        got = merge_tuples(*ward_cluster(pts))
        assert [(a, b, s) for a, b, _, s in got] == [(a, b, s) for a, b, _, s in expected]
        for (_, _, cost, _), (_, _, ref_cost, _) in zip(got, expected):
            assert cost == pytest.approx(ref_cost, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_costs_non_decreasing(self, seed):
        pts = np.random.default_rng(seed).normal(size=(12, 3))
        costs = ward_cluster(pts)[1].tolist()
        assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_assignment_labels_by_smallest_member(self):
        # two tight pairs far apart: point 0's cluster must be labeled 0
        assignments = ward_cut(ward_cluster([[0.0], [100.0], [0.1], [100.1]])[0], 2)
        assert assignments[0] == 0
        assert assignments == [0, 1, 0, 1]

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("make", [planted_clusters, tie_heavy])
    def test_matches_dense_reference_bit_for_bit(self, make, n):
        pts = make(np.random.default_rng(n), n)
        pairs, costs = ward_cluster(pts)
        for k in (1, 6):
            expected_merges, expected_assignments = ward_dense_reference(pts, k)
            assert pairs.tolist() == [[a, b] for a, b, _, _ in expected_merges]
            assert costs.tolist() == [cost for _, _, cost, _ in expected_merges]
            assert ward_cut(pairs, k) == expected_assignments

    def test_small_grids_match_dense_reference(self):
        # coarse 3-D grids tie non-zero costs between original and merged
        # clusters, which is where slot order and id order part ways
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            pts = rng.integers(0, 4, size=(n, int(rng.integers(1, 4)))).astype(float)
            got = merge_tuples(*ward_cluster(pts))
            assert got == ward_dense_reference(pts, 1)[0]

    def test_grid_duplicates_match_naive_tie_rule(self):
        # Integer grid points drawn with replacement from a few distinct ones:
        # each duplicate joins at cost exactly 0, so the lowest-id rule decides
        # those merges while slots are being reused. The grid is wide so that
        # non-zero costs do not tie; there the naive SSE differences and the
        # recurrence round differently (the dense-reference test pins them).
        rng = np.random.default_rng(2024)
        zero_cost_merges = 0
        for _ in range(150):
            n = int(rng.integers(2, 21))
            dim = int(rng.integers(1, 4))
            distinct = rng.integers(0, 1000, size=(int(rng.integers(1, n + 1)), dim))
            pts = distinct[rng.integers(len(distinct), size=n)].astype(float)
            expected = ward_naive(pts)
            got = merge_tuples(*ward_cluster(pts))
            assert [(a, b, s) for a, b, _, s in got] == [(a, b, s) for a, b, _, s in expected]
            for (_, _, cost, _), (_, _, ref_cost, _) in zip(got, expected):
                assert cost == pytest.approx(ref_cost, rel=1e-9, abs=1e-9)
            zero_cost_merges += sum(1 for _, _, cost, _ in got if cost == 0.0)
        assert zero_cost_merges >= 300

    def test_peak_memory_is_one_cost_matrix(self):
        # the n x n cost matrix, plus O(n) rows and O(n d) scratch
        n, dim = 600, 32
        pts = planted_clusters(np.random.default_rng(600), n, dim)
        tracemalloc.start()
        try:
            ward_cluster(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n"

    @given(st.integers(0, 10_000), st.integers(2, 30), st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cut_at_every_k_matches_snapshot(self, seed, n, dim, grid):
        # grid points tie costs and duplicate rows; normal draws do not
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 3, size=(n, dim)).astype(float) if grid else rng.normal(size=(n, dim))
        pairs, _ = ward_cluster(pts)
        merges = pairs.tolist()
        assert np.array_equal(merge_pairs(n, merges), pairs)  # what the loop makes, the cache check accepts
        for k in range(1, n + 1):
            expected = ward_snapshot_reference(n, merges, k)
            assert ward_cut(pairs, k) == expected
            assert ward_dense_reference(pts, k)[1] == expected

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 1), (2, 3)],  # one pair short
            [(0, 1), (1, 2), (3, 4)],  # id 1 merged twice
            [(1, 0), (2, 3), (4, 5)],  # id_a not below id_b
            [(0, 1), (2, 5), (3, 4)],  # id 5 does not exist before merge 2 makes it
            [(0, 1), (-1, 2), (3, 4)],
            [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)],
            [[0, 1, 2], [2, 3, 4], [4, 5, 6]],
        ],
    )
    def test_merge_pairs_rejects_what_no_merge_loop_makes(self, pairs):
        assert merge_pairs(4, [(0, 1), (2, 3), (4, 5)]).tolist() == [[0, 1], [2, 3], [4, 5]]
        with pytest.raises(ValueError):
            merge_pairs(4, pairs)

    def test_overflowing_costs_rejected(self):
        with pytest.raises(NonFiniteError):
            ward_cluster([[1e200], [-1e200], [1e200]])


class TestCompositionAudit:
    def test_skewed_cluster(self):
        assignments = [0] * 7 + [1] * 4
        genders = ["male"] * 6 + ["female"] + ["female"] * 3 + ["male"]  # 4 female, 7 male
        rows = composition_audit(assignments, genders)
        first = rows[0]
        assert (first["female"], first["male"]) == (1, 6)
        assert first["ratio"] == pytest.approx(6.0)
        assert first["expected_female"] == pytest.approx(7 * 4 / 11)

    def test_reference_expected_female(self):
        # overall 3:1 male to female (25 and 75), cluster 0 of six males and one female
        genders = ["male"] * 6 + ["female"] + ["female"] * 24 + ["male"] * 69
        rows = composition_audit([0] * 7 + [1] * 93, genders)
        assert rows[0]["ratio"] == pytest.approx(6.0)
        assert rows[0]["expected_female"] == pytest.approx(1.75)

    def test_matching_proportion_zero_deviation(self):
        # overall 1:3 (10 and 30), cluster 0 in the same proportion
        genders = ["female", "male", "male", "male"] + ["female"] * 9 + ["male"] * 27
        rows = composition_audit([0] * 4 + [1] * 36, genders)
        assert rows[0]["deviation"] == pytest.approx(0.0)

    def test_all_male_cluster_infinite_ratio(self):
        rows = composition_audit([0, 0, 1, 1, 1, 1, 1, 1, 1, 1], ["male"] * 5 + ["female"] * 5)
        assert math.isinf(rows[0]["ratio"])
        assert rows[0]["expected_female"] == pytest.approx(1.0)  # overall 5:5

    def test_unknown_only_cluster_nan_ratio(self):
        rows = composition_audit([0, 0, 1, 1], ["unknown", "unknown", "female", "male"])
        assert (rows[0]["female"], rows[0]["male"]) == (0, 0)
        assert math.isnan(rows[0]["ratio"])
        assert rows[0]["expected_female"] == rows[0]["deviation"] == 0.0

    def test_counts_partition_totals(self):
        rng = np.random.default_rng(0)
        assignments = rng.integers(0, 4, size=60).tolist()
        genders = rng.choice(["female", "male", "unknown"], size=60).tolist()
        rows = composition_audit(assignments, genders)
        assert sum(r["female"] for r in rows) == genders.count("female")
        assert sum(r["male"] for r in rows) == genders.count("male")
        female_share = genders.count("female") / (genders.count("female") + genders.count("male"))
        for row in rows:
            assert row["expected_female"] == (row["female"] + row["male"]) * female_share
