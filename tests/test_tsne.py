import inspect
import math
import tracemalloc

import numpy as np
import pytest

import emocast.tsne
from emocast.errors import NonFiniteError
from emocast.tsne import (
    TsneConfig,
    _gradient,
    _kl,
    _student_t_kernel,
    joint_probabilities,
    pairwise_sq_distances,
    perplexity_calibration,
    scatter_svg,
    tsne,
)

from oracles import (
    kl_decomposed_reference,
    kl_divergence_reference,
    p_log_p_reference,
    silhouette,
    tsne_reference,
)


def two_blobs(n_per=10, separation=25.0, sigma=0.5, seed=0, dim=32):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, sigma, size=(n_per, dim))
    b = rng.normal(0.0, sigma, size=(n_per, dim))
    b[:, 0] += separation
    points = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return points, labels


class TestPerplexityCalibration:
    def test_equidistant_rows_uniform(self):
        n = 6
        d2 = np.full((n, n), 4.0)
        np.fill_diagonal(d2, 0.0)
        P = perplexity_calibration(d2, perplexity=2.0)
        off_diag = P[~np.eye(n, dtype=bool)]
        assert np.allclose(off_diag, 1.0 / (n - 1))
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_nearer_point_gets_more_mass(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        P = perplexity_calibration(pairwise_sq_distances(pts), perplexity=1.5)
        assert P[0, 1] > P[0, 2]

    def test_entropy_matches_target(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(40, 8))
        perplexity = 10.0
        P = perplexity_calibration(pairwise_sq_distances(pts), perplexity)
        target = math.log2(perplexity)
        for row in P:
            nz = row[row > 0]
            entropy = -(nz * np.log2(nz)).sum()
            assert abs(entropy - target) <= 1e-5

    def test_asymmetric_matrix_rejected(self):
        d2 = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            perplexity_calibration(d2, 2.0)

    def test_nonzero_diagonal_rejected(self):
        d2 = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            perplexity_calibration(d2, 2.0)


class TestJointProbabilities:
    def test_symmetric_nonnegative_unit_sum(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(25, 6))
        P = joint_probabilities(pts, perplexity=5.0)
        assert np.all(P >= 0.0)
        assert np.allclose(P, P.T, atol=1e-15)
        assert abs(P.sum() - 1.0) < 1e-9
        assert np.all(np.diag(P) == 0.0)


class TestGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(10, 5))
        P = joint_probabilities(pts, perplexity=3.0)
        Y = rng.normal(0.0, 1.0, size=(10, 2))
        grad = _gradient(P, Y, *_student_t_kernel(Y))
        h = 1e-5
        numeric = np.zeros_like(Y)
        for i in range(Y.shape[0]):
            for j in range(Y.shape[1]):
                up = Y.copy()
                up[i, j] += h
                down = Y.copy()
                down[i, j] -= h
                numeric[i, j] = (
                    kl_divergence_reference(P, up) - kl_divergence_reference(P, down)
                ) / (2 * h)
        rel = np.linalg.norm(grad - numeric) / max(np.linalg.norm(grad), np.linalg.norm(numeric))
        assert rel < 1e-4


def six_blobs(n=200, seed=0):
    # well-separated blobs: at perplexity 3, P has exact zeros off the diagonal
    rng = np.random.default_rng(seed)
    centres = rng.random((6, 32)) * 4.0
    return centres[rng.integers(0, 6, n)] + rng.normal(0.0, 0.05, size=(n, 32))


class TestKlObjective:
    """The decomposed objective against the masked, clamped sum it replaced."""

    @staticmethod
    def assert_objectives_agree(P, Y):
        num, total = _student_t_kernel(Y)
        p_log_p = p_log_p_reference(P)
        masked = kl_divergence_reference(P, Y)
        ours = _kl(P, p_log_p, num, total, np.empty_like(P))
        assert ours == pytest.approx(masked, rel=1e-12, abs=0.0)
        assert kl_decomposed_reference(P, p_log_p, Y) == pytest.approx(masked, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_emotion_like_points(self, seed):
        rng = np.random.default_rng(seed)
        P = joint_probabilities(emotion_like(120, seed), 30.0)
        self.assert_objectives_agree(P, rng.normal(0.0, 3.0, size=(120, 2)))

    def test_p_with_off_diagonal_zeros(self):
        P = joint_probabilities(six_blobs(), 3.0)
        assert np.count_nonzero(P == 0.0) > 200 * 100
        Y = np.random.default_rng(1).normal(0.0, 3.0, size=(200, 2))
        with np.errstate(divide="raise", invalid="raise"):
            self.assert_objectives_agree(P, Y)

    def test_q_floor_is_hit(self):
        # two groups ~1e6 apart: cross-group q ~ 1e-12 / n^2 fall below the floor
        rng = np.random.default_rng(2)
        n = 40
        P = joint_probabilities(emotion_like(n, 2), 10.0)
        Y = rng.normal(0.0, 1.0, size=(n, 2))
        Y[n // 2 :, 0] += 1e6
        num, total = _student_t_kernel(Y)
        assert np.count_nonzero(num / total < 1e-12) > 0
        self.assert_objectives_agree(P, Y)


class TestTsne:
    def test_blobs_stay_separated(self):
        pts, labels = two_blobs()
        emb = tsne(pts, TsneConfig(iterations=600, seed=0))
        assert silhouette(emb.coords, labels) > 0.5

    def test_silhouette_oracle_agrees_with_sklearn(self):
        metrics = pytest.importorskip("sklearn.metrics")
        pts, labels = two_blobs(seed=5)
        emb = tsne(pts, TsneConfig(iterations=400, seed=1))
        ours = silhouette(emb.coords, labels)
        theirs = metrics.silhouette_score(emb.coords, labels)
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_deterministic(self):
        pts, _ = two_blobs(n_per=6, seed=2)
        config = TsneConfig(iterations=300, seed=9)
        a = tsne(pts, config)
        b = tsne(pts, config)
        assert np.array_equal(a.coords, b.coords)
        assert a.kl_trace == b.kl_trace

    def test_kl_descends_after_exaggeration(self):
        pts, _ = two_blobs(n_per=8, seed=7)
        config = TsneConfig(iterations=1000, seed=3)
        emb = tsne(pts, config)
        # checkpoints every 50 iterations; exaggeration ends at 250
        post = emb.kl_trace[250 // 50 :]
        assert emb.kl_trace[-1] <= post[0]
        for earlier, later in zip(post, post[1:]):
            assert later <= earlier + 1e-3

    def test_duplicate_pair_lands_together(self):
        rng = np.random.default_rng(100)
        base = rng.normal(size=(10, 6))
        pts = np.vstack([base, base[3]])  # exact duplicate of point 3
        wins = 0
        seeds = range(20)
        for seed in seeds:
            emb = tsne(pts, TsneConfig(iterations=400, seed=seed))
            coords = emb.coords
            twin_gap = np.linalg.norm(coords[3] - coords[10])
            others = [i for i in range(11) if i not in (3, 10)]
            nearest_other = min(
                min(np.linalg.norm(coords[3] - coords[i]) for i in others),
                min(np.linalg.norm(coords[10] - coords[i]) for i in others),
            )
            wins += twin_gap < nearest_other
        assert wins >= 19  # at least 95 percent of seeds

    def test_perplexity_clamped_for_small_n(self):
        pts = np.random.default_rng(0).normal(size=(6, 4))
        emb = tsne(pts, TsneConfig(perplexity=30.0, iterations=200, seed=0))
        assert np.all(np.isfinite(emb.coords))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            tsne(np.zeros((4, 3)), TsneConfig())

    def test_trace_values_nonnegative(self):
        pts, _ = two_blobs(n_per=5, seed=4)
        emb = tsne(pts, TsneConfig(iterations=200, seed=2))
        assert all(value >= 0.0 for value in emb.kl_trace)

    def test_diverging_descent_raises(self, monkeypatch):
        # A NaN objective compares as not uphill, so without the check the
        # run returned all-NaN coordinates and a NaN final KL.
        pts = np.random.default_rng(0).normal(size=(30, 8))
        monkeypatch.setattr(emocast.tsne, "LEARNING_RATE", 1e300)
        # each step's kernel is built when the step is taken, so the error
        # names the first step, the one that left the embedding non-finite
        message = "t-SNE iteration 1:.*learning rate"
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=message):
            tsne(pts, TsneConfig(iterations=300))

    @pytest.mark.parametrize(
        "field, value",
        [("iterations", 0), ("iterations", -1), ("perplexity", math.nan), ("perplexity", math.inf)],
    )
    def test_config_bounds_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TsneConfig(**{field: value})

    def test_single_iteration_records_final_kl(self):
        pts, _ = two_blobs(n_per=5, seed=4)
        emb = tsne(pts, TsneConfig(iterations=1, seed=2))
        assert len(emb.kl_trace) == 1 and emb.kl_trace[0] > 0.0

    def test_peak_memory_below_five_square_arrays(self):
        # P, two kernels and one scratch array: ~4.1 n x n float64 arrays;
        # 260 iterations run both the exaggerated and the KL-checked phase.
        n = 400
        pts = emotion_like(n, 3)
        tracemalloc.start()
        try:
            tsne(pts, TsneConfig(iterations=260, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n arrays"


def emotion_like(n, seed):
    return np.random.default_rng(seed).random((n, 32))


def assert_same_descent(points, config):
    ours = tsne(points, config)
    reference, rejections = tsne_reference(points, config)
    assert np.array_equal(ours.coords, reference.coords)
    assert ours.kl_trace == reference.kl_trace
    return ours, rejections


class TestMatchesReferenceDescent:
    """The kernel-reusing descent against the first loop, bit for bit."""

    @pytest.mark.parametrize(
        "n, seed, iterations",
        [(20, s, 1000) for s in range(4)] + [(120, s, 1000) for s in range(2)] + [(300, 0, 1000), (300, 1, 400)],
    )
    def test_emotion_like_points(self, n, seed, iterations):
        assert_same_descent(emotion_like(n, seed), TsneConfig(iterations=iterations, seed=seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_blobs_with_duplicates(self, seed):
        pts, _ = two_blobs(n_per=15, seed=seed)
        pts = np.vstack([pts, pts[:3]])
        assert_same_descent(pts, TsneConfig(iterations=600, perplexity=8.0, seed=seed))

    def test_rejected_steps(self):
        _, rejections = assert_same_descent(emotion_like(60, 1), TsneConfig(seed=1))
        assert rejections > 0

    def test_p_with_off_diagonal_zeros(self):
        # Well-separated blobs at a low perplexity give P exact zeros off the
        # diagonal; the objective must skip their log rather than take log(0).
        pts = six_blobs()
        config = TsneConfig(perplexity=3.0, seed=0)
        assert np.count_nonzero(joint_probabilities(pts, 3.0) == 0.0) > 200 * 100
        with np.errstate(divide="raise", invalid="raise"):
            _, rejections = assert_same_descent(pts, config)
        assert rejections > 0

    def test_exaggeration_covers_every_iteration(self):
        config = TsneConfig(iterations=120, seed=5)  # inside the 250 exaggerated iterations
        emb, rejections = assert_same_descent(emotion_like(30, 5), config)
        assert rejections == 0
        assert len(emb.kl_trace) == 3  # iterations 50, 100 and the final 120


class TestScatterSvg:
    def test_deterministic_well_formed(self):
        coords = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        labels = ["female", "male", "unknown"]
        svg = scatter_svg(coords, labels)
        assert svg == scatter_svg(coords, labels)
        assert svg.startswith("<svg ")
        assert 'viewBox="0 0 800 800"' in svg
        assert svg.count("<circle") == 3
        assert "#d62728" in svg and "#1f77b4" in svg

    def test_degenerate_span_handled(self):
        coords = np.zeros((4, 2))
        svg = scatter_svg(coords, ["male"] * 4)
        assert "nan" not in svg


def test_submodule_import_binds_module():
    # the package root re-exports nothing, so no function shadows its module
    import emocast.tsne as T

    assert inspect.ismodule(T)
    assert T.tsne is tsne
