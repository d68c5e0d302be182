"""Exact t-SNE projection to 2-D.

At corpus scale (hundreds of characters) the exact O(n^2) formulation is
fast and easy to verify, so there is no tree approximation here. High-dim
affinities come from per-point Gaussian kernels calibrated by binary
search until each row's entropy matches the requested perplexity; low-dim
similarities use the Student-t kernel with one degree of freedom. The
optimizer is the customary momentum descent (0.5 for the first 250
iterations, 0.8 after) with per-coordinate gain adaptation and early
exaggeration of the joint probabilities. Once exaggeration ends, each
step is checked against the objective and rejected when it would raise
it, with the step scale halved and then slowly recovered; that keeps the
recorded KL trace monotone instead of merely usually-descending.

The descent builds the n x n Student-t kernel once per new position, as
``(num, num.sum())``, when the step to it is taken; the gradient and the
objective at that position read it, and a rejected candidate leaves the
current kernel in place. Besides P, the descent holds three n x n buffers
allocated once per run: two kernels and a scratch array for the Gram
product, the gradient weights and the log-kernel of the objective. An
iteration allocates no n x n temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CalibrationError, NonFiniteError

ENTROPY_TOL = 1e-5
MAX_SEARCH_STEPS = 50
MOMENTUM_SWITCH_ITER = 250
KL_RECORD_EVERY = 50
LEARNING_RATE = 200.0
EARLY_EXAGGERATION = 12.0  # P is scaled by this for the first EXAGGERATION_ITERS iterations
EXAGGERATION_ITERS = 250
_EPS = 1e-12


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0 < self.perplexity < math.inf:
            raise ValueError("perplexity must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class Embedding2D:
    coords: np.ndarray
    kl_trace: list[float] = field(default_factory=list)


def pairwise_sq_distances(
    points: np.ndarray, out: np.ndarray | None = None, gram: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances from the Gram form, clipped at zero.

    ``out`` receives the result and ``gram`` holds the doubled Gram product;
    both are n x n float64 buffers, allocated when not given.
    """
    sq = (points**2).sum(axis=1)
    d2 = np.add.outer(sq, sq, out=out)
    # (2 points) @ points.T: doubling the product of points with itself
    # instead lets numpy take the symmetric BLAS kernel, whose last bits differ.
    d2 -= np.matmul(2.0 * points, points.T, out=gram)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _row_entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def perplexity_calibration(distances: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row Gaussian bandwidth search to hit log2(perplexity) entropy.

    Bisection runs until the row entropy is within 1e-5 bits of the target
    or 50 steps pass; rows whose entropy cannot move (all neighbours
    equidistant) keep their closest achievable distribution, which is the
    uniform row. Raises CalibrationError if a row comes out non-finite.
    """
    d2 = np.asarray(distances, dtype=float)
    n = d2.shape[0]
    if d2.ndim != 2 or d2.shape[1] != n:
        raise ValueError("distance matrix must be square")
    if not np.allclose(np.diag(d2), 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    if not np.allclose(d2, d2.T, rtol=1e-9, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if n < 2:
        raise ValueError("need at least 2 points")

    target = math.log2(perplexity)
    P = np.zeros((n, n), dtype=float)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        d = d2[i][others[i]]
        d = d - d.min()  # shifts cancel in the normalized kernel
        beta, lo, hi = 1.0, 0.0, math.inf
        p = np.exp(-beta * d)
        p /= p.sum()
        for _ in range(MAX_SEARCH_STEPS):
            entropy = _row_entropy_bits(p)
            if abs(entropy - target) <= ENTROPY_TOL:
                break
            if entropy > target:  # too flat, sharpen the kernel
                lo = beta
                beta = beta * 2.0 if math.isinf(hi) else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (lo + beta) / 2.0
            p = np.exp(-beta * d)
            p /= p.sum()
        if not np.all(np.isfinite(p)):
            raise CalibrationError(f"row {i}: bandwidth search produced non-finite values")
        P[i][others[i]] = p
    return P


def _student_t_kernel(
    coords: np.ndarray, out: np.ndarray | None = None, gram: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Unnormalised low-dim similarities ``num`` (zero diagonal) and their sum.

    Q is ``num / total``; a non-finite total means the coordinates are.
    """
    num = pairwise_sq_distances(coords, out, gram)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    return num, float(num.sum())


def _kl(P: np.ndarray, p_log_p: float, num: np.ndarray, total: float, out: np.ndarray) -> float:
    """KL(P || Q) with Q = num / total floored at 1e-12, given sum P log P.

    P sums to one, so the objective is sum P log P - sum P log num + log total.
    Flooring num at 1e-12 * total floors Q and keeps every log finite, the
    zero diagonal included, so P's zeros add nothing to the dense dot product.
    ``out`` holds log num.
    """
    log_num = np.maximum(num, _EPS * total, out=out)
    np.log(log_num, out=log_num)
    return p_log_p - float(np.vdot(P, log_num)) + math.log(total)


def _gradient(
    P: np.ndarray, coords: np.ndarray, num: np.ndarray, total: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """4 * sum_j (p_ij - q_ij) num_ij (y_i - y_j); ``out`` holds the weights."""
    W = np.divide(num, total, out=out)
    np.subtract(P, W, out=W)
    W *= num
    return 4.0 * (W.sum(axis=1)[:, None] * coords - W @ coords)


def joint_probabilities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint P from the calibrated conditionals; sums to one."""
    d2 = pairwise_sq_distances(points)
    cond = perplexity_calibration(d2, perplexity)
    n = points.shape[0]
    return (cond + cond.T) / (2.0 * n)


def tsne(points: Sequence[Sequence[float]], config: TsneConfig = TsneConfig()) -> Embedding2D:
    """Project to 2-D; deterministic given the config seed.

    The requested perplexity is clamped to (n - 1) / 3 when the input is
    small. KL against the true (unexaggerated) P is recorded every 50
    iterations and at the final one. Raises NonFiniteError, naming the
    iteration whose step left the embedding non-finite, when one does (a
    learning rate far too large).
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError("points must form a 2-D matrix")
    n = X.shape[0]
    if n < 5:
        raise ValueError("t-SNE needs at least 5 points")
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")

    perplexity = min(config.perplexity, (n - 1) / 3.0)
    P = joint_probabilities(X, perplexity)
    support = P[P > 0]
    p_log_p = float((support * np.log(support)).sum())
    del support  # up to n x n floats the descent does not read

    # buffers[0] holds the kernel of Y, buffers[1] the candidate's, and the
    # exaggerated P until that kernel is built; an accepted step swaps them.
    # gram holds the Gram product while a kernel is built, the gradient
    # weights while the gradient is, and log num while the KL is summed.
    buffers = [np.empty((n, n)), np.empty((n, n))]
    gram = np.empty((n, n))

    def kernel(coords: np.ndarray, out: np.ndarray, iteration: int) -> tuple[np.ndarray, float]:
        num, total = _student_t_kernel(coords, out, gram)
        if not math.isfinite(total):
            raise NonFiniteError(
                f"t-SNE iteration {iteration}: the embedding is no longer finite "
                f"(learning rate {LEARNING_RATE:g} may be too large)"
            )
        return num, total

    rng = np.random.default_rng(config.seed)
    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    Y_kernel = kernel(Y, buffers[0], 0)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    step_scale = 1.0
    current_kl: float | None = None
    trace: list[float] = []

    for iteration in range(1, config.iterations + 1):
        exaggerate = iteration <= EXAGGERATION_ITERS
        P_eff = np.multiply(P, EARLY_EXAGGERATION, out=buffers[1]) if exaggerate else P
        grad = _gradient(P_eff, Y, *Y_kernel, out=gram)

        momentum = 0.5 if iteration <= MOMENTUM_SWITCH_ITER else 0.8
        same_direction = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_direction, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        velocity = momentum * velocity - LEARNING_RATE * step_scale * gains * grad
        candidate = Y + velocity
        candidate -= candidate.mean(axis=0)
        candidate_kernel = kernel(candidate, buffers[1], iteration)

        if exaggerate:
            Y, Y_kernel = candidate, candidate_kernel
            buffers.reverse()
        else:
            if current_kl is None:
                current_kl = _kl(P, p_log_p, *Y_kernel, gram)
            candidate_kl = _kl(P, p_log_p, *candidate_kernel, gram)
            if candidate_kl > current_kl:  # reject the uphill step
                velocity[:] = 0.0
                gains[:] = 1.0
                step_scale = max(step_scale * 0.5, 1e-6)
            else:
                Y, Y_kernel = candidate, candidate_kernel
                buffers.reverse()
                current_kl = candidate_kl
                step_scale = min(step_scale * 1.05, 1.0)

        if iteration % KL_RECORD_EVERY == 0 or iteration == config.iterations:
            trace.append(current_kl if current_kl is not None else _kl(P, p_log_p, *Y_kernel, gram))

    return Embedding2D(coords=Y, kl_trace=trace)


GENDER_PALETTE = {
    "female": "#d62728",
    "male": "#1f77b4",
    "unknown": "#7f7f7f",
}
SVG_SIZE = 800  # px, width and height
SVG_MARGIN = 40  # px


def scatter_svg(coords: np.ndarray, labels: Sequence[str]) -> str:
    """Minimal deterministic SVG scatter of the embedding, colored by label."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape[0] != len(labels):
        raise ValueError("coords and labels must align")
    spans = pts.max(axis=0) - pts.min(axis=0)
    spans = np.where(spans > 0, spans, 1.0)
    lo = pts.min(axis=0)
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / spans
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for (x, y), label in zip(pts, labels):
        px = SVG_MARGIN + (x - lo[0]) * scale[0]
        py = SVG_SIZE - SVG_MARGIN - (y - lo[1]) * scale[1]
        color = GENDER_PALETTE.get(str(label).lower(), "#7f7f7f")
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="6" fill="{color}" fill-opacity="0.75"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
