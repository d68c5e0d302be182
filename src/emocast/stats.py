"""Nonparametric two-group statistics and descriptive summaries.

The group test is the Mann-Whitney U computed through average ranks, with
U1 counting the first group's pairwise wins plus half its ties. P-values
come from the two-sided normal approximation with tie-corrected variance
and a continuity correction, which is the standard regime for group sizes
in the hundreds or thousands; exact enumeration lives in the test suite as
an oracle for small inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus, Gender
from .emotion import EMOTION_COLUMNS, PRIMARY_EMOTIONS, emotion_values
from .errors import DegenerateError, NonFiniteError


@dataclass(frozen=True)
class UTestResult:
    u1: float
    u2: float
    z: float
    p_value: float
    n1: int
    n2: int


# The UTestResult fields that a battery row carries, in stats.csv column order
U_FIELDS = ("u1", "u2", "z", "p_value")


def _as_finite_array(values: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{what}: need at least one value")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what}: values must be finite")
    return arr


def rank_with_ties(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n with tied values sharing the mean of the ranks they span,
    and the length of each run of equal values in ascending value order."""
    arr = _as_finite_array(values, "rank_with_ties")
    n = arr.size
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], n]
    mean_ranks = (starts + 1 + ends) / 2.0
    run_lengths = ends - starts
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat(mean_ranks, run_lengths)
    return ranks, run_lengths


def mann_whitney_u(group_a: Sequence[float], group_b: Sequence[float]) -> UTestResult:
    """Two-sided Mann-Whitney U via joint ranking.

    u1 is the number of (a, b) pairs where a wins, counting ties as half;
    u2 is its complement, so u1 + u2 = n1 * n2 exactly. The tie correction
    of the variance counts each run of equal pooled values from the same
    sort that ranks them. Raises DegenerateError when every pooled value is
    identical (one run, zero variance).
    """
    a = _as_finite_array(group_a, "mann_whitney_u group_a")
    b = _as_finite_array(group_b, "mann_whitney_u group_b")
    n1, n2 = a.size, b.size
    ranks, tie_counts = rank_with_ties(np.concatenate([a, b]))
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1

    if tie_counts.size == 1:
        raise DegenerateError("all pooled values identical")
    tie_term = float((tie_counts.astype(float) ** 3 - tie_counts).sum())
    n = n1 + n2
    sigma_sq = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0:
        raise DegenerateError("zero variance after tie correction")
    sigma = math.sqrt(sigma_sq)

    diff = u1 - n1 * n2 / 2.0
    shrunk = abs(diff) - 0.5  # continuity correction toward the mean
    z = math.copysign(shrunk / sigma, diff) if shrunk > 0 else 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return UTestResult(u1=u1, u2=u2, z=z, p_value=p, n1=n1, n2=n2)


def gender_distribution_over_time(corpus: Corpus, bin_width: int = 5) -> list[dict]:
    """Character counts per release-year bin anchored at multiples of bin_width,
    as the timebins.csv rows: bin_start, bin_end, female, male, unknown and
    female_pct, which is 100 * female / (female + male) or None.

    Bins with no characters are omitted. UNKNOWN characters appear in their
    own column and stay out of the female_pct denominator.
    """
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    bins: dict[int, dict[Gender, int]] = {}
    for rec in corpus.records:
        start = (rec.year // bin_width) * bin_width
        counts = bins.setdefault(start, {g: 0 for g in Gender})
        counts[rec.gender] += 1
    rows = []
    for start in sorted(bins):
        counts = bins[start]
        female, male = counts[Gender.FEMALE], counts[Gender.MALE]
        denom = female + male
        rows.append(
            {
                "bin_start": start,
                "bin_end": start + bin_width - 1,
                "female": female,
                "male": male,
                "unknown": counts[Gender.UNKNOWN],
                "female_pct": 100.0 * female / denom if denom else None,
            }
        )
    return rows


def emotion_test_battery(shares: Sequence[Sequence[float]], labels: Sequence[str]) -> list[dict]:
    """Run the female-vs-male U test per emotion column, sorted by ascending p-value.

    ``shares`` holds one row of primary shares per dialogue and ``labels``
    its group name; rows outside the two groups are ignored. Each column is
    built from the shares when it is tested. Each result is a stats.csv row:
    the emotion, the U_FIELDS of its test and higher_group, which is a group
    name, "tie" or "degenerate". A constant column raises DegenerateError
    internally and is reported as a degenerate row, with its U_FIELDS None
    and sorted last, without aborting the rest.
    """
    group_a, group_b = Gender.FEMALE.value, Gender.MALE.value
    data = np.asarray(shares, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(PRIMARY_EMOTIONS):
        raise ValueError(f"shares must be n x {len(PRIMARY_EMOTIONS)}")
    label_arr = np.asarray([str(lab) for lab in labels])
    if label_arr.shape[0] != data.shape[0]:
        raise ValueError("labels and shares rows must align")
    mask_a = label_arr == group_a
    mask_b = label_arr == group_b
    if not mask_a.any() or not mask_b.any():
        raise ValueError(f"need at least one row in each of {group_a!r} and {group_b!r}")

    rows = []
    for col, emotion in enumerate(EMOTION_COLUMNS):
        values = emotion_values(data, col)
        try:
            result = mann_whitney_u(values[mask_a], values[mask_b])
        except DegenerateError:
            rows.append({"emotion": emotion, **dict.fromkeys(U_FIELDS), "higher_group": "degenerate"})
            continue
        if result.u1 > result.u2:
            higher = group_a
        elif result.u2 > result.u1:
            higher = group_b
        else:
            higher = "tie"
        rows.append({"emotion": emotion, **{key: getattr(result, key) for key in U_FIELDS}, "higher_group": higher})
    # sorted() is stable, so ties keep EMOTION_COLUMNS order
    return sorted(rows, key=lambda row: (row["p_value"] is None, row["p_value"] or 0.0))
