import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocast.corpus import CharacterRecord, Corpus, Gender
from emocast.emotion import EMOTION_COLUMNS, PRIMARY_EMOTIONS, character_means, primary_shares
from emocast.errors import DegenerateError, NonFiniteError
from emocast.stats import (
    emotion_test_battery,
    gender_distribution_over_time,
    mann_whitney_u,
    rank_with_ties,
)

from oracles import mwu_brute

# Hand-computed before implementation, from the direct z formula:
# n1 = n2 = 3, u1 = 0, mu = 4.5, sigma = sqrt(5.25),
# z = (0 - 4.5 + 0.5) / sigma, p = erfc(|z| / sqrt(2)).
REFERENCE_P = 0.0808555983700523

groups = st.lists(
    st.integers(-20, 20).map(float) | st.floats(-50, 50, allow_nan=False, width=32),
    min_size=1,
    max_size=50,
)


class TestRankWithTies:
    def test_distinct(self):
        assert list(rank_with_ties([10, 20, 30])[0]) == [1, 2, 3]

    def test_full_tie(self):
        assert list(rank_with_ties([5, 5])[0]) == [1.5, 1.5]

    def test_partial_tie(self):
        assert list(rank_with_ties([7, 3, 7])[0]) == [2.5, 1, 2.5]

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            rank_with_ties([1.0, float("nan")])

    @given(groups)
    def test_ranks_sum_to_triangular_number(self, values):
        n = len(values)
        assert math.isclose(rank_with_ties(values)[0].sum(), n * (n + 1) / 2)

    @given(groups, groups)
    def test_run_lengths_are_tie_counts(self, a, b):
        pooled = np.array(a + b)
        _, run_lengths = rank_with_ties(pooled)
        assert run_lengths.tolist() == np.unique(pooled, return_counts=True)[1].tolist()


class TestMannWhitneyU:
    def test_complete_separation(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.u1 == 0.0
        assert res.u2 == 9.0

    def test_reference_p_value(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.p_value == pytest.approx(REFERENCE_P, abs=1e-9)
        assert res.z == pytest.approx(-4.0 / math.sqrt(5.25), abs=1e-12)

    def test_tied_groups(self):
        res = mann_whitney_u([1, 2], [1, 2])
        assert (res.u1, res.u2) == (2.0, 2.0)
        assert res.p_value == 1.0

    def test_all_identical_degenerate(self):
        with pytest.raises(DegenerateError):
            mann_whitney_u([3, 3, 3], [3, 3])

    @given(groups, groups)
    @settings(max_examples=200)
    def test_matches_brute_force(self, a, b):
        if not _not_degenerate(a, b):
            return
        res = mann_whitney_u(a, b)
        u1, u2 = mwu_brute(a, b)
        assert res.u1 == u1
        assert res.u2 == u2
        assert res.u1 + res.u2 == len(a) * len(b)

    @given(groups, groups)
    def test_symmetry(self, a, b):
        if not _not_degenerate(a, b):
            return
        fwd = mann_whitney_u(a, b)
        rev = mann_whitney_u(b, a)
        assert fwd.u1 == rev.u2
        assert fwd.u2 == rev.u1
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)

    # integer-valued samples keep the shift exact in float arithmetic
    int_groups = st.lists(st.integers(-20, 20).map(float), min_size=1, max_size=50)

    @given(int_groups, int_groups, st.integers(-1000, 1000))
    def test_shift_invariance(self, a, b, shift):
        if not _not_degenerate(a, b):
            return
        base = mann_whitney_u(a, b)
        moved = mann_whitney_u([x + shift for x in a], [y + shift for y in b])
        assert moved.u1 == base.u1
        assert moved.u2 == base.u2
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)

    @given(groups, groups)
    def test_monotone_transform_leaves_u(self, a, b):
        transform = lambda v: v**3 + 2.0 * v  # strictly increasing
        u1, u2 = mwu_brute(a, b)
        tu1, tu2 = mwu_brute([transform(x) for x in a], [transform(y) for y in b])
        if _not_degenerate(a, b):
            res = mann_whitney_u([transform(x) for x in a], [transform(y) for y in b])
            assert res.u1 == u1 == tu1
            assert res.u2 == u2 == tu2

    def test_p_decreases_with_separation(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0.0, 1.0, 30)
        b = rng.normal(0.0, 1.0, 30)
        previous = 1.1
        for shift in (0.0, 0.5, 1.0, 2.0, 4.0):
            p = mann_whitney_u(a, b + shift).p_value
            assert p <= previous + 1e-12
            previous = p

    def test_matches_scipy_asymptotic(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for _ in range(200):
            n1 = int(rng.integers(2, 40))
            n2 = int(rng.integers(2, 40))
            if rng.random() < 0.5:  # force ties half the time
                a = rng.integers(0, 6, n1).astype(float)
                b = rng.integers(0, 6, n2).astype(float)
            else:
                a = rng.normal(size=n1)
                b = rng.normal(size=n2)
            if np.all(np.concatenate([a, b]) == a[0]):
                continue
            mine = mann_whitney_u(a, b)
            ref = scipy_stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic", use_continuity=True
            )
            assert mine.u1 == pytest.approx(float(ref.statistic), abs=1e-9)
            assert mine.p_value == pytest.approx(float(ref.pvalue), rel=1e-12)


def _not_degenerate(a, b):
    pooled = list(a) + list(b)
    return any(v != pooled[0] for v in pooled)


def _corpus(year_gender_pairs):
    records = [
        CharacterRecord(
            name=f"C{i}", movie=f"m{i}", year=year, gender=gender, dialogues=("x",)
        )
        for i, (year, gender) in enumerate(year_gender_pairs)
    ]
    return Corpus(records=records, provenance={})


class TestGenderDistribution:
    def test_direct_proportion(self):
        pairs = [(2001, Gender.FEMALE)] * 3 + [(2003, Gender.MALE)] * 17
        rows = gender_distribution_over_time(_corpus(pairs), 5)
        assert len(rows) == 1
        row = rows[0]
        assert (row["bin_start"], row["bin_end"]) == (2000, 2004)
        assert row["female_pct"] == 15.0

    def test_empty_bins_omitted(self):
        rows = gender_distribution_over_time(
            _corpus([(1999, Gender.MALE), (2016, Gender.FEMALE)]), 5
        )
        assert [(r["bin_start"], r["bin_end"]) for r in rows] == [(1995, 1999), (2015, 2019)]

    def test_unknown_reported_separately(self):
        rows = gender_distribution_over_time(
            _corpus([(2000, Gender.FEMALE), (2000, Gender.UNKNOWN)]), 5
        )
        assert rows[0]["unknown"] == 1
        assert rows[0]["female_pct"] == 100.0

    def test_bins_anchored_at_multiples(self):
        rows = gender_distribution_over_time(_corpus([(2017, Gender.MALE)]), 5)
        assert rows[0]["bin_start"] == 2015


def _battery_shares(rng, n_female=20, n_male=20, joy_gap=0.8):
    """Primary shares per dialogue with female joy shares above male ones."""
    n = n_female + n_male
    shares = rng.uniform(0.2, 0.4, size=(n, len(PRIMARY_EMOTIONS)))
    joy_col = PRIMARY_EMOTIONS.index("joy")
    shares[:n_female, joy_col] = rng.uniform(joy_gap, 1.0, size=n_female)
    shares[n_female:, joy_col] = rng.uniform(0.0, 1.0 - joy_gap, size=n_male)
    labels = ["female"] * n_female + ["male"] * n_male
    return shares, labels


class TestEmotionTestBattery:
    def test_planted_joy_signal(self):
        shares, labels = _battery_shares(np.random.default_rng(5))
        rows = emotion_test_battery(shares, labels)
        joy = next(row for row in rows if row["emotion"] == "joy")
        assert joy["p_value"] < 0.01
        assert joy["higher_group"] == "female"
        assert rows[0]["emotion"] == "joy"  # smallest p sorts first

    def test_identical_groups_near_one(self):
        rng = np.random.default_rng(9)
        half = rng.uniform(size=(15, len(PRIMARY_EMOTIONS)))
        shares = np.vstack([half, half])
        labels = ["female"] * 15 + ["male"] * 15
        for row in emotion_test_battery(shares, labels):
            assert row["p_value"] > 0.9

    def test_constant_column_isolated(self):
        # anger's dyads mix in a varying share, so anger is the one constant column
        shares, labels = _battery_shares(np.random.default_rng(5))
        shares[:, PRIMARY_EMOTIONS.index("anger")] = 0.25
        rows = emotion_test_battery(shares, labels)
        anger = next(row for row in rows if row["emotion"] == "anger")
        assert [anger[key] for key in ("u1", "u2", "z", "p_value")] == [None] * 4
        assert anger["higher_group"] == "degenerate"
        assert sum(row["p_value"] is not None for row in rows) == 31
        assert rows[-1]["emotion"] == "anger"  # degenerate rows sort last

    def test_row_per_emotion(self):
        shares, labels = _battery_shares(np.random.default_rng(2))
        rows = emotion_test_battery(shares, labels)
        assert sorted(row["emotion"] for row in rows) == sorted(EMOTION_COLUMNS)

    def test_rows_outside_both_groups_ignored(self):
        shares, labels = _battery_shares(np.random.default_rng(5))
        expected = emotion_test_battery(shares, labels)
        padded = np.vstack([shares, np.full((7, len(PRIMARY_EMOTIONS)), 9.0)])
        assert emotion_test_battery(padded, labels + ["unknown"] * 7) == expected

    def test_needs_eight_share_columns(self):
        with pytest.raises(ValueError, match="n x 8"):
            emotion_test_battery(np.zeros((2, len(EMOTION_COLUMNS))), ["female", "male"])


def test_dialogue_work_stays_below_one_32_column_array():
    """Means and battery over 20,000 dialogues never hold a dialogue x 32 array."""
    rng = np.random.default_rng(11)
    n = 20_000
    counts = rng.integers(0, 4, size=(n, len(PRIMARY_EMOTIONS)))
    lengths = [100] * (n // 100)
    labels = ["female", "male", "unknown"] * (n // 3) + ["female"] * (n % 3)
    tracemalloc.start()
    try:
        shares = primary_shares(counts)
        character_means(shares, lengths)
        emotion_test_battery(shares, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * len(EMOTION_COLUMNS) * 8
