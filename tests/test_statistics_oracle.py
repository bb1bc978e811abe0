"""Brute-force oracles for the array code in the cohort statistics and RPE.

Inputs plant exact ties, -0.0 next to 0.0, and values far apart in
magnitude; distinct values always differ by far more than the rank
tie tolerance, so the oracles below define the exact expected output.
"""

import math

import numpy as np
import pytest

from slameval.cohort import _ranks, cdf, detect_gap, spearman
from slameval.errors import ValidationError
from slameval.metrics import RPE_MODE_ALL_PAIRS, rpe
from slameval.trajio import associate_by_index

from conftest import random_pose_trajectory

_POOL = np.concatenate([np.arange(-40, 41) * 0.37, [-0.0, 0.0, 1e-300, 3e-7, 1e300, -2.5e12]])


def _tied_values(rng, n):
    # few distinct values for many draws, so most values are tied
    pool = rng.choice(_POOL, size=int(rng.integers(1, 12)), replace=False)
    return rng.choice(pool, size=n)


@pytest.mark.parametrize("seed", range(40))
def test_ranks_match_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    values = _tied_values(rng, int(rng.integers(1, 60)))
    expected = [(values < x).sum() + ((values == x).sum() + 1) / 2 for x in values]
    assert _ranks(values).tolist() == expected


@pytest.mark.parametrize("seed", range(40))
def test_cdf_matches_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    values = _tied_values(rng, int(rng.integers(1, 60)))
    # thresholds on, between and beyond the values, with both zeros
    thresholds = np.sort(np.concatenate([values, values + 0.1, [-0.0, 0.0, -1e301, 1e301]]))
    table = cdf(values.tolist(), thresholds.tolist())
    assert [t for t, _ in table] == thresholds.tolist()
    assert [f for _, f in table] == [(values <= t).sum() / len(values) for t in thresholds]


def _gap_oracle(values, gap_ratio_min):
    vals = sorted(values)
    best_ratio, best_i = 0.0, -1
    for i in range(len(vals) - 1):
        if vals[i + 1] / vals[i] > best_ratio:
            best_ratio, best_i = vals[i + 1] / vals[i], i
    if best_ratio < gap_ratio_min:
        return None
    return math.sqrt(vals[best_i] * vals[best_i + 1]), best_ratio


@pytest.mark.parametrize("seed", range(40))
def test_detect_gap_matches_max_over_sorted_ratios(seed):
    rng = np.random.default_rng(seed)
    # powers of ten repeat equal ratios, so the first of equal maxima must win
    pool = np.concatenate([10.0 ** np.arange(-3, 4), rng.uniform(0.01, 100.0, size=5)])
    values = rng.choice(pool, size=int(rng.integers(4, 30))).tolist()
    for ratio_min in (1.0, 5.0, 10.0, 1e4):
        gap = detect_gap(values, ratio_min)
        expected = _gap_oracle(values, ratio_min)
        assert (gap if gap is None else tuple(gap)) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_detect_gap_rejects_values_without_a_ratio(bad):
    with pytest.raises(ValidationError):
        detect_gap([1.0, 2.0, bad, 40.0, 80.0])


def test_spearman_matches_rank_difference_formula_without_ties():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in [3, 4, 5, 7, 10, 31, 100, 1000, 3000] + rng.integers(3, 300, size=200).tolist():
        xs, ys = rng.normal(size=n), rng.normal(size=n)
        rx = np.argsort(np.argsort(xs)) + 1.0
        ry = np.argsort(np.argsort(ys)) + 1.0
        d = rx - ry
        textbook = 1.0 - 6.0 * float(np.dot(d, d)) / (n * (n * n - 1))
        worst = max(worst, abs(spearman(xs, ys) - textbook))
    assert worst <= 1.2e-16


@pytest.mark.parametrize("seed", range(10))
def test_all_pairs_rpe_concatenates_fixed_delta_terms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    gt, est = random_pose_trajectory(rng, n), random_pose_trajectory(rng, n)
    assoc = associate_by_index(gt, est)
    fixed = [rpe(gt, est, assoc, delta=d) for d in range(1, n)]
    every = rpe(gt, est, assoc, mode=RPE_MODE_ALL_PAIRS)
    assert every.delta == 0
    for field in ("per_pair_trans", "per_pair_rot"):
        joined = np.concatenate([getattr(r, field) for r in fixed])
        assert getattr(every, field).tobytes() == joined.tobytes()
