import math

import numpy as np
import pytest

from slameval.cohort import (
    MetricRecord,
    SequenceResult,
    aggregate_runs,
    cdf,
    default_thresholds,
    detect_gap,
    spearman,
    success_rate,
    summarize,
)
from slameval.errors import UndefinedCorrelationError, ValidationError
from slameval.trajstats import SequenceStats


def _record(ate=0.01, rpe_t=0.005, rpe_r=0.001, tracked=1.0) -> MetricRecord:
    return MetricRecord(ate, rpe_t, rpe_r, tracked)


def _result(seq_id="s", ates=(0.01,), tracked=1.0, mean_vel=0.006) -> SequenceResult:
    runs = [_record(ate=a, tracked=tracked) for a in ates]
    stats = SequenceStats(mean_vel, 1.5, 1000, 33.3, mean_vel * 999)
    return SequenceResult.from_runs(seq_id, runs, stats)


# ---------------------------------------------------------------------------
# aggregate_runs
# ---------------------------------------------------------------------------

def test_single_run_aggregates_to_itself():
    r = _record(0.02, 0.01, 0.002, 0.95)
    assert aggregate_runs([r]) == r


def test_odd_count_median():
    agg = aggregate_runs([_record(ate=a) for a in (0.01, 0.02, 0.50)])
    assert agg.ate_rmse == 0.02


def test_even_count_median_averages_central_pair():
    agg = aggregate_runs([_record(ate=a) for a in (0.01, 0.03)])
    assert agg.ate_rmse == 0.02


def test_aggregate_is_permutation_invariant():
    rng = np.random.default_rng(70)
    values = rng.uniform(0.001, 1.0, size=9)
    runs = [_record(ate=v) for v in values]
    base = aggregate_runs(runs)
    for _ in range(10):
        perm = rng.permutation(len(runs))
        assert aggregate_runs([runs[i] for i in perm]) == base


def test_aggregate_skips_nan_fields():
    runs = [_record(ate=0.01), _record(ate=math.nan), _record(ate=0.03)]
    assert aggregate_runs(runs).ate_rmse == 0.02


def test_aggregate_rejects_empty():
    with pytest.raises(ValidationError):
        aggregate_runs([])


# ---------------------------------------------------------------------------
# cdf
# ---------------------------------------------------------------------------

def test_cdf_basic_fraction():
    assert cdf([1.0, 2.0, 3.0], [2.0]) == ((2.0, 2.0 / 3.0),)


def test_cdf_reaches_one_at_max():
    values = [0.5, 1.5, 2.5]
    table = cdf(values, [max(values)])
    assert table[-1][1] == 1.0


def test_cdf_constructed_mixture():
    values = [0.01] * 50 + [1.0] * 10
    table = cdf(values, [0.1])
    assert table[0][1] == 50.0 / 60.0


def test_cdf_monotone_and_scale_invariant():
    rng = np.random.default_rng(71)
    values = rng.uniform(0.001, 10.0, size=100).tolist()
    thresholds = sorted(rng.uniform(0.001, 10.0, size=20).tolist())
    table = cdf(values, thresholds)
    fracs = [f for _, f in table]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    scaled = cdf([v * 7.5 for v in values], [t * 7.5 for t in thresholds])
    assert [f for _, f in scaled] == fracs


def test_cdf_validation():
    with pytest.raises(ValidationError):
        cdf([], [1.0])
    with pytest.raises(ValidationError):
        cdf([1.0], [2.0, 1.0])


def test_default_thresholds_log_grid():
    grid = default_thresholds([0.01, 0.1, 1.0])
    assert len(grid) == 50
    assert abs(grid[0] - 0.005) <= 1e-12
    assert abs(grid[-1] - 2.0) <= 1e-12
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) <= 1e-9  # geometric spacing
    assert default_thresholds([0.0, 0.0]) == (0.0,)


# ---------------------------------------------------------------------------
# detect_gap
# ---------------------------------------------------------------------------

def test_no_gap_below_ratio():
    assert detect_gap([1.0, 2.0, 3.0, 4.0]) is None


def test_gap_hand_computed():
    gap = detect_gap([0.01, 0.012, 0.9, 1.1])
    assert gap is not None
    assert abs(gap.threshold - math.sqrt(0.012 * 0.9)) <= 1e-12
    assert abs(gap.ratio - 75.0) <= 1e-9


def test_gap_separates_bimodal_values():
    rng = np.random.default_rng(72)
    small = rng.uniform(0.008, 0.012, size=50).tolist()
    large = rng.uniform(0.8, 1.2, size=10).tolist()
    gap = detect_gap(small + large)
    assert gap is not None
    assert max(small) < gap.threshold < min(large)


def test_gap_scale_invariance():
    values = [0.01, 0.012, 0.9, 1.1]
    g1 = detect_gap(values)
    g2 = detect_gap([v * 40.0 for v in values])
    assert abs(g2.ratio - g1.ratio) <= 1e-9
    assert abs(g2.threshold - 40.0 * g1.threshold) <= 1e-9


def test_gap_needs_positive_values_and_four_points():
    with pytest.raises(ValidationError):
        detect_gap([0.0, 1.0, 2.0, 3.0])
    assert detect_gap([1.0, 100.0, 1000.0]) is None


# ---------------------------------------------------------------------------
# success_rate
# ---------------------------------------------------------------------------

def test_success_rate_all_tracked():
    results = [_result(f"s{i}", tracked=1.0) for i in range(5)]
    assert success_rate(results) == 1.0


def test_success_rate_half():
    results = [_result("a", tracked=1.0), _result("b", tracked=0.5)]
    assert success_rate(results, 0.9) == 0.5


def test_success_rate_boundary_inclusive():
    results = [_result("a", tracked=0.9)]
    assert success_rate(results, 0.9) == 1.0


def test_success_rate_rejects_empty():
    with pytest.raises(ValidationError):
        success_rate([])


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------

def test_spearman_perfect_monotone():
    xs = [1.0, 2.0, 5.0, 9.0]
    assert spearman(xs, [10.0, 20.0, 21.0, 22.0]) == 1.0
    assert spearman(xs, [5.0, 4.0, 3.0, 2.0]) == -1.0


def test_spearman_hand_computed():
    # d = (-1, 1, -1, 1), sum d^2 = 4, rho = 1 - 24/60
    assert abs(spearman([1, 2, 3, 4], [2, 1, 4, 3]) - 0.6) <= 1e-15


def test_spearman_with_ties():
    # x ranks (1, 2.5, 2.5, 4); Pearson on ranks gives 3/sqrt(10)
    rho = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert abs(rho - 3.0 / math.sqrt(10.0)) <= 1e-12


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(73)
    xs = rng.uniform(0, 10, size=30).tolist()
    ys = rng.uniform(0, 10, size=30).tolist()
    base = spearman(xs, ys)
    assert abs(spearman([math.exp(x) for x in xs], ys) - base) <= 1e-12
    assert abs(spearman(xs, [y**3 + 5 for y in ys]) - base) <= 1e-12


def test_spearman_errors():
    with pytest.raises(ValidationError):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(UndefinedCorrelationError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_treats_rounding_noise_as_a_tie():
    # mean_ang_vel_per_frame of three sequences made with one turn_mean:
    # 0.02 rad per frame by construction, spread only by rounding
    angular = [1.145915590261647, 1.1459155902616467, 1.1459155902616465]
    with pytest.raises(UndefinedCorrelationError):
        spearman(angular, [0.3, 0.1, 0.2])
    results = [
        SequenceResult.from_runs(
            f"s{i}", [_record(ate=a)], SequenceStats(0.001 * i, w, 100 + i, 3.0, 5.0)
        )
        for i, (a, w) in enumerate(zip((0.3, 0.1, 0.2), angular))
    ]
    attributes = {a for a, _, _ in summarize(results).correlations}
    assert attributes == {"mean_vel_per_frame", "frame_count"}
    # a real difference of 1e-8 relative still orders the values
    assert spearman([1.0, 1.0 + 1e-8, 1.0 + 2e-8], [0.1, 0.2, 0.3]) == 1.0


def test_spearman_orders_infinities_after_every_finite_value():
    # a path length that overflowed is longer than every finite one; equal infinities tie
    assert spearman([1.0, math.inf, 2.0, 3.0], [0.1, 0.4, 0.2, 0.3]) == 1.0
    rho = spearman([1.0, math.inf, 2.0, math.inf], [1.0, 3.0, 2.0, 4.0])
    assert abs(rho - spearman([1.0, 3.5, 2.0, 3.5], [1.0, 3.0, 2.0, 4.0])) <= 1e-15
    assert spearman([-math.inf, -1.7e308, 1.7e308], [0.1, 0.2, 0.3]) == 1.0


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def test_summarize_single_perfect_sequence():
    summary = summarize([_result("only", ates=(0.0,))])
    assert summary.success_rate == 1.0
    assert summary.excluded == ()
    table = summary.cdf_tables["ate_rmse"]
    assert table[-1][1] == 1.0
    assert table[0] == (0.0, 1.0)  # all mass at threshold zero


def test_summarize_monotone_dependence_gives_rho_one():
    results = []
    for i in range(8):
        vel = 0.004 + 0.002 * i
        results.append(_result(f"s{i}", ates=(0.1 * vel,), mean_vel=vel))
    summary = summarize(results)
    rho = dict(((a, m), r) for a, m, r in summary.correlations)
    assert rho[("mean_vel_per_frame", "ate_rmse")] == 1.0


def test_summarize_bimodal_gap_only_where_present():
    rng = np.random.default_rng(74)
    results = []
    for i in range(50):
        results.append(_result(f"ok{i}", ates=(float(rng.uniform(0.008, 0.012)),)))
    for i in range(10):
        results.append(_result(f"bad{i}", ates=(float(rng.uniform(0.9, 1.1)),)))
    summary = summarize(results)
    assert summary.gap["ate_rmse"] is not None
    # rpe_trans was constant-ish across the cohort: no 5x jump
    assert summary.gap["rpe_trans"] is None


def test_summarize_excludes_failed_sequences_from_cdf():
    ok = [_result(f"s{i}", ates=(0.01 + 0.001 * i,)) for i in range(4)]
    failed = SequenceResult.from_runs(
        "lost",
        [MetricRecord(math.nan, math.nan, math.nan, 0.0)],
        SequenceStats(0.01, 1.0, 100, None, 1.0),
    )
    summary = summarize(ok + [failed])
    assert summary.excluded == ("lost",)
    assert len(summary.sorted_bars["ate_rmse"]) == 4
    # failure still counts against the success rate
    assert summary.success_rate == 4.0 / 5.0


def test_summarize_deterministic():
    results = [_result(f"s{i}", ates=(0.01 * (i + 1), 0.02 * (i + 1))) for i in range(6)]
    a = summarize(results)
    b = summarize(results)
    assert a == b


def test_summarize_rejects_empty():
    with pytest.raises(ValidationError):
        summarize([])
