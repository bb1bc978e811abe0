"""Cohort-level robustness statistics.

Accuracy numbers on a handful of sequences say little about how often a
tracking system fails. This module aggregates per-sequence metric
records into the distribution-level views that make robustness visible:

- per-sequence medians over repeated runs (tracking front ends are
  randomized, so single runs are noisy),
- cumulative distributions of the medians over a threshold grid,
- sorted per-sequence values for bar plots,
- detection of the failure gap: the large multiplicative jump that
  separates sequences the system handled from sequences it broke on,
- a success rate based on how much of each sequence stayed tracked,
- rank correlations between motion attributes and metric values.

Sequences where association produced nothing (total tracking failure)
carry NaN metrics and tracked_fraction 0; they are excluded from the
metric distributions but still count as failures in the success rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import UndefinedCorrelationError, ValidationError
from .trajstats import SequenceStats

__all__ = [
    "MetricRecord",
    "SequenceResult",
    "CohortSummary",
    "Gap",
    "METRIC_FIELDS",
    "ATTRIBUTE_FIELDS",
    "aggregate_runs",
    "cdf",
    "default_thresholds",
    "detect_gap",
    "success_rate",
    "spearman",
    "summarize",
]

METRIC_FIELDS = ("ate_rmse", "rpe_trans", "rpe_rot")
ATTRIBUTE_FIELDS = ("mean_vel_per_frame", "mean_ang_vel_per_frame", "frame_count", "path_length")

DEFAULT_MIN_TRACKED = 0.9
DEFAULT_GAP_RATIO_MIN = 5.0
CDF_GRID_POINTS = 50
# Rank ties: sorted values within this fraction of their magnitude of the
# previous one differ by rounding, not by order.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class MetricRecord:
    """Metric values of one evaluation run; NaN marks an unavailable value."""

    ate_rmse: float
    rpe_trans: float
    rpe_rot: float
    tracked_fraction: float

    def __post_init__(self):
        tf = self.tracked_fraction
        if not (math.isnan(tf) or 0.0 <= tf <= 1.0):
            raise ValidationError(f"tracked_fraction must lie in [0, 1], got {tf}")


@dataclass(frozen=True)
class SequenceResult:
    """All runs of one sequence plus their per-field median and attributes."""

    sequence_id: str
    runs: tuple[MetricRecord, ...]
    median_record: MetricRecord
    stats: SequenceStats

    @classmethod
    def from_runs(
        cls, sequence_id: str, runs: Sequence[MetricRecord], stats: SequenceStats
    ) -> "SequenceResult":
        return cls(sequence_id, tuple(runs), aggregate_runs(runs), stats)


class Gap(NamedTuple):
    threshold: float
    ratio: float


@dataclass(frozen=True)
class CohortSummary:
    """Everything the robustness protocol derives from a cohort."""

    results: tuple[SequenceResult, ...]
    cdf_tables: dict[str, tuple[tuple[float, float], ...]]
    sorted_bars: dict[str, tuple[float, ...]]
    gap: dict[str, Gap | None]
    success_rate: float
    correlations: tuple[tuple[str, str, float], ...]
    excluded: tuple[str, ...]


def _median(values: Sequence[float]) -> float:
    """Median over the finite values; even counts average the central two."""
    finite = sorted(v for v in values if not math.isnan(v))
    k = len(finite)
    if not k:
        return math.nan
    return finite[k // 2] if k % 2 else 0.5 * (finite[k // 2 - 1] + finite[k // 2])


def aggregate_runs(runs: Sequence[MetricRecord]) -> MetricRecord:
    """Per-field median over repeated runs of one sequence.

    Fields aggregate independently; NaN entries (runs where a value was
    unavailable) are left out of that field's median.
    """
    if not runs:
        raise ValidationError("aggregate_runs needs at least one run")
    return MetricRecord(
        ate_rmse=_median([r.ate_rmse for r in runs]),
        rpe_trans=_median([r.rpe_trans for r in runs]),
        rpe_rot=_median([r.rpe_rot for r in runs]),
        tracked_fraction=_median([r.tracked_fraction for r in runs]),
    )


def cdf(
    values: Sequence[float], thresholds: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """Fraction of values <= threshold, for each threshold.

    Thresholds must be ascending. The fractions are non-decreasing and
    reach 1.0 once the largest value is covered.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if not vals.size:
        raise ValidationError("cdf needs at least one value")
    thr = np.asarray(thresholds, dtype=float)
    if np.any(thr[1:] < thr[:-1]):
        raise ValidationError("thresholds must be ascending")
    fractions = np.searchsorted(vals, thr, side="right") / vals.size
    return tuple(zip(thr.tolist(), fractions.tolist()))


def default_thresholds(values: Sequence[float], points: int = CDF_GRID_POINTS) -> tuple[float, ...]:
    """Log-spaced grid from min(values)/2 to 2*max(values).

    Cumulative plots of tracking error read best on a log axis. Zeros
    in the input (perfect runs) cannot anchor a log grid, so the lower
    end falls back to half the smallest positive value, and an all-zero
    input degenerates to the single threshold 0.0.
    """
    vals = np.asarray(values, dtype=float)
    if not vals.size:
        raise ValidationError("default_thresholds needs at least one value")
    if np.any(vals < 0):
        raise ValidationError("threshold grid expects non-negative values")
    top = float(vals.max())
    if top == 0.0:
        return (0.0,)
    lo = float(vals[vals > 0.0].min()) / 2.0
    hi = 2.0 * top
    if lo == hi:
        return (hi,)
    return tuple(float(t) for t in np.geomspace(lo, hi, points))


def detect_gap(
    values: Sequence[float], gap_ratio_min: float = DEFAULT_GAP_RATIO_MIN
) -> Gap | None:
    """Find the failure gap in a set of finite, positive metric values.

    Sorts ascending and takes the largest ratio between consecutive
    values. A ratio of at least gap_ratio_min marks a gap; the reported
    threshold is the geometric mean of the two values around it (the
    midpoint on a log axis). Returns None when no gap qualifies or when
    fewer than 4 values are given.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if not np.all((vals > 0.0) & (vals < math.inf)):  # NaN fails both
        raise ValidationError("gap detection needs finite, strictly positive values (log scale)")
    if vals.size < 4:
        return None
    ratios = vals[1:] / vals[:-1]
    i = int(np.argmax(ratios))  # the first of equal maxima
    if ratios[i] < gap_ratio_min:
        return None
    lo, hi = vals[i : i + 2].tolist()
    return Gap(math.sqrt(lo * hi), float(ratios[i]))


def success_rate(
    results: Sequence[SequenceResult], min_tracked: float = DEFAULT_MIN_TRACKED
) -> float:
    """Fraction of sequences whose median tracked_fraction reaches min_tracked.

    The boundary is inclusive: a sequence tracked exactly min_tracked
    of its frames counts as a success.
    """
    if not results:
        raise ValidationError("success_rate needs at least one sequence result")
    ok = sum(1 for r in results if r.median_record.tracked_fraction >= min_tracked)
    return ok / len(results)


def _ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with ties receiving the average of their positions.

    A tie group runs on while each sorted value exceeds the one before it
    by at most TIE_RTOL of its magnitude, so values equal up to rounding
    share one rank.
    """
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="stable")
    s = a[order]
    steps = s[1:] - s[:-1] > TIE_RTOL * np.abs(s[1:])
    starts = np.flatnonzero(np.concatenate([[True], steps]))
    ends = np.append(starts[1:], len(s))  # 1-based position of each tie group's last value
    sizes = ends - starts
    ranks = np.empty(len(a))
    ranks[order] = np.repeat(ends - (sizes - 1) / 2, sizes)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation: the Pearson correlation of the average ranks.

    Tied values share the average of their positions; without ties this
    equals the rank-difference formula 1 - 6 sum(d^2) / (n (n^2 - 1)).
    Raises ValidationError on length mismatch or fewer than 3 points,
    UndefinedCorrelationError when an input has zero rank variance (all
    values equal).
    """
    if len(xs) != len(ys):
        raise ValidationError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValidationError(f"spearman needs at least 3 points, got {n}")
    rx = _ranks(xs)
    ry = _ranks(ys)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise UndefinedCorrelationError("an input has no rank variance")
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float(np.dot(dx, dy) / math.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))


def summarize(
    results: Sequence[SequenceResult],
    min_tracked: float = DEFAULT_MIN_TRACKED,
    gap_ratio_min: float = DEFAULT_GAP_RATIO_MIN,
) -> CohortSummary:
    """Build the full cohort summary from per-sequence results.

    Per metric, sequences with a finite median contribute to the CDF,
    bar, and gap views; totally failed sequences are excluded there
    (and listed) but count against the success rate. Gap detection runs
    only when every contributing value is positive, since an exact zero
    breaks the log-scale ratio test. Correlations pair every attribute
    with every metric over the sequence medians; pairs whose rank
    correlation is undefined are omitted.
    """
    if not results:
        raise ValidationError("summarize needs at least one sequence result")
    results = tuple(results)

    # one row per sequence: the metric medians and the motion attributes
    medians = np.array([[getattr(r.median_record, m) for m in METRIC_FIELDS] for r in results])
    attributes = np.array(
        [[getattr(r.stats, a) for a in ATTRIBUTE_FIELDS] for r in results], dtype=float
    )
    finite = ~np.isnan(medians)
    excluded = tuple(r.sequence_id for r, ok in zip(results, finite.any(axis=1)) if not ok)

    cdf_tables: dict[str, tuple[tuple[float, float], ...]] = {}
    sorted_bars: dict[str, tuple[float, ...]] = {}
    gaps: dict[str, Gap | None] = {}
    for j, metric in enumerate(METRIC_FIELDS):
        vals = np.sort(medians[finite[:, j], j], kind="stable")
        sorted_bars[metric] = tuple(vals.tolist())
        cdf_tables[metric] = cdf(vals, default_thresholds(vals)) if vals.size else ()
        positive = vals.size >= 4 and vals[0] > 0.0
        gaps[metric] = detect_gap(vals, gap_ratio_min) if positive else None

    correlations: list[tuple[str, str, float]] = []
    for i, attribute in enumerate(ATTRIBUTE_FIELDS):
        for j, metric in enumerate(METRIC_FIELDS):
            rows = finite[:, j]
            if rows.sum() < 3:
                continue
            try:
                rho = spearman(attributes[rows, i], medians[rows, j])
            except UndefinedCorrelationError:
                continue
            correlations.append((attribute, metric, rho))

    return CohortSummary(
        results=results,
        cdf_tables=cdf_tables,
        sorted_bars=sorted_bars,
        gap=gaps,
        success_rate=success_rate(results, min_tracked),
        correlations=tuple(correlations),
        excluded=excluded,
    )
