"""Absolute trajectory error and relative pose error.

Both metrics compare an estimated pose sequence P_i against ground
truth Q_i over time-associated frame pairs.

ATE measures global consistency: after rigidly aligning the estimate
onto ground truth with transform S, the per-frame error matrix is
E_i = Q_i^-1 S P_i and the score is the RMSE of ||trans(E_i)||.
Because rigid transforms are isometries, ||trans(E_i)|| equals
||S p_i - q_i|| over the translation parts: the per-frame errors are
the residual norms of the alignment itself, and the score is its
``rmse_after``.

RPE measures local drift over a fixed frame interval delta:
F_i = (Q_i^-1 Q_{i+delta})^-1 (P_i^-1 P_{i+delta}), with a sequence of
n associated poses yielding m = n - delta error matrices. The
translation part is reduced as an RMSE and the rotation part as the
mean angle. An all-pairs mode averages over every (i, delta) instead.
With the per-frame offsets c_i = q_i conj(p_i) of the gt and est
rotations, a pair (i, j) has angle(F) = angle(c_i conj(c_j)) (conjugate
by q_j) and ||trans(F)|| = ||R(c_i) (tp_j - tp_i) - (tq_j - tq_i)|| (rotate
by q_i, an isometry): one product and one rotation per pair.
``rpe_segments`` scores many runs in one pass; it takes the associated
rows' gt and est rotations and positions and forms the offsets c itself.

All RMSE/mean reductions use exact compensated summation (math.fsum),
through geom3d's _fsum_mean and _segment_means, so the definitional
identities hold to 1e-12 regardless of order; the cohort averages of
trajstats.cohort_stats take the same exact mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import AlignmentResult, horn_align
from .errors import EmptyAssociationError, ValidationError
from .geom3d import (
    Trajectory,
    _fsum_mean,
    _segment_means,
    quat_angle,
    quat_conj,
    quat_mul,
    quat_rotate,
)
from .trajio import RPE_MODE_ALL_PAIRS, RPE_MODE_FIXED, Association

__all__ = [
    "AteReport",
    "RpeReport",
    "ate",
    "rpe",
    "rpe_segments",
    "RPE_MODE_FIXED",
    "RPE_MODE_ALL_PAIRS",
    "ALL_PAIRS_DEFAULT_CAP",
]

# All-pairs cost is O(n^2); refuse huge sequences unless asked.
ALL_PAIRS_DEFAULT_CAP = 2000


@dataclass(frozen=True)
class AteReport:
    """Absolute trajectory error over the associated frames.

    per_frame holds ||trans(E_i)|| in meters, the alignment's residual
    for each associated pair; rmse, mean, median summarize it. alignment
    carries the rigid transform S that was factored out.
    """

    rmse: float
    mean: float
    median: float
    per_frame: np.ndarray
    alignment: AlignmentResult


@dataclass(frozen=True)
class RpeReport:
    """Relative pose error, split into translation and rotation parts.

    delta is the frame interval (0 in all-pairs mode, where every
    interval contributes). trans_rmse is meters, rot_mean radians.
    """

    delta: int
    mode: str
    trans_rmse: float
    rot_mean: float
    per_pair_trans: np.ndarray
    per_pair_rot: np.ndarray


def ate(gt: Trajectory, est: Trajectory, assoc: Association) -> AteReport:
    """Absolute trajectory error of est against gt over associated pairs.

    Alignment uses all associated frames. Raises EmptyAssociationError
    when the association holds no pairs.
    """
    n = len(assoc)
    if n < 1:
        raise EmptyAssociationError("cannot evaluate ATE on an empty association")
    alignment = horn_align(gt.xyz[assoc.gt_indices], est.xyz[assoc.est_indices])
    per_frame = alignment.residuals
    # the median by sort: np.median imports numpy.ma on first use
    median = float(np.sort(per_frame)[(n - 1) // 2 : n // 2 + 1].mean())
    return AteReport(
        rmse=alignment.rmse_after,
        mean=_fsum_mean(per_frame.tolist()),
        median=median,
        per_frame=per_frame,
        alignment=alignment,
    )


def _pair_errors(c, gt_xyz, est_xyz, i, j):
    """Translation and rotation error of the pose pairs (i, j), for the
    offsets c = q conj(p): ||R(c_i) dp - dq|| and angle(c_i conj(c_j))."""
    err_t = np.linalg.norm(
        quat_rotate(c[i], est_xyz[j] - est_xyz[i]) - (gt_xyz[j] - gt_xyz[i]), axis=1
    )
    err_r = quat_angle(quat_mul(c[i], quat_conj(c[j])))
    return err_t, err_r


def _fixed_delta_pairs(counts: np.ndarray, delta: int):
    """The pairs (i, i + delta) inside each segment of counts[k] consecutive rows:
    the rows i and i + delta of every pair, in row order, and the pair count
    of each segment."""
    m = np.maximum(counts - delta, 0)
    # a segment's first row minus the place of its first pair in the list
    shift = (np.cumsum(counts) - counts) - (np.cumsum(m) - m)
    i = np.arange(m.sum()) + np.repeat(shift, m)
    return i, i + delta, m


@np.errstate(over="ignore", invalid="ignore")
def rpe_segments(gt_q, est_q, gt_xyz, est_xyz, counts: np.ndarray, delta: int, mode: str):
    """RPE of each segment of counts[k] consecutive associated rows in one pass.

    gt_q, est_q, gt_xyz and est_xyz hold each row's gt and est rotations
    q and p and positions; the offsets c = q conj(p) are taken once per row.
    Returns each segment's translation RMSE and mean rotation angle (NaN
    for a segment without pairs) and the per-pair errors of all segments;
    values that overflow become inf or NaN without a warning.
    Fixed delta scores every segment's pairs (i, i + delta) at once; all
    pairs, O(n^2) per segment, goes delta by delta within each segment.
    """
    c = quat_mul(gt_q, quat_conj(est_q))
    if mode == RPE_MODE_FIXED:
        i, j, m = _fixed_delta_pairs(counts, delta)
        err_t, err_r = _pair_errors(c, gt_xyz, est_xyz, i, j)
    else:
        ends = np.cumsum(counts)
        parts = [_pair_errors(c[a:b], gt_xyz[a:b], est_xyz[a:b], slice(None, -d), slice(d, None))
                 for a, b in zip((ends - counts).tolist(), ends.tolist()) for d in range(1, b - a)]
        err_t = np.concatenate([np.empty(0), *(t for t, _ in parts)])
        err_r = np.concatenate([np.empty(0), *(r for _, r in parts)])
        m = counts * (counts - 1) // 2
    trans = [math.sqrt(v) for v in _segment_means(err_t * err_t, m)]
    return trans, _segment_means(err_r, m), err_t, err_r


def _all_pairs_refusal(n: int, override: str = "") -> str | None:
    """The error of all-pairs RPE over n pairs above the cap, naming override if given, or None."""
    if n <= ALL_PAIRS_DEFAULT_CAP:
        return None
    cap = f"all-pairs RPE over {n} poses exceeds the cap of {ALL_PAIRS_DEFAULT_CAP}"
    return f"{cap}; pass {override} to override" if override else cap


def rpe(
    gt: Trajectory,
    est: Trajectory,
    assoc: Association,
    delta: int = 1,
    mode: str = RPE_MODE_FIXED,
    allow_large: bool = False,
) -> RpeReport:
    """Relative pose error of est against gt over associated pairs.

    In fixed-delta mode delta must satisfy 1 <= delta < n for n
    associated pairs, giving m = n - delta error terms. In all-pairs
    mode every interval 1..n-1 contributes (m = n(n-1)/2 terms); n is
    capped at ALL_PAIRS_DEFAULT_CAP unless allow_large is set. Indices
    run over associated pairs in ground-truth timestamp order. The
    result is the one segment of ``rpe_segments``.
    """
    n = len(assoc)
    if n < 2:
        raise ValidationError(f"RPE needs at least 2 associated pairs, got {n}")
    if mode not in (RPE_MODE_FIXED, RPE_MODE_ALL_PAIRS):
        raise ValidationError(f"unknown RPE mode {mode!r}")

    if mode == RPE_MODE_FIXED:
        delta = int(delta)
        if delta < 1 or delta >= n:
            raise ValidationError(
                f"delta must satisfy 1 <= delta < {n} (associated pairs), got {delta}"
            )
    else:
        if not allow_large and (refusal := _all_pairs_refusal(n, "allow_large=True")):
            raise ValidationError(refusal)
        delta = 0
    gi, ei = assoc.gt_indices, assoc.est_indices
    (trans,), (rot,), err_t, err_r = rpe_segments(gt.q[gi], est.q[ei], gt.xyz[gi], est.xyz[ei],
                                                  np.array([n]), delta, mode)
    return RpeReport(
        delta=delta,
        mode=mode,
        trans_rmse=trans,
        rot_mean=rot,
        per_pair_trans=err_t,
        per_pair_rot=err_r,
    )
