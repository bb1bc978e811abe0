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

All RMSE/mean reductions use exact compensated summation (math.fsum)
so the definitional identities hold to 1e-12 regardless of order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import AlignmentResult, horn_align
from .errors import EmptyAssociationError, ValidationError
from .geom3d import (
    Trajectory,
    quat_angle,
    quat_conj,
    quat_mul,
    quat_rotate,
)
from .trajio import Association

__all__ = [
    "AteReport",
    "RpeReport",
    "ate",
    "rpe",
    "RPE_MODE_FIXED",
    "RPE_MODE_ALL_PAIRS",
    "ALL_PAIRS_DEFAULT_CAP",
]

RPE_MODE_FIXED = "fixed-delta"
RPE_MODE_ALL_PAIRS = "all-pairs"

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


def _mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / len(values)


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
        mean=_mean(per_frame),
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
    run over associated pairs in ground-truth timestamp order.
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
        deltas = (delta,)
    else:
        if n > ALL_PAIRS_DEFAULT_CAP and not allow_large:
            raise ValidationError(
                f"all-pairs RPE over {n} poses exceeds the cap of "
                f"{ALL_PAIRS_DEFAULT_CAP}; pass allow_large=True to override"
            )
        delta, deltas = 0, range(1, n)
    gi, ei = assoc.gt_indices, assoc.est_indices
    c = quat_mul(gt.q[gi], quat_conj(est.q[ei]))
    gt_xyz, est_xyz = gt.xyz[gi], est.xyz[ei]
    parts = [_pair_errors(c, gt_xyz, est_xyz, slice(None, -d), slice(d, None)) for d in deltas]
    err_t, err_r = (np.concatenate(errors) for errors in zip(*parts))

    return RpeReport(
        delta=delta,
        mode=mode,
        trans_rmse=math.sqrt(_mean(err_t * err_t)),
        rot_mean=_mean(err_r),
        per_pair_trans=err_t,
        per_pair_rot=err_r,
    )
