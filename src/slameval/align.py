"""Closed-form rigid alignment between matched 3D point sets.

Estimated and ground-truth trajectories live in arbitrary world frames,
so absolute-error evaluation first solves

    S = argmin_S  sum_i || S * p_i - q_i ||^2

over rigid transforms S, with p from the estimate and q from ground
truth. The minimizer is computed via centroid subtraction, the 3x3
cross-covariance H = sum (p_i - p_mean)(q_i - q_mean)^T, its SVD
H = U Sigma V^T, and R = V diag(1, 1, det(V U^T)) U^T with
t = q_mean - R p_mean. The det correction keeps R a proper rotation
even when the unconstrained least-squares solution would be a
reflection (near-planar point sets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geom3d import (Pose, Rotation, _segment_means, quat_from_axis_angle, quat_normalize,
                     quat_to_matrix)

__all__ = ["AlignmentResult", "horn_align", "horn_align_segments"]


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """The aligning rigid transform x -> R x + t, the residual norm
    ||R p_i + t - q_i|| of each point pair, their RMSE, and the point count.
    ``transform`` is (R, t) as a Pose, its quaternion derived on first use."""

    rotation_matrix: np.ndarray
    translation: np.ndarray
    residuals: np.ndarray
    rmse_after: float
    point_count: int

    @cached_property
    def transform(self) -> Pose:
        return Pose(Rotation.from_matrix(self.rotation_matrix), self.translation)


def _as_points(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValidationError(f"{name} must have shape (n, 3), got {a.shape}")
    return a


def _minimal_rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest-angle rotation matrix taking direction a to direction b; the
    identity when a direction is zero or its norm overflows, as a segment of
    three or more points takes R = I when its cross-covariance overflows."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if not (0.0 < na < math.inf and 0.0 < nb < math.inf):
        return np.eye(3)
    a = a / na
    b = b / nb
    axis = np.cross(a, b)
    s = np.linalg.norm(axis)
    c = float(np.dot(a, b))
    if s >= 1e-15:
        angle = math.atan2(s, c)
    elif c > 0.0:
        return np.eye(3)
    else:
        # Antiparallel: rotate pi about any axis perpendicular to a.
        angle = math.pi
        axis = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-12:
            axis = np.cross(a, [0.0, 1.0, 0.0])
    axis = axis / np.linalg.norm(axis)
    return quat_to_matrix(quat_normalize(quat_from_axis_angle(axis, angle)))


def horn_align(gt_points, est_points) -> AlignmentResult:
    """Rigid transform minimizing summed squared distances est -> gt.

    Accepts equal-length (n, 3) point sets with n >= 1. Three or more
    non-collinear points determine the transform uniquely; degenerate
    inputs are still aligned so short sequences do not crash batch runs:
    n == 1 reduces to a pure translation and n == 2 resolves the free
    rotation about the segment by choosing the minimal rotation angle.
    The result is the one segment of ``horn_align_segments``.
    """
    q = _as_points(gt_points, "gt_points")
    p = _as_points(est_points, "est_points")
    if p.shape[0] != q.shape[0]:
        raise ValidationError(
            f"point sets must have equal length, got {p.shape[0]} and {q.shape[0]}"
        )
    n = p.shape[0]
    if n == 0:
        raise ValidationError("cannot align empty point sets")
    rot_m, t, residuals, (rmse,) = horn_align_segments(q, p, np.array([n]))
    return AlignmentResult(rot_m[0], t[0], residuals, rmse, n)


def _segment_centroids(x: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each segment of the columns of x (3, n), as (3, k). A sum beyond
    the float range is taken again from the values divided by their count, as
    geom3d._fsum_mean does; every finite sum keeps its bits."""
    mean = np.add.reduceat(x, starts, axis=1) / counts
    over = ~np.isfinite(mean)
    if over.any():
        mean[over] = np.add.reduceat(x / np.repeat(counts, counts), starts, axis=1)[over]
    return mean


@np.errstate(over="ignore", invalid="ignore")
def horn_align_segments(q: np.ndarray, p: np.ndarray, counts: np.ndarray):
    """``horn_align`` of each segment of the point arrays q, p (n, 3) in one pass.

    Segment k is the next counts[k] >= 1 rows. Returns the rotation
    matrices (k, 3, 3), the translations (k, 3), the residual norm of
    every row (n,) and the RMSE of each segment as a list. A segment's
    values do not depend on the segments beside it. Values that overflow
    become inf or NaN without a warning.
    """
    starts = np.cumsum(counts) - counts
    # coordinate-major (3, n): each sum over a segment runs along contiguous memory
    p, q = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    p_mean = _segment_centroids(p, starts, counts)
    q_mean = _segment_centroids(q, starts, counts)
    pc = p - np.repeat(p_mean, counts, axis=1)
    qc = q - np.repeat(q_mean, counts, axis=1)
    # the cross-covariance sum (p_i - p_mean)(q_i - q_mean)^T of each segment; one that
    # overflows (beyond about 1e154 m) is zeroed: R = I, and the residuals carry the overflow
    h = np.add.reduceat(pc[:, None] * qc[None], starts, axis=2)
    h[:, :, ~np.isfinite(h).all(axis=(0, 1))] = 0.0
    u, _, vt = np.linalg.svd(h.transpose(2, 0, 1))
    vt[:, 2] *= np.sign(np.linalg.det(u @ vt))[:, None]  # diag(1, 1, det(V U^T))
    rot_m = vt.transpose(0, 2, 1) @ u.transpose(0, 2, 1)
    for k in np.flatnonzero(counts <= 2).tolist():
        a = starts[k]
        rot_m[k] = np.eye(3) if counts[k] == 1 else _minimal_rotation_between(
            p[:, a + 1] - p[:, a], q[:, a + 1] - q[:, a])

    # t = q_mean - R p_mean, summed in one order whatever the segment count (einsum's is not)
    t = q_mean.T - (rot_m[:, :, 0] * p_mean[0, :, None] + rot_m[:, :, 1] * p_mean[1, :, None]
                    + rot_m[:, :, 2] * p_mean[2, :, None])
    # R (p_i - p_mean) - (q_i - q_mean) = R p_i + t - q_i, with R of the row's segment
    r = np.repeat(rot_m.transpose(1, 2, 0), counts, axis=2)
    residuals = r[:, 0] * pc[0] + r[:, 1] * pc[1] + r[:, 2] * pc[2] - qc
    sq = np.add.reduce(residuals * residuals, axis=0)
    return rot_m, t, np.sqrt(sq), [math.sqrt(v) for v in _segment_means(sq, counts)]
