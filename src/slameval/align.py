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
from .geom3d import Pose, Rotation

__all__ = ["AlignmentResult", "horn_align"]


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
    """Smallest-angle rotation matrix taking direction a to direction b."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return np.eye(3)
    a = a / na
    b = b / nb
    axis = np.cross(a, b)
    s = np.linalg.norm(axis)
    c = float(np.dot(a, b))
    if s < 1e-15:
        if c > 0.0:
            return np.eye(3)
        # Antiparallel: rotate pi about any axis perpendicular to a.
        perp = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(perp) < 1e-12:
            perp = np.cross(a, [0.0, 1.0, 0.0])
        perp = perp / np.linalg.norm(perp)
        return Rotation.from_axis_angle(perp, math.pi).matrix
    axis = axis / s
    angle = math.atan2(s, c)
    return Rotation.from_axis_angle(axis, angle).matrix


def horn_align(gt_points, est_points) -> AlignmentResult:
    """Rigid transform minimizing summed squared distances est -> gt.

    Accepts equal-length (n, 3) point sets with n >= 1. Three or more
    non-collinear points determine the transform uniquely; degenerate
    inputs are still aligned so short sequences do not crash batch runs:
    n == 1 reduces to a pure translation and n == 2 resolves the free
    rotation about the segment by choosing the minimal rotation angle.
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

    p_mean = p.mean(axis=0)
    q_mean = q.mean(axis=0)
    if n == 1:
        rot_m = np.eye(3)
    elif n == 2:
        rot_m = _minimal_rotation_between(p[1] - p[0], q[1] - q[0])
    else:
        u, _, vt = np.linalg.svd((p - p_mean).T @ (q - q_mean))
        d = np.sign(np.linalg.det(u @ vt))  # det(V U^T)
        rot_m = (vt.T * [1.0, 1.0, d]) @ u.T

    t = q_mean - rot_m @ p_mean
    residuals = p @ rot_m.T + t - q
    sq = np.einsum("ij,ij->i", residuals, residuals)
    rmse = math.sqrt(math.fsum(sq.tolist()) / n)
    return AlignmentResult(rot_m, t, np.sqrt(sq), rmse, n)
