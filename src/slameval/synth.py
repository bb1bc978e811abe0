"""Synthetic trajectories and controlled perturbations.

Real tracking output is expensive to produce, so tests and demos use
generated ground truth plus perturbations with known analytic effect:
pure drift of d per frame yields a relative translation error of
exactly delta * ||d||, a global rigid offset is absorbed by alignment
and leaves relative errors untouched, and dropout thins the frames a
time association must cope with.

The generated motion mimics a wheeled indoor robot: a smooth planar
path at fixed camera height with yaw-only rotations facing the motion
direction, sampled at 30 Hz.

All randomness flows from a single integer seed through explicitly
split generators, so identical inputs always give identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geom3d import Pose, Trajectory, quat_from_axis_angle, quat_mul, quat_normalize, quat_rotate

__all__ = ["PerturbationSpec", "random_trajectory", "perturb"]


@dataclass(frozen=True)
class PerturbationSpec:
    """What to do to a ground-truth trajectory to fake an estimate.

    Stages apply in order: left-composition by global_transform,
    cumulative drift (frame i receives i times the per-frame drift,
    translation added in the world frame and rotation left-composed
    about the fixed axis), independent Gaussian noise on translation
    and rotation (random axis, normal angle), then dropout of a random
    subset of frames. Survivor timestamps are preserved.
    """

    global_transform: Pose | None = None
    drift_per_frame: tuple[float, float, float] = (0.0, 0.0, 0.0)
    drift_rot_per_frame: float = 0.0
    drift_rot_axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    noise_sigma_trans: float = 0.0
    noise_sigma_rot: float = 0.0
    dropout_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "drift_per_frame", tuple(float(v) for v in self.drift_per_frame))
        object.__setattr__(self, "drift_rot_axis", tuple(float(v) for v in self.drift_rot_axis))
        if len(self.drift_per_frame) != 3 or len(self.drift_rot_axis) != 3:
            raise ValidationError("drift vectors must have 3 components")
        drift = (*self.drift_per_frame, *self.drift_rot_axis, self.drift_rot_per_frame)
        if not all(map(math.isfinite, drift)):
            raise ValidationError(f"drift values must be finite, got {drift}")
        if not (0 <= self.noise_sigma_trans < math.inf and 0 <= self.noise_sigma_rot < math.inf):
            raise ValidationError("noise sigmas must be finite and >= 0")
        if not 0.0 <= self.dropout_fraction < 1.0:
            raise ValidationError("dropout_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def _smooth_profile(rng: np.random.Generator, n: int, knot_spacing: int = 25) -> np.ndarray:
    """Cosine-interpolated random knots: a smooth signal in [-1, 1]."""
    k = max(2, n // knot_spacing + 2)
    knots = rng.uniform(-1.0, 1.0, size=k)
    x = np.arange(n) / knot_spacing
    i0 = np.clip(np.floor(x).astype(int), 0, k - 2)
    w = 0.5 - 0.5 * np.cos(np.pi * (x - i0))
    return knots[i0] * (1.0 - w) + knots[i0 + 1] * w


# overflow and its NaN become non-finite poses, which Trajectory.from_arrays rejects
@np.errstate(over="ignore", invalid="ignore")
def random_trajectory(
    seed: int,
    n: int,
    step_mean: float,
    turn_mean: float,
    height: float = 1.0,
    rate_hz: float = 30.0,
) -> Trajectory:
    """Smooth planar robot path of n frames.

    Per-frame step lengths vary smoothly within 10% of step_mean and
    the mean absolute heading change per frame is turn_mean radians
    (turn_mean = 0 gives a straight line). Positions scale linearly
    with step_mean for a fixed seed, which makes constructed
    speed/accuracy relationships exact.
    """
    if n < 2:
        raise ValidationError(f"random_trajectory needs n >= 2, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if not all(map(math.isfinite, (step_mean, turn_mean, height))):
        raise ValidationError("random_trajectory needs finite step_mean, turn_mean, height")
    if not 0 < rate_hz < math.inf:  # NaN too
        raise ValidationError(f"rate_hz must be finite and > 0, got {rate_hz!r}")
    rng = np.random.default_rng(seed)

    heading0 = rng.uniform(0.0, 2.0 * np.pi)
    turn_profile = _smooth_profile(rng, n - 1)
    speed_profile = _smooth_profile(rng, n - 1)

    mean_abs = float(np.mean(np.abs(turn_profile)))
    if turn_mean == 0.0 or mean_abs < 1e-9:
        turns = np.zeros(n - 1)
    else:
        turns = turn_mean * turn_profile / mean_abs
    headings = heading0 + np.concatenate([[0.0], np.cumsum(turns)])

    steps = step_mean * (1.0 + 0.1 * speed_profile)
    directions = np.stack([np.cos(headings[:-1]), np.sin(headings[:-1]), np.zeros(n - 1)], axis=1)
    positions = np.zeros((n, 3))
    positions[1:] = np.cumsum(steps[:, None] * directions, axis=0)
    positions[:, 2] = height

    # normalized twice, as Rotation.from_axis_angle does: pose-built paths match bit for bit
    q = quat_normalize(quat_from_axis_angle([0.0, 0.0, 1.0], headings))
    return Trajectory.from_arrays(np.arange(n) / rate_hz, positions, q, f"synth_{seed}")


@np.errstate(over="ignore", invalid="ignore")
def perturb(gt: Trajectory, spec: PerturbationSpec) -> Trajectory:
    """Apply the perturbation stages of spec to gt.

    A spec of all zeros and no transform returns the input unchanged.
    Rotations are renormalized after every product, as in ``compose``.
    """
    t, xyz, q = gt.t, gt.xyz, gt.q
    n = len(t)

    if spec.global_transform is not None:
        g = spec.global_transform
        q = quat_normalize(quat_mul(g.rotation.q, q))
        xyz = quat_rotate(g.rotation.q, xyz) + g.translation

    drift_vec = np.asarray(spec.drift_per_frame, dtype=float)
    if np.any(drift_vec != 0.0) or spec.drift_rot_per_frame != 0.0:
        i = np.arange(n)
        if spec.drift_rot_per_frame != 0.0:
            angles = i * spec.drift_rot_per_frame
            d = quat_normalize(quat_from_axis_angle(spec.drift_rot_axis, angles))
            q = quat_normalize(quat_mul(d, q))
        xyz = xyz + i[:, None] * drift_vec

    rng_trans, rng_rot, rng_drop = (
        np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(3)
    )

    if spec.noise_sigma_trans > 0.0:
        xyz = xyz + rng_trans.normal(0.0, spec.noise_sigma_trans, size=(n, 3))

    if spec.noise_sigma_rot > 0.0:
        axes = rng_rot.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = rng_rot.normal(0.0, spec.noise_sigma_rot, size=n)
        wobble = quat_normalize(quat_from_axis_angle(axes, angles))
        q = quat_normalize(quat_mul(wobble, q))

    if spec.dropout_fraction > 0.0:
        n_drop = min(int(round(n * spec.dropout_fraction)), n - 1)
        keep = np.ones(n, dtype=bool)
        keep[rng_drop.choice(n, size=n_drop, replace=False)] = False
        t, xyz, q = t[keep], xyz[keep], q[keep]

    return Trajectory.from_arrays(t, xyz, q, gt.traj_id)
