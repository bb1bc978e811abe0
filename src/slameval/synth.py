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

All randomness flows from a single integer seed through the standard
library's ``random.Random``, whose ``random()`` stream Python keeps
identical across releases for a given seed; numpy's ``Generator`` may
change its algorithms between releases. ``random_trajectory`` draws
from ``Random(4 * seed)`` and ``perturb`` from ``Random(4 * seed + k)``
for k = 1, 2, 3: translation noise, rotation noise and dropout, so
turning one stage on or off never changes another stage's draws.
Every draw is a ``random()`` uniform in [0, 1): knots are 2u - 1,
normals come from Box-Muller on arrays and dropout removes the frames
holding the smallest uniforms. Files written by versions that drew from
``numpy.random`` differ for every seed. Neither ``numpy.random`` nor,
through it, OpenSSL is loaded.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geom3d import (Pose, Trajectory, _count, _real, _shown, quat_from_axis_angle, quat_mul,
                     quat_normalize, quat_rotate)

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
        for name in ("drift_per_frame", "drift_rot_axis"):
            vec = tuple(float(_real(f"{name}[{i}]", v)) for i, v in enumerate(getattr(self, name)))
            if len(vec) != 3:
                raise ValidationError("drift vectors must have 3 components")
            object.__setattr__(self, name, vec)
        _real("drift_rot_per_frame", self.drift_rot_per_frame)
        for name in ("noise_sigma_trans", "noise_sigma_rot", "dropout_fraction"):
            _real(name, getattr(self, name), 0)
        if self.dropout_fraction >= 1:
            raise ValidationError("dropout_fraction must lie in [0, 1)")
        object.__setattr__(self, "seed", _seed(self.seed))


def _seed(seed) -> int:
    """The one seed rule: an int or numpy integer, not a bool, >= 0, short enough
    to write in decimal, since it names the generated trajectory."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be >= 0 and an integer, got {_shown(seed)}")
    try:
        str(seed)
    except ValueError:
        raise ValidationError(f"seed must be written in at most {sys.get_int_max_str_digits()}"
                              f" digits, got {_shown(seed)}") from None
    return int(seed)


def _uniforms(rng: random.Random, m: int) -> np.ndarray:
    """The next m draws of rng.random(), uniform in [0, 1), as one array."""
    return np.fromiter(iter(rng.random, None), float, m)


def _normals(rng: random.Random, m: int) -> np.ndarray:
    """m standard normals by Box-Muller from the next 2m uniforms; u < 1 keeps the log finite."""
    u = _uniforms(rng, 2 * m)
    return np.sqrt(-2.0 * np.log1p(-u[:m])) * np.cos(2.0 * np.pi * u[m:])


def _smooth_profile(rng: random.Random, n: int, knot_spacing: int = 25) -> np.ndarray:
    """Cosine-interpolated random knots: a smooth signal in [-1, 1]."""
    k = max(2, n // knot_spacing + 2)
    knots = 2.0 * _uniforms(rng, k) - 1.0
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
    n = _count("n", n)
    if n < 2:
        raise ValidationError(f"random_trajectory needs n >= 2, got {n}")
    seed = _seed(seed)
    rng = random.Random(4 * seed)
    for name, value in (("step_mean", step_mean), ("turn_mean", turn_mean), ("height", height)):
        _real(name, value)
    _real("rate_hz", rate_hz, 0, above=True)

    heading0 = 2.0 * np.pi * rng.random()
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

    rng_trans, rng_rot, rng_drop = (random.Random(4 * spec.seed + k) for k in (1, 2, 3))

    if spec.noise_sigma_trans > 0.0:
        xyz = xyz + spec.noise_sigma_trans * _normals(rng_trans, 3 * n).reshape(n, 3)

    if spec.noise_sigma_rot > 0.0:
        axes = _normals(rng_rot, 3 * n).reshape(n, 3)
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = spec.noise_sigma_rot * _normals(rng_rot, n)
        wobble = quat_normalize(quat_from_axis_angle(axes, angles))
        q = quat_normalize(quat_mul(wobble, q))

    if spec.dropout_fraction > 0.0:
        n_drop = min(int(round(n * spec.dropout_fraction)), n - 1)
        keep = np.ones(n, dtype=bool)
        keep[np.argsort(_uniforms(rng_drop, n), kind="stable")[:n_drop]] = False
        t, xyz, q = t[keep], xyz[keep], q[keep]

    return Trajectory.from_arrays(t, xyz, q, gt.traj_id)
