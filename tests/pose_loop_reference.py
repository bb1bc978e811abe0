"""Pose-by-pose reference implementations of the columnar trajectory code.

These are the loop versions of TUM parsing and writing, of timestamp
association, of the synthetic generator and of the perturbation stages,
built one ``Pose``, ``Rotation`` or candidate pair at a time. The tests
require the array code in ``slameval`` to reproduce them bit for bit,
including every ParseError.
Rotations about an axis come from ``_axis_angle``, a one-axis-at-a-time
quaternion formula that shares no code with the broadcasting one.
"""

from __future__ import annotations

import io
import math
import random
from typing import IO, Iterable

import numpy as np

from slameval.errors import EmptyAssociationError, ParseError, SlamEvalError, ValidationError
from slameval.geom3d import Pose, Rotation, Trajectory, compose, quat_mul, quat_normalize
from slameval.synth import PerturbationSpec, _normals, _smooth_profile, _uniforms
from slameval.trajio import Association


def _axis_angle(axis, angle: float) -> Rotation:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * float(angle)
    return Rotation(quat_normalize(np.concatenate([[math.cos(half)], math.sin(half) * axis])))


def parse_tum(source: str | IO[str] | Iterable[str], traj_id: str = "") -> Trajectory:
    if isinstance(source, str):
        # lines end at LF, CR or CRLF, as in a text-mode file
        lines: Iterable[str] = io.StringIO(source, newline=None)
    else:
        lines = source

    poses: list[Pose] = []
    prev_ts: float | None = None
    for line_no, raw in enumerate(lines, start=1):
        line = (raw.removeprefix("\ufeff") if line_no == 1 else raw).strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ParseError(f"expected 8 fields, got {len(fields)}", line_no)
        try:
            ts, tx, ty, tz, qx, qy, qz, qw = (float(f) for f in fields)
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", line_no) from None
        if not all(math.isfinite(v) for v in (ts, tx, ty, tz, qx, qy, qz, qw)):
            raise ParseError("non-finite value", line_no)
        if prev_ts is not None and ts <= prev_ts:
            raise ParseError(
                f"timestamp {ts!r} does not increase over previous {prev_ts!r}", line_no
            )
        prev_ts = ts
        try:
            rotation = Rotation(np.array([qw, qx, qy, qz]))
        except ValidationError as exc:
            raise ParseError(str(exc), line_no) from None
        poses.append(Pose(rotation, np.array([tx, ty, tz]), ts))

    if not poses:
        raise ValidationError("no pose lines found; a trajectory needs at least one pose")
    return Trajectory(tuple(poses), traj_id)


def outcome(parse, source):
    """The trajectory parse returns, or (type, message, line number) of its error."""
    try:
        return parse(source)
    except SlamEvalError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def associate(gt: Trajectory, est: Trajectory, max_time_diff: float = 0.02) -> Association:
    """Greedy nearest-timestamp matching, one candidate pair at a time."""
    ts_gt = gt.timestamps()
    ts_est = est.timestamps()
    if ts_gt is None or ts_est is None:
        raise ValidationError("association requires timestamps on every pose of both trajectories")
    if max_time_diff < 0:
        raise ValidationError("max_time_diff must be non-negative")

    candidates: list[tuple[float, float, float, int, int]] = []
    lo = np.searchsorted(ts_est, ts_gt - max_time_diff, side="left")
    hi = np.searchsorted(ts_est, ts_gt + max_time_diff, side="right")
    for i, t in enumerate(ts_gt):
        for j in range(int(lo[i]), int(hi[i])):
            dt = abs(t - ts_est[j])
            if dt <= max_time_diff:
                candidates.append((dt, t, float(ts_est[j]), i, j))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))

    used_gt: set[int] = set()
    used_est: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, _, _, i, j in candidates:
        if i in used_gt or j in used_est:
            continue
        used_gt.add(i)
        used_est.add(j)
        pairs.append((i, j))

    if not pairs:
        raise EmptyAssociationError(
            f"no timestamp pairs within {max_time_diff} s between "
            f"{gt.traj_id or 'gt'} and {est.traj_id or 'est'}"
        )
    pairs.sort(key=lambda p: p[0])
    return Association(tuple(pairs), max_time_diff)


def _format_pose(p: Pose) -> str:
    w, x, y, z = p.rotation.q
    tx, ty, tz = p.translation
    return (
        f"{p.timestamp:.9f} {tx:.12f} {ty:.12f} {tz:.12f} "
        f"{x:.12f} {y:.12f} {z:.12f} {w:.12f}"
    )


def dumps_tum(traj: Trajectory) -> str:
    missing = [i for i, p in enumerate(traj.poses) if p.timestamp is None]
    if missing:
        raise ValidationError(f"pose {missing[0]} has no timestamp; cannot write TUM format")
    header = "# timestamp tx ty tz qx qy qz qw\n"
    return header + "".join(_format_pose(p) + "\n" for p in traj.poses)


def random_trajectory(
    seed: int,
    n: int,
    step_mean: float,
    turn_mean: float,
    height: float = 1.0,
    rate_hz: float = 30.0,
) -> Trajectory:
    if n < 2:
        raise ValidationError(f"random_trajectory needs n >= 2, got {n}")
    rng = random.Random(4 * seed)

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

    poses = tuple(
        Pose(
            _axis_angle([0.0, 0.0, 1.0], float(headings[i])),
            positions[i],
            timestamp=i / rate_hz,
        )
        for i in range(n)
    )
    return Trajectory(poses, f"synth_{seed}")


def _with_timestamp(p: Pose, ts: float | None) -> Pose:
    return Pose(p.rotation, p.translation, ts)


def perturb(gt: Trajectory, spec: PerturbationSpec) -> Trajectory:
    poses = list(gt.poses)

    if spec.global_transform is not None:
        g = spec.global_transform
        poses = [_with_timestamp(compose(g, p), p.timestamp) for p in poses]

    drift_vec = np.asarray(spec.drift_per_frame, dtype=float)
    if np.any(drift_vec != 0.0) or spec.drift_rot_per_frame != 0.0:
        drifted = []
        for i, p in enumerate(poses):
            rotation = p.rotation
            if spec.drift_rot_per_frame != 0.0:
                d = _axis_angle(spec.drift_rot_axis, i * spec.drift_rot_per_frame)
                rotation = Rotation(quat_mul(d.q, rotation.q))
            drifted.append(Pose(rotation, p.translation + i * drift_vec, p.timestamp))
        poses = drifted

    rng_trans, rng_rot, rng_drop = (random.Random(4 * spec.seed + k) for k in (1, 2, 3))

    if spec.noise_sigma_trans > 0.0:
        noise = spec.noise_sigma_trans * _normals(rng_trans, 3 * len(poses)).reshape(-1, 3)
        poses = [
            Pose(p.rotation, p.translation + noise[i], p.timestamp) for i, p in enumerate(poses)
        ]

    if spec.noise_sigma_rot > 0.0:
        axes = _normals(rng_rot, 3 * len(poses)).reshape(-1, 3)
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = spec.noise_sigma_rot * _normals(rng_rot, len(poses))
        noisy = []
        for i, p in enumerate(poses):
            wobble = _axis_angle(axes[i], float(angles[i]))
            noisy.append(Pose(Rotation(quat_mul(wobble.q, p.rotation.q)), p.translation, p.timestamp))
        poses = noisy

    if spec.dropout_fraction > 0.0:
        n = len(poses)
        n_drop = min(int(round(n * spec.dropout_fraction)), n - 1)
        u = _uniforms(rng_drop, n).tolist()
        drop = set(sorted(range(n), key=u.__getitem__)[:n_drop])
        poses = [p for i, p in enumerate(poses) if i not in drop]

    return Trajectory(tuple(poses), gt.traj_id)
