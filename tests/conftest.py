"""Shared helpers for the test suite.

Rotation-angle measurements in tests use their own atan2 formula on the
relative quaternion, 2 atan2(||(x, y, z)||, |w|), which is accurate at
every magnitude (several tolerances here sit below the ~1.5e-8 rad at
which an arccos of the trace quantizes). It is computed here rather
than with the library's quat_angle, so a broken angle operator cannot
hide its own errors.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from slameval.geom3d import Pose, Rotation, Trajectory, quat_conj, quat_mul, relative
from slameval.synth import PerturbationSpec, perturb
from slameval.trajio import save_tum


# values every count (a stride, an RPE delta, a job or frame count) rejects
NOT_COUNTS = [0, -1, 2.5, True, "2", np.float64(2.0), 2**63]


def count_error(name: str, value) -> str:
    """The pattern of the one message a rejected count raises."""
    return "^" + re.escape(f"{name} must be an integer in [1, {sys.maxsize}], got {value!r}") + "$"


# values every real-valued setting (a tolerance, threshold, size, rate or drift) rejects,
# and numpy scalars every one accepts
NOT_REALS = ["1", True, None, 10**400, math.nan, math.inf, -math.inf]
NUMPY_REALS = [np.float32(0.5), np.float64(0.5), np.int64(2)]


def real_error(name: str, value, bound: str = "") -> str:
    """The pattern of the one message a rejected real raises; bound is e.g. " and >= 0"."""
    return "^" + re.escape(f"{name} must be finite{bound}, got {value!r}") + "$"


def precise_angle_between(a: Rotation, b: Rotation) -> float:
    """Relative rotation angle via atan2; accurate at any magnitude."""
    r = quat_mul(quat_conj(a.q), b.q)
    return 2.0 * math.atan2(float(np.linalg.norm(r[1:])), abs(float(r[0])))


def pose_gap(a: Pose, b: Pose) -> tuple[float, float]:
    """(rotation angle, translation norm) separating two poses."""
    rel = relative(a, b)
    return (
        precise_angle_between(Rotation.identity(), rel.rotation),
        float(np.linalg.norm(rel.translation)),
    )


def random_rotation(rng: np.random.Generator) -> Rotation:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Rotation.from_axis_angle(axis, rng.uniform(0.0, math.pi))


def random_pose(rng: np.random.Generator, trans_scale: float = 5.0) -> Pose:
    return Pose(random_rotation(rng), rng.uniform(-trans_scale, trans_scale, size=3))


def rotz(theta: float) -> Rotation:
    return Rotation.from_axis_angle([0.0, 0.0, 1.0], theta)


def static_identity_trajectory(n: int, dt: float = 1.0 / 30.0) -> Trajectory:
    return Trajectory(tuple(Pose.identity(i * dt) for i in range(n)))


def random_pose_trajectory(
    rng: np.random.Generator, n: int, dt: float = 1.0 / 30.0, trans_scale: float = 5.0
) -> Trajectory:
    poses = tuple(
        Pose(random_rotation(rng), rng.uniform(-trans_scale, trans_scale, size=3), i * dt)
        for i in range(n)
    )
    return Trajectory(poses)


def write_manifest(path: Path, sequences: list[dict], **options) -> Path:
    doc = {"schema_version": 1, "options": options, "sequences": sequences}
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def build_synth_cohort(
    root: Path,
    specs: list[tuple[str, Trajectory, list[PerturbationSpec]]],
    **options,
) -> Path:
    """Write gt/est TUM files for (id, gt, perturbations-per-run) triples.

    Returns the path of a manifest covering them.
    """
    sequences = []
    for seq_id, gt, run_specs in specs:
        gt_rel = f"gt/{seq_id}.txt"
        save_tum(gt, root / gt_rel)
        est_rels = []
        for k, spec in enumerate(run_specs):
            est_rel = f"est/{seq_id}_run{k}.txt"
            save_tum(perturb(gt, spec), root / est_rel)
            est_rels.append(est_rel)
        sequences.append(
            {"sequence_id": seq_id, "gt_path": gt_rel, "estimate_paths": est_rels}
        )
    return write_manifest(root / "manifest.json", sequences, **options)
