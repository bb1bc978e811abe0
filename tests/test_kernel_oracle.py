"""Oracles for the per-run kernels: RPE from the per-frame offsets and
ATE from the alignment residuals, against loops over single poses.

The RPE reference composes F = relative(relative(Q_i, Q_j),
relative(P_i, P_j)) pose by pose with the geom3d group operations; the
ATE reference applies the alignment's Pose to each estimate point. The
inputs span rotation offsets from 1e-9 rad to pi - 1e-7 rad,
translations up to 1e5 m, and an estimate in a world frame rotated by
180 degrees.

Both sides round each coordinate to about 1e-15 of its magnitude, and
near a half turn the rotation formula loses a further digit. So the
translation noise keeps each error above about 1e-2 of the coordinates,
where that rounding stays inside the 1e-12 relative tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from slameval.geom3d import Trajectory, apply, quat_from_axis_angle, quat_mul, quat_rotate, relative
from slameval.metrics import RPE_MODE_ALL_PAIRS, ate, rpe
from slameval.trajio import associate_by_index

from conftest import precise_angle_between

RTOL, ATOL = 1e-12, 1e-15


def _unit_axes(rng, n):
    axes = rng.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def _trajectory(xyz, q):
    return Trajectory.from_arrays(np.arange(len(xyz)) / 30.0, xyz, q)


def _random_gt(rng, n, scale):
    q = quat_from_axis_angle(_unit_axes(rng, n), rng.uniform(0.0, math.pi, size=n))
    return _trajectory(rng.uniform(-scale, scale, size=(n, 3)), q)


def _offset_case(rng, n=40):
    """Each estimate pose is its gt pose times a rotation offset of 1e-9 .. pi - 1e-7 rad."""
    gt = _random_gt(rng, n, 5.0)
    angles = np.concatenate([[1e-9, 1e-7, 1e-4, math.pi - 1e-7, math.pi - 1e-4],
                             np.exp(rng.uniform(math.log(1e-9), math.log(3.0), size=n - 5))])
    offset = quat_from_axis_angle(_unit_axes(rng, n), angles)
    q = quat_mul(gt.q, offset)
    xyz = gt.xyz + quat_rotate(gt.q, rng.normal(0.0, 0.05, size=(n, 3)))
    return gt, _trajectory(xyz, q)


def _far_case(rng, n=40):
    """Translations up to 1e5 m on both sides, unrelated to each other."""
    gt = _random_gt(rng, n, 1e5)
    est = _random_gt(rng, n, 1e5)
    return gt, est


def _flipped_case(rng, n=40):
    """The estimate lives in a world frame rotated by 180 degrees about a random axis."""
    gt = _random_gt(rng, n, 5.0)
    flip = quat_from_axis_angle(_unit_axes(rng, 1)[0], math.pi)
    noise = quat_from_axis_angle(_unit_axes(rng, n), rng.normal(0.0, 0.05, size=n))
    q = quat_mul(flip, quat_mul(gt.q, noise))
    xyz = quat_rotate(flip, gt.xyz + rng.normal(0.0, 0.05, size=(n, 3))) + [3.0, -4.0, 2.0]
    return gt, _trajectory(xyz, q)


CASES = {"offsets": _offset_case, "far": _far_case, "flipped": _flipped_case}


def _rpe_loop(gt, est, deltas):
    """Per-pair translation and rotation errors, pose by pose, delta-major."""
    errs_t, errs_r = [], []
    for d in deltas:
        for i in range(len(gt) - d):
            f = relative(relative(gt[i], gt[i + d]), relative(est[i], est[i + d]))
            errs_t.append(float(np.linalg.norm(f.translation)))
            errs_r.append(precise_angle_between(f.rotation, f.rotation.identity()))
    return np.array(errs_t), np.array(errs_r)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_fixed_delta_rpe_matches_pose_loop(case, seed):
    gt, est = CASES[case](np.random.default_rng(seed))
    assoc = associate_by_index(gt, est)
    for delta in (1, 2, 7, len(gt) - 1):
        report = rpe(gt, est, assoc, delta)
        errs_t, errs_r = _rpe_loop(gt, est, [delta])
        np.testing.assert_allclose(report.per_pair_trans, errs_t, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(report.per_pair_rot, errs_r, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("case", sorted(CASES))
def test_all_pairs_rpe_matches_pose_loop(case):
    gt, est = CASES[case](np.random.default_rng(10))
    report = rpe(gt, est, associate_by_index(gt, est), mode=RPE_MODE_ALL_PAIRS)
    errs_t, errs_r = _rpe_loop(gt, est, range(1, len(gt)))
    np.testing.assert_allclose(report.per_pair_trans, errs_t, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(report.per_pair_rot, errs_r, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_ate_per_frame_matches_applied_transform(case, seed):
    gt, est = CASES[case](np.random.default_rng(seed))
    report = ate(gt, est, associate_by_index(gt, est))
    s = report.alignment.transform
    expected = [float(np.linalg.norm(apply(s, p.translation) - g.translation)) for g, p in zip(gt, est)]
    np.testing.assert_allclose(report.per_frame, expected, rtol=RTOL, atol=ATOL)
    assert report.rmse == pytest.approx(math.sqrt(np.mean(np.square(expected))), rel=RTOL)


@pytest.mark.parametrize("n", [1, 2, 3, 39, 40])
def test_ate_median_is_numpys(n):
    gt, est = _far_case(np.random.default_rng(n), n)
    report = ate(gt, est, associate_by_index(gt, est))
    assert report.median == np.median(report.per_frame)


@pytest.mark.parametrize("case", sorted(CASES))
def test_identical_trajectories_have_exactly_zero_rpe(case):
    gt, _ = CASES[case](np.random.default_rng(20))
    report = rpe(gt, gt, associate_by_index(gt, gt), mode=RPE_MODE_ALL_PAIRS)
    assert not report.per_pair_trans.any()
    assert not report.per_pair_rot.any()
