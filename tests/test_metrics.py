import math

import numpy as np
import pytest

from slameval.align import horn_align, horn_align_segments
from slameval.errors import EmptyAssociationError, ValidationError
from slameval.geom3d import (
    Pose,
    Rotation,
    Trajectory,
    angle_of,
    compose,
    relative,
    rot,
    trans,
)
from slameval.metrics import RPE_MODE_ALL_PAIRS, ate, rpe, rpe_segments
from slameval.trajio import Association, associate_by_index

from conftest import (
    random_pose,
    random_pose_trajectory,
    rotz,
    static_identity_trajectory,
)


def _drifted(n: int, d, dt: float = 1.0 / 30.0) -> Trajectory:
    d = np.asarray(d, dtype=float)
    return Trajectory(tuple(Pose(Rotation.identity(), i * d, i * dt) for i in range(n)))


def _left_composed(traj: Trajectory, g: Pose) -> Trajectory:
    poses = tuple(
        Pose(compose(g, p).rotation, compose(g, p).translation, p.timestamp) for p in traj
    )
    return Trajectory(poses, traj.traj_id)


# ---------------------------------------------------------------------------
# ATE
# ---------------------------------------------------------------------------

def test_ate_zero_for_identical_trajectories():
    rng = np.random.default_rng(30)
    gt = random_pose_trajectory(rng, 60)
    assoc = associate_by_index(gt, gt)
    report = ate(gt, gt, assoc)
    assert report.rmse <= 1e-12
    assert report.mean <= 1e-12
    assert report.median <= 1e-12


def test_ate_absorbs_global_rigid_offset():
    rng = np.random.default_rng(31)
    gt = random_pose_trajectory(rng, 80)
    est = _left_composed(gt, random_pose(rng))
    report = ate(gt, est, associate_by_index(gt, est))
    assert report.rmse <= 1e-9


def test_ate_rigid_invariance():
    rng = np.random.default_rng(32)
    for _ in range(25):
        gt = random_pose_trajectory(rng, 40)
        est = random_pose_trajectory(rng, 40)
        assoc = associate_by_index(gt, est)
        base = ate(gt, est, assoc).rmse
        moved = ate(gt, _left_composed(est, random_pose(rng)), assoc).rmse
        assert abs(base - moved) <= 1e-9


def test_ate_report_invariants():
    rng = np.random.default_rng(33)
    gt = random_pose_trajectory(rng, 50)
    est = random_pose_trajectory(rng, 50)
    assoc = associate_by_index(gt, est)
    report = ate(gt, est, assoc)
    assert len(report.per_frame) == len(assoc)
    assert report.rmse >= 0 and report.median >= 0
    assert abs(report.rmse**2 - np.mean(report.per_frame**2)) <= 1e-12
    assert abs(report.mean - np.mean(report.per_frame)) <= 1e-12
    assert report.alignment.point_count == len(assoc)


def test_ate_empty_association_rejected():
    gt = static_identity_trajectory(5)
    with pytest.raises(EmptyAssociationError):
        ate(gt, gt, Association((), 0.02))


def test_ate_per_frame_invariant_to_alignment_input_order():
    rng = np.random.default_rng(34)
    q = rng.uniform(-4, 4, size=(100, 3))
    p = rng.uniform(-4, 4, size=(100, 3))
    s1 = horn_align(q, p).transform
    perm = rng.permutation(100)
    s2 = horn_align(q[perm], p[perm]).transform
    e1 = np.linalg.norm(p @ s1.rotation.matrix.T + s1.translation - q, axis=1)
    e2 = np.linalg.norm(p @ s2.rotation.matrix.T + s2.translation - q, axis=1)
    assert np.max(np.abs(e1 - e2)) <= 1e-10


# ---------------------------------------------------------------------------
# RPE, fixed delta
# ---------------------------------------------------------------------------

def test_rpe_zero_for_identical_trajectories():
    rng = np.random.default_rng(35)
    gt = random_pose_trajectory(rng, 40)
    report = rpe(gt, gt, associate_by_index(gt, gt), delta=1)
    assert report.trans_rmse == 0.0
    assert report.rot_mean == 0.0


def test_rpe_translation_drift_oracle():
    # drift d per frame makes every interval-delta relative error exactly delta*d
    gt = static_identity_trajectory(200)
    est = _drifted(200, (0.01, 0.0, 0.0))
    assoc = associate_by_index(gt, est)
    for delta in (1, 2, 3):
        report = rpe(gt, est, assoc, delta=delta)
        assert abs(report.trans_rmse - delta * 0.01) <= 1e-12
        assert len(report.per_pair_trans) == 200 - delta
        assert report.rot_mean <= 1e-12


def test_rpe_rotation_drift_oracle():
    phi = 0.02
    n = 150
    gt = static_identity_trajectory(n)
    est = Trajectory(
        tuple(Pose(rotz(i * phi), np.zeros(3), i / 30.0) for i in range(n))
    )
    report = rpe(gt, est, associate_by_index(gt, est), delta=1)
    assert abs(report.rot_mean - phi) <= 1e-12
    assert report.trans_rmse <= 1e-12


def test_rpe_rigid_invariance():
    rng = np.random.default_rng(36)
    for _ in range(25):
        gt = random_pose_trajectory(rng, 30)
        est = random_pose_trajectory(rng, 30)
        assoc = associate_by_index(gt, est)
        base = rpe(gt, est, assoc, delta=2)
        moved = rpe(gt, _left_composed(est, random_pose(rng)), assoc, delta=2)
        assert abs(base.trans_rmse - moved.trans_rmse) <= 1e-12
        assert abs(base.rot_mean - moved.rot_mean) <= 1e-12
        assert np.max(np.abs(base.per_pair_trans - moved.per_pair_trans)) <= 1e-12
        # angles themselves lose precision through arccos when the relative
        # rotation sits near pi (error ~ sqrt(eps)); bound per-element there
        assert np.max(np.abs(base.per_pair_rot - moved.per_pair_rot)) <= 1e-7


def test_rpe_report_invariants():
    rng = np.random.default_rng(37)
    gt = random_pose_trajectory(rng, 40)
    est = random_pose_trajectory(rng, 40)
    assoc = associate_by_index(gt, est)
    report = rpe(gt, est, assoc, delta=5)
    m = len(assoc) - 5
    assert len(report.per_pair_trans) == m
    assert len(report.per_pair_rot) == m
    assert abs(report.trans_rmse**2 - np.mean(report.per_pair_trans**2)) <= 1e-12
    assert abs(report.rot_mean - np.mean(report.per_pair_rot)) <= 1e-12


def test_rpe_delta_validation():
    gt = static_identity_trajectory(10)
    assoc = associate_by_index(gt, gt)
    with pytest.raises(ValidationError):
        rpe(gt, gt, assoc, delta=0)
    with pytest.raises(ValidationError):
        rpe(gt, gt, assoc, delta=10)
    one = static_identity_trajectory(1)
    with pytest.raises(ValidationError):
        rpe(one, one, associate_by_index(one, one), delta=1)


# ---------------------------------------------------------------------------
# RPE, all pairs
# ---------------------------------------------------------------------------

def _brute_force_all_pairs(gt: Trajectory, est: Trajectory):
    """Scalar double loop straight from the definition, via pose ops."""
    n = len(gt)
    errs_t, errs_r = [], []
    for d in range(1, n):
        for i in range(n - d):
            a = relative(gt[i], gt[i + d])
            b = relative(est[i], est[i + d])
            f = relative(a, b)
            errs_t.append(float(np.linalg.norm(trans(f))))
            errs_r.append(angle_of(rot(f)))
    return np.array(errs_t), np.array(errs_r)


def test_all_pairs_matches_brute_force():
    rng = np.random.default_rng(38)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        gt = random_pose_trajectory(rng, n)
        est = random_pose_trajectory(rng, n)
        assoc = associate_by_index(gt, est)
        report = rpe(gt, est, assoc, mode=RPE_MODE_ALL_PAIRS)
        oracle_t, oracle_r = _brute_force_all_pairs(gt, est)
        assert len(report.per_pair_trans) == n * (n - 1) // 2
        assert np.max(np.abs(report.per_pair_trans - oracle_t)) <= 1e-12
        assert np.max(np.abs(report.per_pair_rot - oracle_r)) <= 1e-12
        assert abs(report.trans_rmse - math.sqrt(np.mean(oracle_t**2))) <= 1e-12
        assert abs(report.rot_mean - np.mean(oracle_r)) <= 1e-12


def test_all_pairs_cap():
    gt = static_identity_trajectory(2001)
    assoc = associate_by_index(gt, gt)
    with pytest.raises(ValidationError):
        rpe(gt, gt, assoc, mode=RPE_MODE_ALL_PAIRS)
    report = rpe(gt, gt, assoc, mode=RPE_MODE_ALL_PAIRS, allow_large=True)
    assert report.trans_rmse == 0.0


def test_unknown_mode_rejected():
    gt = static_identity_trajectory(5)
    with pytest.raises(ValidationError):
        rpe(gt, gt, associate_by_index(gt, gt), mode="whatever")


# ---------------------------------------------------------------------------
# Segment kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, delta", [(RPE_MODE_ALL_PAIRS, 0), ("fixed-delta", 1),
                                         ("fixed-delta", 3)])
def test_segment_kernels_give_each_segment_its_one_segment_bits(mode, delta):
    # segments of 1, 2, 3 and more rows, scored together and one by one
    rng = np.random.default_rng(60)
    counts = np.array([5, 1, 2, 40, 3, 17, 1])
    gt = random_pose_trajectory(rng, counts.sum(), trans_scale=1e3)
    est = random_pose_trajectory(rng, counts.sum())
    ends = np.cumsum(counts)
    rot_m, t, residuals, rmse = horn_align_segments(gt.xyz, est.xyz, counts)
    trans, rot_mean, err_t, err_r = rpe_segments(gt.q, est.q, gt.xyz, est.xyz, counts, delta, mode)
    pair_lo = 0
    for k, (a, b) in enumerate(zip(ends - counts, ends)):
        alone = horn_align(gt.xyz[a:b], est.xyz[a:b])
        assert np.array_equal(alone.rotation_matrix, rot_m[k])
        assert np.array_equal(alone.translation, t[k])
        assert np.array_equal(alone.residuals, residuals[a:b]) and alone.rmse_after == rmse[k]
        n = b - a
        if n < 2 or delta >= n:
            assert math.isnan(trans[k]) and math.isnan(rot_mean[k])
            continue
        idx = np.arange(n)
        report = rpe(gt.subset(range(a, b)), est.subset(range(a, b)),
                     Association.from_indices(idx, idx, math.inf), delta, mode)
        pair_hi = pair_lo + len(report.per_pair_trans)
        assert np.array_equal(report.per_pair_trans, err_t[pair_lo:pair_hi])
        assert np.array_equal(report.per_pair_rot, err_r[pair_lo:pair_hi])
        assert (report.trans_rmse, report.rot_mean) == (trans[k], rot_mean[k])
        pair_lo = pair_hi
    assert pair_lo == len(err_t)
