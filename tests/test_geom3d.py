import math

import numpy as np
import pytest

from slameval.errors import ValidationError
from slameval.geom3d import (
    Pose,
    Rotation,
    Trajectory,
    angle_of,
    apply,
    compose,
    inverse,
    quat_angle,
    quat_from_axis_angle,
    quat_from_matrix,
    relative,
    trans,
)

from conftest import pose_gap, precise_angle_between, random_pose, random_rotation, rotz


# ---------------------------------------------------------------------------
# Construction and invariants of the value types
# ---------------------------------------------------------------------------

def test_rotation_renormalizes_and_canonicalizes():
    r = Rotation(np.array([-1.0001, 0.0, 0.0, 0.0]))
    assert r.q[0] > 0  # sign flipped to w >= 0
    assert abs(np.linalg.norm(r.q) - 1.0) < 1e-9


def test_rotation_rejects_wild_norms():
    with pytest.raises(ValidationError):
        Rotation(np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        Rotation(np.array([0.5, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("w, shown", [(1e200, "1e+200"), (1e-200, "1e-200"), (1e308, "1e+308")])
def test_wild_norm_error_shows_the_true_norm(w, shown):
    # squaring overflows or underflows here; the message must not say inf or 0
    with pytest.raises(ValidationError) as err:
        Rotation(np.array([w, 0.0, 0.0, 0.0]))
    assert str(err.value) == f"quaternion norm {shown} outside [0.9, 1.1]"


def test_rotation_matrix_is_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = random_rotation(rng).matrix
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(m) - 1.0) < 1e-9


def test_reflection_matrix_rejected():
    mirror = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValidationError):
        Rotation.from_matrix(mirror)
    with pytest.raises(ValidationError):
        Rotation.from_matrix(np.eye(3) * 2.0)


def test_trajectory_requires_poses():
    with pytest.raises(ValidationError):
        Trajectory(())


def test_trajectory_rejects_non_increasing_timestamps():
    with pytest.raises(ValidationError):
        Trajectory((Pose.identity(1.0), Pose.identity(1.0)))
    with pytest.raises(ValidationError):
        Trajectory((Pose.identity(2.0), Pose.identity(1.0)))


def _rows_with(k, index, value):
    """Three valid pose rows (t, xyz, q) with arrays[k][index] set to value."""
    arrays = [np.arange(3) / 30.0, np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))]
    arrays[k][index] = value
    return arrays


@pytest.mark.parametrize("arrays, message", [
    ([np.arange(2) / 30.0, np.zeros((3, 3)), np.ones((3, 4)) / 2.0],
     r"^pose arrays must have shapes t \(n,\), xyz \(n, 3\), q \(n, 4\), "
     r"got \(2,\), \(3, 3\), \(3, 4\)$"),
    ([np.arange(3) / 30.0, np.zeros((3, 2)), np.ones((3, 4)) / 2.0],
     r"^pose arrays must .* got \(3,\), \(3, 2\), \(3, 4\)$"),
    (_rows_with(0, 2, math.inf), r"^pose 2: non-finite value$"),
    (_rows_with(1, (1, 0), math.nan), r"^pose 1: non-finite value$"),
    (_rows_with(2, (1, 2), math.nan), r"^pose 1: non-finite value$"),
    (_rows_with(2, 2, [2.0, 0.0, 0.0, 0.0]), r"^pose 2: quaternion norm 2 outside \[0.9, 1.1\]$"),
], ids=["lengths", "xyz-n-by-2", "inf-stamp", "nan-xyz", "nan-q", "norm-2"])
def test_from_arrays_rejects_bad_pose_rows(arrays, message):
    with pytest.raises(ValidationError, match=message):
        Trajectory.from_arrays(*arrays)


def test_from_arrays_orders_stamps_past_unstamped_poses_and_keeps_q():
    t, xyz, q = [0.0, math.nan, 0.5, math.nan, 0.2], np.zeros((5, 3)), np.full((5, 4), 0.525)
    message = r"^pose 4: timestamp 0.2 does not increase over previous 0.5$"
    with pytest.raises(ValidationError, match=message):
        Trajectory.from_arrays(t, xyz, q)
    traj = Trajectory.from_arrays(t[:4], xyz[:4], q[:4])
    assert not traj.has_timestamps
    assert np.array_equal(traj.q, q[:4])  # norm 1.05: stored as given, not renormalized


def test_rotation_rejects_non_finite_quaternions():
    with pytest.raises(ValidationError, match=r"^non-finite value$"):
        Rotation(np.array([math.nan, 0.0, 0.0, 1.0]))


def test_pose_inverse_composes_to_identity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = random_pose(rng)
        angle, dist = pose_gap(compose(p, inverse(p)), Pose.identity())
        assert angle <= 1e-9
        assert dist <= 1e-9


# ---------------------------------------------------------------------------
# Operation examples
# ---------------------------------------------------------------------------

def test_compose_identity_cases():
    p = Pose(rotz(0.3), np.array([1.0, 2.0, 3.0]))
    assert pose_gap(compose(Pose.identity(), p), p) == (0.0, 0.0)
    angle, dist = pose_gap(compose(p, inverse(p)), Pose.identity())
    assert angle <= 1e-12 and dist <= 1e-12


def test_compose_hand_computed():
    # 4x4 product of [Rz(90), (1,0,0)] and [I, (1,0,0)] gives [Rz(90), (1,1,0)]
    a = Pose(rotz(math.pi / 2), np.array([1.0, 0.0, 0.0]))
    b = Pose(Rotation.identity(), np.array([1.0, 0.0, 0.0]))
    c = compose(a, b)
    assert np.allclose(c.translation, [1.0, 1.0, 0.0], atol=1e-12)
    assert precise_angle_between(c.rotation, rotz(math.pi / 2)) <= 1e-12
    assert c.timestamp is None


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        expected = a.matrix @ b.matrix
        got = compose(a, b).matrix
        assert np.allclose(got, expected, atol=1e-12)


def test_inverse_examples():
    assert inverse(Pose.identity()) == Pose.identity()
    p = Pose(Rotation.identity(), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(inverse(p).translation, [-1.0, -2.0, -3.0], atol=0)
    # -R^T t by hand for [Rz(90), (1,0,0)]
    q = inverse(Pose(rotz(math.pi / 2), np.array([1.0, 0.0, 0.0])))
    assert precise_angle_between(q.rotation, rotz(-math.pi / 2)) <= 1e-12
    assert np.allclose(q.translation, [0.0, 1.0, 0.0], atol=1e-12)


def test_inverse_involution():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = random_pose(rng)
        angle, dist = pose_gap(inverse(inverse(p)), p)
        assert angle <= 1e-12
        assert dist <= 1e-12


def test_apply_examples():
    assert np.allclose(apply(Pose.identity(), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0], atol=0)
    shift = Pose(Rotation.identity(), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(apply(shift, [0.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=0)
    turn = Pose(rotz(math.pi / 2), np.zeros(3))
    assert np.allclose(apply(turn, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_trans_examples():
    assert np.allclose(trans(Pose.identity()), [0.0, 0.0, 0.0], atol=0)
    p = Pose(rotz(math.pi / 2), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(trans(p), [1.0, 2.0, 3.0], atol=0)
    a = Pose(rotz(math.pi / 2), np.array([1.0, 0.0, 0.0]))
    b = Pose(Rotation.identity(), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(trans(compose(a, b)), [1.0, 1.0, 0.0], atol=1e-12)


def test_angle_of_examples():
    assert angle_of(Rotation.identity()) == 0.0
    assert abs(angle_of(rotz(math.pi)) - math.pi) <= 1e-9
    rng = np.random.default_rng(5)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    assert abs(angle_of(Rotation.from_axis_angle(axis, 0.7)) - 0.7) <= 1e-9


def test_angle_of_is_axis_invariant():
    rng = np.random.default_rng(6)
    theta = 0.7
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        assert abs(angle_of(Rotation.from_axis_angle(axis, theta)) - theta) <= 1e-9


def test_axis_angle_takes_an_axis_of_any_magnitude():
    # squared norms that overflow, underflow or are subnormal, beside an ordinary axis
    axes = [[1e300, 1e300, 0.0], [1e-200, 0.0, 0.0], [0.2, -0.3, 1.0], [0.0, -5e-324, 5e-324]]
    units = [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.2, -0.3, 1.0], [0.0, -1.0, 1.0]]
    angles = [0.1, 0.2, 0.3, 0.4]
    stacked = quat_from_axis_angle(axes, angles)
    assert np.array_equal(stacked, quat_from_axis_angle(units, angles))
    for axis, angle, q in zip(axes, angles, stacked):
        assert np.array_equal(quat_from_axis_angle(axis, angle), q)
    with pytest.raises(ValidationError, match="^rotation axis must be nonzero$"):
        quat_from_axis_angle([axes[0], [0.0, -0.0, 0.0]], [0.1, 0.2])


@pytest.mark.parametrize("theta", [1e-9, 1e-7, 1e-4, 1.0, math.pi - 1e-7])
def test_angle_of_is_accurate_near_zero_and_pi(theta):
    # arccos of the trace read 1e-9 rad as 0 and 1e-7 rad 1% off
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    r = Rotation(np.concatenate([[math.cos(theta / 2)], math.sin(theta / 2) * axis]))
    assert abs(angle_of(r) - theta) <= 1e-14 * theta
    assert abs(quat_angle(np.stack([r.q, r.q]))[1] - theta) <= 1e-14 * theta


def test_relative_examples():
    p = Pose(rotz(0.4), np.array([0.5, -1.0, 2.0]))
    angle, dist = pose_gap(relative(p, p), Pose.identity())
    assert angle <= 1e-12 and dist <= 1e-12
    angle, dist = pose_gap(relative(Pose.identity(), p), p)
    assert angle <= 1e-12 and dist <= 1e-12
    a = Pose(Rotation.identity(), np.array([1.0, 0.0, 0.0]))
    b = Pose(Rotation.identity(), np.array([3.0, 0.0, 0.0]))
    assert np.allclose(relative(a, b).translation, [2.0, 0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Group properties
# ---------------------------------------------------------------------------

def test_compose_is_associative():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        angle, dist = pose_gap(left, right)
        assert angle <= 1e-9
        assert dist <= 1e-9


def test_quaternion_matrix_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        r = random_rotation(rng)
        back = Rotation.from_matrix(r.matrix)
        assert precise_angle_between(r, back) <= 1e-9


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("angle", [0.0, 1e-12, math.pi / 2, math.pi - 1e-9, math.pi])
def test_quaternion_from_matrix_is_exact_at_every_angle(axis, angle):
    # each row of 4 q q^T serves some rotation: near 0 the w row, near pi an axis row
    r = Rotation.from_axis_angle(np.eye(3)[axis], angle)
    assert precise_angle_between(r, Rotation(quat_from_matrix(r.matrix))) <= 2e-15


def test_quaternion_from_matrix_is_exact_on_random_rotations():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        r = random_rotation(rng)
        assert precise_angle_between(r, Rotation(quat_from_matrix(r.matrix))) <= 2e-15


def test_pose_matrix_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(50):
        p = random_pose(rng)
        m = p.matrix
        assert np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=0)
        angle, dist = pose_gap(Pose.from_matrix(m), p)
        assert angle <= 1e-9
        assert dist <= 1e-9
    with pytest.raises(ValidationError):
        Pose.from_matrix(np.eye(4) + np.diag([0, 0, 0, 0.5]))


def test_rigid_transforms_are_isometric():
    rng = np.random.default_rng(9)
    for _ in range(500):
        g, p, q = random_pose(rng), random_pose(rng), random_pose(rng)
        before = np.linalg.norm(trans(p) - trans(q))
        after = np.linalg.norm(trans(compose(g, p)) - trans(compose(g, q)))
        assert abs(before - after) <= 1e-9
