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
