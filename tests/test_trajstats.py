import math

import numpy as np
import pytest

from slameval.errors import ValidationError
from slameval.geom3d import Pose, Rotation, Trajectory, compose
from slameval.synth import random_trajectory
from slameval.trajstats import (SequenceStats, cohort_stats, resample_stride, segment_stats,
                                sequence_stats)

from conftest import random_pose, rotz


def _straight_line(n: int, step: float) -> Trajectory:
    poses = tuple(
        Pose(Rotation.identity(), np.array([i * step, 0.0, 0.0]), i / 30.0) for i in range(n)
    )
    return Trajectory(poses)


def test_static_trajectory_has_zero_motion():
    poses = tuple(Pose(rotz(0.5), np.array([1.0, 2.0, 3.0]), i * 0.1) for i in range(20))
    stats = sequence_stats(Trajectory(poses))
    assert stats.mean_vel_per_frame == 0.0
    assert stats.mean_ang_vel_per_frame == 0.0
    assert stats.path_length == 0.0
    assert stats.frame_count == 20


def test_straight_line_mean_velocity():
    stats = sequence_stats(_straight_line(1000, 0.006))
    assert abs(stats.mean_vel_per_frame - 0.006) <= 1e-12
    assert stats.mean_ang_vel_per_frame == 0.0
    assert abs(stats.path_length - 0.006 * 999) <= 1e-9
    assert stats.duration is not None


def test_single_pose_stats():
    stats = sequence_stats(Trajectory((Pose.identity(0.0),)))
    assert stats.mean_vel_per_frame == 0.0
    assert stats.mean_ang_vel_per_frame == 0.0
    assert stats.frame_count == 1
    assert stats.path_length == 0.0


def test_angular_velocity_in_degrees():
    phi = math.radians(2.0)  # two degrees of yaw per frame
    poses = tuple(Pose(rotz(i * phi), np.zeros(3), i / 30.0) for i in range(100))
    stats = sequence_stats(Trajectory(poses))
    assert abs(stats.mean_ang_vel_per_frame - 2.0) <= 1e-9


def test_path_length_is_sum_of_steps():
    rng = np.random.default_rng(40)
    pts = rng.uniform(-1, 1, size=(50, 3))
    poses = tuple(Pose(Rotation.identity(), pts[i], i * 0.1) for i in range(50))
    stats = sequence_stats(Trajectory(poses))
    expected = sum(float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(49))
    assert abs(stats.path_length - expected) <= 1e-9


# ---------------------------------------------------------------------------
# Stride resampling
# ---------------------------------------------------------------------------

def test_stride_one_is_identity():
    t = _straight_line(10, 0.1)
    assert resample_stride(t, 1) is t


def test_stride_keeps_expected_indices():
    t = _straight_line(10, 1.0)
    out = resample_stride(t, 3)
    assert len(out) == 4
    assert [p.translation[0] for p in out] == [0.0, 3.0, 6.0, 9.0]


def test_stride_doubles_constant_velocity():
    t = _straight_line(101, 0.004)
    v1 = sequence_stats(t).mean_vel_per_frame
    v2 = sequence_stats(resample_stride(t, 2)).mean_vel_per_frame
    assert abs(v2 - 2.0 * v1) <= 1e-12


def test_stride_scaling_on_smooth_trajectory():
    t = random_trajectory(seed=41, n=1200, step_mean=0.006, turn_mean=0.026)
    v1 = sequence_stats(t).mean_vel_per_frame
    for s in (2, 3, 4):
        vs = sequence_stats(resample_stride(t, s)).mean_vel_per_frame
        assert abs(vs / v1 - s) <= 0.02 * s


def test_stride_returns_read_only_views():
    t = random_trajectory(seed=44, n=50, step_mean=0.01, turn_mean=0.03)
    out = resample_stride(t, 3)
    assert out == t.subset(range(0, 50, 3))
    for name in ("t", "xyz", "q"):
        view, whole = getattr(out, name), getattr(t, name)
        assert np.shares_memory(view, whole) and not view.flags.writeable


def test_segment_stats_give_each_segment_its_own_stats():
    lengths = [1, 2, 30, 1, 7]
    trajectories = [random_trajectory(seed=50 + k, n=n + 1, step_mean=0.01, turn_mean=0.03)
                    .subset(range(n)) for k, n in enumerate(lengths)]
    trajectories[3] = Trajectory((Pose.identity(),))  # unstamped: no duration
    stats = segment_stats(*(np.concatenate([getattr(t, name) for t in trajectories])
                            for name in ("t", "xyz", "q")), np.array(lengths))
    assert stats == [sequence_stats(t) for t in trajectories]
    assert stats[3].duration is None and stats[0] == SequenceStats(0.0, 0.0, 1, 0.0, 0.0)


def test_stride_composition():
    t = _straight_line(60, 0.5)
    a = resample_stride(resample_stride(t, 2), 3)
    b = resample_stride(t, 6)
    assert a.poses == b.poses


def test_stride_validation():
    t = _straight_line(10, 0.1)
    with pytest.raises(ValidationError):
        resample_stride(t, 0)


# BatchOptions rejects each of these; unchecked, 2.5 would keep every 2nd pose
@pytest.mark.parametrize("stride", [-1, 2.5, True, "2", np.float64(2.0), 2**63])
def test_stride_must_be_a_positive_integer(stride):
    with pytest.raises(ValidationError, match="^stride must be an integer"):
        resample_stride(_straight_line(10, 0.1), stride)


def test_stride_takes_a_numpy_integer():
    t = _straight_line(10, 1.0)
    assert resample_stride(t, np.int64(3)) == resample_stride(t, 3)


def test_attributes_invariant_under_rigid_transform():
    rng = np.random.default_rng(42)
    t = random_trajectory(seed=43, n=300, step_mean=0.01, turn_mean=0.03)
    g = random_pose(rng)
    moved = Trajectory(
        tuple(
            Pose(compose(g, p).rotation, compose(g, p).translation, p.timestamp) for p in t
        )
    )
    a = sequence_stats(t)
    b = sequence_stats(moved)
    assert abs(a.mean_vel_per_frame - b.mean_vel_per_frame) <= 1e-9
    assert abs(a.mean_ang_vel_per_frame - b.mean_ang_vel_per_frame) <= 1e-9
    assert abs(a.path_length - b.path_length) <= 1e-9


# ---------------------------------------------------------------------------
# Cohort averaging
# ---------------------------------------------------------------------------

def test_cohort_stats_single_element():
    s = SequenceStats(0.01, 2.0, 800, 26.6, 8.0)
    out = cohort_stats([s])
    assert out == s


def test_cohort_stats_averages_fields():
    a = SequenceStats(0.01, 2.0, 800, 10.0, 8.0)
    b = SequenceStats(0.03, 4.0, 1200, None, 36.0)
    out = cohort_stats([a, b])
    assert abs(out.mean_vel_per_frame - 0.02) <= 1e-15
    assert abs(out.mean_ang_vel_per_frame - 3.0) <= 1e-15
    assert out.frame_count == 1000
    assert out.duration == 10.0  # averaged over the sequences that have one
    assert abs(out.path_length - 22.0) <= 1e-15


def test_cohort_stats_identical_inputs():
    s = SequenceStats(0.005, 1.5, 1000, 33.3, 5.0)
    out = cohort_stats([s] * 7)
    assert abs(out.mean_vel_per_frame - s.mean_vel_per_frame) <= 1e-15
    assert out.frame_count == 1000


def test_cohort_stats_rejects_empty():
    with pytest.raises(ValidationError):
        cohort_stats([])
