"""The array code against its pose-by-pose reference, bit for bit."""

import io

import numpy as np
import pytest

import pose_loop_reference as ref
from slameval.geom3d import Pose, Rotation, Trajectory
from slameval.synth import PerturbationSpec, perturb, random_trajectory
from slameval.trajio import _BLOCK_ROWS, dumps_tum, parse_tum

from conftest import random_pose, random_pose_trajectory

EVERY_STAGE = dict(
    drift_per_frame=(1e-4, -5e-5, 2e-5),
    drift_rot_per_frame=1e-5,
    drift_rot_axis=(0.2, -0.3, 1.0),
    noise_sigma_trans=0.003,
    noise_sigma_rot=0.002,
    dropout_fraction=0.05,
)


def _same_bits(a: Trajectory, b: Trajectory) -> bool:
    """Equal ids and bitwise-equal arrays (signed zeros and NaNs included)."""
    return a.traj_id == b.traj_id and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.t, b.t), (a.xyz, b.xyz), (a.q, b.q))
    )


@pytest.mark.parametrize("seed, n, step, turn", [
    (0, 2, 0.006, 0.025), (1, 500, 0.006, 0.025), (2, 300, 0.01, 0.0), (3, 80, 0.0, 0.0),
    (4, 3000, 0.02, 0.3),
])
def test_random_trajectory_matches_pose_loop(seed, n, step, turn):
    assert _same_bits(random_trajectory(seed, n, step, turn), ref.random_trajectory(seed, n, step, turn))


@pytest.mark.parametrize("stages", [
    EVERY_STAGE,
    dict(drift_per_frame=(0.01, 0.0, 0.0)),
    dict(drift_rot_per_frame=0.015),
    dict(noise_sigma_trans=0.02),
    dict(noise_sigma_rot=0.01),
    dict(dropout_fraction=0.5),
    {},
])
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_perturb_matches_pose_loop(stages, seed):
    rng = np.random.default_rng(seed)
    gt = random_trajectory(seed, 600, 0.006, 0.025)
    for g in (None, random_pose(rng)):
        spec = PerturbationSpec(global_transform=g, seed=seed, **stages)
        est = perturb(gt, spec)
        assert _same_bits(est, ref.perturb(gt, spec))
        same_text = dumps_tum(est) == ref.dumps_tum(est)  # no text diff on failure: it is slow
        assert same_text


def test_tum_text_matches_pose_loop():
    rng = np.random.default_rng(20)
    gt = random_trajectory(21, 400, 0.006, 0.025)
    trajectories = [
        gt,
        perturb(gt, PerturbationSpec(global_transform=random_pose(rng), seed=3, **EVERY_STAGE)),
        random_pose_trajectory(rng, 200, trans_scale=1e4),
        Trajectory((Pose(Rotation(np.array([-1.0, -0.0, 0.0, -0.0])), np.array([-0.0, 0.0, -1e-13]), 0.0),)),
    ]
    # around the block boundaries of the writer
    b = _BLOCK_ROWS
    long = random_trajectory(22, 2 * b + 1, 0.006, 0.025)
    trajectories += [long.subset(range(n)) for n in (1, b - 1, b, b + 1, 2 * b + 1)]
    for traj in trajectories:
        text = dumps_tum(traj)
        same_text = text == ref.dumps_tum(traj)
        assert same_text
        assert _same_bits(parse_tum(text, "x"), ref.parse_tum(text, "x"))


def test_pose_views_return_stored_rows():
    rng = np.random.default_rng(22)
    gt = random_trajectory(23, 300, 0.006, 0.025)
    for traj in (
        parse_tum(dumps_tum(gt)),
        perturb(gt, PerturbationSpec(global_transform=random_pose(rng), seed=4, **EVERY_STAGE)),
    ):
        q, xyz, t = traj.quaternions(), traj.translations(), traj.timestamps()
        for i, pose in enumerate(traj):
            assert pose.rotation.q.tobytes() == q[i].tobytes()
            assert pose.translation.tobytes() == xyz[i].tobytes()
            assert pose.timestamp == t[i]
        assert _same_bits(Trajectory(traj.poses, traj.traj_id), traj)
        for a in (traj.t, traj.xyz, traj.q, traj[0].rotation.q, traj[0].translation):
            assert not a.flags.writeable


TEXTS = [
    "0 0 0 0 0 0 0 1.1\n1 0 0 0 0 0 0 0.9\n2 0 0 0 0 0.6 0 0.8\n",
    "0 0 0 0 0 0 0 1.1000000000000003\n",
    "0 0 0 0 0 0 0 0.8999999999999999\n",
    "0 0 0 0 0 0 0 1\n1.0 1 2 3\n",
    "# header\n0 0 0 zero 0 0 0 1\n",
    "1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n",
    "0 0 0 0 0 0 0 2.0",
    "0 0 0 0 0 0 0 1,0",
    "0 0 0 0 0 0 0 0",
    "# only a comment\n\n",
    "",
    "0 0 0 0 0 0 0 1\n1 inf 0 0 0 0 0 1\n",
    "0 nan 0 0 0 0 0 5\n",
    "1 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 5\n",
    "1 0 0 0 0 0 0 1\n1 x 0 0 0 0 0 1 9\n",
    "0 0 0 0 0 0 0 1\n1 nan 0 0 0 0 0 1\n2 x 0 0 0 0 0 1\n3 0 0\n",
    "0 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 9\n2 0 0 0 0 0 0 1 7\n",
    "0 0 0 0 0 0 0 1\n\n  # c\n1 0 0 0 0 0 0 1.2\n2 a 0 0 0 0 0 1\n",
    "0 0 0 0 0 0 0 1\r1 0 0 0 0 0 0 1\r\n0.5 0 0 0 0 0 0 1",
    "0 0 0 0 0 0 0 1\n1 1_0 0 0 0 0 0 1\n2 ٣ 0 0 0 0 0 1\n2 0 0 0 0 0 0 1\x00\n",
]


@pytest.mark.parametrize("text", TEXTS)
def test_parse_outcomes_match_pose_loop(text):
    for source in (lambda: text, lambda: io.StringIO(text, newline=None), text.splitlines):
        assert ref.outcome(parse_tum, source()) == ref.outcome(ref.parse_tum, source())
