import math
import warnings

import numpy as np
import pytest

from slameval.errors import ValidationError
from slameval.metrics import ate, rpe
from slameval.synth import PerturbationSpec, perturb, random_trajectory
from slameval.trajio import associate_by_index
from slameval.trajstats import sequence_stats

from conftest import random_pose


def test_generation_is_deterministic():
    a = random_trajectory(seed=50, n=200, step_mean=0.006, turn_mean=0.02)
    b = random_trajectory(seed=50, n=200, step_mean=0.006, turn_mean=0.02)
    assert a == b
    c = random_trajectory(seed=51, n=200, step_mean=0.006, turn_mean=0.02)
    assert a != c


def test_step_mean_is_respected():
    t = random_trajectory(seed=52, n=1000, step_mean=0.006, turn_mean=0.03)
    v = sequence_stats(t).mean_vel_per_frame
    assert 0.0054 <= v <= 0.0066


def test_zero_turn_gives_straight_line():
    t = random_trajectory(seed=53, n=300, step_mean=0.01, turn_mean=0.0)
    stats = sequence_stats(t)
    assert stats.mean_ang_vel_per_frame == 0.0
    # all points on one line through the first two
    pts = t.translations()
    d = pts[1] - pts[0]
    d = d / np.linalg.norm(d)
    rel = pts - pts[0]
    off_axis = rel - np.outer(rel @ d, d)
    assert np.max(np.linalg.norm(off_axis, axis=1)) <= 1e-9


def test_generated_motion_profile():
    t = random_trajectory(seed=54, n=500, step_mean=0.006, turn_mean=0.026)
    # planar at fixed height, 30 Hz stamps, yaw facing motion
    pts = t.translations()
    assert np.max(np.abs(pts[:, 2] - pts[0, 2])) <= 1e-12
    ts = t.timestamps()
    assert np.allclose(np.diff(ts), 1.0 / 30.0, atol=1e-12)


def test_requires_two_frames():
    with pytest.raises(ValidationError):
        random_trajectory(seed=55, n=1, step_mean=0.01, turn_mean=0.0)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

def test_empty_spec_is_identity():
    gt = random_trajectory(seed=56, n=100, step_mean=0.008, turn_mean=0.02)
    assert perturb(gt, PerturbationSpec()) == gt


def test_perturb_is_deterministic():
    gt = random_trajectory(seed=57, n=120, step_mean=0.008, turn_mean=0.02)
    spec = PerturbationSpec(
        drift_per_frame=(0.001, 0.0, 0.0),
        noise_sigma_trans=0.01,
        noise_sigma_rot=0.005,
        dropout_fraction=0.1,
        seed=99,
    )
    assert perturb(gt, spec) == perturb(gt, spec)


def test_drift_only_matches_analytic_rpe():
    gt = random_trajectory(seed=58, n=200, step_mean=0.006, turn_mean=0.02)
    est = perturb(gt, PerturbationSpec(drift_per_frame=(0.01, 0.0, 0.0)))
    assoc = associate_by_index(gt, est)
    report = rpe(gt, est, assoc, delta=1)
    assert abs(report.trans_rmse - 0.01) <= 1e-12
    assert ate(gt, est, assoc).rmse > 0.1


def test_global_transform_only_is_invisible_to_metrics():
    rng = np.random.default_rng(59)
    gt = random_trajectory(seed=60, n=150, step_mean=0.01, turn_mean=0.03)
    est = perturb(gt, PerturbationSpec(global_transform=random_pose(rng)))
    assoc = associate_by_index(gt, est)
    assert ate(gt, est, assoc).rmse <= 1e-9
    report = rpe(gt, est, assoc, delta=1)
    assert report.trans_rmse <= 1e-12
    assert report.rot_mean <= 1e-12


def test_rotation_drift():
    phi = 0.015
    gt = random_trajectory(seed=61, n=80, step_mean=0.0, turn_mean=0.0)
    est = perturb(gt, PerturbationSpec(drift_rot_per_frame=phi))
    report = rpe(gt, est, associate_by_index(gt, est), delta=1)
    assert abs(report.rot_mean - phi) <= 1e-12


def test_dropout_count_and_timestamps():
    gt = random_trajectory(seed=62, n=200, step_mean=0.01, turn_mean=0.02)
    for f in (0.1, 0.25, 0.5, 0.9):
        est = perturb(gt, PerturbationSpec(dropout_fraction=f, seed=3))
        expected = math.ceil(200 * (1.0 - f))
        assert abs(len(est) - expected) <= 1
        original = {p.timestamp for p in gt}
        assert all(p.timestamp in original for p in est)


def test_noise_sigma_scale():
    gt = random_trajectory(seed=63, n=500, step_mean=0.0, turn_mean=0.0)
    est = perturb(gt, PerturbationSpec(noise_sigma_trans=0.02, seed=4))
    diffs = est.translations() - gt.translations()
    sigma = float(np.std(diffs))
    assert 0.015 <= sigma <= 0.025


def test_spec_validation():
    with pytest.raises(ValidationError):
        PerturbationSpec(noise_sigma_trans=-1.0)
    with pytest.raises(ValidationError):
        PerturbationSpec(dropout_fraction=1.0)
    with pytest.raises(ValidationError):
        PerturbationSpec(drift_per_frame=(1.0, 2.0))


def test_negative_seed_is_a_validation_error():
    # numpy's SeedSequence raises a bare ValueError for these
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        random_trajectory(seed=-1, n=10, step_mean=0.01, turn_mean=0.0)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        PerturbationSpec(seed=-1)


@pytest.mark.parametrize("rate_hz", [0.0, -30.0, math.nan, math.inf])
def test_rate_must_be_finite_and_positive(rate_hz):
    # 0 divided by zero with a RuntimeWarning, and -30 failed as a non-increasing stamp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="rate_hz must be finite and > 0"):
            random_trajectory(seed=1, n=10, step_mean=0.01, turn_mean=0.0, rate_hz=rate_hz)
