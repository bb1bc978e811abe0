import math
import random
import re
import sys
import warnings

import numpy as np
import pytest

from slameval.errors import ValidationError
from slameval.metrics import ate, rpe
from slameval.synth import PerturbationSpec, perturb, random_trajectory
from slameval.trajio import associate_by_index
from slameval.trajstats import sequence_stats

from conftest import NOT_COUNTS, NOT_REALS, NUMPY_REALS, count_error, random_pose, real_error


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


@pytest.mark.parametrize("n", NOT_COUNTS)
def test_frame_count_must_be_a_count(n):
    with pytest.raises(ValidationError, match=count_error("n", n)):
        random_trajectory(seed=55, n=n, step_mean=0.01, turn_mean=0.0)


def test_frame_count_takes_a_numpy_integer():
    plain = random_trajectory(seed=56, n=40, step_mean=0.01, turn_mean=0.02)
    for n in (np.int32(40), np.int64(40)):
        assert random_trajectory(seed=56, n=n, step_mean=0.01, turn_mean=0.02) == plain


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
    # along the chord from the first to the last pose the drift stretches the path,
    # which no rigid alignment absorbs, whatever the path's shape
    chord = gt.xyz[-1] - gt.xyz[0]
    est = perturb(gt, PerturbationSpec(drift_per_frame=tuple(0.01 * chord / np.linalg.norm(chord))))
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


@pytest.mark.parametrize("axis, unit", [((1e300, 1e300, 0.0), (1.0, 1.0, 0.0)),
                                        ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
                                        ((-5e-324, 5e-324, 0.0), (-1.0, 1.0, 0.0))])
def test_rotation_drift_axis_at_any_magnitude(axis, unit):
    # the squared norm of the axis overflows or underflows; its direction is what counts
    gt = random_trajectory(seed=61, n=80, step_mean=0.01, turn_mean=0.02)
    est = perturb(gt, PerturbationSpec(drift_rot_per_frame=0.1, drift_rot_axis=axis))
    assert est == perturb(gt, PerturbationSpec(drift_rot_per_frame=0.1, drift_rot_axis=unit))
    assert not np.array_equal(est.q, gt.q)


@pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (0, -0.0, np.float32(0))])
def test_a_zero_rotation_drift_axis_is_refused_when_the_spec_is_built(axis):
    with pytest.raises(ValidationError, match=r"^drift_rot_axis must be nonzero, got \(0\.0, "):
        PerturbationSpec(drift_rot_axis=axis)


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
    # numpy's SeedSequence raised a bare ValueError for these
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        random_trajectory(seed=-1, n=10, step_mean=0.01, turn_mean=0.0)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        PerturbationSpec(seed=-1)


@pytest.mark.parametrize("seed", [1.5, True, "1", None, np.float64(2.0)])
def test_a_seed_must_be_an_integer(seed):
    # numpy's SeedSequence raised a TypeError for 1.5, at perturb for a spec
    message = "^" + re.escape(f"seed must be >= 0 and an integer, got {seed!r}") + "$"
    with pytest.raises(ValidationError, match=message):
        random_trajectory(seed=seed, n=10, step_mean=0.01, turn_mean=0.0)
    with pytest.raises(ValidationError, match=message):
        PerturbationSpec(seed=seed)


@pytest.mark.parametrize("seed, message", [
    (10**5000, "seed must be written in at most {limit} digits,"
               " got an integer of more than {limit} digits"),
    (-10**5000, "seed must be >= 0 and an integer, got a negative integer of more than {limit} digits"),
], ids=["huge", "huge-negative"])
def test_a_seed_too_long_to_print_is_a_validation_error(seed, message):
    # naming the trajectory synth_<seed> raised the interpreter's ValueError
    message = "^" + re.escape(message.format(limit=sys.get_int_max_str_digits())) + "$"
    with pytest.raises(ValidationError, match=message):
        random_trajectory(seed=seed, n=10, step_mean=0.01, turn_mean=0.0)
    with pytest.raises(ValidationError, match=message):
        PerturbationSpec(seed=seed)


def test_draws_follow_the_documented_streams():
    # Random(4 seed) for the path, Random(4 seed + k) for the noise and dropout stages
    n, seed, sigma = 50, 9, 0.01
    gt = random_trajectory(seed=seed, n=n, step_mean=0.0, turn_mean=0.0)
    heading0 = 2.0 * math.pi * random.Random(4 * seed).random()
    yaw = 2.0 * math.atan2(gt.q[0, 3], gt.q[0, 0])
    assert abs(math.remainder(yaw - heading0, 2.0 * math.pi)) <= 1e-12

    est = perturb(gt, PerturbationSpec(noise_sigma_trans=sigma, dropout_fraction=0.5, seed=seed))
    trans, drop = random.Random(4 * seed + 1), random.Random(4 * seed + 3)
    u = [trans.random() for _ in range(6 * n)]
    noise = [sigma * math.sqrt(-2.0 * math.log1p(-u[j])) * math.cos(2.0 * math.pi * u[3 * n + j])
             for j in range(3 * n)]
    d = [drop.random() for _ in range(n)]
    kept = sorted(sorted(range(n), key=d.__getitem__)[n // 2:])
    assert np.array_equal(est.t, gt.t[kept])
    assert np.allclose(est.xyz - gt.xyz[kept], np.reshape(noise, (n, 3))[kept], rtol=0, atol=1e-15)


def test_each_stage_draws_its_own_stream():
    gt = random_trajectory(seed=64, n=300, step_mean=0.006, turn_mean=0.02)
    alone = perturb(gt, PerturbationSpec(noise_sigma_trans=0.01, seed=5))
    dropped = perturb(gt, PerturbationSpec(dropout_fraction=0.3, seed=5))
    for others in ({"noise_sigma_rot": 0.01}, {"dropout_fraction": 0.3},
                   {"noise_sigma_rot": 0.01, "dropout_fraction": 0.3}):
        est = perturb(gt, PerturbationSpec(noise_sigma_trans=0.01, seed=5, **others))
        kept = np.searchsorted(gt.t, est.t)
        assert np.array_equal(est.xyz, alone.xyz[kept])
        if "dropout_fraction" in others:
            assert np.array_equal(est.t, dropped.t)


# every real setting of the synthetic motion and of a perturbation, with its bound
_TRAJECTORY_REALS = {"step_mean": "", "turn_mean": "", "height": "", "rate_hz": " and > 0"}
_SPEC_REALS = {"drift_rot_per_frame": "", "noise_sigma_trans": " and >= 0",
               "noise_sigma_rot": " and >= 0", "dropout_fraction": " and >= 0",
               **{f"{vector}[{i}]": "" for vector in ("drift_per_frame", "drift_rot_axis")
                  for i in range(3)}}
_BELOW = {" and > 0": [0], " and >= 0": [-1e-300], "": []}


def _rejected(fields: dict) -> list:
    """(name, bound, value) for every value a field rejects: NOT_REALS and one below its bound."""
    return [(name, bound, value) for name, bound in fields.items()
            for value in NOT_REALS + _BELOW[bound]]


def _trajectory(**setting):
    return random_trajectory(**{"seed": 1, "n": 10, "step_mean": 0.01, "turn_mean": 0.0,
                                **setting})


def _spec(name, value):
    """A spec with value at name; a name like drift_per_frame[1] is a vector component."""
    name, _, index = name.partition("[")
    if index:
        value = tuple(value if k == int(index[0]) else 0.0 for k in range(3))
    return PerturbationSpec(**{name: value})


@pytest.mark.parametrize("name, bound, value", _rejected(_TRAJECTORY_REALS))
def test_trajectory_reals_follow_the_one_rule(name, bound, value):
    with pytest.raises(ValidationError, match=real_error(name, value, bound)):
        _trajectory(**{name: value})


@pytest.mark.parametrize("name, bound, value", _rejected(_SPEC_REALS))
def test_spec_reals_follow_the_one_rule(name, bound, value):
    with pytest.raises(ValidationError, match=real_error(name, value, bound)):
        _spec(name, value)


@pytest.mark.parametrize("value", NUMPY_REALS)
def test_numpy_reals_are_accepted_without_a_warning(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in _TRAJECTORY_REALS:
            _trajectory(**{name: value})
        for name in _SPEC_REALS:
            if name != "dropout_fraction" or value < 1:
                _spec(name, value)


def test_numpy_scalars_give_the_same_output_as_python_numbers():
    gt = _trajectory(seed=7, step_mean=0.5, rate_hz=2)
    for seed in (np.uint8(7), np.int64(7)):
        assert _trajectory(seed=seed, step_mean=np.float32(0.5), rate_hz=np.int64(2)) == gt
    spec = PerturbationSpec(drift_per_frame=(np.float32(0.5), 0, 0), noise_sigma_rot=np.float64(0.5),
                            dropout_fraction=np.float32(0.25), seed=np.int64(3))
    assert perturb(gt, spec) == perturb(gt, PerturbationSpec(
        drift_per_frame=(0.5, 0.0, 0.0), noise_sigma_rot=0.5, dropout_fraction=0.25, seed=3))


@pytest.mark.parametrize("rate_hz", [0.0, -30.0, math.nan, math.inf, True, "30"])
def test_rate_must_be_finite_and_positive(rate_hz):
    # 0 divided by zero with a RuntimeWarning, and -30 failed as a non-increasing stamp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="rate_hz must be finite and > 0"):
            random_trajectory(seed=1, n=10, step_mean=0.01, turn_mean=0.0, rate_hz=rate_hz)
