"""associate against the candidate-by-candidate greedy loop it replaced."""

import warnings

import numpy as np
import pytest

import pose_loop_reference as ref
from slameval.errors import EmptyAssociationError, ValidationError
from slameval.geom3d import Trajectory
from slameval.trajio import Association, associate, associate_by_index


def _stamped(times, traj_id="") -> Trajectory:
    times = np.asarray(times, dtype=float)
    n = len(times)
    return Trajectory.from_arrays(times, np.zeros((n, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), traj_id)


def _outcome(gt, est, tol):
    try:
        return ref.associate(gt, est, tol).pairs
    except EmptyAssociationError as exc:
        return str(exc)


def _check(gt, est, tol):
    """Both call directions give the reference's pairs or its error."""
    for a, b in ((gt, est), (est, gt)):
        expected = _outcome(a, b, tol)
        if isinstance(expected, str):
            with pytest.raises(EmptyAssociationError) as err:
                associate(a, b, tol)
            assert str(err.value) == expected
            continue
        got = associate(a, b, tol)
        assert got.pairs == expected
        assert got.max_time_diff == tol
        for idx in (got.gt_indices, got.est_indices):
            assert idx.dtype.kind == "i" and idx.ndim == 1 and not idx.flags.writeable


@pytest.mark.parametrize("tol", [0.0, 0.005, 0.02, 0.05, 0.2, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_random_stamps_match_candidate_loop(seed, tol):
    # about 10 stamps per second on each side: at the wider tolerances most
    # candidates share an index with another and go through the greedy loop
    rng = np.random.default_rng(seed)
    for _ in range(10):
        gt = _stamped(np.unique(rng.uniform(0, 10, size=rng.integers(1, 120))), "gt")
        est = _stamped(np.unique(rng.uniform(0, 10, size=rng.integers(1, 120))), "est")
        _check(gt, est, tol)


@pytest.mark.parametrize("seed", range(6))
def test_grid_stamps_with_exact_ties_match_candidate_loop(seed):
    # stamps on a binary-exact grid, so many |dt| tie exactly and the
    # (|dt|, t_gt, t_est) order decides
    rng = np.random.default_rng(100 + seed)
    for tol in (0.0, 0.125, 0.25, 0.5):
        for _ in range(10):
            gt = _stamped(np.sort(rng.choice(64, size=rng.integers(1, 40), replace=False)) * 0.125)
            est = _stamped(np.sort(rng.choice(64, size=rng.integers(1, 40), replace=False)) * 0.125)
            _check(gt, est, tol)


def test_decimal_stamps_on_the_tolerance_boundary_match_candidate_loop():
    # decimal stamps sit on the tolerance up to rounding, so some searchsorted
    # windows hold candidates whose |dt| exceeds it and must be dropped
    t = np.arange(100) * 0.1
    for offset in (0.05, 0.1):
        for tol in (0.05, 0.1, 0.3):
            _check(_stamped(t), _stamped(t + offset), tol)


def test_frame_rate_jitter_and_dropout_match_candidate_loop():
    # the batch case: 30 Hz ground truth, a jittered estimate with dropped frames
    rng = np.random.default_rng(7)
    t = np.arange(3000) / 30.0
    keep = np.sort(rng.choice(3000, size=2850, replace=False))
    est = _stamped(t[keep] + rng.uniform(-0.005, 0.005, size=keep.size))
    for tol in (0.005, 0.02, 0.04):
        _check(_stamped(t), est, tol)


def test_tuple_constructor_and_views():
    assoc = Association(((0, 1), (2, 3)), 0.02)
    assert assoc.pairs == ((0, 1), (2, 3))
    assert assoc.gt_indices.tolist() == [0, 2] and assoc.est_indices.tolist() == [1, 3]
    assert assoc == Association.from_indices([0, 2], [1, 3], 0.02)
    assert assoc != Association(((0, 1),), 0.02)
    empty = Association((), 0.02)
    assert len(empty) == 0 and empty.pairs == () and empty.gt_indices.dtype.kind == "i"


def test_by_index_is_int_arange():
    assoc = associate_by_index(_stamped([0.0, 0.1, 0.2]), _stamped([5.0, 5.1]))
    assert assoc.pairs == ((0, 0), (1, 1))
    assert assoc.gt_indices.dtype.kind == "i" and not assoc.est_indices.flags.writeable


@pytest.mark.parametrize("stride", [2, 3])
def test_strided_matches_tuple_comprehension(stride):
    rng = np.random.default_rng(stride)
    t = np.arange(600) / 30.0
    keep = np.sort(rng.choice(600, size=560, replace=False))
    est = _stamped(t[keep] + rng.uniform(-0.005, 0.005, size=keep.size))
    assoc = associate(_stamped(t), est, 0.02)
    expected = tuple((i // stride, j) for i, j in assoc.pairs if i % stride == 0)
    assert assoc.strided(stride).pairs == expected
    assert Association(((1, 0),), 0.02).strided(stride).pairs == ()


# strides BatchOptions rejects; unchecked, 0 divides by zero, -1 counts gt
# indices backwards and 2.5 keeps every 2nd pose
@pytest.mark.parametrize("stride", [0, -1, 2.5, True, np.float64(2.0), 2**63])
def test_strided_rejects_a_stride_that_is_not_a_positive_integer(stride):
    assoc = Association(((0, 0), (1, 1), (2, 2)), 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^stride must be an integer"):
            assoc.strided(stride)


def test_strided_takes_a_numpy_integer():
    assoc = Association(((0, 0), (1, 1), (2, 2)), 0.02)
    assert assoc.strided(np.int32(2)) == assoc.strided(2) == Association(((0, 0), (1, 2)), 0.02)
