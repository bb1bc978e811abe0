import io
import math
import pickle

import numpy as np
import pytest

from slameval.errors import EmptyAssociationError, ParseError, ValidationError
from slameval.geom3d import Pose, Trajectory
from slameval.synth import random_trajectory
from slameval.trajio import (
    _BLOCK_ROWS,
    associate,
    associate_by_index,
    associate_runs,
    dumps_tum,
    load_tum,
    parse_tum,
    save_tum,
    write_tum,
)

from conftest import pose_gap, precise_angle_between, random_pose_trajectory, rotz


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_single_identity_pose():
    t = parse_tum("0.0 0 0 0 0 0 0 1")
    assert len(t) == 1
    assert t[0].timestamp == 0.0
    assert t[0] == Pose.identity(0.0)


def test_parse_skips_comments_and_blank_lines():
    t = parse_tum("# comment\n\n1.5 1 2 3 0 0 0 1\n")
    assert len(t) == 1
    assert np.allclose(t[0].translation, [1.0, 2.0, 3.0], atol=0)
    assert t[0].timestamp == 1.5


def test_parse_reorders_quaternion():
    # file order is (qx qy qz qw); w = cos(45deg), z = sin(45deg) is Rz(90)
    t = parse_tum("0 0 0 0 0 0 0.7071068 0.7071068")
    assert precise_angle_between(t[0].rotation, rotz(math.pi / 2)) <= 1e-6


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_tum("0 0 0 0 0 0 0 1\n1.0 1 2 3\n")
    assert err.value.line_no == 2

    with pytest.raises(ParseError) as err:
        parse_tum("# header\n0 0 0 zero 0 0 0 1\n")
    assert err.value.line_no == 2

    # non-increasing timestamps
    with pytest.raises(ParseError) as err:
        parse_tum("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
    assert err.value.line_no == 2

    # quaternion norm outside [0.9, 1.1]
    with pytest.raises(ParseError) as err:
        parse_tum("0 0 0 0 0 0 0 2.0")
    assert err.value.line_no == 1


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_parse_rejects_a_non_finite_stamp(stamp):
    # a file cannot leave a pose unstamped: a NaN stamp is a non-finite value too
    with pytest.raises(ParseError, match=r"^line 3: non-finite value$"):
        parse_tum(f"0 0 0 0 0 0 0 1\n# gap\n{stamp} 0 0 0 0 0 0 1\n5 0 0 0 0 0 0 1\n")


def test_parse_empty_stream_is_rejected():
    with pytest.raises(ValidationError):
        parse_tum("# only a comment\n")


def test_parse_error_survives_pickling():
    # as when a worker process sends it back
    err = pickle.loads(pickle.dumps(ParseError("non-finite value", 3)))
    assert type(err) is ParseError
    assert str(err) == "line 3: non-finite value" and err.line_no == 3


# ---------------------------------------------------------------------------
# Writing and round trip
# ---------------------------------------------------------------------------

def test_write_identity_line_format():
    text = dumps_tum(Trajectory((Pose.identity(0.0),)))
    data_lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(data_lines) == 1
    fields = data_lines[0].split()
    assert len(fields) == 8
    assert [float(f) for f in fields] == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def test_round_trip_random_trajectory():
    rng = np.random.default_rng(10)
    t = random_pose_trajectory(rng, 100)
    back = parse_tum(dumps_tum(t))
    assert len(back) == len(t)
    for orig, rec in zip(t, back):
        angle, dist = pose_gap(orig, rec)
        assert angle <= 1e-9
        assert dist <= 1e-9
        assert abs(orig.timestamp - rec.timestamp) <= 1e-9


def test_write_requires_timestamps():
    with pytest.raises(ValidationError):
        dumps_tum(Trajectory((Pose.identity(),)))


def test_write_stream_and_file(tmp_path):
    rng = np.random.default_rng(11)
    t = random_pose_trajectory(rng, 5)
    buf = io.StringIO()
    write_tum(t, buf)
    assert buf.getvalue() == dumps_tum(t)

    path = tmp_path / "traj.txt"
    save_tum(t, path)
    assert load_tum(path).poses == parse_tum(dumps_tum(t)).poses


class _RecordingStream:
    """A text stream that keeps each write as one piece."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)


def _unstamped_in_last_block():
    traj = random_trajectory(12, 2 * _BLOCK_ROWS + 1, 0.006, 0.025)
    t = traj.t.copy()
    t[-1] = np.nan
    return Trajectory.from_arrays(t, traj.xyz, traj.q)


def test_write_stream_in_blocks():
    traj = random_trajectory(13, _BLOCK_ROWS + 1, 0.006, 0.025)
    stream = _RecordingStream()
    write_tum(traj, stream)
    assert len(stream.pieces) > 1
    assert max(piece.count("\n") for piece in stream.pieces) == _BLOCK_ROWS
    assert "".join(stream.pieces) == dumps_tum(traj)


def test_write_nothing_for_an_unstamped_pose():
    traj = _unstamped_in_last_block()
    stream = _RecordingStream()
    with pytest.raises(ValidationError, match=f"pose {2 * _BLOCK_ROWS} has no timestamp"):
        write_tum(traj, stream)
    assert stream.pieces == []


def test_failed_save_keeps_the_existing_file(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_bytes(b"0 0 0 0 0 0 0 1\n")
    with pytest.raises(ValidationError, match="no timestamp"):
        save_tum(_unstamped_in_last_block(), path)
    assert path.read_bytes() == b"0 0 0 0 0 0 0 1\n"
    with pytest.raises(ValidationError, match="no timestamp"):
        save_tum(_unstamped_in_last_block(), tmp_path / "new.txt")
    assert not (tmp_path / "new.txt").exists()


def test_empty_trajectory_cannot_exist():
    with pytest.raises(ValidationError):
        Trajectory(())


# ---------------------------------------------------------------------------
# Association
# ---------------------------------------------------------------------------

def _stamped(times) -> Trajectory:
    return Trajectory(tuple(Pose.identity(float(ts)) for ts in times))


def test_associate_identical_timestamps():
    gt = _stamped([0.0, 0.1, 0.2, 0.3])
    est = _stamped([0.0, 0.1, 0.2, 0.3])
    assoc = associate(gt, est, 0.02)
    assert assoc.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))


def test_associate_greedy_smallest_difference():
    gt = _stamped([0.00, 0.10])
    est = _stamped([0.011, 0.09])
    assoc = associate(gt, est, 0.02)
    assert assoc.pairs == ((0, 0), (1, 1))


def test_associate_tie_break_is_deterministic_and_symmetric():
    # both gt stamps sit exactly max_diff from the single est stamp;
    # the earlier gt timestamp wins, in either call direction
    gt = _stamped([0.0, 0.2])
    est = _stamped([0.1])
    assert associate(gt, est, 0.1).pairs == ((0, 0),)
    assert associate(est, gt, 0.1).pairs == ((0, 0),)


def test_mixed_timestamps_cannot_associate():
    mixed = Trajectory((Pose.identity(0.0), Pose.identity()))
    assert not mixed.has_timestamps
    assert mixed.timestamps() is None
    with pytest.raises(ValidationError):
        associate(mixed, _stamped([0.0]), 0.02)


def test_associate_disjoint_raises():
    with pytest.raises(EmptyAssociationError):
        associate(_stamped([0.0]), _stamped([1.0]), 0.02)


def test_associate_requires_timestamps():
    unstamped = Trajectory((Pose.identity(),))
    with pytest.raises(ValidationError):
        associate(unstamped, _stamped([0.0]), 0.02)


def _clock(n: int) -> Trajectory:
    """n identity poses at 30 Hz."""
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory.from_arrays(np.arange(n) / 30.0, np.zeros((n, 3)), identity)


def test_associate_refuses_a_tolerance_spanning_everything():
    # at 1e9 s every pair of two 2000-pose trajectories is a candidate: 4 million of them
    with pytest.raises(ValidationError, match=r"leaves 4000000 candidate pairs, more than 32 per"):
        associate(_clock(2000), _clock(2000), 1e9)


@pytest.mark.parametrize("n, refused", [(64, False), (65, True)])
def test_associate_admits_32_candidates_per_pose(n, refused):
    # all against all: n * n candidates against the cap 32 * (n + n)
    if refused:
        message = rf"leaves {n * n} candidate pairs, more than 32 per pose \({64 * n}\)$"
        with pytest.raises(ValidationError, match=message):
            associate(_clock(n), _clock(n), math.inf)
    else:
        assert associate(_clock(n), _clock(n), math.inf).pairs == tuple((i, i) for i in range(n))


def test_association_injective_and_bounded():
    rng = np.random.default_rng(12)
    for _ in range(50):
        gt = _stamped(np.sort(rng.uniform(0, 10, size=rng.integers(2, 40))))
        est = _stamped(np.sort(rng.uniform(0, 10, size=rng.integers(2, 40))))
        try:
            assoc = associate(gt, est, 0.1)
        except EmptyAssociationError:
            continue
        gi = [p[0] for p in assoc.pairs]
        ei = [p[1] for p in assoc.pairs]
        assert len(set(gi)) == len(gi)
        assert len(set(ei)) == len(ei)
        assert len(assoc) <= min(len(gt), len(est))
        ts_gt = gt.timestamps()
        ts_est = est.timestamps()
        for a, b in assoc.pairs:
            assert abs(ts_gt[a] - ts_est[b]) <= 0.1
        # sorted by gt timestamp
        assert gi == sorted(gi)


def test_association_symmetric_under_swap():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = _stamped(np.sort(rng.uniform(0, 5, size=rng.integers(2, 30))))
        b = _stamped(np.sort(rng.uniform(0, 5, size=rng.integers(2, 30))))
        try:
            fwd = associate(a, b, 0.08)
            rev = associate(b, a, 0.08)
        except EmptyAssociationError:
            continue
        assert set(fwd.pairs) == {(j, i) for i, j in rev.pairs}


def test_associate_by_index():
    gt = _stamped([0.0, 0.1, 0.2])
    est = _stamped([5.0, 5.1])  # timestamps far apart on purpose
    assoc = associate_by_index(gt, est)
    assert assoc.pairs == ((0, 0), (1, 1))


def _alone(gt, est, tol, by_index):
    """The pairs of one run associated alone, or the message of its ValidationError."""
    try:
        return list((associate_by_index(gt, est) if by_index else associate(gt, est, tol)).pairs)
    except EmptyAssociationError:
        return []
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("tol", [0.02, 0.3])
@pytest.mark.parametrize("by_index", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_associate_runs_gives_each_run_its_pairs_alone(seed, by_index, tol):
    # runs sharing one ground truth, a run whose stamps never meet, a run over the
    # candidate bound and an unstamped one, among random runs
    rng = np.random.default_rng(400 + seed)

    def stamps():
        return _stamped(np.unique(rng.uniform(0, 10, size=rng.integers(1, 80))))

    shared, dense = stamps(), _stamped(np.arange(100) * 1e-4)
    runs = [(shared if rng.random() < 0.5 else stamps(), stamps()) for _ in range(8)]
    runs[3:3] = [(shared, _stamped(shared.t + 100.0)), (dense, dense),
                 (Trajectory((Pose.identity(0.0), Pose.identity())), shared)]
    run, gi, ej, failed = associate_runs(runs, tol, by_index)

    expected, expected_failed = [], {}
    for r, (gt, est) in enumerate(runs):
        alone = _alone(gt, est, tol, by_index)
        if isinstance(alone, str):
            expected_failed[r] = alone
        else:
            expected += [(r, i, j) for i, j in alone]
    assert list(zip(run.tolist(), gi.tolist(), ej.tolist())) == expected
    assert failed == expected_failed
    assert sorted(failed) == ([] if by_index else [4, 5])


@pytest.mark.parametrize("by_index", [False, True])
def test_associate_runs_of_no_run_is_empty(by_index):
    *arrays, failed = associate_runs([], 0.02, by_index)
    assert [(a.dtype.kind, a.shape) for a in arrays] == [("i", (0,))] * 3 and failed == {}


def test_parse_is_locale_independent():
    # '.' decimal separator is hard-coded; ',' must fail loudly
    with pytest.raises(ParseError):
        parse_tum("0 0 0 0 0 0 0 1,0")


def test_load_rejects_non_utf8_with_line_number(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# h\n0 0 0 0 0 0 0 1\r1 0 0 0 0 0 0 1\n2 \xe9 0 0 0 0 0 1\n")
    with pytest.raises(ParseError) as err:
        load_tum(path)
    assert err.value.line_no == 4


def test_non_utf8_byte_far_into_a_file_reports_its_line(tmp_path):
    # past the 64 KiB a buffered read takes at once: the offset must be the whole file's
    path = tmp_path / "long.txt"
    good = b"".join(b"%d 0 0 0 0 0 0 1\r\n" % k for k in range(6000))
    assert len(good) > 1 << 16
    path.write_bytes(good + b"6000 0 0 \xff 0 0 0 1\n")
    with pytest.raises(ParseError, match="^line 6001: invalid UTF-8 byte 0xff$"):
        load_tum(path)


_BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some Windows editors write first


@pytest.mark.parametrize("head", [b"# timestamp tx ty tz qx qy qz qw\n", b""],
                         ids=["header", "pose"])
def test_load_drops_a_leading_byte_order_mark(tmp_path, head):
    text = head + b"0 0 0 0 0 0 0 1\n1 1 0 0 0 0 0 1\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text)
    marked.write_bytes(_BOM + text)
    assert load_tum(marked, "t") == load_tum(plain, "t")


@pytest.mark.parametrize("head", ["# h\n", ""], ids=["header", "pose"])
@pytest.mark.parametrize("as_stream", [False, True], ids=["string", "stream"])
def test_parse_drops_a_leading_byte_order_mark(head, as_stream):
    text = head + "0 0 0 0 0 0 0 1\n1 1 0 0 0 0 0 1\n"
    marked = "\ufeff" + text
    assert parse_tum(io.StringIO(marked) if as_stream else marked, "t") == parse_tum(text, "t")


def test_byte_order_mark_past_the_start_is_a_non_numeric_field():
    with pytest.raises(ParseError, match="^line 2: non-numeric field"):
        parse_tum("# h\n\ufeff0 0 0 0 0 0 0 1\n")


def test_non_utf8_byte_after_a_byte_order_mark_reports_its_line(tmp_path):
    path = tmp_path / "marked.txt"
    path.write_bytes(_BOM + b"# h\n0 0 0 0 0 0 0 1\n1 0 0 \xff 0 0 0 1\n")
    with pytest.raises(ParseError, match="^line 3: invalid UTF-8 byte 0xff$"):
        load_tum(path)


# str.splitlines breaks at each of these; a text-mode file does not
_NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def _parse_both_ways(tmp_path, text: str):
    """parse_tum(text) and load_tum of the same text as UTF-8: trajectory or error."""
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    results = []
    for parse in (lambda: parse_tum(text, "t"), lambda: load_tum(path)):
        try:
            traj = parse()
        except ParseError as exc:
            results.append((str(exc), exc.line_no))
        else:
            results.append(tuple(a.tobytes() for a in (traj.t, traj.xyz, traj.q)))
    return results


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS, ids=lambda s: f"U+{ord(s):04X}")
def test_separator_between_poses_does_not_end_the_line(tmp_path, sep):
    via_text, via_file = _parse_both_ways(tmp_path, f"0 0 0 0 0 0 0 1{sep} 1 0 0 0 0 0 0 1\n")
    assert via_text == via_file == ("line 1: expected 8 fields, got 16", 1)


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS, ids=lambda s: f"U+{ord(s):04X}")
def test_separator_inside_a_pose_line_is_whitespace(tmp_path, sep):
    text = f"0 0 0{sep}0 0 0 0 1\r\n{sep}1 2 0 0 0 0 0 1\r2 0 0 0 0 0 0 1 9\n"
    via_text, via_file = _parse_both_ways(tmp_path, text)
    assert via_text == via_file == ("line 3: expected 8 fields, got 9", 3)
    good = f"0 0 0{sep}0 0 0 0 1\r\n{sep}1 2 0 0 0 0 0 1\r"
    via_text, via_file = _parse_both_ways(tmp_path, good)
    assert via_text == via_file
    assert np.frombuffer(via_text[1], dtype=float).tolist() == [0, 0, 0, 2, 0, 0]
