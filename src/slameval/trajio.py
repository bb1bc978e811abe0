"""TUM-format trajectory I/O and timestamp association.

File format, one pose per line::

    timestamp tx ty tz qx qy qz qw

Fields are whitespace separated, '#' starts a comment line, blank lines
are skipped, '.' is the decimal separator regardless of locale. The
quaternion is stored (x, y, z, w) in the file and (w, x, y, z)
internally.

Ground-truth and estimated sequences rarely share timestamps exactly
(different sampling rates, lengths, missing data), so metric evaluation
first matches poses by nearest timestamp within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import EmptyAssociationError, ParseError, ValidationError
from .geom3d import Trajectory, _bad_pose_row, _locked, _view, quat_normalize

__all__ = [
    "Association",
    "parse_tum",
    "load_tum",
    "write_tum",
    "dumps_tum",
    "save_tum",
    "associate",
    "associate_by_index",
    "DEFAULT_MAX_TIME_DIFF",
]

# Under one frame interval of a 30 Hz sensor.
DEFAULT_MAX_TIME_DIFF = 0.02

# Rows per block of written text (about 60 KiB), so writing holds one block, not the file.
_BLOCK_ROWS = 512
_TUM_ROW = "%.9f" + " %.12f" * 7 + "\n"


@dataclass(frozen=True, eq=False, init=False)
class Association:
    """Matched pose pairs after time synchronization, as two index arrays.

    Pair k is (gt_indices[k], est_indices[k]); both are read-only int
    arrays. Each index appears at most once per side and pairs are sorted
    by ground-truth timestamp (equivalently gt index).
    """

    gt_indices: np.ndarray
    est_indices: np.ndarray
    max_time_diff: float

    def __init__(self, pairs: Iterable[tuple[int, int]], max_time_diff: float):
        idx = np.array(pairs, dtype=int).reshape(-1, 2)
        self._set(idx[:, 0], idx[:, 1], max_time_diff)

    def _set(self, gt_indices, est_indices, max_time_diff: float) -> None:
        # the fields, as read-only int copies of the index arrays
        for name, indices in (("gt_indices", gt_indices), ("est_indices", est_indices)):
            arr = np.array(indices, dtype=int)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "max_time_diff", max_time_diff)

    @classmethod
    def from_indices(cls, gt_indices, est_indices, max_time_diff: float) -> "Association":
        """An association over read-only copies of the two index arrays."""
        assoc = _view(cls)
        assoc._set(gt_indices, est_indices, max_time_diff)
        return assoc

    def __len__(self) -> int:
        return len(self.gt_indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Association):
            return NotImplemented
        return self.pairs == other.pairs and self.max_time_diff == other.max_time_diff

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.gt_indices.tolist(), self.est_indices.tolist()))

    def strided(self, s: int) -> "Association":
        """The pairs on every s-th gt pose, re-indexed into gt resampled at stride s."""
        keep = self.gt_indices % s == 0
        return Association.from_indices(
            self.gt_indices[keep] // s, self.est_indices[keep], self.max_time_diff
        )


def _is_pose_line(raw: str) -> bool:
    head = raw.lstrip()
    return head != "" and head[0] != "#"


def _line_numbers(lines: list[str]) -> list[int]:
    """The 1-based line number of each pose line, for error messages."""
    return [line_no for line_no, raw in enumerate(lines, start=1) if _is_pose_line(raw)]


def _loadtxt(pose_lines: list[str]) -> np.ndarray | None:
    """All pose lines as an (n, 8) array in one call, or None if any line is not
    eight numbers that loadtxt reads; the caller then parses line by line, which
    also accepts what only float() reads (such as '1_0') and finds the defect."""
    if not pose_lines:
        return None
    try:
        data = np.loadtxt(pose_lines, comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(pose_lines), 8) else None


def parse_tum(source: str | IO[str] | Iterable[str], traj_id: str = "") -> Trajectory:
    """Parse a TUM-format stream (or string) into a Trajectory.

    Raises ParseError with the offending line number for malformed
    lines, non-increasing timestamps, or quaternions whose norm falls
    outside [0.9, 1.1]. The earliest bad line wins; within one line the
    checks run in that order: field count, numeric, finite, increasing,
    quaternion norm. A string's lines end at LF, CR or CRLF, as in a
    text-mode file (str.splitlines would also break at U+2028, U+0085,
    form feed and other separators).
    """
    if isinstance(source, str):
        source = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = list(source)
    pose_lines = list(filter(_is_pose_line, lines))
    data = _loadtxt(pose_lines)

    # (message, line_no) of the earliest defect; each check sees only the rows before it
    defect = None
    if data is None:
        line_nos = _line_numbers(lines)
        rows = [raw.split() for raw in pose_lines]
        n = next((i for i, fields in enumerate(rows) if len(fields) != 8), len(rows))
        if n < len(rows):
            defect = (f"expected 8 fields, got {len(rows[n])}", line_nos[n])
        values = []
        for k, fields in enumerate(rows[:n]):
            try:
                values.append(list(map(float, fields)))
            except ValueError:
                defect = (f"non-numeric field in {pose_lines[k].strip()!r}", line_nos[k])
                break
        data = np.array(values, dtype=float).reshape(-1, 8)

    ts, q = data[:, 0], data[:, [7, 4, 5, 6]]
    # a file cannot leave a pose unstamped: fmin(NaN, inf) is inf, a non-finite value
    bad = _bad_pose_row(np.fmin(ts, np.inf), data[:, 1:4], q)
    if bad is not None:
        defect = (bad[1], _line_numbers(lines)[bad[0]])
    if defect is not None:
        raise ParseError(*defect)
    if not pose_lines:
        raise ValidationError("no pose lines found; a trajectory needs at least one pose")
    t, xyz, q = _locked(ts), _locked(data[:, 1:4]), _locked(quat_normalize(q))
    return _view(Trajectory, t=t, xyz=xyz, q=q, traj_id=traj_id)


def load_tum(path: str | Path, traj_id: str | None = None) -> Trajectory:
    """Read a TUM-format file; traj_id defaults to the file stem.

    Lines end at LF, CR or CRLF, as in a text-mode file. Bytes that are
    not UTF-8 raise ParseError with their line number.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start] + b"x").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line_no) from None
    return parse_tum(text, traj_id if traj_id is not None else path.stem)


def _tum_blocks(traj: Trajectory) -> Iterator[str]:
    """The TUM text of traj in pieces: the header, then each block of _BLOCK_ROWS rows.

    Raises ValidationError for an unstamped pose at the call, before any
    piece is made, so a writer can check before it opens its target.
    """
    missing = np.flatnonzero(np.isnan(traj.t))
    if missing.size:
        raise ValidationError(f"pose {missing[0]} has no timestamp; cannot write TUM format")

    def blocks() -> Iterator[str]:
        yield "# timestamp tx ty tz qx qy qz qw\n"
        for lo in range(0, len(traj), _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            q = traj.q[rows]
            values = np.hstack([traj.t[rows, None], traj.xyz[rows], q[:, 1:], q[:, :1]])
            yield (_TUM_ROW * len(values)) % tuple(values.ravel().tolist())

    return blocks()


def dumps_tum(traj: Trajectory) -> str:
    """Serialize a fully timestamped trajectory to TUM-format text.

    Fixed-decimal formatting; parse_tum(dumps_tum(t)) matches t within
    1e-9 per pose in translation, rotation angle, and timestamp.
    """
    return "".join(_tum_blocks(traj))


def write_tum(traj: Trajectory, stream: IO[str]) -> None:
    """Write a trajectory to an open text stream in TUM format, block by block.

    Writes nothing when a pose is unstamped.
    """
    for block in _tum_blocks(traj):
        stream.write(block)


def save_tum(traj: Trajectory, path: str | Path) -> None:
    """Write a trajectory to a TUM-format file, block by block.

    An unstamped pose raises ValidationError before the file is opened,
    so an existing file keeps its bytes.
    """
    blocks = _tum_blocks(traj)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fp:
        for block in blocks:
            fp.write(block)


def associate(
    gt: Trajectory,
    est: Trajectory,
    max_time_diff: float = DEFAULT_MAX_TIME_DIFF,
) -> Association:
    """Match poses of two timestamped trajectories by nearest timestamps.

    Candidate pairs with |t_gt - t_est| <= max_time_diff are taken
    greedily in order of ascending |dt| (ties broken by earlier gt
    timestamp, then earlier est timestamp); a pair is accepted when
    neither index is already matched. The greedy order makes the result
    deterministic and symmetric under swapping the two inputs.

    A candidate is uncontested when its gt index and its est index each
    occur in no other candidate. Greedy selection accepts every such
    candidate whatever its place in the order, since only a candidate
    sharing an index could have claimed one first, and accepting it
    claims no index another candidate needs. So uncontested candidates
    are accepted at once, and the greedy loop runs over the rest only.
    That saves the loop when the tolerance window rarely holds two stamps
    of the other side (0.02 s against 30 Hz stamps leaves none
    contested); with dense stamps or a wide tolerance most candidates are
    contested and the loop does most of the work.

    Raises EmptyAssociationError when nothing matches, and ValidationError,
    before building any, for more candidates than 32 (n_gt + n_est), which
    bounds time and memory: about a 1 s tolerance at 30 Hz, or all against
    all up to 64 poses a side.
    """
    ts_gt = gt.timestamps()
    ts_est = est.timestamps()
    if ts_gt is None or ts_est is None:
        raise ValidationError("association requires timestamps on every pose of both trajectories")
    if not max_time_diff >= 0:  # NaN too
        raise ValidationError(f"max_time_diff must be non-negative, got {max_time_diff!r}")

    # Candidates: for each gt stamp, the est window within the tolerance, flattened.
    lo = np.searchsorted(ts_est, ts_gt - max_time_diff, side="left")
    hi = np.searchsorted(ts_est, ts_gt + max_time_diff, side="right")
    counts = hi - lo
    total, cap = int(counts.sum()), 32 * (len(ts_gt) + len(ts_est))
    if total > cap:
        raise ValidationError(f"max_time_diff {max_time_diff!r} s leaves {total} candidate "
                              f"pairs, more than 32 per pose ({cap})")
    gi = np.repeat(np.arange(len(ts_gt)), counts)
    ej = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(len(gi))
    dt = np.abs(ts_gt[gi] - ts_est[ej])
    within = dt <= max_time_diff
    gi, ej, dt = gi[within], ej[within], dt[within]

    accepted = (np.bincount(gi)[gi] == 1) & (np.bincount(ej)[ej] == 1)
    contested = np.flatnonzero(~accepted)
    order = contested[np.lexsort((ts_est[ej[contested]], ts_gt[gi[contested]], dt[contested]))]
    used_gt: set[int] = set()
    used_est: set[int] = set()
    for k, i, j in zip(order.tolist(), gi[order].tolist(), ej[order].tolist()):
        if i in used_gt or j in used_est:
            continue
        used_gt.add(i)
        used_est.add(j)
        accepted[k] = True

    if not accepted.any():
        raise EmptyAssociationError(
            f"no timestamp pairs within {max_time_diff} s between "
            f"{gt.traj_id or 'gt'} and {est.traj_id or 'est'}"
        )
    # candidates run in gt order, and each gt index is accepted at most once
    return Association.from_indices(gi[accepted], ej[accepted], max_time_diff)


def associate_by_index(gt: Trajectory, est: Trajectory) -> Association:
    """Index-identity association for sequences with per-frame correspondence.

    Rendered or synthetic datasets pose the estimate frame-for-frame
    against ground truth, so matching (i, i) skips the timestamp search.
    """
    idx = np.arange(min(len(gt), len(est)))
    return Association.from_indices(idx, idx, math.inf)
