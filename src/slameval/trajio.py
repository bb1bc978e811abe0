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

The canonical JSON writer of every report, ``dump_json``, sits beside the
TUM writer, so a command that writes a JSON file loads no report module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyAssociationError, ParseError, ValidationError
from .geom3d import Trajectory, _bad_pose_row, _locked, _stride, _view, quat_normalize

__all__ = [
    "Association",
    "parse_tum",
    "load_tum",
    "write_tum",
    "dumps_tum",
    "save_tum",
    "dump_json",
    "associate",
    "associate_by_index",
    "associate_runs",
    "DEFAULT_MAX_TIME_DIFF",
    "RPE_MODE_FIXED",
    "RPE_MODE_ALL_PAIRS",
]

# Under one frame interval of a 30 Hz sensor.
DEFAULT_MAX_TIME_DIFF = 0.02

# The pairs RPE scores (see metrics), named beside the association default so
# that a command-line parser can offer them without loading the metrics.
RPE_MODE_FIXED = "fixed-delta"
RPE_MODE_ALL_PAIRS = "all-pairs"

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
        """The pairs on every s-th gt pose, re-indexed into gt resampled at stride s.

        s is an integer in [1, sys.maxsize], a numpy one too but not a bool or
        float, as for ``resample_stride``; else ValidationError.
        """
        s = _stride(s)
        keep = self.gt_indices % s == 0
        return Association.from_indices(
            self.gt_indices[keep] // s, self.est_indices[keep], self.max_time_diff
        )


def _line_numbers(lines: list[str]) -> list[int]:
    """The 1-based line number of each pose line (by parse_tum's rule), for error messages."""
    numbered = enumerate(lines, start=1)
    return [no for no, raw in numbered if (head := raw.lstrip()) and head[0] != "#"]


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
    # a pose line holds something other than blanks and does not start with '#'
    pose_lines = [raw for raw in lines if (head := raw.lstrip()) and head[0] != "#"]
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

    It is read as UTF-8 text with universal newlines: lines end at LF, CR
    or CRLF; a leading byte-order mark is dropped. Bytes that are not UTF-8
    raise ParseError with their line number.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # the whole file is decoded in one call: exc.start is its offset in the file
        # (past a byte-order mark, which holds no newline)
        line_no = len((exc.object[: exc.start] + b"x").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}", line_no) from None
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


def _clean(value):
    """Make a value JSON-safe: NaN/inf to None, containers recursively."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, no NaN tokens, trailing newline."""
    import json  # here: a command that writes no JSON never loads it
    return json.dumps(_clean(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def associate_runs(runs: Sequence[tuple[Trajectory, Trajectory]],
                   max_time_diff: float = DEFAULT_MAX_TIME_DIFF, by_index: bool = False):
    """Match the poses of every run (gt, est) at once, each run as if alone.

    Returns, per pair in run order and then gt order, its run, gt index and
    est index as int arrays, and a dict from each run that cannot be
    associated to its error message; such a run has no pairs.

    by_index pairs (i, i) for i < min(n_gt, n_est): rendered or synthetic
    datasets pose the estimate frame for frame against ground truth.
    Otherwise candidate pairs with |t_gt - t_est| <= max_time_diff are taken
    greedily by ascending |dt| (ties to the earlier gt stamp, then the
    earlier est stamp) when neither index is taken yet, which makes the
    result deterministic and symmetric under swapping gt and est.

    A candidate sharing neither index with another is uncontested: greedy
    selection accepts it whatever its place in the order, and accepting it
    claims no index another candidate needs. So only contested candidates
    go through the greedy loop; 0.02 s against 30 Hz stamps leaves none,
    while dense stamps or a wide tolerance leave most. All runs are matched
    together, each run's indices offset past the previous runs' (a ground
    truth shared by runs once per run), and no candidate shares an index
    with another run's.

    A run fails with an unstamped pose or, before any of its candidates is
    built, with more than 32 (n_gt + n_est) candidates, which bounds time
    and memory: about a 1 s tolerance at 30 Hz, or all against all up to
    64 poses a side. A negative or NaN max_time_diff raises ValidationError.
    """
    n_gt = np.array([len(gt) for gt, _ in runs], dtype=int)
    n_est = np.array([len(est) for _, est in runs], dtype=int)
    if by_index:
        m = np.minimum(n_gt, n_est)
        run = np.repeat(np.arange(len(runs)), m)
        gi = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
        return run, gi, gi, {}
    if not max_time_diff >= 0:  # NaN too
        raise ValidationError(f"max_time_diff must be non-negative, got {max_time_diff!r}")
    if not runs:
        return n_gt, n_gt, n_gt, {}  # three empty int arrays

    failed: dict[int, str] = {}
    est_start = np.cumsum(n_est) - n_est
    # per gt stamp, the first est candidate (offset past the previous runs') and the count
    lo, counts = [], []
    for r, (gt, est) in enumerate(runs):
        run_lo = np.searchsorted(est.t, gt.t - max_time_diff, side="left")
        run_counts = np.searchsorted(est.t, gt.t + max_time_diff, side="right") - run_lo
        total, cap = int(run_counts.sum()), 32 * (len(gt) + len(est))
        if not (gt.has_timestamps and est.has_timestamps):
            failed[r] = "association requires timestamps on every pose of both trajectories"
        elif total > cap:
            failed[r] = (f"max_time_diff {max_time_diff!r} s leaves {total} candidate "
                         f"pairs, more than 32 per pose ({cap})")
        lo.append(run_lo + est_start[r])
        counts.append(np.zeros_like(run_counts) if r in failed else run_counts)
    lo, counts = np.concatenate(lo), np.concatenate(counts)
    ts_gt = np.concatenate([gt.t for gt, _ in runs])
    ts_est = np.concatenate([est.t for _, est in runs])

    gi = np.repeat(np.arange(len(ts_gt)), counts)
    ej = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(len(gi))
    dt = np.abs(ts_gt[gi] - ts_est[ej])
    within = dt <= max_time_diff
    gi, ej, dt = gi[within], ej[within], dt[within]

    accepted = (np.bincount(gi)[gi] == 1) & (np.bincount(ej)[ej] == 1)
    contested = np.flatnonzero(~accepted)
    order = contested[np.lexsort((ts_est[ej[contested]], ts_gt[gi[contested]], dt[contested]))]
    used_gt, used_est = set(), set()
    for k, i, j in zip(order.tolist(), gi[order].tolist(), ej[order].tolist()):
        if i in used_gt or j in used_est:
            continue
        used_gt.add(i)
        used_est.add(j)
        accepted[k] = True
    # candidates run in gt order, and each gt index is accepted at most once
    gi, ej, gt_start = gi[accepted], ej[accepted], np.cumsum(n_gt) - n_gt
    run = np.searchsorted(gt_start, gi, side="right") - 1
    return run, gi - gt_start[run], ej - est_start[run], failed


def associate(gt: Trajectory, est: Trajectory,
              max_time_diff: float = DEFAULT_MAX_TIME_DIFF) -> Association:
    """Match poses of two timestamped trajectories by nearest timestamps:
    the one run of ``associate_runs``, which states the matching rule.

    Raises EmptyAssociationError when nothing matches, and ValidationError
    for an unstamped pose, a negative tolerance or more candidates than
    32 (n_gt + n_est).
    """
    _, gi, ej, failed = associate_runs([(gt, est)], max_time_diff)
    if failed:
        raise ValidationError(failed[0])
    if not len(gi):
        raise EmptyAssociationError(
            f"no timestamp pairs within {max_time_diff} s between "
            f"{gt.traj_id or 'gt'} and {est.traj_id or 'est'}"
        )
    return Association.from_indices(gi, ej, max_time_diff)


def associate_by_index(gt: Trajectory, est: Trajectory) -> Association:
    """Index-identity association for sequences with per-frame correspondence:
    the one run of ``associate_runs`` by index, which skips the timestamp search."""
    _, gi, ej, _ = associate_runs([(gt, est)], by_index=True)
    return Association.from_indices(gi, ej, math.inf)
