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

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import EmptyAssociationError, ParseError, ValidationError
from .geom3d import _QUAT_NORM_MAX, _QUAT_NORM_MIN, Trajectory, quat_normalize

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


@dataclass(frozen=True)
class Association:
    """Matched (gt_index, est_index) pairs after time synchronization.

    Each index appears at most once per side and pairs are sorted by
    ground-truth timestamp (equivalently gt index).
    """

    pairs: tuple[tuple[int, int], ...]
    max_time_diff: float

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def gt_indices(self) -> np.ndarray:
        return np.array([p[0] for p in self.pairs], dtype=int)

    @property
    def est_indices(self) -> np.ndarray:
        return np.array([p[1] for p in self.pairs], dtype=int)


def parse_tum(source: str | IO[str] | Iterable[str], traj_id: str = "") -> Trajectory:
    """Parse a TUM-format stream (or string) into a Trajectory.

    Raises ParseError with the offending line number for malformed
    lines, non-increasing timestamps, or quaternions whose norm falls
    outside [0.9, 1.1]. The earliest bad line wins; within one line the
    checks run in that order: field count, numeric, finite, increasing,
    quaternion norm.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    rows = [
        (line_no, fields)
        for line_no, raw in enumerate(lines, start=1)
        if (fields := raw.split()) and not fields[0].startswith("#")
    ]

    # (message, line_no) of the earliest defect; each check sees only the rows before it
    n = next((i for i, (_, fields) in enumerate(rows) if len(fields) != 8), len(rows))
    defect = (f"expected 8 fields, got {len(rows[n][1])}", rows[n][0]) if n < len(rows) else None
    values = []
    for line_no, fields in rows[:n]:
        try:
            values.append(list(map(float, fields)))
        except ValueError:
            defect = (f"non-numeric field in {lines[line_no - 1].strip()!r}", line_no)
            break
    data = np.array(values, dtype=float).reshape(-1, 8)

    ts, q = data[:, 0], data[:, [7, 4, 5, 6]]
    norm = np.linalg.norm(q, axis=-1)
    non_finite = ~np.isfinite(data).all(axis=1)
    not_increasing = np.concatenate([[False], ts[1:] <= ts[:-1]])
    wild_norm = (norm < _QUAT_NORM_MIN) | (norm > _QUAT_NORM_MAX)
    bad = np.flatnonzero(non_finite | not_increasing | wild_norm)
    if bad.size:
        i = int(bad[0])
        if non_finite[i]:
            message = "non-finite value"
        elif not_increasing[i]:
            previous, current = ts[i - 1 : i + 1].tolist()
            message = f"timestamp {current!r} does not increase over previous {previous!r}"
        else:
            message = f"quaternion norm {norm[i]:.6g} outside [{_QUAT_NORM_MIN}, {_QUAT_NORM_MAX}]"
        defect = (message, rows[i][0])
    if defect is not None:
        raise ParseError(*defect)
    if not rows:
        raise ValidationError("no pose lines found; a trajectory needs at least one pose")
    return Trajectory.from_arrays(ts, data[:, 1:4], quat_normalize(q), traj_id)


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
    lines = io.StringIO(text, newline=None)
    return parse_tum(lines, traj_id if traj_id is not None else path.stem)


def dumps_tum(traj: Trajectory) -> str:
    """Serialize a fully timestamped trajectory to TUM-format text.

    Fixed-decimal formatting; parse_tum(dumps_tum(t)) matches t within
    1e-9 per pose in translation, rotation angle, and timestamp.
    """
    missing = np.flatnonzero(np.isnan(traj.t))
    if missing.size:
        raise ValidationError(f"pose {missing[0]} has no timestamp; cannot write TUM format")
    rows = np.hstack([traj.t[:, None], traj.xyz, traj.q[:, 1:], traj.q[:, :1]]).tolist()
    line = "%.9f" + " %.12f" * 7 + "\n"
    return "# timestamp tx ty tz qx qy qz qw\n" + "".join(line % tuple(row) for row in rows)


def write_tum(traj: Trajectory, stream: IO[str]) -> None:
    """Write a trajectory to an open text stream in TUM format."""
    stream.write(dumps_tum(traj))


def save_tum(traj: Trajectory, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fp:
        write_tum(traj, fp)


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

    Raises EmptyAssociationError when nothing matches.
    """
    ts_gt = gt.timestamps()
    ts_est = est.timestamps()
    if ts_gt is None or ts_est is None:
        raise ValidationError("association requires timestamps on every pose of both trajectories")
    if max_time_diff < 0:
        raise ValidationError("max_time_diff must be non-negative")

    # For each gt stamp, scan only the est window within the tolerance.
    candidates: list[tuple[float, float, float, int, int]] = []
    lo = np.searchsorted(ts_est, ts_gt - max_time_diff, side="left")
    hi = np.searchsorted(ts_est, ts_gt + max_time_diff, side="right")
    for i, t in enumerate(ts_gt):
        for j in range(int(lo[i]), int(hi[i])):
            dt = abs(t - ts_est[j])
            if dt <= max_time_diff:
                candidates.append((dt, t, float(ts_est[j]), i, j))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))

    used_gt: set[int] = set()
    used_est: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, _, _, i, j in candidates:
        if i in used_gt or j in used_est:
            continue
        used_gt.add(i)
        used_est.add(j)
        pairs.append((i, j))

    if not pairs:
        raise EmptyAssociationError(
            f"no timestamp pairs within {max_time_diff} s between "
            f"{gt.traj_id or 'gt'} and {est.traj_id or 'est'}"
        )
    pairs.sort(key=lambda p: p[0])
    return Association(tuple(pairs), max_time_diff)


def associate_by_index(gt: Trajectory, est: Trajectory) -> Association:
    """Index-identity association for sequences with per-frame correspondence.

    Rendered or synthetic datasets pose the estimate frame-for-frame
    against ground truth, so matching (i, i) skips the timestamp search.
    """
    n = min(len(gt), len(est))
    pairs = tuple((i, i) for i in range(n))
    return Association(pairs, math.inf)
