"""Per-sequence motion attributes and frame-skip resampling.

The attributes characterize how hard a sequence is for a tracking
system: mean velocity per frame (meters), mean angular velocity per
frame (degrees), frame count, path length, and wall-clock duration when
timestamps exist. Angular velocity is the one value the library reports
in degrees, since per-frame angular rates of handheld or robot footage
land in the single-digit-degree range and read naturally there; every
internal computation stays in radians.

Stride resampling keeps every s-th frame and is the standard way to
emulate a faster agent from recorded footage ("skip k" frames equals
stride k + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .geom3d import Trajectory, _count, _fsum_mean, _view, quat_angle, quat_conj, quat_mul

__all__ = [
    "SequenceStats", "sequence_stats", "segment_stats", "resample_stride", "cohort_stats",
]


@dataclass(frozen=True)
class SequenceStats:
    """Motion attributes of one trajectory (or averages over a cohort).

    frame_count is integral for a single sequence but fractional when
    averaged across sequences.
    """

    mean_vel_per_frame: float
    mean_ang_vel_per_frame: float
    frame_count: float
    duration: float | None
    path_length: float

    @property
    def mean_vel_per_sec(self) -> float | None:
        """Velocity in m/s, derivable only when a duration is known."""
        if self.duration is None or self.duration <= 0.0:
            return None
        return self.path_length / self.duration


def sequence_stats(t: Trajectory) -> SequenceStats:
    """Attributes of one trajectory; a single-pose trajectory has zero motion.
    The result is the one segment of ``segment_stats``."""
    return segment_stats(t.t, t.xyz, t.q, np.array([len(t)]))[0]


@np.errstate(over="ignore")
def segment_stats(t: np.ndarray, xyz: np.ndarray, q: np.ndarray, counts: np.ndarray):
    """``sequence_stats`` of each segment of counts[k] >= 1 consecutive poses of
    the pose arrays t, xyz, q, in one pass; a list of SequenceStats."""
    steps = np.linalg.norm(np.diff(xyz, axis=0), axis=1).tolist()
    angles = quat_angle(quat_mul(quat_conj(q[:-1]), q[1:])).tolist()
    ends = np.cumsum(counts).tolist()
    stats = []
    # the n - 1 steps of a segment [a, b) are steps[a : b - 1]; steps[b - 1] crosses to the next
    for b, n in zip(ends, np.asarray(counts).tolist()):
        a = b - n
        duration = None if np.isnan(t[a:b]).any() else float(t[b - 1] - t[a])
        if n == 1:
            stats.append(SequenceStats(0.0, 0.0, 1, duration, 0.0))
            continue
        path_length = math.fsum(steps[a : b - 1])
        stats.append(SequenceStats(
            mean_vel_per_frame=path_length / (n - 1),
            mean_ang_vel_per_frame=math.degrees(_fsum_mean(angles[a : b - 1])),
            frame_count=n,
            duration=duration,
            path_length=path_length,
        ))
    return stats


def resample_stride(t: Trajectory, stride: int) -> Trajectory:
    """Keep poses at indices 0, stride, 2*stride, ...

    stride = 1 returns the trajectory unchanged; "skip k" frames is
    stride k + 1. Composition collapses: resampling by a then b equals
    resampling by a * b. stride is a count: an int or numpy integer in
    [1, sys.maxsize]; else ValidationError.
    """
    stride = _count("stride", stride)
    if stride == 1:
        return t
    # every s-th row of a valid trajectory is valid: read-only views, not checked copies
    return _view(Trajectory, t=t.t[::stride], xyz=t.xyz[::stride], q=t.q[::stride],
                 traj_id=t.traj_id)


def cohort_stats(stats: Sequence[SequenceStats]) -> SequenceStats:
    """Arithmetic mean of each attribute over a cohort.

    duration is averaged over the sequences that have one (None when
    none do).
    """
    if not stats:
        raise ValidationError("cohort_stats needs at least one SequenceStats")
    durations = [s.duration for s in stats if s.duration is not None]
    return SequenceStats(
        mean_vel_per_frame=_fsum_mean([s.mean_vel_per_frame for s in stats]),
        mean_ang_vel_per_frame=_fsum_mean([s.mean_ang_vel_per_frame for s in stats]),
        frame_count=_fsum_mean([s.frame_count for s in stats]),
        duration=_fsum_mean(durations) if durations else None,
        path_length=_fsum_mean([s.path_length for s in stats]),
    )
