"""Rigid-body geometry: rotations, poses, trajectories and the SE(3) group operations.

Conventions used throughout the package:

- Rotations are stored as unit quaternions in Hamilton convention with
  internal component order (w, x, y, z). The sign is canonicalized to
  w >= 0 on construction so equal rotations compare equal.
- A pose is a rotation plus a translation in meters, equivalent to the
  4x4 homogeneous matrix with bottom row (0 0 0 1). It acts on points as
  x' = R x + t.
- Angles are radians everywhere inside the library. Degrees appear only
  at reporting boundaries.

A ``Trajectory`` is three read-only arrays (timestamps, translations,
quaternions); whole-trajectory code works on them with the ``quat_*``
helpers, which broadcast over shapes (..., 4) / (..., 3). ``Rotation``
and ``Pose`` are single transforms with the group operations
``compose``, ``inverse``, ``apply``, ``trans``, ``rot``, ``angle_of``
and ``relative``; a trajectory builds them as views of its rows on demand.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "Rotation",
    "Pose",
    "Trajectory",
    "compose",
    "inverse",
    "apply",
    "trans",
    "rot",
    "angle_of",
    "relative",
    "quat_normalize",
    "quat_mul",
    "quat_conj",
    "quat_rotate",
    "quat_angle",
    "quat_to_matrix",
    "quat_from_matrix",
    "quat_from_axis_angle",
]

# Pose rows whose quaternion norm falls outside this range are rejected; a
# norm inside it is rounding drift, which parse_tum and Rotation renormalize.
_QUAT_NORM_MIN = 0.9
_QUAT_NORM_MAX = 1.1


def _bad_pose_row(t: np.ndarray, xyz: np.ndarray, q: np.ndarray) -> tuple[int, str] | None:
    """The first invalid row of pose arrays t (n,), xyz (n, 3), q (n, 4) and why, or None.
    The reasons, in order: a non-finite value (a NaN stamp marks an unstamped pose),
    a stamp not above the previous stamped one, a quaternion norm outside [0.9, 1.1]."""
    # overflowing or non-finite, a norm is out of range all the same
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.add.reduce(q * q, axis=1))
    # column by column: numpy's all(axis=1) over three columns is several times slower
    ok = np.isfinite(xyz[:, 0]) & np.isfinite(xyz[:, 1]) & np.isfinite(xyz[:, 2]) & ~np.isinf(t)
    ok &= (norm >= _QUAT_NORM_MIN) & (norm <= _QUAT_NORM_MAX)
    # the running top of the stamps, past unstamped rows: the previous stamp up to the first bad row
    prev = np.fmax.accumulate(t[:-1])
    ok[1:] &= ~(t[1:] <= prev)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    if not (np.isfinite(xyz[i]).all() and np.isfinite(q[i]).all() and not np.isinf(t[i])):
        return i, "non-finite value"
    if i and t[i] <= prev[i - 1]:
        return i, f"timestamp {float(t[i])!r} does not increase over previous {float(prev[i - 1])!r}"
    # hypot cannot overflow: the message shows the true norm
    return i, f"quaternion norm {math.hypot(*q[i]):.6g} outside [{_QUAT_NORM_MIN}, {_QUAT_NORM_MAX}]"


# ---------------------------------------------------------------------------
# Array-level quaternion helpers (w, x, y, z), broadcasting over (..., 4)
# ---------------------------------------------------------------------------

def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return unit quaternions with the canonical sign w >= 0."""
    q = np.asarray(q, dtype=float)
    # the reduction np.linalg.norm makes along an axis, without its dispatch
    norm = np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))
    if not norm.all():
        raise ValidationError("zero-norm quaternion")
    out = q / norm
    sign = np.where(out[..., :1] < 0.0, -1.0, 1.0)
    return out * sign


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b, broadcasting over leading axes.

    The vector terms are summed in pairs that cancel exactly in conj(q) * q,
    so the relative rotation between two equal orientations is exactly the
    identity, not a rounding-sized rotation.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            (w1 * x2 + x1 * w2) + (y1 * z2 - z1 * y2),
            (w1 * y2 + y1 * w2) + (z1 * x2 - x1 * z2),
            (w1 * z2 + z1 * w2) + (x1 * y2 - y1 * x2),
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Conjugate quaternion; the inverse for unit quaternions."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors v (..., 3) by unit quaternions q (..., 4)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    # v + 2 (w (u x v) + u x (u x v)) for u = (x, y, z), with np.cross's products
    ax, ay, az = y * vz - z * vy, z * vx - x * vz, x * vy - y * vx
    bx, by, bz = y * az - z * ay, z * ax - x * az, x * ay - y * ax
    return v + 2.0 * np.stack([w * ax + bx, w * ay + by, w * az + bz], axis=-1)


def quat_angle(q: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] as 2 atan2(||(x, y, z)||, |w|).

    Accurate at every magnitude, unlike the arccos of the trace, which
    reads 1e-9 rad as 0 and 1e-7 rad 1% off.
    """
    q = np.asarray(q, dtype=float)
    v = q[..., 1:]
    return 2.0 * np.arctan2(np.sqrt(np.add.reduce(v * v, axis=-1)), np.abs(q[..., 0]))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Convert unit quaternions (..., 4) to rotation matrices (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.stack(
        [
            1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
            2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
            2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y),
        ],
        axis=-1,
    )
    return m.reshape(q.shape[:-1] + (3, 3))


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Convert one 3x3 rotation matrix to a (w, x, y, z) quaternion.

    The quaternion is read from the best-conditioned row of 4 q q^T, as
    in Shepperd's method; the result is normalized and sign-canonicalized.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValidationError(f"expected 3x3 rotation matrix, got shape {m.shape}")
    # a reflection (det = -1) would convert silently into some unrelated
    # rotation; reject anything far from orthonormal-with-positive-det. The
    # bound is np.allclose(m m^T, I, atol=0.1) spelled out; NaN fails it too.
    eye = np.eye(3)
    if not (np.abs(m @ m.T - eye) <= 0.1 + 1e-5 * eye).all() or np.linalg.det(m) < 0.5:
        raise ValidationError("matrix is not a rotation (must be orthogonal with det +1)")
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    # K = 4 q q^T; row k is 4 q_k q, so the row with the largest diagonal
    # 4 q_k^2 >= 1 normalizes to +-q without dividing by a small component
    k = np.array([
        [1.0 + m00 + m11 + m22, m21 - m12, m02 - m20, m10 - m01],
        [m21 - m12, 1.0 + m00 - m11 - m22, m01 + m10, m02 + m20],
        [m02 - m20, m01 + m10, 1.0 - m00 + m11 - m22, m12 + m21],
        [m10 - m01, m02 + m20, m12 + m21, 1.0 - m00 - m11 + m22],
    ])
    return quat_normalize(k[np.argmax(k.diagonal())])


def quat_from_axis_angle(axis: Sequence[float], angle: float) -> np.ndarray:
    """Quaternions for rotations of ``angle`` radians about ``axis``, broadcasting."""
    axis = np.asarray(axis, dtype=float)
    # the dot product np.linalg.norm takes of one vector: stacks match single calls bitwise
    with np.errstate(over="ignore"):
        squared = axis[..., None, :] @ axis[..., :, None]
    # an axis whose squared norm overflows or is below the normal floats (or is 0) is
    # divided by its largest |component| first; every other axis keeps its bits
    lost = ((squared > sys.float_info.max) | (squared < sys.float_info.min))[..., 0]
    if np.any(lost):
        largest = np.max(np.abs(axis), axis=-1, keepdims=True)
        if np.any(largest == 0.0):
            raise ValidationError("rotation axis must be nonzero")
        axis = axis / np.where(lost, largest, 1.0)
        squared = axis[..., None, :] @ axis[..., :, None]
    norm = np.sqrt(squared)[..., 0]
    half = 0.5 * np.asarray(angle, dtype=float)[..., None]
    return quat_normalize(np.concatenate([np.cos(half), np.sin(half) * (axis / norm)], axis=-1))


def _fsum_mean(values: list[float]) -> float:
    """The mean of a non-empty list by exact summation (math.fsum); when only the
    sum is beyond the float range, the mean of the values divided by their count."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return math.fsum(v / len(values) for v in values)


def _segment_means(values: np.ndarray, counts) -> list[float]:
    """``_fsum_mean`` of each segment of counts[k] consecutive values; NaN for an empty one."""
    flat = values.tolist()
    ends = np.cumsum(counts).tolist()
    return [_fsum_mean(flat[b - m : b]) if m else math.nan
            for b, m in zip(ends, np.asarray(counts).tolist())]


def _shown(value) -> str:
    """repr(value), or for an int past the interpreter's limit on printed digits
    (sys.get_int_max_str_digits()), a phrase that names the limit."""
    try:
        return repr(value)
    except ValueError:
        return (f"{'a negative' if value < 0 else 'an'} integer of more than"
                f" {sys.get_int_max_str_digits()} digits")


def _count(name: str, value) -> int:
    """The one rule for a count (a stride, an RPE delta, a job or frame count):
    an int or numpy integer, not a bool, in [1, sys.maxsize], returned as an int;
    anything else raises ValidationError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not (
            1 <= value <= sys.maxsize):
        raise ValidationError(f"{name} must be an integer in [1, {sys.maxsize}], got {_shown(value)}")
    return int(value)


def _real(name: str, value, low: float = -math.inf, above: bool = False):
    """The one rule for a real setting: a real number, not a bool, finite and >= low
    (> low if above), returned with a numpy scalar as its Python number; anything else,
    a longdouble too, raises ValidationError naming it. A huge int fails unconverted."""
    number = value.item() if isinstance(value, np.generic) else value
    if isinstance(number, (bool, np.generic)) or not isinstance(number, numbers.Real) or not (
            abs(number) <= sys.float_info.max and (number > low if above else number >= low)):
        bound = "" if low == -math.inf else f" and {'>' if above else '>='} {low}"
        raise ValidationError(f"{name} must be finite{bound}, got {_shown(value)}")
    return number


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

def _locked(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Rotation:
    """A 3D rotation stored as a unit quaternion (w, x, y, z).

    Inputs are renormalized on construction; norms outside [0.9, 1.1]
    are rejected. The sign is canonicalized to w >= 0 (q and -q denote
    the same rotation). Instances are immutable.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4,):
            raise ValidationError(f"quaternion must have shape (4,), got {q.shape}")
        bad = _bad_pose_row(np.zeros(1), np.zeros((1, 3)), q[None])
        if bad is not None:
            raise ValidationError(bad[1])
        object.__setattr__(self, "q", _locked(quat_normalize(q)))

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_axis_angle(cls, axis: Sequence[float], angle: float) -> "Rotation":
        return cls(quat_from_axis_angle(axis, angle))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Rotation":
        return cls(quat_from_matrix(m))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The equivalent 3x3 rotation matrix, read-only, derived once on first use."""
        m = quat_to_matrix(self.q)
        m.setflags(write=False)
        return m

    def inverse(self) -> "Rotation":
        return Rotation(quat_conj(self.q))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rotation):
            return NotImplemented
        return bool(np.array_equal(self.q, other.q))

    def __repr__(self) -> str:
        w, x, y, z = self.q
        return f"Rotation(w={w:.9g}, x={x:.9g}, y={y:.9g}, z={z:.9g})"


@dataclass(frozen=True, eq=False)
class Pose:
    """A rigid transform (rotation, translation) with an optional timestamp.

    Equivalent to the homogeneous matrix [[R, t], [0, 1]]; acts on points
    as x' = R x + t. Timestamps are seconds.
    """

    rotation: Rotation
    translation: np.ndarray
    timestamp: float | None = None

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValidationError(f"translation must have shape (3,), got {t.shape}")
        object.__setattr__(self, "translation", _locked(t))
        if self.timestamp is not None:
            object.__setattr__(self, "timestamp", float(self.timestamp))

    @classmethod
    def identity(cls, timestamp: float | None = None) -> "Pose":
        return cls(Rotation.identity(), np.zeros(3), timestamp)

    @classmethod
    def from_matrix(cls, m: np.ndarray, timestamp: float | None = None) -> "Pose":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValidationError(f"expected 4x4 homogeneous matrix, got shape {m.shape}")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
            raise ValidationError("bottom row of a homogeneous matrix must be (0 0 0 1)")
        return cls(Rotation.from_matrix(m[:3, :3]), m[:3, 3], timestamp)

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.matrix
        m[:3, 3] = self.translation
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return (
            self.rotation == other.rotation
            and bool(np.array_equal(self.translation, other.translation))
            and self.timestamp == other.timestamp
        )

    def __repr__(self) -> str:
        ts = "" if self.timestamp is None else f", t={self.timestamp:.6f}"
        return f"Pose({self.rotation!r}, trans={np.array2string(self.translation, precision=6)}{ts})"


def _view(cls, **fields):
    # an instance holding the fields as given, without the copy and renormalization
    # of __post_init__: a view returns the stored row exactly
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """Poses as read-only arrays ``t`` (n,), ``xyz`` (n, 3) and ``q`` (n, 4).

    ``t`` is NaN for an unstamped pose; ``q`` holds unit quaternions
    (w, x, y, z) with w >= 0. Invariants: at least one pose; finite values;
    timestamps, where present, strictly increase. Indexing and iteration
    yield ``Pose`` views of the rows.
    """

    t: np.ndarray
    xyz: np.ndarray
    q: np.ndarray
    traj_id: str = ""

    def __init__(self, poses: Iterable[Pose], traj_id: str = ""):
        poses = tuple(poses)
        t = [math.nan if p.timestamp is None else p.timestamp for p in poses]
        xyz = np.reshape([p.translation for p in poses], (-1, 3))
        q = np.reshape([p.rotation.q for p in poses], (-1, 4))
        vars(self).update(vars(Trajectory.from_arrays(t, xyz, q, traj_id)))

    @classmethod
    def from_arrays(cls, t, xyz, q, traj_id: str = "") -> "Trajectory":
        """A trajectory over copies of the arrays; raises ValidationError naming the first
        pose that breaks an invariant or has a quaternion norm outside [0.9, 1.1]. ``q`` is
        stored as given, so pass unit quaternions with w >= 0 (as quat_normalize makes)."""
        t, xyz, q = _locked(t), _locked(xyz), _locked(q)
        if t.ndim != 1 or xyz.shape != (len(t), 3) or q.shape != (len(t), 4):
            raise ValidationError(f"pose arrays must have shapes t (n,), xyz (n, 3), q (n, 4), "
                                  f"got {t.shape}, {xyz.shape}, {q.shape}")
        if len(t) < 1:
            raise ValidationError("a trajectory must contain at least one pose")
        bad = _bad_pose_row(t, xyz, q)
        if bad is not None:
            raise ValidationError(f"pose {bad[0]}: {bad[1]}")
        return _view(cls, t=t, xyz=xyz, q=q, traj_id=traj_id)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[Pose]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int) -> Pose:
        ts = None if math.isnan(self.t[i]) else float(self.t[i])
        rotation = _view(Rotation, q=self.q[i])
        return _view(Pose, rotation=rotation, translation=self.xyz[i], timestamp=ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        same = self.traj_id == other.traj_id and np.array_equal(self.t, other.t, equal_nan=True)
        return same and np.array_equal(self.xyz, other.xyz) and np.array_equal(self.q, other.q)

    @property
    def poses(self) -> tuple[Pose, ...]:
        return tuple(self)

    @property
    def has_timestamps(self) -> bool:
        return not bool(np.isnan(self.t).any())

    def timestamps(self) -> np.ndarray | None:
        """All timestamps as an array, or None if any pose is unstamped."""
        return self.t if self.has_timestamps else None

    def translations(self) -> np.ndarray:
        """Stacked translations, shape (n, 3)."""
        return self.xyz

    def quaternions(self) -> np.ndarray:
        """Stacked rotation quaternions (w, x, y, z), shape (n, 4)."""
        return self.q

    def subset(self, indices: Sequence[int]) -> "Trajectory":
        """Trajectory restricted to the given pose indices (kept in order)."""
        i = np.asarray(indices, dtype=int)
        return Trajectory.from_arrays(self.t[i], self.xyz[i], self.q[i], self.traj_id)


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------

def compose(a: Pose, b: Pose) -> Pose:
    """The product a * b of two rigid transforms.

    Rotation is Ra Rb, translation Ra tb + ta, matching the homogeneous
    matrix product. The result carries no timestamp.
    """
    q = quat_mul(a.rotation.q, b.rotation.q)  # renormalized by Rotation
    t = quat_rotate(a.rotation.q, b.translation) + a.translation
    return Pose(Rotation(q), t)


def inverse(p: Pose) -> Pose:
    """The inverse transform: rotation R^T, translation -R^T t."""
    qc = quat_conj(p.rotation.q)
    return Pose(Rotation(qc), -quat_rotate(qc, p.translation))


def apply(p: Pose, x: Sequence[float]) -> np.ndarray:
    """Apply the transform to a point: R x + t."""
    return quat_rotate(p.rotation.q, np.asarray(x, dtype=float)) + p.translation


def trans(p: Pose) -> np.ndarray:
    """Translation component of a pose."""
    return p.translation


def rot(p: Pose) -> Rotation:
    """Rotation component of a pose."""
    return p.rotation


def angle_of(r: Rotation) -> float:
    """Rotation angle in [0, pi]: 2 atan2(||(x, y, z)||, |w|) of its quaternion."""
    return float(quat_angle(r.q))


def relative(a: Pose, b: Pose) -> Pose:
    """The transform taking frame a to frame b: inverse(a) * b."""
    return compose(inverse(a), b)
