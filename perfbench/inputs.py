"""Benchmark inputs: TUM trajectory files and run manifests made from a seed.

Only numpy is used, never ``slameval.synth``, so a change to the program
cannot change what the benchmark feeds it. Every estimate pose is one
ground-truth pose moved by a global rigid offset, translational and
rotational drift and noise. Its timestamp is the ground-truth stamp plus
at most 5 ms of jitter, far below half the 1/30 s frame spacing, so the
correct (gt, est) pairs are known by construction and the reference
metrics in ``reference.py`` can be computed on them directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RATE_HZ = 30.0
JITTER_S = 0.005
# Estimates never drop their first frames, so even a strided estimate
# that falls out of phase with its ground truth keeps a few matches.
KEEP_HEAD = 10
TUM_HEADER = "# timestamp tx ty tz qx qy qz qw\n"
TUM_ROW = "%.6f %.6f %.6f %.6f %.9f %.9f %.9f %.9f\n"

PLANTED_KINDS = ("field_count", "time_order", "missing")


@dataclass
class Track:
    """A trajectory as arrays: t (n,), xyz (n, 3), q (n, 4) in (w, x, y, z) order."""

    t: np.ndarray
    xyz: np.ndarray
    q: np.ndarray


@dataclass
class Run:
    path: Path
    planted: str | None = None
    # Index into the ground truth of each estimate pose (valid runs only).
    gt_index: np.ndarray | None = None
    est: Track | None = None


@dataclass
class Sequence:
    sequence_id: str
    gt_path: Path
    gt: Track
    runs: list[Run] = field(default_factory=list)


@dataclass
class Cohort:
    manifest: Path
    sequences: list[Sequence]
    pose_lines: int
    bytes: int


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_from_axis_angle(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    half = 0.5 * np.asarray(angle, dtype=float)[..., None]
    return np.concatenate([np.cos(half), np.sin(half) * axis], axis=-1)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=-2,
    )


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _smooth(rng: np.random.Generator, n: int, spacing: int = 30) -> np.ndarray:
    """A smooth random signal in [-1, 1]: random knots every `spacing` frames."""
    knots = rng.uniform(-1.0, 1.0, n // spacing + 2)
    return np.interp(np.arange(n) / spacing, np.arange(knots.size), knots)


def ground_truth(rng: np.random.Generator, n: int) -> Track:
    """A smooth 3D hand-held-like path at 30 Hz with TUM-sized timestamps."""
    t = 1.3e9 + rng.uniform(0.0, 1e6) + np.arange(n) / RATE_HZ
    yaw = rng.uniform(-math.pi, math.pi) + np.cumsum(0.03 * _smooth(rng, n))
    pitch = 0.05 * _smooth(rng, n)
    roll = 0.05 * _smooth(rng, n)
    step = 0.01 * (1.0 + 0.3 * _smooth(rng, n))
    heading = np.stack([np.cos(yaw), np.sin(yaw), 0.2 * _smooth(rng, n)], axis=1)
    xyz = np.cumsum(step[:, None] * heading, axis=0) + rng.uniform(-5.0, 5.0, 3)
    ez, ey, ex = np.eye(3)[2], np.eye(3)[1], np.eye(3)[0]
    q = quat_mul(
        quat_mul(quat_from_axis_angle(ez, yaw), quat_from_axis_angle(ey, pitch)),
        quat_from_axis_angle(ex, roll),
    )
    return Track(t, xyz, q)


def estimate(rng: np.random.Generator, gt: Track, dropout: float) -> tuple[Track, np.ndarray]:
    """A tracked estimate of gt and the gt index of each of its poses."""
    n = gt.t.size
    i = np.arange(n)
    g_q = quat_from_axis_angle(_unit(rng.normal(size=3)), rng.uniform(0.0, math.pi))
    xyz = gt.xyz @ quat_to_matrix(g_q).T + rng.uniform(-10.0, 10.0, 3)
    q = quat_mul(g_q, gt.q)

    xyz = xyz + i[:, None] * (2e-4 * _unit(rng.normal(size=3)))
    q = quat_mul(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 2e-5 * i), q)

    xyz = xyz + rng.normal(0.0, 0.005, (n, 3))
    q = quat_mul(quat_from_axis_angle(_unit(rng.normal(size=(n, 3))), rng.normal(0.0, 0.002, n)), q)
    t = gt.t + rng.uniform(-JITTER_S, JITTER_S, n)

    n_drop = int(round(dropout * n))
    drop = rng.choice(np.arange(KEEP_HEAD, n), size=n_drop, replace=False)
    keep = np.setdiff1d(i, drop)
    return Track(t[keep], xyz[keep], q[keep]), keep


def tum_text(track: Track) -> str:
    rows = np.column_stack([track.t, track.xyz, track.q[:, 1:], track.q[:, 0]])
    return TUM_HEADER + "".join(TUM_ROW % tuple(r) for r in rows.tolist())


def parse_text(text: str) -> Track:
    """The arrays the program reads from `text` (header line skipped)."""
    rows = np.array(text.split("\n", 1)[1].split(), dtype=float).reshape(-1, 8)
    return Track(rows[:, 0], rows[:, 1:4], rows[:, [7, 4, 5, 6]])


def _plant(kind: str, text: str) -> str:
    """Corrupt one line in the middle of a valid TUM text."""
    lines = text.splitlines(keepends=True)
    mid = len(lines) // 2
    if kind == "field_count":
        lines[mid] = lines[mid].rsplit(" ", 1)[0] + "\n"
    elif kind == "time_order":
        stamp = lines[mid].split(" ", 1)[0]
        lines[mid + 1] = stamp + " " + lines[mid + 1].split(" ", 1)[1]
    else:
        raise ValueError(kind)
    return "".join(lines)


def write_cohort(
    root: Path,
    seed: int,
    sequences: int,
    runs: int,
    frames: int,
    dropout: float,
    options: dict,
    planted: bool = False,
) -> Cohort:
    """Write gt/est TUM files and a manifest under root.

    With planted=True one estimate of each kind in PLANTED_KINDS is
    broken (in three different sequences); every sequence keeps at
    least one valid run.
    """
    rng = np.random.default_rng(seed)
    (root / "gt").mkdir(parents=True, exist_ok=True)
    (root / "est").mkdir(parents=True, exist_ok=True)
    plant_at: dict[tuple[int, int], str] = {}
    if planted:
        seqs = rng.choice(sequences, size=len(PLANTED_KINDS), replace=False)
        for kind, s in zip(PLANTED_KINDS, seqs.tolist()):
            plant_at[(s, int(rng.integers(runs)))] = kind

    out: list[Sequence] = []
    pose_lines = 0
    nbytes = 0
    for s in range(sequences):
        seq_id = f"seq_{s:03d}"
        text = tum_text(ground_truth(rng, frames))
        gt_path = root / "gt" / f"{seq_id}.txt"
        gt_path.write_text(text, encoding="utf-8")
        seq = Sequence(seq_id, gt_path, parse_text(text))
        pose_lines += frames
        nbytes += len(text)
        for r in range(runs):
            est, keep = estimate(rng, seq.gt, dropout)
            kind = plant_at.get((s, r))
            path = root / "est" / f"{seq_id}_run{r}.txt"
            text = tum_text(est)
            if kind == "missing":
                seq.runs.append(Run(path.with_name(path.stem + "_missing.txt"), kind))
                continue
            if kind is not None:
                text = _plant(kind, text)
            path.write_text(text, encoding="utf-8")
            pose_lines += keep.size
            nbytes += len(text)
            if kind is None:
                seq.runs.append(Run(path, None, keep, parse_text(text)))
            else:
                seq.runs.append(Run(path, kind))
        out.append(seq)

    manifest = root / "manifest.json"
    doc = {
        "schema_version": 1,
        "options": options,
        "sequences": [
            {
                "sequence_id": seq.sequence_id,
                "gt_path": str(seq.gt_path.relative_to(root)),
                "estimate_paths": [str(run.path.relative_to(root)) for run in seq.runs],
            }
            for seq in out
        ],
    }
    manifest.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return Cohort(manifest, out, pose_lines, nbytes)
