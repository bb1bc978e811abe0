"""Manifest-driven batch evaluation.

A run manifest lists, per sequence, one ground-truth file and one
estimate file per run, plus the evaluation options. The batch runner
evaluates every (sequence, run) pair, aggregates per-sequence medians,
and reduces the cohort with `cohort.summarize`. Unreadable files do not
abort the batch; they are collected into a failures list and the rest
is evaluated.

Manifest JSON schema (schema_version 1)::

    {
      "schema_version": 1,
      "options": {
        "max_time_diff": 0.02,
        "rpe_delta": 1,
        "rpe_mode": "fixed-delta",
        "min_tracked": 0.9,
        "gap_ratio_min": 5.0,
        "index_identity_association": false,
        "stride": 1
      },
      "sequences": [
        {
          "sequence_id": "seq_000",
          "gt_path": "gt/seq_000.txt",
          "estimate_paths": ["est/seq_000_run0.txt", "est/seq_000_run1.txt"]
        }
      ]
    }

All options are optional and default as above; ``rpe_delta`` and
``stride`` must be integers, the other numbers finite. ``sequence_id``
and ``gt_path`` are non-empty strings. Relative paths resolve against
the manifest's directory.

Evaluation of different sequences is independent, so the runner can
fan out over worker processes; results are reduced in manifest order
either way, which keeps the numeric content identical regardless of
job count and the report byte-identical at jobs=1.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .cohort import (DEFAULT_GAP_RATIO_MIN, DEFAULT_MIN_TRACKED, CohortSummary, MetricRecord,
                     SequenceResult, summarize)
from .errors import EmptyAssociationError, SlamEvalError, ValidationError
from .metrics import RPE_MODE_ALL_PAIRS, RPE_MODE_FIXED, ate, rpe
from .geom3d import Trajectory
from .trajio import DEFAULT_MAX_TIME_DIFF, load_tum, associate, associate_by_index
from .trajstats import resample_stride, sequence_stats

__all__ = [
    "BatchOptions",
    "SequenceEntry",
    "RunManifest",
    "Failure",
    "BatchOutcome",
    "load_manifest",
    "run_batch",
    "associate_run",
    "MANIFEST_SCHEMA_VERSION",
]

MANIFEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BatchOptions:
    max_time_diff: float = DEFAULT_MAX_TIME_DIFF
    rpe_delta: int = 1
    rpe_mode: str = RPE_MODE_FIXED
    min_tracked: float = DEFAULT_MIN_TRACKED
    gap_ratio_min: float = DEFAULT_GAP_RATIO_MIN
    index_identity_association: bool = False
    stride: int = 1

    def __post_init__(self):
        for name in ("rpe_delta", "stride"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("max_time_diff", "min_tracked", "gap_ratio_min"):
            value = getattr(self, name)
            # exact comparison also rejects a JSON integer beyond the float range
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not abs(value) <= sys.float_info.max
            ):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.index_identity_association, bool):
            raise ValidationError(
                f"index_identity_association must be true or false, "
                f"got {self.index_identity_association!r}"
            )
        if self.rpe_mode not in (RPE_MODE_FIXED, RPE_MODE_ALL_PAIRS):
            raise ValidationError(f"unknown rpe_mode {self.rpe_mode!r}")
        if self.rpe_delta < 1:
            raise ValidationError("rpe_delta must be >= 1")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if self.max_time_diff < 0:
            raise ValidationError("max_time_diff must be >= 0")


@dataclass(frozen=True)
class SequenceEntry:
    sequence_id: str
    gt_path: Path
    estimate_paths: tuple[Path, ...]


@dataclass(frozen=True)
class RunManifest:
    entries: tuple[SequenceEntry, ...]
    options: BatchOptions
    schema_version: int = MANIFEST_SCHEMA_VERSION


@dataclass(frozen=True)
class Failure:
    sequence_id: str
    path: str
    error: str


@dataclass(frozen=True)
class BatchOutcome:
    summary: CohortSummary | None
    failures: tuple[Failure, ...]
    evaluated_count: int


def load_manifest(path: str | Path) -> RunManifest:
    """Read and validate a manifest file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integer
        # literals too long to convert; RecursionError, nesting too deep to parse
        raise ValidationError(f"manifest {path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"manifest {path}: top level must be an object")

    version = raw.get("schema_version", MANIFEST_SCHEMA_VERSION)
    if type(version) is not int or version != MANIFEST_SCHEMA_VERSION:
        raise ValidationError(f"unsupported manifest schema_version {version!r}")

    opt_raw = raw.get("options", {})
    if not isinstance(opt_raw, dict):
        raise ValidationError(f"manifest {path}: options must be an object")
    known = set(BatchOptions.__dataclass_fields__)
    unknown = set(opt_raw) - known
    if unknown:
        raise ValidationError(f"unknown manifest options: {sorted(unknown)}")
    options = BatchOptions(**opt_raw)

    base = path.parent
    entries: list[SequenceEntry] = []
    seen: set[str] = set()
    sequences = raw.get("sequences", [])
    if not isinstance(sequences, list):
        raise ValidationError(f"manifest {path}: sequences must be a list")
    for item in sequences:
        try:
            seq_id, gt_raw, est_raw = item["sequence_id"], item["gt_path"], item["estimate_paths"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"manifest sequence entry malformed: {item!r} ({exc})") from None
        if not (isinstance(seq_id, str) and isinstance(gt_raw, str) and seq_id and gt_raw):
            raise ValidationError(
                f"sequence entry {item!r}: sequence_id and gt_path must be non-empty strings"
            )
        if seq_id in seen:
            raise ValidationError(f"duplicate sequence_id {seq_id!r}")
        if not isinstance(est_raw, list) or not all(isinstance(p, str) for p in est_raw):
            raise ValidationError(f"sequence {seq_id!r}: estimate_paths must be a list of strings")
        if not est_raw:
            raise ValidationError(f"sequence {seq_id!r} lists no estimate paths")
        est_paths = tuple(base / p for p in est_raw)
        seen.add(seq_id)
        entries.append(SequenceEntry(seq_id, base / gt_raw, est_paths))
    if not entries:
        raise ValidationError("manifest lists no sequences")
    return RunManifest(tuple(entries), options, version)


def associate_run(gt: Trajectory, est: Trajectory, max_time_diff: float, by_index: bool):
    """A run's pose pairs: by index identity, else by timestamps within max_time_diff."""
    return associate_by_index(gt, est) if by_index else associate(gt, est, max_time_diff)


def _failed_record() -> MetricRecord:
    return MetricRecord(math.nan, math.nan, math.nan, 0.0)


def evaluate_run(
    gt: Trajectory, gt_strided: Trajectory, est_path: Path, options: BatchOptions
) -> MetricRecord:
    """Evaluate one estimate file against a loaded ground truth.

    The whole estimate is associated with the whole ground truth. At
    stride s the pairs on every s-th gt pose are kept and re-indexed into
    ``gt_strided`` (gt resampled at stride s), so a dropped estimate
    frame cannot shift the estimate out of phase with the stride.
    """
    est = load_tum(est_path)
    try:
        assoc = associate_run(gt, est, options.max_time_diff, options.index_identity_association)
    except EmptyAssociationError:
        return _failed_record()
    assoc = assoc.strided(options.stride)
    if not len(assoc):
        return _failed_record()

    n = len(assoc)
    ate_rmse = ate(gt_strided, est, assoc).rmse
    rpe_trans = rpe_rot = math.nan
    if n >= 2 and (options.rpe_mode == RPE_MODE_ALL_PAIRS or options.rpe_delta < n):
        report = rpe(gt_strided, est, assoc, options.rpe_delta, options.rpe_mode)
        rpe_trans, rpe_rot = report.trans_rmse, report.rot_mean
    return MetricRecord(ate_rmse, rpe_trans, rpe_rot, n / len(gt_strided))


def evaluate_sequence(
    entry: SequenceEntry, options: BatchOptions
) -> tuple[SequenceResult | None, list[Failure]]:
    """Evaluate all runs of one sequence; file problems become failures."""
    failures: list[Failure] = []
    try:
        gt = load_tum(entry.gt_path)
    except (OSError, SlamEvalError) as exc:
        failures.append(Failure(entry.sequence_id, str(entry.gt_path), str(exc)))
        return None, failures
    gt_strided = resample_stride(gt, options.stride)
    stats = sequence_stats(gt_strided)

    records: list[MetricRecord] = []
    for est_path in entry.estimate_paths:
        try:
            records.append(evaluate_run(gt, gt_strided, est_path, options))
        except (OSError, SlamEvalError) as exc:
            failures.append(Failure(entry.sequence_id, str(est_path), str(exc)))
    if not records:
        return None, failures
    return SequenceResult.from_runs(entry.sequence_id, records, stats), failures


def run_batch(manifest: RunManifest, jobs: int = 1) -> BatchOutcome:
    """Evaluate every manifest entry and summarize the cohort.

    jobs > 1 distributes sequences over min(jobs, sequences) worker
    processes. Results are always reduced in manifest order, so the
    numbers cannot depend on scheduling; jobs = 1 additionally
    guarantees a bit-identical pass through a single interpreter.
    """
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
    options = manifest.options
    entries = manifest.entries

    workers = min(jobs, len(entries))
    if workers <= 1:
        evaluated = [evaluate_sequence(e, options) for e in entries]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # four chunks per worker: few round trips, still balanced
        with ProcessPoolExecutor(max_workers=workers) as pool:
            evaluated = list(pool.map(evaluate_sequence, entries, [options] * len(entries),
                                      chunksize=math.ceil(len(entries) / (4 * workers))))

    results: list[SequenceResult] = []
    failures: list[Failure] = []
    for result, fails in evaluated:
        failures.extend(fails)
        if result is not None:
            results.append(result)

    summary = None
    if results:
        summary = summarize(results, options.min_tracked, options.gap_ratio_min)
    return BatchOutcome(summary, tuple(failures), len(results))
