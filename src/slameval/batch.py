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
``stride`` must be integers, the other numbers finite and
``max_time_diff`` >= 0. ``sequence_id`` and ``gt_path`` are non-empty
strings. Relative paths resolve against the manifest's directory.

The runner splits the sequences into shares and evaluates the first in
this process. ``multiprocessing`` workers, forked on Linux when no other
thread runs and spawned elsewhere, evaluate the others and send their
results back over a pipe; a worker's failure reads the same everywhere.
A daemonic caller, which may start no process, evaluates every share. A
share's files are read one by one, and all of its runs are scored in one
array pass. A run's numbers do not depend on what else is in its pass,
and results are reduced in manifest order, so the report is
byte-identical at every job count.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .align import horn_align_segments
from .cohort import (DEFAULT_GAP_RATIO_MIN, DEFAULT_MIN_TRACKED, CohortSummary, MetricRecord,
                     SequenceResult, summarize)
from .errors import SlamEvalError, ValidationError
from .geom3d import Trajectory, _count, _real
from .metrics import RPE_MODE_ALL_PAIRS, RPE_MODE_FIXED, _all_pairs_refusal, rpe_segments
from .trajio import DEFAULT_MAX_TIME_DIFF, associate_runs, load_tum
from .trajstats import resample_stride, segment_stats

# per-run layers that perfbench/tracer.py wraps at these names; batches score whole shares
from .metrics import ate, rpe  # noqa: F401
from .trajio import associate  # noqa: F401
from .trajstats import sequence_stats  # noqa: F401

__all__ = [
    "BatchOptions",
    "SequenceEntry",
    "RunManifest",
    "Failure",
    "BatchOutcome",
    "load_manifest",
    "run_batch",
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
            # the array pass takes both as int64
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        for name in ("max_time_diff", "min_tracked", "gap_ratio_min"):
            # kept as given (a numpy scalar as its Python number): summary.json echoes it
            low = 0 if name == "max_time_diff" else -math.inf
            object.__setattr__(self, name, _real(name, getattr(self, name), low))
        if not isinstance(self.index_identity_association, bool):
            raise ValidationError(
                f"index_identity_association must be true or false, "
                f"got {self.index_identity_association!r}"
            )
        if self.rpe_mode not in (RPE_MODE_FIXED, RPE_MODE_ALL_PAIRS):
            raise ValidationError(f"unknown rpe_mode {self.rpe_mode!r}")


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
    """Read and validate a manifest file (UTF-8, a leading byte-order mark dropped)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
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


def _stack(trajectories: list[Trajectory], name: str) -> np.ndarray:
    return np.concatenate([getattr(t, name) for t in trajectories])


def _score_runs(runs: list[tuple[Trajectory, Trajectory]], seq: np.ndarray, gt_xyz: np.ndarray,
                gt_q: np.ndarray, gt_lengths: np.ndarray,
                options: BatchOptions) -> list[MetricRecord | str]:
    """Each run's metrics, or the message of the error that failed it.

    Run r is (gt, est) at full rate; segment seq[r] of the strided gt stack
    (gt_xyz, gt_q, gt_lengths) is its gt. The pairs on every s-th gt pose
    are kept, as by ``Association.strided``, so dropped estimate frames
    cannot shift a run out of phase. One ATE and one RPE pass score every
    run with pairs; a run without pairs is a tracking failure (NaN metrics).
    """
    failed_record = MetricRecord(math.nan, math.nan, math.nan, 0.0)
    records: list[MetricRecord | str] = [failed_record] * len(runs)
    run, gi, ej, failed = associate_runs(runs, options.max_time_diff,
                                         options.index_identity_association)
    keep = gi % options.stride == 0
    run, gi, ej = run[keep], gi[keep] // options.stride, ej[keep]
    counts = np.bincount(run, minlength=len(runs))
    if options.rpe_mode == RPE_MODE_ALL_PAIRS:
        for r, n in enumerate(counts.tolist()):
            if refusal := _all_pairs_refusal(n):
                failed[r] = refusal
        kept = ~np.isin(run, list(failed))
        run, gi, ej = run[kept], gi[kept], ej[kept]
        counts = np.bincount(run, minlength=len(runs))
    for r, error in failed.items():
        records[r] = error
    scored = np.flatnonzero(counts)
    if not len(scored):
        return records

    ests = [est for _, est in runs]
    est_lengths = np.array([len(est) for est in ests])
    # the row of a pair's poses: its segment's first row in the stack, plus its index
    rows_gt = (np.cumsum(gt_lengths) - gt_lengths)[seq[run]] + gi
    rows_est = (np.cumsum(est_lengths) - est_lengths)[run] + ej
    gt_xyz, est_xyz = gt_xyz[rows_gt], _stack(ests, "xyz")[rows_est]
    n = counts[scored]
    ate_rmse = horn_align_segments(gt_xyz, est_xyz, n)[3]
    rpe_t, rpe_r, _, _ = rpe_segments(gt_q[rows_gt], _stack(ests, "q")[rows_est],
                                      gt_xyz, est_xyz, n, options.rpe_delta, options.rpe_mode)
    for r, k, a, t, rot, m in zip(scored.tolist(), n.tolist(), ate_rmse, rpe_t, rpe_r,
                                  gt_lengths[seq[scored]].tolist()):
        records[r] = MetricRecord(a, t, rot, k / m)
    return records


def _read_entry(entry: SequenceEntry):
    """(entry, ground truth, per estimate a Failure or (path, trajectory)), with
    the ground truth None and its Failure the one item when it cannot be read."""
    try:
        gt = load_tum(entry.gt_path)
    except (OSError, SlamEvalError) as exc:
        return entry, None, [Failure(entry.sequence_id, str(entry.gt_path), str(exc))]
    items: list = []
    for est_path in entry.estimate_paths:
        try:
            items.append((str(est_path), load_tum(est_path)))
        except (OSError, SlamEvalError) as exc:
            items.append(Failure(entry.sequence_id, str(est_path), str(exc)))
    return entry, gt, items


def _evaluate_block(block: list, options: BatchOptions) -> list:
    """The results of entries read by ``_read_entry``: one ``segment_stats`` pass
    and ``_score_runs`` over all the runs read one stack of the strided gts."""
    read = [(gt, [item[1] for item in items if not isinstance(item, Failure)])
            for _, gt, items in block if gt is not None]
    runs = [(gt, est) for gt, ests in read for est in ests]
    if not runs:  # every item is a Failure: nothing to score
        return [(None, items) for _, _, items in block]
    gts = [resample_stride(gt, options.stride) for gt, _ in read]
    seq = np.repeat(np.arange(len(read)), [len(ests) for _, ests in read])
    t, xyz, q = (_stack(gts, name) for name in ("t", "xyz", "q"))
    lengths = np.array([len(gt) for gt in gts])
    stats = iter(segment_stats(t, xyz, q, lengths))
    records = iter(_score_runs(runs, seq, xyz, q, lengths, options))

    evaluated = []
    for entry, gt, items in block:
        gt_stats = None if gt is None else next(stats)
        failures: list[Failure] = []
        done: list[MetricRecord] = []
        for item in items:
            record = item if isinstance(item, Failure) else next(records)
            if isinstance(record, str):
                record = Failure(entry.sequence_id, item[0], record)
            (failures if isinstance(record, Failure) else done).append(record)
        result = SequenceResult.from_runs(entry.sequence_id, done, gt_stats) if done else None
        evaluated.append((result, failures))
    return evaluated


# Poses read per block of a share; the array pass holds one block's trajectories.
_BLOCK_POSES = 1 << 14


def _evaluate_share(
    entries: Sequence[SequenceEntry], options: BatchOptions
) -> list[tuple[SequenceResult | None, list[Failure]]]:
    """Evaluate all runs of the entries; file problems become failures.

    Files are read one by one, in blocks of about _BLOCK_POSES poses. In
    each block all runs are associated together, and one pass over the
    strided ground truths, one ATE pass and one RPE pass score every
    sequence and run. An entry's result is the one it gets alone, bit for
    bit, whatever shares its block.
    """
    evaluated: list = []
    block: list = []
    poses = 0
    for k, entry in enumerate(entries):
        block.append(_read_entry(entry))
        _, gt, items = block[-1]
        poses += sum(len(item[1]) for item in items if not isinstance(item, Failure))
        poses += 0 if gt is None else len(gt)
        if poses >= _BLOCK_POSES or k == len(entries) - 1:
            evaluated += _evaluate_block(block, options)
            block, poses = [], 0
    return evaluated


def evaluate_sequence(
    entry: SequenceEntry, options: BatchOptions
) -> tuple[SequenceResult | None, list[Failure]]:
    """Evaluate all runs of one sequence; file problems become failures."""
    return _evaluate_share([entry], options)[0]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_is_safe() -> bool:
    """A forked child holds only the calling thread: on Linux, with no other
    Python thread that could hold a lock the child needs, fork is safe."""
    import threading

    return sys.platform == "linux" and threading.active_count() == 1


def _send_share(conn, share, options: BatchOptions) -> None:
    """In a worker: send (True, results) or (False, exception, traceback) through conn."""
    try:
        message = (True, _evaluate_share(share, options))
    except BaseException as exc:  # sent to the parent, which raises it
        import pickle
        import traceback

        message = (False, exc, traceback.format_exc())
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # one that cannot be pickled is sent as a RuntimeError naming it
            message = (False, RuntimeError(f"{type(exc).__name__}: {exc}"), message[2])
    conn.send(message)


def _evaluate_shares(shares: list, options: BatchOptions) -> list:
    """Each share's results in share order, shares[1:] from workers that run
    _send_share. Every worker is joined before this returns or raises. The
    first error, this process's own first, is raised: a share's exception
    with its type and message, or ChildProcessError for a worker that sent
    no whole result."""
    if len(shares) > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return [_evaluate_share(share, options) for share in shares]
        context = multiprocessing.get_context("fork" if _fork_is_safe() else "spawn")
    workers: list = []
    results: list = [None]
    errors: list[BaseException] = []
    try:
        for share in shares[1:]:
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(target=_send_share, args=(writer, share, options), daemon=True)
            with writer:  # closed here, so the pipe ends when the worker does
                worker.start()
            workers.append((worker, reader))
        results[0] = _evaluate_share(shares[0], options)
    except BaseException as exc:
        errors.append(exc)
    for worker, reader in workers:
        with reader:
            try:
                message = reader.recv()
            except Exception:  # EOF, a part of a frame or bytes that do not load: no whole result
                message = None
        worker.join()
        if errors:
            continue
        if message is None:
            code = worker.exitcode
            ended = f"exit status {code}" if code >= 0 else f"signal {-code}"
            errors.append(ChildProcessError(f"batch worker {worker.pid} ended by {ended} "
                                            f"without sending its result"))
        elif message[0]:
            results.append(message[1])
        else:
            exc = message[1]
            exc.__cause__ = RuntimeError(f"in batch worker {worker.pid}:\n{message[2]}")
            errors.append(exc)
    if errors:
        raise errors[0]
    return results


def run_batch(manifest: RunManifest, jobs: int = 1) -> BatchOutcome:
    """Evaluate every manifest entry and summarize the cohort.

    jobs > 1 splits the entries into min(jobs, sequences, usable CPUs)
    interleaved shares. This process evaluates the first, worker processes
    the others (see _evaluate_shares). Results are reduced in manifest
    order, and each share's numbers are those of its entries alone, so the
    report is bit-identical at every job count. A spawned worker (macOS,
    Windows, or Linux while another thread runs) imports the calling script
    again: a script must call run_batch with jobs > 1 under
    `if __name__ == "__main__":`, or each worker ends without its result.
    """
    jobs = _count("jobs", jobs)
    options = manifest.options
    entries = manifest.entries

    workers = max(1, min(jobs, len(entries), _usable_cpus()))
    shares = [entries[k::workers] for k in range(workers)]
    done = _evaluate_shares(shares, options)
    evaluated: list = [None] * len(entries)
    for k, share_results in enumerate(done):
        evaluated[k::workers] = share_results

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
