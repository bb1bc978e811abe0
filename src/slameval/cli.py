"""Command-line interface.

Subcommands:

    slameval ate   GT EST        absolute trajectory error of one run
    slameval rpe   GT EST        relative pose error of one run
    slameval stats FILE...       motion-attribute table of trajectories
    slameval batch MANIFEST      evaluate a whole cohort, write a report bundle
    slameval synth               generate a ground-truth / estimate file pair

Exit codes: 0 success, 2 bad input (parse or validation failure),
3 empty association (no timestamp pairs matched).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

# Before numpy loads, unless the user chose: OpenBLAS would start a thread
# per extra core that spins after each call, for 3x3 SVDs and (3 x n)(n x 3)
# products. The command's parallelism is --jobs processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__, _lazy_getattr  # noqa: E402
from .errors import EmptyAssociationError, SlamEvalError, ValidationError  # noqa: E402
from .geom3d import Pose, Rotation, _count, _real  # noqa: E402
from .trajio import (DEFAULT_MAX_TIME_DIFF, RPE_MODE_ALL_PAIRS, RPE_MODE_FIXED,  # noqa: E402
                     associate, associate_by_index, dump_json, load_tum, save_tum)

# Every other name a command runs is imported from its home module on first
# use (PEP 562), so each command loads only the modules it runs. Commands
# reach these names through ``_cli``: a bare global name never reaches the
# module __getattr__, and a name replaced on this module (as the tracer of
# perfbench does) is called as replaced.
__getattr__ = _lazy_getattr(globals(), {
    "batch": ["load_manifest", "run_batch"],
    "metrics": ["_all_pairs_refusal", "ate", "rpe"],
    "report": ["write_report_bundle"],
    "synth": ["PerturbationSpec", "perturb", "random_trajectory"],
    "trajstats": ["cohort_stats", "resample_stride", "sequence_stats"],
})
_cli = sys.modules[__name__]


EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_EMPTY_ASSOCIATION = 3


def _add_pair_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("gt", help="ground-truth trajectory file (TUM format)")
    p.add_argument("est", help="estimated trajectory file (TUM format)")
    p.add_argument(
        "--max-diff",
        type=float,
        default=DEFAULT_MAX_TIME_DIFF,
        help="association tolerance in seconds (default %(default)s)",
    )
    p.add_argument(
        "--index-assoc",
        action="store_true",
        help="match poses by index instead of timestamps (per-frame datasets)",
    )
    p.add_argument("--json", metavar="PATH", help="also write a machine-readable report")


def _load_pair(args):
    gt = load_tum(args.gt)
    est = load_tum(args.est)
    return gt, est, (associate_by_index(gt, est) if args.index_assoc
                     else associate(gt, est, args.max_diff))


def _cmd_ate(args) -> int:
    gt, est, assoc = _load_pair(args)
    report = _cli.ate(gt, est, assoc)
    print(f"compared_pairs      {len(assoc)}")
    print(f"ate.rmse            {report.rmse:.6f} m")
    print(f"ate.mean            {report.mean:.6f} m")
    print(f"ate.median          {report.median:.6f} m")
    if args.json:
        doc = {
            "schema_version": 1,
            "metric": "ate",
            "pairs": len(assoc),
            "rmse": report.rmse,
            "mean": report.mean,
            "median": report.median,
        }
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(dump_json(doc))
    return EXIT_OK


def _cmd_rpe(args) -> int:
    gt, est, assoc = _load_pair(args)
    if args.mode == RPE_MODE_ALL_PAIRS and not args.allow_large and (
            refusal := _cli._all_pairs_refusal(len(assoc), "--allow-large")):
        raise ValidationError(refusal)
    report = _cli.rpe(gt, est, assoc, args.delta, args.mode, allow_large=args.allow_large)
    rot_deg = math.degrees(report.rot_mean)
    print(f"compared_pairs      {len(report.per_pair_trans)} (mode={report.mode})")
    print(f"rpe.trans_rmse      {report.trans_rmse:.6f} m")
    print(f"rpe.rot_mean        {rot_deg:.6f} deg ({report.rot_mean:.9f} rad)")
    if args.json:
        doc = {
            "schema_version": 1,
            "metric": "rpe",
            "mode": report.mode,
            "delta": report.delta,
            "pairs": len(report.per_pair_trans),
            "trans_rmse": report.trans_rmse,
            "rot_mean_rad": report.rot_mean,
            "rot_mean_deg": rot_deg,
        }
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(dump_json(doc))
    return EXIT_OK


def _cmd_stats(args) -> int:
    rows = []
    for path in args.files:
        traj = _cli.resample_stride(load_tum(path), args.stride)
        rows.append((traj.traj_id or path, _cli.sequence_stats(traj)))
    if len(rows) > 1:
        rows.append(("(cohort mean)", _cli.cohort_stats([stats for _, stats in rows])))

    header = f"{'dataset':<28} {'m.vel.p.f':>12} {'m.ang.v.p.f':>12} {'m.frames':>10}"
    print(header)
    for name, s in rows:
        print(
            f"{name:<28} {s.mean_vel_per_frame:>12.6f} "
            f"{s.mean_ang_vel_per_frame:>12.4f} {s.frame_count:>10.1f}"
        )
    return EXIT_OK


def _cmd_batch(args) -> int:
    manifest = _cli.load_manifest(args.manifest)
    if args.stride is not None:
        manifest = replace(manifest, options=replace(manifest.options, stride=args.stride))
    options = manifest.options

    jobs = args.jobs
    if jobs is None:
        env = os.environ.get("SLAMEVAL_JOBS", "1")
        try:
            jobs = int(env)
        except ValueError:
            raise ValidationError(f"SLAMEVAL_JOBS must be an integer, got {env!r}") from None
    outcome = _cli.run_batch(manifest, jobs=jobs)

    files = _cli.write_report_bundle(outcome, options, args.out, svg=args.svg)
    for failure in outcome.failures:
        print(f"failure: {failure.sequence_id}: {failure.path}: {failure.error}", file=sys.stderr)
    print(f"evaluated {outcome.evaluated_count} of {len(manifest.entries)} sequences")
    if outcome.summary is not None:
        print(f"success_rate        {outcome.summary.success_rate:.4f}")
        for metric, gap in outcome.summary.gap.items():
            if gap is not None:
                print(f"gap[{metric}]       threshold {gap.threshold:.6g} (ratio {gap.ratio:.3g})")
    print(f"report bundle: {len(files)} files in {args.out}")
    if outcome.evaluated_count == 0:
        print("error: no sequence could be evaluated", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK


def _parse_vec3(text: str, name: str) -> tuple[float, float, float]:
    try:
        values = tuple(map(float, text.replace(",", " ").split()))
    except ValueError:
        values = ()
    if len(values) != 3 or not all(map(math.isfinite, values)):
        raise ValidationError(f"{name} expects 3 comma-separated finite numbers, got {text!r}")
    return values  # type: ignore[return-value]


def _cmd_synth(args) -> int:
    if _count("--frames", args.frames) < 2:
        raise ValidationError(f"--frames must be >= 2, got {args.frames}")
    _real("--offset-yaw", args.offset_yaw)
    gt = _cli.random_trajectory(args.seed, args.frames, args.step_mean, args.turn_mean)
    # either flag makes the offset; the other defaults to zero
    global_transform = None if args.offset is None and args.offset_yaw == 0.0 else Pose(
        Rotation.from_axis_angle([0.0, 0.0, 1.0], args.offset_yaw),
        np.array(_parse_vec3("0,0,0" if args.offset is None else args.offset, "--offset")))
    spec = _cli.PerturbationSpec(
        global_transform=global_transform,
        drift_per_frame=_parse_vec3(args.drift, "--drift"),
        drift_rot_per_frame=args.drift_rot,
        noise_sigma_trans=args.noise_trans,
        noise_sigma_rot=args.noise_rot,
        dropout_fraction=args.dropout,
        seed=args.seed,
    )
    est = _cli.perturb(gt, spec)
    save_tum(gt, args.gt_out)
    save_tum(est, args.est_out)
    print(f"wrote {args.gt_out} ({len(gt)} poses) and {args.est_out} ({len(est)} poses)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slameval",
        description="Trajectory evaluation toolkit: ATE/RPE metrics and robustness statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ate = sub.add_parser("ate", help="absolute trajectory error")
    _add_pair_arguments(p_ate)
    p_ate.set_defaults(func=_cmd_ate)

    p_rpe = sub.add_parser("rpe", help="relative pose error")
    _add_pair_arguments(p_rpe)
    p_rpe.add_argument("--delta", type=int, default=1, help="frame interval (default 1)")
    p_rpe.add_argument(
        "--mode",
        choices=[RPE_MODE_FIXED, RPE_MODE_ALL_PAIRS],
        default=RPE_MODE_FIXED,
    )
    p_rpe.add_argument(
        "--allow-large",
        action="store_true",
        help="lift the sequence-length cap of all-pairs mode",
    )
    p_rpe.set_defaults(func=_cmd_rpe)

    p_stats = sub.add_parser("stats", help="trajectory attribute table")
    p_stats.add_argument("files", nargs="+", help="trajectory files (TUM format)")
    p_stats.add_argument("--stride", type=int, default=1, help="keep every s-th frame first")
    p_stats.set_defaults(func=_cmd_stats)

    p_batch = sub.add_parser("batch", help="evaluate a manifest of sequences")
    p_batch.add_argument("manifest", help="run manifest (JSON)")
    p_batch.add_argument("--out", required=True, help="output directory for the report bundle")
    p_batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers (default: $SLAMEVAL_JOBS or 1); any count, same report",
    )
    p_batch.add_argument("--stride", type=int, default=None, help="override the manifest stride")
    p_batch.add_argument("--svg", action="store_true", help="also write SVG charts")
    p_batch.set_defaults(func=_cmd_batch)

    p_synth = sub.add_parser("synth", help="generate a synthetic gt/estimate pair")
    p_synth.add_argument("--gt-out", required=True, help="output path for ground truth")
    p_synth.add_argument("--est-out", required=True, help="output path for the estimate")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--frames", type=int, default=1000)
    p_synth.add_argument("--step-mean", type=float, default=0.006, help="meters per frame")
    p_synth.add_argument("--turn-mean", type=float, default=0.025, help="radians per frame")
    p_synth.add_argument("--drift", default="0,0,0", help="translation drift per frame, 'dx,dy,dz'")
    p_synth.add_argument("--drift-rot", type=float, default=0.0, help="yaw drift per frame, radians")
    p_synth.add_argument("--noise-trans", type=float, default=0.0, help="translation noise sigma, m")
    p_synth.add_argument("--noise-rot", type=float, default=0.0, help="rotation noise sigma, rad")
    p_synth.add_argument("--dropout", type=float, default=0.0, help="fraction of frames to drop")
    p_synth.add_argument("--offset", default=None, help="global rigid offset 'tx,ty,tz'")
    p_synth.add_argument("--offset-yaw", type=float, default=0.0, help="global yaw offset, radians")
    p_synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptyAssociationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_ASSOCIATION
    except (SlamEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
