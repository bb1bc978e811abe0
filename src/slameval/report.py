"""Report bundle serialization.

A batch run produces one directory with:

- ``summary.json``      the machine-readable cohort summary
- ``cdf_<metric>.csv``  threshold/fraction tables, one per metric
- ``bars_<metric>.csv`` sorted per-sequence values, one per metric
- ``correlations.csv``  attribute/metric Spearman rho rows
- ``cdf_<metric>.svg``, ``bars_<metric>.svg``  optional charts

Everything is emitted deterministically: keys sorted, floats written
via repr (shortest round-trip form), NaN mapped to null, a trailing
newline everywhere. Re-reading ``summary.json`` and re-serializing it
with `dump_json` reproduces the bytes exactly.

Angular metric values appear in radians and degrees side by side;
the file convention for which unit a bare number means varies between
tools, so the report spells both out.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import asdict
from pathlib import Path

from .batch import BatchOptions, BatchOutcome, MANIFEST_SCHEMA_VERSION
from .cohort import METRIC_FIELDS, MetricRecord, SequenceResult
from .svgplot import bar_chart, cdf_chart
from .trajstats import SequenceStats, cohort_stats

__all__ = ["dump_json", "summary_to_dict", "write_report_bundle", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1

_METRIC_LABELS = {
    "ate_rmse": "ATE rmse [m]",
    "rpe_trans": "RPE translation rmse [m]",
    "rpe_rot": "RPE rotation mean [rad]",
}

# every file name a bundle can hold
_BUNDLE_NAMES = frozenset(
    ["summary.json", "correlations.csv"]
    + [f"{kind}_{m}.{ext}" for kind in ("cdf", "bars") for m in METRIC_FIELDS for ext in ("csv", "svg")]
)


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
    return json.dumps(_clean(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _record_to_dict(rec: MetricRecord) -> dict:
    return {
        "ate_rmse": rec.ate_rmse,
        "rpe_trans": rec.rpe_trans,
        "rpe_rot_rad": rec.rpe_rot,
        "rpe_rot_deg": math.degrees(rec.rpe_rot) if math.isfinite(rec.rpe_rot) else math.nan,
        "tracked_fraction": rec.tracked_fraction,
    }


def _stats_to_dict(stats: SequenceStats) -> dict:
    d = asdict(stats)
    d["mean_vel_per_sec"] = stats.mean_vel_per_sec
    return d


def _sequence_to_dict(result: SequenceResult) -> dict:
    return {
        "sequence_id": result.sequence_id,
        "stats": _stats_to_dict(result.stats),
        "median": _record_to_dict(result.median_record),
        "runs": [_record_to_dict(r) for r in result.runs],
    }


def summary_to_dict(outcome: BatchOutcome, options: BatchOptions) -> dict:
    """The summary.json payload for a batch outcome."""
    summary = outcome.summary
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "manifest_schema_version": MANIFEST_SCHEMA_VERSION,
        "options": asdict(options),
        "evaluated_sequences": outcome.evaluated_count,
        "failures": [asdict(f) for f in outcome.failures],
    }
    if summary is None:
        doc.update(
            {
                "success_rate": None,
                "excluded_sequences": [],
                "cohort_attributes": None,
                "gaps": {m: None for m in METRIC_FIELDS},
                "correlations": [],
                "sequences": [],
            }
        )
        return doc

    doc.update(
        {
            "success_rate": summary.success_rate,
            "excluded_sequences": list(summary.excluded),
            "cohort_attributes": _stats_to_dict(
                cohort_stats([r.stats for r in summary.results])
            ),
            "gaps": {
                m: (None if g is None else {"threshold": g.threshold, "ratio": g.ratio})
                for m, g in summary.gap.items()
            },
            "correlations": [
                {"attribute": a, "metric": m, "spearman_rho": rho}
                for a, m, rho in summary.correlations
            ],
            "sequences": [_sequence_to_dict(r) for r in summary.results],
        }
    )
    return doc


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report_bundle(
    outcome: BatchOutcome,
    options: BatchOptions,
    out_dir: str | Path,
    svg: bool = False,
) -> list[Path]:
    """Write the bundle into out_dir, replacing any bundle there; returns the files written.

    The files are written into a hidden staging directory inside out_dir
    and then moved over their names with os.replace; after that, the files
    of an earlier bundle that this one does not write again (such as the
    charts after a run without svg) are removed. A failed write leaves the
    earlier bundle whole, and files with other names are never touched.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staging = out / f".bundle.{os.getpid()}.{os.urandom(4).hex()}"
    staging.mkdir()
    try:
        staged = _write_files(outcome, options, staging, svg)
        for path in staged:
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    for name in _BUNDLE_NAMES.difference(path.name for path in staged):
        (out / name).unlink(missing_ok=True)
    return [out / path.name for path in staged]


def _write_files(outcome: BatchOutcome, options: BatchOptions, out_dir: Path, svg: bool) -> list[Path]:
    written: list[Path] = []

    summary_path = out_dir / "summary.json"
    summary_path.write_text(dump_json(summary_to_dict(outcome, options)), encoding="utf-8")
    written.append(summary_path)

    summary = outcome.summary
    if summary is None:
        return written

    for metric in METRIC_FIELDS:
        cdf_path = out_dir / f"cdf_{metric}.csv"
        _write_csv(
            cdf_path,
            ["threshold", "fraction"],
            [[repr(t), repr(f)] for t, f in summary.cdf_tables[metric]],
        )
        written.append(cdf_path)

        bars_path = out_dir / f"bars_{metric}.csv"
        _write_csv(
            bars_path,
            ["rank", "value"],
            [[i + 1, repr(v)] for i, v in enumerate(summary.sorted_bars[metric])],
        )
        written.append(bars_path)

        if svg:
            label = _METRIC_LABELS[metric]
            cdf_svg = out_dir / f"cdf_{metric}.svg"
            cdf_svg.write_text(
                cdf_chart(summary.cdf_tables[metric], f"Cumulative {label}", label),
                encoding="utf-8",
            )
            written.append(cdf_svg)
            bars_svg = out_dir / f"bars_{metric}.svg"
            bars_svg.write_text(
                bar_chart(summary.sorted_bars[metric], f"Sorted {label}", label),
                encoding="utf-8",
            )
            written.append(bars_svg)

    corr_path = out_dir / "correlations.csv"
    _write_csv(
        corr_path,
        ["attribute", "metric", "spearman_rho"],
        [[a, m, repr(rho)] for a, m, rho in summary.correlations],
    )
    written.append(corr_path)
    return written
