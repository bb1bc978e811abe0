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
import io
import math
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

from .cohort import METRIC_FIELDS, MetricRecord, SequenceResult
from .svgplot import bar_chart, cdf_chart
from .trajio import dump_json
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


def _record_to_dict(rec: MetricRecord) -> dict:
    return {
        "ate_rmse": rec.ate_rmse,
        "rpe_trans": rec.rpe_trans,
        "rpe_rot_rad": rec.rpe_rot,
        "rpe_rot_deg": math.degrees(rec.rpe_rot),  # NaN and inf pass through, written as null
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
    from .batch import MANIFEST_SCHEMA_VERSION  # here: the pair commands' dump_json needs no batch

    summary = outcome.summary
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "manifest_schema_version": MANIFEST_SCHEMA_VERSION,
        "options": asdict(options),
        "evaluated_sequences": outcome.evaluated_count,
        "failures": [asdict(f) for f in outcome.failures],
        # the cohort keys of a batch that evaluated nothing
        "success_rate": None,
        "excluded_sequences": [],
        "cohort_attributes": None,
        "gaps": {m: None for m in METRIC_FIELDS},
        "correlations": [],
        "sequences": [],
    }
    if summary is not None:
        doc.update({
            "success_rate": summary.success_rate,
            "excluded_sequences": list(summary.excluded),
            "cohort_attributes": _stats_to_dict(cohort_stats([r.stats for r in summary.results])),
            "gaps": {
                m: (None if g is None else {"threshold": g.threshold, "ratio": g.ratio})
                for m, g in summary.gap.items()
            },
            "correlations": [
                {"attribute": a, "metric": m, "spearman_rho": rho}
                for a, m, rho in summary.correlations
            ],
            "sequences": [_sequence_to_dict(r) for r in summary.results],
        })
    return doc


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _bundle(outcome: BatchOutcome, options: BatchOptions, svg: bool) -> dict[str, str]:
    """Every bundle file's text by file name, in the order they are written."""
    files = {"summary.json": dump_json(summary_to_dict(outcome, options))}
    summary = outcome.summary
    if summary is None:
        return files

    for metric in METRIC_FIELDS:
        table, bars = summary.cdf_tables[metric], summary.sorted_bars[metric]
        files[f"cdf_{metric}.csv"] = _csv(
            ["threshold", "fraction"], [[repr(t), repr(f)] for t, f in table]
        )
        files[f"bars_{metric}.csv"] = _csv(
            ["rank", "value"], [[i + 1, repr(v)] for i, v in enumerate(bars)]
        )
        if svg:
            label = _METRIC_LABELS[metric]
            files[f"cdf_{metric}.svg"] = cdf_chart(table, f"Cumulative {label}", label)
            files[f"bars_{metric}.svg"] = bar_chart(bars, f"Sorted {label}", label)

    files["correlations.csv"] = _csv(
        ["attribute", "metric", "spearman_rho"],
        [[a, m, repr(rho)] for a, m, rho in summary.correlations],
    )
    return files


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
    files = _bundle(outcome, options, svg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bundle.", dir=out, ignore_cleanup_errors=True) as tmp:
        staging = Path(tmp)
        for name, text in files.items():
            (staging / name).write_text(text, encoding="utf-8")
        for name in files:
            os.replace(staging / name, out / name)
    for name in _BUNDLE_NAMES.difference(files):
        (out / name).unlink(missing_ok=True)
    return [out / name for name in files]
