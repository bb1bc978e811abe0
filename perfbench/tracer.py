"""Run one `slameval` command with spans around each layer's public functions.

Usage::

    python tracer.py SPANS_JSON CLI_ARG...

Every wrapped function is replaced at the name its caller looks it up by
(``slameval.batch`` imports ``load_tum`` into its own namespace, so that
is where the wrapper goes). Spans are kept in memory as
[name, parent, start_ns, end_ns, counts] and written to SPANS_JSON when
the command returns. Nothing under ``src/`` is modified; batches must run
at ``--jobs 1`` so that every span is recorded in this process.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a traced call; count(args, result) gives the span's counts."""
        fn = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        setattr(owner, attr, traced)


def _count_bundle(args, result):
    return {"bytes": sum(p.stat().st_size for p in result)}


# (owner under slameval, attribute, span name, counts of one call from its args and result)
WRAPS = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_manifest", "batch.load_manifest", None),
    ("cli", "run_batch", "batch.run_batch", lambda a, r: {"failures": len(r.failures)}),
    ("cli", "write_report_bundle", "report.write_report_bundle", _count_bundle),
    ("cli", "random_trajectory", "synth.random_trajectory", None),
    ("cli", "perturb", "synth.perturb", None),
    ("cli", "save_tum", "trajio.save_tum", lambda a, r: {"bytes": Path(a[1]).stat().st_size}),
    ("batch", "evaluate_sequence", "batch.evaluate_sequence", None),
    ("batch", "load_tum", "trajio.load_tum", lambda a, r: {"lines": len(r)}),
    ("batch", "associate", "trajio.associate",
     lambda a, r: {"matched": len(r), "est_poses": len(a[1])}),
    ("batch", "resample_stride", "trajstats.resample_stride", None),
    ("batch", "sequence_stats", "trajstats.sequence_stats", None),
    ("batch", "ate", "metrics.ate", None),
    ("batch", "rpe", "metrics.rpe", lambda a, r: {"terms": len(r.per_pair_trans)}),
    ("batch", "summarize", "cohort.summarize", None),
    ("metrics", "horn_align", "align.horn_align", None),
    ("geom3d.Trajectory", "quaternions", "geom3d.Trajectory.arrays", None),
    ("geom3d.Trajectory", "translations", "geom3d.Trajectory.arrays", None),
    ("report", "cdf_chart", "svgplot.chart", None),
    ("report", "bar_chart", "svgplot.chart", None),
]
SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS})


def install(tracer: Tracer) -> None:
    for owner_path, attr, name, count in WRAPS:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"slameval.{module}")
        if cls:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, count)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from slameval import cli

    try:
        return cli.main(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
