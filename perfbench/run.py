#!/usr/bin/env python3
"""The slameval benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the repository root. Each run writes the workload's inputs from
the seed, then invokes ``slameval.cli.main`` in fresh interpreters (with
``src`` on PYTHONPATH) until S seconds are spent, checks every output
against the benchmark's own reference and prints the metrics named in
BENCHMARK.json, as one JSON object on the last line of standard output.
``--trace 0`` gives the end-to-end metrics with tracing off; ``--trace 1``
gives the per-layer metrics from invocations run under ``tracer.py``.
``--quick`` runs every workload at reduced size through the same checks,
untraced and traced, and exits non-zero if any check fails.

See README.md beside this file for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # keep the benchmark's directory free of __pycache__
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 150
CLI_CODE = "import sys; from slameval.cli import main; sys.exit(main(sys.argv[1:]))"
# Prints the shared monotonic clock once slameval is imported and, when a
# manifest is given, loaded and validated.
SETUP_CODE = (
    "import sys, time\n"
    "import slameval.cli\n"
    "from slameval.batch import load_manifest\n"
    "if len(sys.argv) > 1:\n"
    "    load_manifest(sys.argv[1])\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
)

FIXED_DELTA = {"max_time_diff": 0.02, "rpe_delta": 1, "rpe_mode": "fixed-delta"}


@dataclass(frozen=True)
class Workload:
    sequences: int = 0
    runs: int = 0
    frames: int = 3000
    dropout: float = 0.0
    options: dict = field(default_factory=dict)
    jobs: int = 1
    svg: bool = False
    planted: bool = False
    synth: bool = False


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "wide_stride": Workload(
        100, 3, 200, 0.05, dict(FIXED_DELTA, stride=2), jobs=NPROC, svg=True, planted=True
    ),
    "synth_write": Workload(frames=3000, synth=True),
}
QUICK = {
    "wide_stride": replace(WORKLOADS["wide_stride"], sequences=6, frames=60),
    "synth_write": replace(WORKLOADS["synth_write"], frames=1000),
}

SYNTH_SPEC = {
    "step_mean": 0.006,
    "turn_mean": 0.025,
    "offset": (1.0, -2.0, 0.5),
    "offset_yaw": 0.7,
    "drift": (1e-4, -5e-5, 2e-5),
    "drift_rot": 1e-5,
    "noise_trans": 0.003,
    "noise_rot": 0.002,
    "dropout": 0.05,
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken harness)."""


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SLAMEVAL_JOBS", None)
    return env


def invoke(argv: list[str], env: dict, log: Path) -> Invocation:
    """Run argv to completion; CPU and peak RSS cover the process and its reaped workers."""
    with open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode, text)


def setup_sample(env: dict, args: list[str]) -> float:
    """Seconds from starting a fresh interpreter until set-up is done."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *args], env=env,
                          capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def _cohort_level(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "sequences"}


class BatchBench:
    """A `slameval batch` workload over a generated cohort.

    Before timing, `verify` runs the same files once more at stride 1 and
    --jobs 1 and compares every run's metrics with the numpy reference on
    the pairs known by construction; it then keeps a --jobs 1 summary of
    the workload itself, which every timed invocation must reproduce.
    """

    def __init__(self, w: Workload, workdir: Path, seed: int):
        self.w = w
        self.cohort = inputs.write_cohort(workdir / "in", seed, w.sequences, w.runs, w.frames,
                                          w.dropout, w.options, w.planted)
        self.pose_lines = self.cohort.pose_lines
        self.setup_args = [str(self.cohort.manifest)]
        self.reference_manifest = workdir / "in" / "manifest-stride1.json"
        doc = json.loads(self.cohort.manifest.read_text(encoding="utf-8"))
        doc["options"] = {k: v for k, v in w.options.items() if k != "stride"}
        self.reference_manifest.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        self.baseline: dict | None = None
        self.expected: dict[tuple[str, int], tuple[float, float, float, float]] | None = None
        self.facts: dict = {}

    def operations(self) -> int:
        return sum(len(seq.runs) for seq in self.cohort.sequences)

    def cli_args(self, out: Path, jobs: int) -> list[str]:
        manifest = self.cohort.manifest if self.expected is None else self.reference_manifest
        args = ["batch", str(manifest), "--out", str(out), "--jobs", str(jobs)]
        return args + ["--svg"] if self.w.svg else args

    def verify(self, runner: "Runner") -> None:
        """The untimed reference and baseline invocations."""
        self.expected = {}
        for seq in self.cohort.sequences:
            valid = [run for run in seq.runs if run.planted is None]
            for k, run in enumerate(valid):
                rpe_t, rpe_r = reference.rpe(seq.gt, run.gt_index, run.est,
                                             self.w.options["rpe_delta"])
                self.expected[seq.sequence_id, k] = (
                    reference.ate_rmse(seq.gt, run.gt_index, run.est), rpe_t, rpe_r,
                    run.gt_index.size / seq.gt.t.size)
        runner.run(1)
        self.expected = None
        runner.run(1)

    def check(self, inv: Invocation, out: Path) -> int:
        """Number of operations of this invocation whose outcome is wrong."""
        try:
            doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = None
        if inv.code != 0 or doc is None:
            return self.operations()
        baseline, expected = self.baseline, self.expected
        if baseline is None and expected is None:
            self.baseline = doc
        base_records = None
        if expected is None and baseline is not None:
            if _cohort_level(doc) != _cohort_level(baseline):
                return self.operations()
            base_records = {s["sequence_id"]: s["runs"] for s in baseline["sequences"]}

        failures = Counter(Path(f["path"]).name for f in doc["failures"])
        records = {s["sequence_id"]: s["runs"] for s in doc["sequences"]}
        bad = 0
        tracked = []
        for seq in self.cohort.sequences:
            valid = [run for run in seq.runs if run.planted is None]
            got = records.get(seq.sequence_id, [])
            for run in seq.runs:
                if run.planted is not None:
                    bad += failures[run.path.name] != 1
                    continue
                k = next(i for i, v in enumerate(valid) if v is run)
                if len(got) != len(valid) or failures[run.path.name]:
                    bad += 1
                    continue
                rec = got[k]
                values = (rec["ate_rmse"], rec["rpe_trans"], rec["rpe_rot_rad"])
                ok = all(v is not None and math.isfinite(v) for v in values)
                ok = ok and 0.0 < rec["tracked_fraction"] <= 1.0
                if expected is not None:
                    ate, rpe_t, rpe_r, frac = expected[seq.sequence_id, k]
                    ok = ok and reference.close(rec["ate_rmse"], ate)
                    ok = ok and reference.close(rec["rpe_trans"], rpe_t)
                    ok = ok and reference.close(rec["rpe_rot_rad"], rpe_r)
                    ok = ok and rec["tracked_fraction"] == frac
                if base_records is not None:
                    ok = ok and rec == base_records[seq.sequence_id][k]
                bad += not ok
                tracked.append(rec["tracked_fraction"])
        if expected is None:
            self.facts = {
                "success_rate": doc["success_rate"],
                "median_tracked_fraction": statistics.median(tracked) if tracked else None,
            }
        return bad


class SynthBench:
    """`slameval synth` writing one gt/estimate pair per invocation."""

    def __init__(self, w: Workload, workdir: Path, seed: int):
        self.spec = dict(SYNTH_SPEC, frames=w.frames)
        self.seed = seed
        self.pose_lines = 2 * w.frames - int(round(w.frames * SYNTH_SPEC["dropout"]))
        self.setup_args: list[str] = []
        self.facts: dict = {}

    def operations(self) -> int:
        return 1

    def cli_args(self, out: Path, jobs: int) -> list[str]:
        s = self.spec
        vec = lambda v: ",".join(repr(x) for x in v)
        return [
            "synth", "--gt-out", str(out / "gt.txt"), "--est-out", str(out / "est.txt"),
            "--seed", str(self.seed), "--frames", str(s["frames"]),
            "--step-mean", repr(s["step_mean"]), "--turn-mean", repr(s["turn_mean"]),
            "--offset", vec(s["offset"]), "--offset-yaw", repr(s["offset_yaw"]),
            "--drift", vec(s["drift"]), "--drift-rot", repr(s["drift_rot"]),
            "--noise-trans", repr(s["noise_trans"]), "--noise-rot", repr(s["noise_rot"]),
            "--dropout", repr(s["dropout"]),
        ]

    def check(self, inv: Invocation, out: Path) -> int:
        try:
            gt_text = (out / "gt.txt").read_text(encoding="utf-8")
            est_text = (out / "est.txt").read_text(encoding="utf-8")
        except OSError:
            return 1
        if inv.code != 0:
            return 1
        problems = reference.synth_problems(gt_text, est_text, self.spec)
        self.facts = {"bytes_written": len(gt_text) + len(est_text), "problems": problems}
        return 1 if problems else 0


class Runner:
    """Invokes one workload repeatedly and tallies correctness."""

    def __init__(self, bench, workdir: Path):
        self.bench = bench
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def run(self, jobs: int, traced: bool = False) -> tuple[Invocation, Path | None]:
        self.count += 1
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spans = self.workdir / f"spans-{self.count}.json" if traced else None
        head = [sys.executable, str(HERE / "tracer.py"), str(spans)] if traced \
            else [sys.executable, "-c", CLI_CODE]
        inv = invoke(head + self.bench.cli_args(out, jobs), self.env,
                     self.workdir / f"stderr-{self.count}.txt")
        bad = self.bench.check(inv, out)
        if bad:
            print(f"check failed ({bad} of {self.bench.operations()} operations, exit "
                  f"{inv.code}): {inv.stderr[-2000:]}", file=sys.stderr)
        self.attempted += self.bench.operations()
        self.failed += bad
        return inv, spans

    def setup(self) -> float:
        return setup_sample(self.env, self.bench.setup_args)


def keep_going(start: float, seconds: float, done: int, cycle: list[float], minimum: int) -> bool:
    """Another cycle fits in the run, or the minimum count is not reached yet."""
    if done < minimum:
        return True
    return time.perf_counter() - start + statistics.median(cycle) <= seconds


def end_to_end(runner: Runner, w: Workload, seconds: float, minimum: int) -> dict:
    start = time.perf_counter()
    invocations: list[Invocation] = []
    setups: list[float] = []
    cycle: list[float] = []
    while keep_going(start, seconds, len(invocations), cycle, minimum):
        t0 = time.perf_counter()
        invocations.append(runner.run(w.jobs)[0])
        setups.append(runner.setup())
        cycle.append(time.perf_counter() - t0)
    med = statistics.median
    print("samples " + json.dumps({"wall_s": [i.wall for i in invocations], "setup_s": setups}))
    return {
        "setup_s": med(setups),
        "poses_per_s": med([runner.bench.pose_lines / i.wall for i in invocations]),
        "cpu_s": med([i.cpu for i in invocations]),
        "peak_rss_mb": med([i.rss_mb for i in invocations]),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }


def span_summary(spans: list) -> tuple[dict, list[float]]:
    """Per-name calls, self seconds and summed counts; evaluate_sequence durations."""
    child = [0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg: dict = {}
    durations = []
    for (name, _, t0, t1, counts), inner in zip(spans, child):
        a = agg.setdefault(name, Counter())
        a["calls"] += 1
        a["s"] += (t1 - t0 - inner) / 1e9
        a.update(counts or {})
        if name == "batch.evaluate_sequence":
            durations.append((t1 - t0) / 1e6)
    return agg, durations


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def tail(values: list[float]) -> float:
    """The highest percentile with at least 10 samples beyond it (the median if none)."""
    return percentile(values, max(0.5, 1.0 - 10.0 / len(values)))


def per_layer(runner: Runner, w: Workload, seconds: float, spans_out: Path) -> dict:
    """Traced cycles; one is enough, since the counts are exact and no time is gated."""
    start = time.perf_counter()
    untraced: list[float] = []
    parallel: list[float] = []
    traced: list[float] = []
    summaries = []
    durations: list[float] = []
    serial: list[float] = []
    cycle: list[float] = []
    while keep_going(start, seconds, len(traced), cycle, 1):
        t0 = time.perf_counter()
        untraced.append(runner.run(1)[0].wall)
        inv, spans_path = runner.run(1, traced=True)
        traced.append(inv.wall)
        if not spans_path.is_file():
            raise BenchError(f"the traced invocation wrote no spans: {inv.stderr[-2000:]}")
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        if not summaries:
            shutil.copy(spans_path, spans_out)
        summary, evals = span_summary(spans)
        summaries.append(summary)
        durations += evals
        serial.append(sum(evals))
        if w.jobs > 1:
            parallel.append(runner.run(w.jobs)[0].wall)
        cycle.append(time.perf_counter() - t0)

    med = statistics.median
    metrics = {}
    for name in tracer.SPAN_NAMES:
        totals = [s.get(name, Counter()) for s in summaries]
        for key in set().union(["calls", "s"], *totals):
            metrics[f"{name}.{key}"] = med([t[key] for t in totals])
    matched = metrics.get("trajio.associate.matched", 0)
    metrics["trajio.associate.match_ratio"] = (
        matched / metrics["trajio.associate.est_poses"] if matched else 0.0)
    metrics["batch.failures"] = metrics.get("batch.run_batch.failures", 0)
    metrics["batch.run_batch.self_s"] = metrics["batch.run_batch.s"]
    metrics["batch.evaluate_sequence.n"] = len(durations)
    metrics["batch.evaluate_sequence.p50_ms"] = percentile(durations, 0.5) if durations else 0.0
    metrics["batch.evaluate_sequence.tail_ms"] = tail(durations) if durations else 0.0
    metrics["batch.parallel_eff"] = med(serial) / 1e3 / (w.jobs * med(parallel or untraced))
    metrics["trace.overhead_frac"] = med(traced) / med(untraced) - 1.0
    return metrics


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def declared_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def run_one(name: str, w: Workload, seed: int, seconds: float, trace: bool,
            minimum: int = MIN_INVOCATIONS) -> dict:
    """Run one workload and return the result object (the last output line)."""
    end_to_end_spec, per_layer_spec = declared_metrics()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        bench = (SynthBench if w.synth else BatchBench)(w, workdir, seed)
        runner = Runner(bench, workdir)
        runner.setup()  # compiles bytecode and warms the file cache; not a sample
        if isinstance(bench, BatchBench):
            bench.verify(runner)
        if trace:
            values = per_layer(runner, w, seconds, WORK / f"spans-{name}-seed{seed}.json")
        else:
            values = end_to_end(runner, w, seconds, minimum)
        if trace:
            # A count a workload never produces (no save_tum call in a batch) reads 0.
            values = {**{m["name"]: 0.0 for m in per_layer_spec
                         if m["name"].rsplit(".", 1)[0] in tracer.SPAN_NAMES}, **values}
        declared = per_layer_spec if trace else end_to_end_spec
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in declared}
        facts = dict(machine_facts(), workload=name, seed=seed, jobs=w.jobs,
                     pose_lines=bench.pose_lines, invocations=runner.count, **bench.facts)
        if isinstance(bench, BatchBench):
            facts["input_bytes"] = bench.cohort.bytes
        print("facts " + json.dumps(facts))
        for m, v in metrics.items():
            print(f"{m:<40} {v['value']:>16.6g} {v['unit']}")
        return {"correct": runner.failed == 0, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload at reduced size, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "slameval" / "__init__.py").is_file():
        print(f"error: no slameval sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        ok = True
        for name, w in QUICK.items():
            for trace in (False, True):
                result = run_one(name, w, args.seed, 0.0, trace, minimum=1)
                print(json.dumps(result))
                ok = ok and result["correct"]
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    try:
        result = run_one(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
