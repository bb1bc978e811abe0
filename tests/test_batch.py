import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slameval import batch
from slameval.batch import BatchOptions, load_manifest, run_batch
from slameval.cli import EXIT_BAD_INPUT, EXIT_OK, main
from slameval.errors import EmptyAssociationError, SlamEvalError, ValidationError
from slameval.geom3d import Trajectory
from slameval.metrics import ate, rpe
from slameval.report import dump_json, summary_to_dict, write_report_bundle
from slameval.synth import PerturbationSpec, perturb, random_trajectory
from slameval.trajio import associate, associate_by_index, load_tum, save_tum
from slameval.trajstats import resample_stride

import conftest
from conftest import (NOT_COUNTS, NOT_REALS, NUMPY_REALS, build_synth_cohort, count_error,
                      real_error, write_manifest)


def _small_cohort(root, n_seq=4, runs=2, frames=120):
    specs = []
    for i in range(n_seq):
        gt = random_trajectory(seed=100 + i, n=frames, step_mean=0.006, turn_mean=0.02)
        run_specs = [
            PerturbationSpec(noise_sigma_trans=0.002, seed=1000 + i * 10 + k)
            for k in range(runs)
        ]
        specs.append((f"seq_{i:02d}", gt, run_specs))
    return build_synth_cohort(root, specs)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    path = _small_cohort(tmp_path)
    manifest = load_manifest(path)
    assert len(manifest.entries) == 4
    assert manifest.options == BatchOptions()
    assert manifest.entries[0].gt_path.exists()


def test_manifest_rejects_duplicates(tmp_path):
    path = write_manifest(
        tmp_path / "m.json",
        [
            {"sequence_id": "a", "gt_path": "g.txt", "estimate_paths": ["e.txt"]},
            {"sequence_id": "a", "gt_path": "g.txt", "estimate_paths": ["e.txt"]},
        ],
    )
    with pytest.raises(ValidationError):
        load_manifest(path)


def test_manifest_rejects_missing_estimates(tmp_path):
    path = write_manifest(
        tmp_path / "m.json",
        [{"sequence_id": "a", "gt_path": "g.txt", "estimate_paths": []}],
    )
    with pytest.raises(ValidationError):
        load_manifest(path)


def test_manifest_rejects_unknown_options(tmp_path):
    path = write_manifest(
        tmp_path / "m.json",
        [{"sequence_id": "a", "gt_path": "g.txt", "estimate_paths": ["e.txt"]}],
        not_an_option=1,
    )
    with pytest.raises(ValidationError):
        load_manifest(path)


_ENTRY = {"sequence_id": "a", "gt_path": "g.txt", "estimate_paths": ["e.txt"]}


@pytest.mark.parametrize("sequences, options", [
    ([dict(_ENTRY, estimate_paths="e.txt")], {}),
    ([dict(_ENTRY, estimate_paths=["e.txt", 3])], {}),
    ([_ENTRY], {"rpe_delta": "2"}),
    ([_ENTRY], {"rpe_delta": True}),
    ([_ENTRY], {"rpe_delta": 1.5}),
    ([_ENTRY], {"stride": "2"}),
    ([_ENTRY], {"stride": True}),
    ([_ENTRY], {"stride": 1.5}),
    ([_ENTRY], {"max_time_diff": math.nan}),
    ([_ENTRY], {"max_time_diff": math.inf}),
    ([_ENTRY], {"max_time_diff": "0.02"}),
    ([_ENTRY], {"min_tracked": math.nan}),
    ([_ENTRY], {"min_tracked": None}),
    ([_ENTRY], {"gap_ratio_min": -math.inf}),
    ([_ENTRY], {"gap_ratio_min": False}),
    ([_ENTRY], {"index_identity_association": "yes"}),
    ([_ENTRY], [["stride", 2]]),
    (5, {}),
    ([_ENTRY], {"gap_ratio_min": 10**400}),
    ([_ENTRY], {"rpe_delta": 0}),
    ([_ENTRY], {"rpe_delta": 2**63}),
    ([_ENTRY], {"stride": -1}),
    ([_ENTRY], {"stride": 2.0}),
    ([_ENTRY], {"max_time_diff": True}),
    ([_ENTRY], {"max_time_diff": 10**400}),
    ([_ENTRY], {"max_time_diff": -1e-300}),
    ([_ENTRY], {"min_tracked": "0.9"}),
])
def test_manifest_rejects_bad_values(tmp_path, capsys, sequences, options):
    path = tmp_path / "m.json"
    doc = {"schema_version": 1, "options": options, "sequences": sequences}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError):
        load_manifest(path)
    assert main(["batch", str(path), "--out", str(tmp_path / "r")]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["sequence_id", "gt_path"])
@pytest.mark.parametrize("value", [None, [1, 2], 3.5, ""])
def test_manifest_requires_non_empty_string_id_and_gt_path(tmp_path, capsys, field, value):
    path = write_manifest(tmp_path / "m.json", [dict(_ENTRY, **{field: value})])
    with pytest.raises(ValidationError, match=field):
        load_manifest(path)
    assert main(["batch", str(path), "--out", str(tmp_path / "r")]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_manifest_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_manifest(bad)


def test_manifest_with_a_byte_order_mark_loads(tmp_path, capsys):
    gt = random_trajectory(seed=211, n=40, step_mean=0.006, turn_mean=0.02)
    path = build_synth_cohort(tmp_path, [("a", gt, [PerturbationSpec(noise_sigma_trans=0.001)])])
    plain = load_manifest(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_manifest(path) == plain
    assert main(["batch", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
    assert capsys.readouterr().err == ""


_SEQUENCES = json.dumps([_ENTRY])


@pytest.mark.parametrize("text", [
    b"\xff" + json.dumps({"sequences": [_ENTRY]}).encode(),
    f'{{"sequences": {_SEQUENCES}, "x": "\xe9"}}'.encode("latin-1"),
    b"[" * 100000,
    b'{"sequences": ' + b"[" * 5000 + b"]" * 5000 + b"}",
    b'{"options": {"stride": ' + b"1" * 5000 + b"}}",
    f'{{"schema_version": true, "sequences": {_SEQUENCES}}}'.encode(),
    f'{{"schema_version": 1.0, "sequences": {_SEQUENCES}}}'.encode(),
], ids=["non-utf8-lead", "latin-1", "deep-top", "deep-sequences", "long-int", "version-true",
        "version-float"])
def test_manifest_rejects_unreadable_documents(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_bytes(text)
    with pytest.raises(ValidationError):
        load_manifest(path)
    assert main(["batch", str(path), "--out", str(tmp_path / "r")]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

def test_batch_evaluates_all_sequences(tmp_path):
    manifest = load_manifest(_small_cohort(tmp_path))
    outcome = run_batch(manifest)
    assert outcome.evaluated_count == 4
    assert outcome.failures == ()
    summary = outcome.summary
    assert summary is not None
    assert summary.success_rate == 1.0
    for result in summary.results:
        assert len(result.runs) == 2
        assert result.median_record.tracked_fraction == 1.0
        assert result.median_record.ate_rmse > 0.0


def test_batch_isolates_missing_files(tmp_path):
    path = _small_cohort(tmp_path)
    doc = json.loads(path.read_text())
    doc["sequences"].append(
        {"sequence_id": "ghost", "gt_path": "gt/missing.txt", "estimate_paths": ["est/x.txt"]}
    )
    doc["sequences"][0]["estimate_paths"].append("est/also_missing.txt")
    path.write_text(json.dumps(doc))
    outcome = run_batch(load_manifest(path))
    assert outcome.evaluated_count == 4  # ghost dropped, seq_00 still evaluated
    failed_paths = {f.path for f in outcome.failures}
    assert any("missing.txt" in p for p in failed_paths)
    assert any("also_missing.txt" in p for p in failed_paths)
    # seq_00 keeps its two good runs
    seq0 = next(r for r in outcome.summary.results if r.sequence_id == "seq_00")
    assert len(seq0.runs) == 2


def test_batch_parallel_matches_serial(tmp_path):
    manifest = load_manifest(_small_cohort(tmp_path, n_seq=5))
    serial = run_batch(manifest, jobs=1)
    parallel = run_batch(manifest, jobs=3)
    assert summary_to_dict(serial, manifest.options) == summary_to_dict(
        parallel, manifest.options
    )


@pytest.mark.parametrize("value", NOT_COUNTS)
def test_batch_counts_follow_the_one_rule(tmp_path, monkeypatch, value):
    # with 3 sequences and 4 CPUs, min(jobs, sequences, CPUs) would pass 2.5 on to range()
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 4)
    manifest = load_manifest(_small_cohort(tmp_path, n_seq=3, runs=1, frames=30))
    for name in ("rpe_delta", "stride"):
        with pytest.raises(ValidationError, match=count_error(name, value)):
            BatchOptions(**{name: value})
    with pytest.raises(ValidationError, match=count_error("jobs", value)):
        run_batch(manifest, jobs=value)


# every real-valued option, with its bound, and the values it rejects
_OPTION_REALS = {"max_time_diff": " and >= 0", "min_tracked": "", "gap_ratio_min": ""}
_NOT_OPTION_REALS = [(name, value) for name in _OPTION_REALS for value in NOT_REALS] + [
    ("max_time_diff", -1e-300),
    ("min_tracked", np.longdouble(0.5)),  # no Python number holds it, so summary.json could not
]


@pytest.mark.parametrize("name, value", _NOT_OPTION_REALS)
def test_batch_reals_follow_the_one_rule(name, value):
    with pytest.raises(ValidationError, match=real_error(name, value, _OPTION_REALS[name])):
        BatchOptions(**{name: value})


@pytest.mark.parametrize("value", NUMPY_REALS)
def test_batch_reals_take_numpy_scalars_as_python_numbers(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        options = BatchOptions(**{name: value for name in _OPTION_REALS})
    for name in _OPTION_REALS:
        assert getattr(options, name) == value and type(getattr(options, name)) in (int, float)


def test_numpy_real_options_give_the_same_report(tmp_path):
    manifest = load_manifest(_small_cohort(tmp_path, n_seq=3, runs=1, frames=60))
    summaries = []
    for k, (tolerance, tracked, ratio) in enumerate([(float(np.float32(0.02)), 0.5, 5),
                                                    (np.float32(0.02), np.float64(0.5), np.int64(5))]):
        options = BatchOptions(max_time_diff=tolerance, min_tracked=tracked, gap_ratio_min=ratio)
        write_report_bundle(run_batch(replace(manifest, options=options)), options, tmp_path / f"r{k}")
        summaries.append((tmp_path / f"r{k}" / "summary.json").read_bytes())
    assert summaries[1] == summaries[0]
    assert b'"gap_ratio_min": 5,' in summaries[0]  # an integer is echoed as an integer


def test_numpy_integer_counts_give_the_same_report(tmp_path):
    manifest = load_manifest(_small_cohort(tmp_path, n_seq=3, runs=1, frames=60))
    summaries = []
    for k, count in enumerate([2, np.int64(2), np.int32(2)]):
        options = BatchOptions(rpe_delta=count, stride=count)
        assert type(options.rpe_delta) is int and type(options.stride) is int
        outcome = run_batch(replace(manifest, options=options), jobs=count)
        write_report_bundle(outcome, options, tmp_path / f"r{k}")
        summaries.append((tmp_path / f"r{k}" / "summary.json").read_bytes())
    assert summaries[1] == summaries[2] == summaries[0]


# where run_batch forks its workers; elsewhere they are spawned
_FORKS = sys.platform == "linux"


def _count_forks(monkeypatch) -> list:
    """Record the pid of each child this process forks in the returned list."""
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def _usable_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _count_workers(monkeypatch) -> list:
    """Record the pid of each process multiprocessing starts here in the returned list."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def recording_start(self):
        start(self)
        started.append(self.pid)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
    return started


@pytest.mark.parametrize("n_seq, jobs, pool", [
    (1, 2, None),
    (3, 1, None),
    (2, 3, [1]),
    (5, 2, [1]),
    (9, 2, [1]),
])
def test_batch_pool_is_bounded_by_the_sequence_count(tmp_path, monkeypatch, n_seq, jobs, pool):
    # min(jobs, sequences) - 1 workers beside this process ([that count] in pool, None for
    # none): forked where fork is safe, spawned where it is not, and all of them joined
    _usable_cpus(monkeypatch, 64)
    forks = _count_forks(monkeypatch)
    started = _count_workers(monkeypatch)
    workers = 0 if pool is None else pool[0]
    manifest = load_manifest(_small_cohort(tmp_path, n_seq=n_seq, runs=1, frames=30))
    serial = dump_json(summary_to_dict(run_batch(manifest, jobs=1), manifest.options))
    outcome = run_batch(manifest, jobs=jobs)
    assert len(started) == workers and len(forks) == workers * _FORKS
    assert outcome.evaluated_count == n_seq

    monkeypatch.setattr(batch, "_fork_is_safe", lambda: False)
    spawned = run_batch(manifest, jobs=jobs)
    assert len(started) == 2 * workers and len(forks) == workers * _FORKS
    assert _all_reaped(started)
    assert dump_json(summary_to_dict(spawned, manifest.options)) == serial


@pytest.mark.parametrize("cpus, affinity, forks", [(1, True, 0), (2, True, 1), (3, False, 2)])
def test_batch_workers_are_bounded_by_the_usable_cpus(tmp_path, monkeypatch, cpus, affinity,
                                                      forks):
    if affinity:
        _usable_cpus(monkeypatch, cpus)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    seen = _count_forks(monkeypatch)
    manifest = load_manifest(_small_cohort(tmp_path, n_seq=4, runs=1, frames=30))
    assert run_batch(manifest, jobs=5000).evaluated_count == 4
    assert len(seen) == forks * _FORKS


def test_fork_is_refused_while_another_thread_runs():
    assert batch._fork_is_safe() == _FORKS
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not batch._fork_is_safe()
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_batch_pool_path_matches_serial(tmp_path, monkeypatch):
    # the path taken where fork is unsafe: shares go to spawned processes
    _usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(batch, "_fork_is_safe", lambda: False)
    forks = _count_forks(monkeypatch)
    manifest = load_manifest(_mixed_cohort(tmp_path))
    pooled = run_batch(manifest, jobs=3)
    assert forks == []
    serial = run_batch(manifest, jobs=1)
    options = manifest.options
    assert dump_json(summary_to_dict(pooled, options)) == dump_json(summary_to_dict(serial, options))


def _mixed_cohort(root, **options):
    """Seven sequences at stride 2 whose runs hit every path of a share's pass:
    gapped runs, runs with one and with two pairs, an empty association, a
    tolerance over the candidate bound (by time), a ground truth and an
    estimate that are missing and an estimate that does not parse."""
    rng = np.random.default_rng(5)
    sequences = []

    def add(seq_id, gt, estimates):
        save_tum(gt, root / f"gt/{seq_id}.txt")
        paths = []
        for k, est in enumerate(estimates):
            path = f"est/{seq_id}_{k}.txt"
            if isinstance(est, str):
                (root / path).write_text(est, encoding="utf-8")
            elif est is not None:
                save_tum(est, root / path)
            paths.append(path)
        sequences.append({"sequence_id": seq_id, "gt_path": f"gt/{seq_id}.txt",
                          "estimate_paths": paths})

    for i in range(3):
        gt = random_trajectory(seed=150 + i, n=90 + 7 * i, step_mean=0.006, turn_mean=0.02)
        runs = [perturb(gt, PerturbationSpec(noise_sigma_trans=0.003, dropout_fraction=0.2,
                                             seed=160 + 3 * i + k)) for k in range(2)]
        add(f"gapped_{i}", gt, runs)
    gt = random_trajectory(seed=170, n=40, step_mean=0.006, turn_mean=0.02)
    moved = Trajectory.from_arrays(gt.t, gt.xyz + rng.normal(0.0, 0.01, (40, 3)), gt.q)
    lost = Trajectory.from_arrays(gt.t + 100.0, gt.xyz, gt.q)
    add("short", gt, [moved.subset([4]), moved.subset([4, 11, 12]), lost, moved])
    dense = Trajectory.from_arrays(np.arange(100) * 1e-4, gt.xyz[:1].repeat(100, 0),
                                   gt.q[:1].repeat(100, 0))
    add("dense", dense, [dense])
    add("broken", gt, [None, "0 0 0 0 0 0 0 1\n1 0 0\n", moved])
    sequences.append({"sequence_id": "ghost", "gt_path": "gt/missing.txt",
                      "estimate_paths": ["est/short_0.txt"]})
    return write_manifest(root / "manifest.json", sequences, stride=2, **options)


@pytest.mark.parametrize("by_index", [False, True])
def test_batch_numbers_do_not_depend_on_the_shares(tmp_path, monkeypatch, by_index):
    path = _mixed_cohort(tmp_path, index_identity_association=by_index)
    manifest = load_manifest(path)
    _usable_cpus(monkeypatch, 8)
    forks = _count_forks(monkeypatch)
    texts = [dump_json(summary_to_dict(run_batch(manifest, jobs=jobs), manifest.options))
             for jobs in (1, 2, 3)]
    assert len(forks) == 3 * _FORKS
    # the report's bytes hold every number bit for bit (NaN as null)
    assert texts[0] == texts[1] == texts[2]

    doc = json.loads(texts[0])
    failures = {(f["sequence_id"], Path(f["path"]).name): f["error"] for f in doc["failures"]}
    assert failures[("ghost", "missing.txt")].startswith("[Errno 2]")
    assert failures[("broken", "broken_0.txt")].startswith("[Errno 2]")
    assert failures[("broken", "broken_1.txt")] == "line 2: expected 8 fields, got 3"
    if by_index:
        assert len(failures) == 3
    else:
        assert "more than 32 per pose" in failures[("dense", "dense_0.txt")]
        assert len(failures) == 4
    # a sequence's failures keep the order of its estimate paths
    assert [name for seq, name in failures if seq == "broken"] == ["broken_0.txt", "broken_1.txt"]
    if not by_index:
        short = next(s for s in doc["sequences"] if s["sequence_id"] == "short")["runs"]
        assert short[0]["ate_rmse"] == 0.0 and short[0]["rpe_trans"] is None
        assert short[1]["tracked_fraction"] == 2 / 20 and short[1]["rpe_trans"] is not None
        assert short[2]["tracked_fraction"] == 0.0 and short[2]["ate_rmse"] is None


def test_batch_runs_score_as_the_pair_commands_do(tmp_path):
    # one run alone through metrics.ate/rpe gives the bits the batch's pass gives it
    manifest = load_manifest(_mixed_cohort(tmp_path))
    outcome = run_batch(manifest)
    options = manifest.options
    checked = 0
    for entry, result in ((e, r) for e in manifest.entries for r in outcome.summary.results
                          if r.sequence_id == e.sequence_id):
        gt = load_tum(entry.gt_path)
        records = iter(result.runs)
        for est_path in entry.estimate_paths:
            try:
                est = load_tum(est_path)
            except (OSError, SlamEvalError):
                continue
            record = next(records)
            try:
                assoc = associate(gt, est, options.max_time_diff).strided(2)
            except EmptyAssociationError:
                assert record.tracked_fraction == 0.0
                continue
            if len(assoc) >= 2:
                strided = resample_stride(gt, 2)
                assert record.ate_rmse == ate(strided, est, assoc).rmse
                report = rpe(strided, est, assoc)
                assert (record.rpe_trans, record.rpe_rot) == (report.trans_rmse, report.rot_mean)
                checked += 1
        assert next(records, None) is None
    assert checked == 9


def _cohort_of_three(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 8)
    return load_manifest(_small_cohort(tmp_path, n_seq=3, runs=1, frames=30))


def _all_reaped(pids: list) -> bool:
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


@pytest.mark.skipif(sys.platform != "linux", reason="the fork path runs on Linux")
@pytest.mark.parametrize("share", [0, 1])
def test_a_share_that_raises_is_raised_after_every_child_is_reaped(tmp_path, monkeypatch, share):
    # share k of three is sequence k, and share 0 is this process's own
    manifest = _cohort_of_three(tmp_path, monkeypatch)
    load = batch.load_tum

    def failing_load(path):
        if path == manifest.entries[share].gt_path:
            raise ZeroDivisionError(f"boom in share {share}")
        return load(path)

    monkeypatch.setattr(batch, "load_tum", failing_load)
    forks = _count_forks(monkeypatch)
    with pytest.raises(ZeroDivisionError, match=f"^boom in share {share}$") as info:
        run_batch(manifest, jobs=3)
    assert len(forks) == 2 and _all_reaped(forks)
    if share:
        assert "in batch worker" in str(info.value.__cause__)


@pytest.mark.skipif(sys.platform != "linux", reason="the fork path runs on Linux")
@pytest.mark.parametrize("how, ended", [("exit", "exit status 3"), ("signal", "signal 9")])
def test_a_child_that_dies_without_a_result_is_an_error(tmp_path, monkeypatch, how, ended):
    manifest = _cohort_of_three(tmp_path, monkeypatch)
    parent = os.getpid()
    load = batch.load_tum

    def dying_load(path):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return load(path)

    monkeypatch.setattr(batch, "load_tum", dying_load)
    forks = _count_forks(monkeypatch)
    with pytest.raises(ChildProcessError, match=f"ended by {ended} without sending its result"):
        run_batch(manifest, jobs=3)
    assert len(forks) == 2 and _all_reaped(forks)


@pytest.mark.skipif(sys.platform != "linux", reason="the fork path runs on Linux")
def test_a_child_that_dies_while_sending_is_an_error(tmp_path, monkeypatch):
    # each child sends a frame's length and half of its pickle, then exits
    manifest = _cohort_of_three(tmp_path, monkeypatch)
    monkeypatch.setattr(batch, "_send_share", conftest.worker_that_sends_half)
    forks = _count_forks(monkeypatch)
    with pytest.raises(ChildProcessError, match="ended by exit status 4 without sending its"):
        run_batch(manifest, jobs=3)
    assert len(forks) == 2 and _all_reaped(forks)


def test_a_broken_spawned_pool_is_a_child_process_error(tmp_path, monkeypatch, capsys):
    # where fork is unsafe, a spawned worker that dies ends the batch as on the fork path: exit 2
    _usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(batch, "_fork_is_safe", lambda: False)
    monkeypatch.setattr(batch, "_send_share", conftest.worker_that_exits)
    started = _count_workers(monkeypatch)
    path = _small_cohort(tmp_path, n_seq=3, runs=1, frames=30)
    with pytest.raises(ChildProcessError) as info:
        run_batch(load_manifest(path), jobs=2)
    ended = "ended by exit status 3 without sending its result"
    assert str(info.value) == f"batch worker {started[0]} {ended}"
    assert main(["batch", str(path), "--out", str(tmp_path / "r"), "--jobs", "2"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: batch worker {started[1]} {ended}\n"
    assert len(started) == 2 and _all_reaped(started)


def _start_method(monkeypatch, method: str) -> None:
    """Make run_batch start its workers by method, "fork" or "spawn"."""
    monkeypatch.setattr(batch, "_fork_is_safe", lambda: method == "fork")


_METHODS = [pytest.param("fork", marks=pytest.mark.skipif(not _FORKS, reason="fork is Linux's")),
            "spawn"]


@pytest.mark.parametrize("share", [0, 1])
def test_a_share_that_raises_in_a_spawned_worker_is_raised_after_every_worker_is_joined(
        tmp_path, monkeypatch, share):
    # every worker's share raises, and with share 0 this process's too: the first error wins
    manifest = _cohort_of_three(tmp_path, monkeypatch)
    _start_method(monkeypatch, "spawn")
    monkeypatch.setattr(batch, "_send_share", conftest.worker_that_raises)
    if share == 0:
        def failing_load(path):
            raise ZeroDivisionError(f"boom in {manifest.entries[0].sequence_id}")

        monkeypatch.setattr(batch, "load_tum", failing_load)
    started = _count_workers(monkeypatch)
    with pytest.raises(ZeroDivisionError) as info:
        run_batch(manifest, jobs=3)
    assert str(info.value) == f"boom in {manifest.entries[share].sequence_id}"
    assert len(started) == 2 and _all_reaped(started)
    if share:
        assert str(info.value.__cause__).startswith(f"in batch worker {started[0]}:\n")
        assert "ZeroDivisionError" in str(info.value.__cause__)


@pytest.mark.parametrize("method", _METHODS)
def test_an_error_that_cannot_be_pickled_is_sent_as_a_runtime_error(tmp_path, monkeypatch,
                                                                    method):
    manifest = _cohort_of_three(tmp_path, monkeypatch)
    _start_method(monkeypatch, method)
    monkeypatch.setattr(batch, "_send_share", conftest.worker_whose_error_cannot_be_pickled)
    started = _count_workers(monkeypatch)
    with pytest.raises(RuntimeError) as info:
        run_batch(manifest, jobs=3)
    assert str(info.value) == f"ZeroDivisionError: boom in {manifest.entries[1].sequence_id}"
    assert str(info.value.__cause__).startswith(f"in batch worker {started[0]}:\n")
    assert len(started) == 2 and _all_reaped(started)


@pytest.mark.parametrize("target, ended", [("worker_that_exits", "exit status 3"),
                                           ("worker_that_sends_half", "exit status 4")])
def test_a_spawned_worker_that_dies_without_a_result_is_an_error(tmp_path, monkeypatch, target,
                                                                 ended):
    manifest = _cohort_of_three(tmp_path, monkeypatch)
    _start_method(monkeypatch, "spawn")
    monkeypatch.setattr(batch, "_send_share", getattr(conftest, target))
    started = _count_workers(monkeypatch)
    with pytest.raises(ChildProcessError) as info:
        run_batch(manifest, jobs=3)
    ended = f"ended by {ended} without sending its result"
    assert str(info.value) == f"batch worker {started[0]} {ended}"
    assert len(started) == 2 and _all_reaped(started)


@pytest.mark.skipif(not _FORKS, reason="the fork path runs on Linux")
def test_a_forked_worker_that_dies_ends_the_batch_command_with_exit_2(tmp_path, monkeypatch,
                                                                      capsys):
    _usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(batch, "_send_share", conftest.worker_that_exits)
    started = _count_workers(monkeypatch)
    path = _small_cohort(tmp_path, n_seq=3, runs=1, frames=30)
    assert main(["batch", str(path), "--out", str(tmp_path / "r"), "--jobs", "2"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == (f"error: batch worker {started[0]} ended by exit status 3"
                                       f" without sending its result\n")
    assert len(started) == 1 and _all_reaped(started)


def test_a_daemonic_caller_evaluates_every_share_itself(tmp_path, monkeypatch):
    # Process.start refuses a daemonic process children, so a batch in a pool worker is serial
    manifest = _cohort_of_three(tmp_path, monkeypatch)
    serial = dump_json(summary_to_dict(run_batch(manifest, jobs=1), manifest.options))
    with multiprocessing.get_context("fork" if _FORKS else "spawn").Pool(1) as pool:
        report = pool.apply_async(conftest.report_at_two_jobs, (manifest,)).get(timeout=120)
    assert report == serial


def test_a_manifest_without_entries_evaluates_nothing():
    empty = batch.RunManifest((), BatchOptions())
    assert run_batch(empty, jobs=3) == batch.BatchOutcome(None, (), 0)


def test_forked_workers_do_not_write_the_parents_buffered_output(tmp_path):
    path = _small_cohort(tmp_path, n_seq=3, runs=1, frames=30)
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: set(range(4))\n"
            "from slameval.batch import load_manifest, run_batch\n"
            "sys.stdout.write('written once')\n"
            "print(run_batch(load_manifest(sys.argv[1]), jobs=3).evaluated_count, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(batch.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "written once", "3\n")


@pytest.mark.parametrize("guarded", [True, False])
def test_a_script_that_spawns_workers_needs_a_main_guard(tmp_path, guarded):
    # a spawned worker imports the script again: unguarded, that import starts a batch of its own,
    # which multiprocessing refuses, and the worker ends without sending its result
    path = _small_cohort(tmp_path, n_seq=2, runs=1, frames=30)
    call = "print(run_batch(load_manifest(sys.argv[1]), jobs=2).evaluated_count)\n"
    script = tmp_path / "script.py"
    script.write_text("import sys\n"
                      "from slameval import batch\n"
                      "from slameval.batch import load_manifest, run_batch\n"
                      "batch._fork_is_safe = lambda: False\n"
                      "batch._usable_cpus = lambda: 2\n"
                      + ('if __name__ == "__main__":\n    ' + call if guarded else call))
    env = dict(os.environ, PYTHONPATH=str(Path(batch.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(script), str(path)], env=env, capture_output=True,
                          text=True, timeout=120)
    if guarded:
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        last = proc.stderr.splitlines()[-1]
        assert re.fullmatch(r"ChildProcessError: batch worker \d+ ended by exit status 1"
                            r" without sending its result", last)


def test_batch_stride_option(tmp_path):
    path = _small_cohort(tmp_path, n_seq=2)
    base = run_batch(load_manifest(path))
    doc = json.loads(path.read_text())
    doc["options"]["stride"] = 2
    path.write_text(json.dumps(doc))
    strided = run_batch(load_manifest(path))
    v1 = base.summary.results[0].stats.mean_vel_per_frame
    v2 = strided.summary.results[0].stats.mean_vel_per_frame
    assert v2 / v1 == pytest.approx(2.0, rel=0.02)


@pytest.mark.parametrize("stride", [2, 3])
@pytest.mark.parametrize("by_index", [False, True])
def test_stride_keeps_estimates_with_gaps_in_phase(tmp_path, stride, by_index):
    gt = random_trajectory(seed=130, n=3000, step_mean=0.006, turn_mean=0.02)
    spec = PerturbationSpec(noise_sigma_trans=0.002, dropout_fraction=0.05, seed=131)
    path = build_synth_cohort(tmp_path, [("gap", gt, [spec])])
    doc = json.loads(path.read_text())
    doc["options"] = {"stride": stride, "index_identity_association": by_index}
    path.write_text(json.dumps(doc))
    outcome = run_batch(load_manifest(path))

    gt = load_tum(tmp_path / "gt/gap.txt")
    est = load_tum(tmp_path / "est/gap_run0.txt")
    full = associate_by_index(gt, est) if by_index else associate(gt, est, 0.02)
    kept = {(i // stride, j) for i, j in full.pairs if i % stride == 0}
    strided = full.strided(stride)
    assert list(strided.pairs) == sorted(kept)
    # the run is scored on exactly these pairs: its numbers are those of the single-run calls
    (record,) = outcome.summary.results[0].runs
    gt_strided = resample_stride(gt, stride)
    single = rpe(gt_strided, est, strided)
    assert record.ate_rmse == ate(gt_strided, est, strided).rmse
    assert (record.rpe_trans, record.rpe_rot) == (single.trans_rmse, single.rot_mean)
    tracked = outcome.summary.results[0].median_record.tracked_fraction
    assert tracked == len(kept) / len(resample_stride(gt, stride))
    if not by_index:
        assert tracked == pytest.approx(0.95, abs=0.03)


def test_total_tracking_failures_are_excluded_not_failures(tmp_path):
    # "lost" has no stamp within the tolerance of any gt stamp; "odd" keeps only
    # the odd gt frames, so at stride 2 none of its pairs survives
    gt = random_trajectory(seed=140, n=60, step_mean=0.006, turn_mean=0.02)
    save_tum(gt, tmp_path / "gt.txt")
    save_tum(gt, tmp_path / "est_ok.txt")
    save_tum(Trajectory.from_arrays(gt.t + 100.0, gt.xyz, gt.q), tmp_path / "est_lost.txt")
    save_tum(gt.subset(range(1, len(gt), 2)), tmp_path / "est_odd.txt")
    path = write_manifest(tmp_path / "m.json", [
        {"sequence_id": name, "gt_path": "gt.txt", "estimate_paths": [f"est_{name}.txt"]}
        for name in ("ok", "lost", "odd")
    ], stride=2)
    outcome = run_batch(load_manifest(path), jobs=1)
    assert outcome.failures == () and outcome.evaluated_count == 3
    assert outcome.summary.success_rate == 1 / 3
    doc = json.loads(dump_json(summary_to_dict(outcome, load_manifest(path).options)))
    assert doc["failures"] == [] and doc["excluded_sequences"] == ["lost", "odd"]
    for seq in doc["sequences"][1:]:
        for record in (seq["median"], *seq["runs"]):
            assert record == {"ate_rmse": None, "rpe_trans": None, "rpe_rot_rad": None,
                              "rpe_rot_deg": None, "tracked_fraction": 0.0}


def test_batch_records_a_tolerance_spanning_everything_as_a_failure(tmp_path):
    path = _small_cohort(tmp_path, n_seq=1, runs=1)
    doc = json.loads(path.read_text())
    doc["options"] = {"max_time_diff": 1e9}
    path.write_text(json.dumps(doc))
    outcome = run_batch(load_manifest(path))
    (failure,) = outcome.failures
    assert outcome.evaluated_count == 0
    assert "14400 candidate pairs, more than 32 per pose (7680)" in failure.error


def test_finite_but_huge_coordinates_end_in_a_bundle(tmp_path, capsys):
    # an estimate at about 1e160 m overflows its ATE to inf; one at 3e154 m overflows
    # the sum of its squared residuals, not their mean; a ground truth and estimate
    # at about 1e200 m overflow their cross-covariance, and with two poses, the norm
    # of their one step
    path = _small_cohort(tmp_path, n_seq=5, runs=1, frames=40)
    alone = tmp_path / "alone.json"
    alone.write_text(path.read_text())
    doc = json.loads(path.read_text())
    gt = random_trajectory(seed=190, n=40, step_mean=0.006, turn_mean=0.02)
    est = perturb(gt, PerturbationSpec(noise_sigma_trans=0.002, seed=191))
    for name, gt_scale, est_scale, n in (("far_est", 1.0, 1e160, 40), ("far_sum", 1.0, 3e154, 40),
                                         ("far_pair", 1e200, 1e200, 40),
                                         ("far_two", 1e200, 1e200, 2)):
        for side, traj, scale in (("gt", gt, gt_scale), ("est", est, est_scale)):
            save_tum(Trajectory.from_arrays(traj.t[:n], traj.xyz[:n] * scale, traj.q[:n]),
                     tmp_path / f"{side}/{name}.txt")
        doc["sequences"].append({"sequence_id": name, "gt_path": f"gt/{name}.txt",
                                 "estimate_paths": [f"est/{name}.txt"]})
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["batch", str(path), "--out", str(tmp_path / "report")]) == EXIT_OK
        capsys.readouterr()
        for name in ("far_pair", "far_two"):
            pair = [str(tmp_path / f"{side}/{name}.txt") for side in ("gt", "est")]
            assert main(["ate", *pair]) == EXIT_OK
            assert "ate.rmse            inf m" in capsys.readouterr().out
            assert main(["rpe", *pair]) == EXIT_OK

    summary = json.loads((tmp_path / "report/summary.json").read_text())
    manifest = load_manifest(alone)
    expected = json.loads(dump_json(summary_to_dict(run_batch(manifest), manifest.options)))
    # the other runs' numbers hold bit for bit; the overflowed ATEs are written as null
    assert summary["sequences"][:5] == expected["sequences"]
    far_est, far_sum, far_pair, far_two = (seq["median"]["ate_rmse"]
                                           for seq in summary["sequences"][5:])
    assert far_est is None and far_pair is None and far_two is None and 2e153 < far_sum < 3e153


def test_durations_beyond_half_the_float_range_average_in_batch_and_stats(tmp_path, capsys):
    # each sequence spans 0 s to 1.7e308 s: the two durations sum beyond the float range
    n = 20
    t = np.linspace(0.0, 1.7e308, n)
    gt = random_trajectory(seed=195, n=n, step_mean=0.006, turn_mean=0.02)
    sequences = []
    for k in range(2):
        traj = Trajectory.from_arrays(t, gt.xyz + 0.001 * k, gt.q)
        save_tum(traj, tmp_path / f"gt/s{k}.txt")
        save_tum(traj, tmp_path / f"est/s{k}.txt")
        sequences.append({"sequence_id": f"s{k}", "gt_path": f"gt/s{k}.txt",
                          "estimate_paths": [f"est/s{k}.txt"]})
    path = write_manifest(tmp_path / "m.json", sequences)
    assert main(["batch", str(path), "--out", str(tmp_path / "report")]) == EXIT_OK
    summary = json.loads((tmp_path / "report/summary.json").read_text())
    assert summary["cohort_attributes"]["duration"] == 1.7e308
    capsys.readouterr()
    assert main(["stats", *(str(tmp_path / f"gt/s{k}.txt") for k in range(2))]) == EXIT_OK
    assert "(cohort mean)" in capsys.readouterr().out


def test_batch_records_the_all_pairs_refusal_of_rpe(tmp_path):
    # a run over the all-pairs cap fails with the message rpe raises; the others are scored
    specs = [(f"n{n}", random_trajectory(seed=n, n=n, step_mean=0.006, turn_mean=0.02),
              [PerturbationSpec(noise_sigma_trans=0.002, seed=n)]) for n in (2001, 60)]
    manifest = load_manifest(build_synth_cohort(tmp_path, specs, rpe_mode="all-pairs"))
    outcome = run_batch(manifest)
    gt, est = (load_tum(tmp_path / name) for name in ("gt/n2001.txt", "est/n2001_run0.txt"))
    with pytest.raises(ValidationError) as err:
        rpe(gt, est, associate(gt, est), mode="all-pairs")
    cap = str(err.value).partition(";")[0]  # a manifest has no override to name
    assert [(f.sequence_id, f.error) for f in outcome.failures] == [("n2001", cap)]
    assert outcome.evaluated_count == 1


def test_all_pairs_cap_message_names_each_callers_override(tmp_path, capsys):
    gt = random_trajectory(seed=2001, n=2001, step_mean=0.006, turn_mean=0.02)
    path = build_synth_cohort(tmp_path, [("a", gt, [PerturbationSpec(seed=1)])],
                              rpe_mode="all-pairs")
    gt_path, est_path = tmp_path / "gt/a.txt", tmp_path / "est/a_run0.txt"
    cap = "all-pairs RPE over 2001 poses exceeds the cap of 2000"

    (failure,) = run_batch(load_manifest(path)).failures
    assert failure.error == cap
    gt, est = load_tum(gt_path), load_tum(est_path)
    with pytest.raises(ValidationError) as err:
        rpe(gt, est, associate(gt, est), mode="all-pairs")
    assert str(err.value) == f"{cap}; pass allow_large=True to override"
    capsys.readouterr()
    assert main(["rpe", str(gt_path), str(est_path), "--mode", "all-pairs"]) == EXIT_BAD_INPUT
    assert capsys.readouterr() == ("", f"error: {cap}; pass --allow-large to override\n")


@pytest.mark.parametrize("name", ["nul\x00.txt", "\ud800.txt"])
def test_batch_records_a_path_that_cannot_be_opened(tmp_path, capfd, name):
    # open() raised ValueError (embedded null byte) or UnicodeEncodeError, which ended the batch
    path = _small_cohort(tmp_path, n_seq=2)
    doc = json.loads(path.read_text())
    doc["sequences"][0]["estimate_paths"].append(name)
    doc["sequences"].append({"sequence_id": "bad", "gt_path": name, "estimate_paths": ["x.txt"]})
    path.write_text(json.dumps(doc))
    outcome = run_batch(load_manifest(path))
    assert outcome.evaluated_count == 2
    assert [(f.sequence_id, f.path) for f in outcome.failures] == [
        ("seq_00", str(tmp_path / name)), ("bad", str(tmp_path / name))]
    assert all(f.error.startswith(f"cannot open {str(tmp_path / name)!r}: ")
               for f in outcome.failures)
    assert main(["batch", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
    assert main(["ate", str(tmp_path / name), str(tmp_path / name)]) == EXIT_BAD_INPUT
    assert "Traceback" not in capfd.readouterr().err


def test_batch_isolates_non_utf8_files(tmp_path):
    path = _small_cohort(tmp_path)
    bad = tmp_path / "est/seq_01_run1.txt"
    bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))
    outcome = run_batch(load_manifest(path))
    assert outcome.evaluated_count == 4
    (failure,) = outcome.failures
    assert failure.path == str(bad) and failure.error.startswith("line 2:")


# ---------------------------------------------------------------------------
# Report bundle
# ---------------------------------------------------------------------------

def test_report_bundle_files(tmp_path):
    manifest = load_manifest(_small_cohort(tmp_path))
    outcome = run_batch(manifest)
    out = tmp_path / "report"
    files = write_report_bundle(outcome, manifest.options, out, svg=True)
    names = {f.name for f in files}
    assert "summary.json" in names
    for metric in ("ate_rmse", "rpe_trans", "rpe_rot"):
        assert f"cdf_{metric}.csv" in names
        assert f"bars_{metric}.csv" in names
        assert f"cdf_{metric}.svg" in names
        assert f"bars_{metric}.svg" in names
    assert "correlations.csv" in names
    header = (out / "cdf_ate_rmse.csv").read_text().splitlines()[0]
    assert header == "threshold,fraction"


def _bundle_bytes(out):
    return {f.name: f.read_bytes() for f in out.iterdir()}


def test_report_rerun_without_svg_leaves_no_stale_files(tmp_path):
    manifest = _small_cohort(tmp_path)
    out = tmp_path / "report"
    assert main(["batch", str(manifest), "--out", str(out), "--svg"]) == 0
    assert any(f.suffix == ".svg" for f in out.iterdir())
    assert main(["batch", str(manifest), "--out", str(out)]) == 0
    assert not any(f.suffix == ".svg" for f in out.iterdir())
    assert [f.name for f in out.iterdir() if f.name.startswith(".")] == []
    link = tmp_path / "link"
    link.symlink_to(out)
    assert main(["batch", str(manifest), "--out", str(link), "--svg"]) == 0
    assert link.is_symlink() and any(f.suffix == ".svg" for f in out.iterdir())


def test_failed_report_write_keeps_previous_bundle(tmp_path, monkeypatch):
    manifest = load_manifest(_small_cohort(tmp_path))
    outcome = run_batch(manifest)
    out = tmp_path / "report"
    write_report_bundle(outcome, manifest.options, out)
    before = _bundle_bytes(out)

    def broken_chart(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("slameval.report.bar_chart", broken_chart)
    with pytest.raises(OSError, match="disk full"):
        write_report_bundle(outcome, manifest.options, out, svg=True)
    assert _bundle_bytes(out) == before
    assert [f.name for f in out.iterdir() if f.name.startswith(".")] == []


def test_report_rerun_keeps_files_it_did_not_write(tmp_path):
    manifest = _small_cohort(tmp_path)
    # a bundle written next to the manifest and the trajectories it names
    assert main(["batch", str(manifest), "--out", str(tmp_path), "--svg"]) == 0
    (tmp_path / "notes.svg").write_text("mine")
    before = sorted(f.name for f in tmp_path.rglob("*.txt"))
    assert main(["batch", str(manifest), "--out", str(tmp_path)]) == 0
    assert sorted(f.name for f in tmp_path.rglob("*.txt")) == before
    assert manifest.is_file() and (tmp_path / "notes.svg").read_text() == "mine"
    assert not (tmp_path / "cdf_ate_rmse.svg").exists()
    assert (tmp_path / "summary.json").is_file()

    (tmp_path / "file").write_text("mine")
    assert main(["batch", str(manifest), "--out", str(tmp_path / "file")]) == 2
    assert (tmp_path / "file").read_text() == "mine"


def test_summary_json_round_trips_byte_identical(tmp_path):
    manifest = load_manifest(_small_cohort(tmp_path))
    outcome = run_batch(manifest)
    text = dump_json(summary_to_dict(outcome, manifest.options))
    assert dump_json(json.loads(text)) == text


def test_report_handles_nan_metrics(tmp_path):
    # single-pose gt: ATE works (one pair), RPE impossible -> NaN -> null
    from slameval.geom3d import Pose, Trajectory
    from slameval.trajio import save_tum

    one = Trajectory((Pose.identity(0.0),))
    save_tum(one, tmp_path / "gt/one.txt")
    save_tum(one, tmp_path / "est/one.txt")
    manifest_path = write_manifest(
        tmp_path / "m.json",
        [{"sequence_id": "one", "gt_path": "gt/one.txt", "estimate_paths": ["est/one.txt"]}],
    )
    outcome = run_batch(load_manifest(manifest_path))
    assert outcome.evaluated_count == 1
    rec = outcome.summary.results[0].median_record
    assert rec.ate_rmse == 0.0
    assert math.isnan(rec.rpe_trans)
    doc = summary_to_dict(outcome, load_manifest(manifest_path).options)
    parsed = json.loads(dump_json(doc))  # NaN must not leak into the JSON text
    assert parsed["sequences"][0]["median"]["rpe_trans"] is None
    assert "NaN" not in dump_json(doc)
