import concurrent.futures
import json
import math

import pytest

from slameval import batch
from slameval.batch import BatchOptions, load_manifest, run_batch
from slameval.cli import EXIT_BAD_INPUT, main
from slameval.errors import ValidationError
from slameval.geom3d import Trajectory
from slameval.report import dump_json, summary_to_dict, write_report_bundle
from slameval.synth import PerturbationSpec, random_trajectory
from slameval.trajio import associate, associate_by_index, load_tum, save_tum
from slameval.trajstats import resample_stride

from conftest import build_synth_cohort, write_manifest


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


@pytest.mark.parametrize("n_seq, jobs, pool", [
    (1, 2, None),
    (3, 1, None),
    (2, 3, (2, 1)),
    (5, 2, (2, 1)),
    (9, 2, (2, 2)),
])
def test_batch_pool_is_bounded_by_the_sequence_count(tmp_path, monkeypatch, n_seq, jobs, pool):
    # a stand-in executor: records (max_workers, chunksize) and maps in this process
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            seen.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    manifest = load_manifest(_small_cohort(tmp_path, n_seq=n_seq, runs=1, frames=30))
    outcome = run_batch(manifest, jobs=jobs)
    assert seen == ([] if pool is None else list(pool))
    assert outcome.evaluated_count == n_seq


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
def test_stride_keeps_estimates_with_gaps_in_phase(tmp_path, monkeypatch, stride, by_index):
    gt = random_trajectory(seed=130, n=3000, step_mean=0.006, turn_mean=0.02)
    spec = PerturbationSpec(noise_sigma_trans=0.002, dropout_fraction=0.05, seed=131)
    path = build_synth_cohort(tmp_path, [("gap", gt, [spec])])
    doc = json.loads(path.read_text())
    doc["options"] = {"stride": stride, "index_identity_association": by_index}
    path.write_text(json.dumps(doc))

    seen = []
    ate = batch.ate
    monkeypatch.setattr(batch, "ate", lambda g, e, a: seen.append(a) or ate(g, e, a))
    outcome = run_batch(load_manifest(path))

    gt = load_tum(tmp_path / "gt/gap.txt")
    est = load_tum(tmp_path / "est/gap_run0.txt")
    full = associate_by_index(gt, est) if by_index else associate(gt, est, 0.02)
    kept = {(i // stride, j) for i, j in full.pairs if i % stride == 0}
    assert set(seen[0].pairs) == kept
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
