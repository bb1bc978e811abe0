import json
import subprocess
import sys

import pytest

from slameval.cli import EXIT_BAD_INPUT, EXIT_EMPTY_ASSOCIATION, EXIT_OK, main
from slameval.synth import PerturbationSpec, perturb, random_trajectory
from slameval.trajio import load_tum, save_tum

from conftest import build_synth_cohort, write_manifest


@pytest.fixture
def traj_files(tmp_path):
    gt = random_trajectory(seed=200, n=150, step_mean=0.006, turn_mean=0.02)
    gt_path = tmp_path / "gt.txt"
    save_tum(gt, gt_path)
    drift = perturb(gt, PerturbationSpec(drift_per_frame=(0.01, 0.0, 0.0)))
    drift_path = tmp_path / "drift.txt"
    save_tum(drift, drift_path)
    return gt_path, drift_path


def test_ate_identical_files(traj_files, capsys):
    gt_path, _ = traj_files
    code = main(["ate", str(gt_path), str(gt_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "ate.rmse            0.000000 m" in out


def test_rpe_drift_fixture(traj_files, capsys):
    gt_path, drift_path = traj_files
    code = main(["rpe", str(gt_path), str(drift_path), "--delta", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "rpe.trans_rmse      0.030000 m" in out


def test_ate_json_report(traj_files, tmp_path, capsys):
    gt_path, drift_path = traj_files
    report = tmp_path / "ate.json"
    code = main(["ate", str(gt_path), str(drift_path), "--json", str(report)])
    capsys.readouterr()
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["metric"] == "ate"
    assert doc["rmse"] > 0.0


def test_empty_association_exit_code(tmp_path, capsys):
    a = random_trajectory(seed=201, n=50, step_mean=0.01, turn_mean=0.0)
    b = random_trajectory(seed=202, n=50, step_mean=0.01, turn_mean=0.0)
    # shift b's timestamps far away
    from slameval.geom3d import Pose, Trajectory

    shifted = Trajectory(
        tuple(Pose(p.rotation, p.translation, p.timestamp + 1000.0) for p in b)
    )
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_tum(a, pa)
    save_tum(shifted, pb)
    code = main(["ate", str(pa), str(pb)])
    err = capsys.readouterr().err
    assert code == EXIT_EMPTY_ASSOCIATION
    assert "error:" in err


def test_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 0 nope 0 0 0 1\n")
    code = main(["ate", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert "line 1" in err


def test_non_utf8_input_exit_code(traj_files, tmp_path, capsys):
    gt_path, _ = traj_files
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 \xff1\n")
    code = main(["ate", str(gt_path), str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert "line 2" in err


def test_huge_quaternion_reports_its_norm_without_warning(tmp_path):
    ok, big = tmp_path / "ok.txt", tmp_path / "big.txt"
    ok.write_text("0 0 0 0 0 0 0 1\n")
    big.write_text("0 0 0 0 1e200 0 0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "slameval", "ate", str(ok), str(big)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr == "error: line 1: quaternion norm 1e+200 outside [0.9, 1.1]\n"


@pytest.mark.parametrize("jobs", ["x", "0", "-2", ""])
def test_bad_jobs_variable_exit_code(traj_files, tmp_path, monkeypatch, capsys, jobs):
    gt_path, drift_path = traj_files
    manifest = write_manifest(
        tmp_path / "m.json",
        [{"sequence_id": "a", "gt_path": str(gt_path), "estimate_paths": [str(drift_path)]}],
    )
    monkeypatch.setenv("SLAMEVAL_JOBS", jobs)
    code = main(["batch", str(manifest), "--out", str(tmp_path / "r")])
    assert code == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["ate", str(tmp_path / "none.txt"), str(tmp_path / "none.txt")])
    capsys.readouterr()
    assert code == EXIT_BAD_INPUT


def test_stats_table_columns(traj_files, capsys):
    gt_path, drift_path = traj_files
    code = main(["stats", str(gt_path), str(drift_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    header = out.splitlines()[0].split()
    assert header == ["dataset", "m.vel.p.f", "m.ang.v.p.f", "m.frames"]
    assert "(cohort mean)" in out


def test_synth_command_writes_parseable_files(tmp_path, capsys):
    gt_out = tmp_path / "sgt.txt"
    est_out = tmp_path / "sest.txt"
    code = main(
        [
            "synth",
            "--gt-out", str(gt_out),
            "--est-out", str(est_out),
            "--seed", "7",
            "--frames", "100",
            "--drift", "0.002,0,0",
            "--dropout", "0.1",
        ]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    gt = load_tum(gt_out)
    est = load_tum(est_out)
    assert len(gt) == 100
    assert len(est) == 90


def test_batch_command_end_to_end(tmp_path, capsys):
    gt = random_trajectory(seed=203, n=100, step_mean=0.006, turn_mean=0.02)
    specs = [
        ("good", gt, [PerturbationSpec(noise_sigma_trans=0.001, seed=5)]),
    ]
    manifest = build_synth_cohort(tmp_path, specs)
    # add an unreadable entry: fault isolation must keep the rest
    doc = json.loads(manifest.read_text())
    doc["sequences"].append(
        {"sequence_id": "ghost", "gt_path": "gt/ghost.txt", "estimate_paths": ["est/g.txt"]}
    )
    manifest.write_text(json.dumps(doc))

    out_dir = tmp_path / "report"
    code = main(["batch", str(manifest), "--out", str(out_dir), "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_OK  # one sequence evaluated suffices
    assert "ghost" in captured.err
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["evaluated_sequences"] == 1
    assert len(summary["failures"]) == 1


def test_batch_nothing_evaluated_fails(tmp_path, capsys):
    from conftest import write_manifest

    manifest = write_manifest(
        tmp_path / "m.json",
        [{"sequence_id": "x", "gt_path": "gt/x.txt", "estimate_paths": ["est/x.txt"]}],
    )
    code = main(["batch", str(manifest), "--out", str(tmp_path / "r")])
    capsys.readouterr()
    assert code == EXIT_BAD_INPUT


def test_batch_stride_sub_cohorts(tmp_path):
    # evaluating the same cohort at strides 1..4 must scale the mean
    # velocity attribute in the ratios 1:2:3:4
    gt0 = random_trajectory(seed=205, n=400, step_mean=0.006, turn_mean=0.02)
    gt1 = random_trajectory(seed=206, n=400, step_mean=0.006, turn_mean=0.02)
    specs = [
        ("a", gt0, [PerturbationSpec(noise_sigma_trans=0.001, seed=1)]),
        ("b", gt1, [PerturbationSpec(noise_sigma_trans=0.001, seed=2)]),
    ]
    manifest = build_synth_cohort(tmp_path, specs)
    vels = []
    for stride in (1, 2, 3, 4):
        out = tmp_path / f"report_s{stride}"
        code = main(["batch", str(manifest), "--out", str(out), "--stride", str(stride)])
        assert code == EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        vels.append(doc["cohort_attributes"]["mean_vel_per_frame"])
    for stride, v in zip((1, 2, 3, 4), vels):
        assert abs(v / vels[0] - stride) <= 0.02 * stride


def test_module_invocation_smoke(tmp_path):
    gt = random_trajectory(seed=204, n=60, step_mean=0.006, turn_mean=0.02)
    path = tmp_path / "t.txt"
    save_tum(gt, path)
    proc = subprocess.run(
        [sys.executable, "-m", "slameval", "ate", str(path), str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ate.rmse" in proc.stdout
