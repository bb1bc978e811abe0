import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import slameval
from slameval import trajio
from slameval.cli import EXIT_BAD_INPUT, EXIT_EMPTY_ASSOCIATION, EXIT_OK, main
from slameval.geom3d import Trajectory
from slameval.metrics import ate
from slameval.synth import PerturbationSpec, perturb, random_trajectory
from slameval.trajio import associate, load_tum, save_tum

from conftest import build_synth_cohort, write_manifest


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m slameval ARGS` in a new process that imports this slameval."""
    env = dict(os.environ, PYTHONPATH=str(Path(slameval.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "slameval", *args], env=env,
                          capture_output=True, text=True)


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


def test_rpe_json_report_matches_printed_values(traj_files, tmp_path, capsys):
    gt_path, _ = traj_files
    noisy = perturb(load_tum(gt_path), PerturbationSpec(noise_sigma_rot=0.01, seed=3))
    save_tum(noisy, tmp_path / "noisy.txt")
    report = tmp_path / "rpe.json"
    argv = ["rpe", str(gt_path), str(tmp_path / "noisy.txt"), "--delta", "2", "--json", str(report)]
    assert main(argv) == EXIT_OK
    printed = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    doc = json.loads(report.read_text())
    assert (doc["schema_version"], doc["metric"], doc["delta"]) == (1, "rpe", 2)
    assert printed["compared_pairs"] == f"{doc['pairs']} (mode={doc['mode']})"
    assert printed["rpe.trans_rmse"] == f"{doc['trans_rmse']:.6f} m"
    rot = f"{doc['rot_mean_deg']:.6f} deg ({doc['rot_mean_rad']:.9f} rad)"
    assert printed["rpe.rot_mean"] == rot and doc["rot_mean_rad"] > 0.0
    assert doc["rot_mean_deg"] == math.degrees(doc["rot_mean_rad"])


def test_index_association_ignores_shifted_stamps(traj_files, tmp_path, capsys):
    gt_path, drift_path = traj_files
    drift = load_tum(drift_path)
    shifted_path = tmp_path / "shifted.txt"
    save_tum(Trajectory.from_arrays(drift.t + 1000.0, drift.xyz, drift.q), shifted_path)
    assert main(["ate", str(gt_path), str(drift_path)]) == EXIT_OK
    by_time = capsys.readouterr().out
    assert main(["ate", str(gt_path), str(shifted_path), "--index-assoc"]) == EXIT_OK
    assert capsys.readouterr().out == by_time
    assert main(["ate", str(gt_path), str(shifted_path)]) == EXIT_EMPTY_ASSOCIATION


def test_pair_commands_associate_through_the_batch_choice(traj_files, monkeypatch, capsys):
    # ate and rpe match their pair with trajio.associate_runs, as a batch matches its runs
    gt_path, drift_path = traj_files
    calls = []
    kernel = trajio.associate_runs
    monkeypatch.setattr(trajio, "associate_runs",
                        lambda *args, **kw: calls.append(args) or kernel(*args, **kw))
    for command in ("ate", "rpe"):
        for flags in ([], ["--index-assoc"]):
            assert main([command, str(gt_path), str(drift_path), *flags]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 4


@pytest.mark.parametrize("command", ["ate", "rpe"])
def test_tolerance_spanning_everything_is_bad_input(tmp_path, capsys, command):
    # 100 poses a side at an infinite tolerance: 10000 candidates, over 32 * 200
    path = tmp_path / "gt.txt"
    save_tum(random_trajectory(seed=5, n=100, step_mean=0.006, turn_mean=0.02), path)
    assert main([command, str(path), str(path), "--max-diff", "inf"]) == EXIT_BAD_INPUT
    assert "10000 candidate pairs, more than 32 per pose (6400)" in capsys.readouterr().err


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


def test_byte_order_mark_before_the_header_is_ignored(traj_files, tmp_path, capsys):
    gt_path, drift_path = traj_files
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + drift_path.read_bytes())
    assert main(["ate", str(gt_path), str(drift_path)]) == EXIT_OK
    plain = capsys.readouterr().out
    assert main(["ate", str(gt_path), str(marked)]) == EXIT_OK
    assert capsys.readouterr().out == plain


def test_huge_quaternion_reports_its_norm_without_warning(tmp_path):
    ok, big = tmp_path / "ok.txt", tmp_path / "big.txt"
    ok.write_text("0 0 0 0 0 0 0 1\n")
    big.write_text("0 0 0 0 1e200 0 0 1\n")
    proc = _run_module("ate", str(ok), str(big))
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr == "error: line 1: quaternion norm 1e+200 outside [0.9, 1.1]\n"


@pytest.mark.parametrize("scale", [1e306, 1e307])
def test_ate_of_a_path_near_the_float_limit_is_zero(tmp_path, capsys, scale):
    # at 1e307 m the 60 positions sum beyond the float range; their centroid does not
    g = random_trajectory(seed=207, n=60, step_mean=0.006, turn_mean=0.02)
    g = Trajectory.from_arrays(g.t, g.xyz * scale, g.q)
    path = tmp_path / "g.txt"
    save_tum(g, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = ate(g, g, associate(g, g))
        code = main(["ate", str(path), str(path)])
    assert (report.rmse, report.mean, report.median) == (0.0, 0.0, 0.0)
    assert code == EXIT_OK
    assert "ate.rmse            0.000000 m" in capsys.readouterr().out


# above sys.maxsize a job count is bad input, not clamped to the CPU count
@pytest.mark.parametrize("jobs", ["x", "0", "-2", "", str(2**63)])
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


@pytest.mark.parametrize("option, value, code", [
    ("rpe_delta", 10**30, EXIT_BAD_INPUT),
    ("stride", 2**63, EXIT_BAD_INPUT),
    ("rpe_delta", sys.maxsize, EXIT_OK),
    ("stride", sys.maxsize, EXIT_OK),
])
def test_manifest_integers_end_at_int64(traj_files, tmp_path, capsys, option, value, code):
    # the array pass takes rpe_delta and stride as int64: beyond it is bad input
    gt_path, drift_path = traj_files
    manifest = write_manifest(
        tmp_path / "m.json",
        [{"sequence_id": "a", "gt_path": str(gt_path), "estimate_paths": [str(drift_path)]}],
        **{option: value},
    )
    assert main(["batch", str(manifest), "--out", str(tmp_path / "r")]) == code
    assert (option in capsys.readouterr().err) == (code == EXIT_BAD_INPUT)


@pytest.mark.parametrize("stride, code", [("100000000000000000000000", EXIT_BAD_INPUT),
                                          (str(sys.maxsize), EXIT_OK)])
def test_batch_stride_flag_ends_at_int64(traj_files, tmp_path, capsys, stride, code):
    gt_path, drift_path = traj_files
    manifest = write_manifest(
        tmp_path / "m.json",
        [{"sequence_id": "a", "gt_path": str(gt_path), "estimate_paths": [str(drift_path)]}],
    )
    argv = ["batch", str(manifest), "--out", str(tmp_path / "r"), "--stride", stride]
    assert main(argv) == code
    assert ("stride" in capsys.readouterr().err) == (code == EXIT_BAD_INPUT)


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_stats_rejects_a_stride_below_one(traj_files, capsys, stride):
    gt_path, _ = traj_files
    assert main(["stats", str(gt_path), "--stride", stride]) == EXIT_BAD_INPUT
    assert "stride" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ate", "rpe"])
def test_nan_max_diff_is_bad_input(traj_files, capsys, command):
    gt_path, drift_path = traj_files
    assert main([command, str(gt_path), str(drift_path), "--max-diff", "nan"]) == EXIT_BAD_INPUT
    assert "max_time_diff" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--drift", "nan,0,0"],
    ["--drift", "0,inf,0"],
    ["--drift", "0,x,0"],
    ["--offset", "0,0,nan"],
    ["--step-mean", "nan"],
    ["--turn-mean", "inf"],
    ["--drift-rot", "nan"],
    ["--noise-trans", "nan"],
    ["--noise-rot", "inf"],
    ["--offset", "0,0,0", "--offset-yaw", "nan"],
    ["--seed", "-1"],
    ["--step-mean", "1e308"],
    ["--drift", "1e308,0,0"],
    ["--offset", "0,0,0", "--offset-yaw", "inf"],  # cos(inf) must not warn either
])
def test_synth_rejects_non_finite_numbers(tmp_path, capsys, flags):
    gt_out, est_out = tmp_path / "gt.txt", tmp_path / "est.txt"
    argv = ["synth", "--gt-out", str(gt_out), "--est-out", str(est_out), "--frames", "20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # overflow must not warn
        assert main(argv + flags) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err
    assert not gt_out.exists() and not est_out.exists()


def test_synth_frame_count_beyond_int64_is_one_error_line(tmp_path):
    frames = str(10**20)
    proc = _run_module("synth", "--gt-out", str(tmp_path / "gt.txt"),
                       "--est-out", str(tmp_path / "est.txt"), "--frames", frames)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr == f"error: --frames must be an integer in [1, {sys.maxsize}], got {frames}\n"
    assert not (tmp_path / "gt.txt").exists()


@pytest.mark.parametrize("flags, message", [
    (["--frames", "0"], f"--frames must be an integer in [1, {sys.maxsize}], got 0"),
    (["--frames", "1"], "--frames must be >= 2, got 1"),
    (["--offset", "0,0,0", "--offset-yaw", "nan"], "--offset-yaw must be finite, got nan"),
    (["--offset-yaw=-inf"], "--offset-yaw must be finite, got -inf"),
    (["--step-mean", "inf"], "step_mean must be finite, got inf"),
    (["--turn-mean", "1e400"], "turn_mean must be finite, got inf"),
    (["--drift-rot", "nan"], "drift_rot_per_frame must be finite, got nan"),
    (["--noise-trans", "-1"], "noise_sigma_trans must be finite and >= 0, got -1.0"),
    (["--noise-rot", "inf"], "noise_sigma_rot must be finite and >= 0, got inf"),
    (["--dropout", "-0.5"], "dropout_fraction must be finite and >= 0, got -0.5"),
    (["--dropout", "1"], "dropout_fraction must lie in [0, 1)"),
])
def test_synth_bad_number_is_one_error_line_naming_it(tmp_path, capsys, flags, message):
    gt_out, est_out = tmp_path / "gt.txt", tmp_path / "est.txt"
    argv = ["synth", "--gt-out", str(gt_out), "--est-out", str(est_out), "--frames", "20"]
    assert main(argv + flags) == EXIT_BAD_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not gt_out.exists() and not est_out.exists()


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
    proc = _run_module("ate", str(path), str(path))
    assert proc.returncode == 0
    assert "ate.rmse" in proc.stdout
