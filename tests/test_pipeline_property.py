"""Properties of the whole pipeline, from TUM files to the batch report.

Small cohorts are drawn with `slameval.synth` and written as TUM files.
The report of each drawn manifest is compared with the report of a
rewritten one:

- permuting the sequences leaves the report exactly unchanged, up to the
  order in which it lists sequences and failures;
- listing every estimate path twice leaves every median unchanged;
- `--jobs 2` writes the same report as `--jobs 1`;
- shifting every stamp by 1.3e9 s (a Unix-epoch clock), or moving every
  estimate by a rigid transform with offsets up to 1e6 m, moves each
  metric by at most 1e-9 relative. Translation metrics may also move by
  the float64 spacing of the coordinates (1.2e-10 m at 1e6 m), the
  rounding the moved files hold.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from slameval.batch import load_manifest, run_batch  # noqa: E402
from slameval.geom3d import (Trajectory, quat_from_axis_angle, quat_mul,  # noqa: E402
                             quat_normalize, quat_rotate)
from slameval.report import dump_json, summary_to_dict  # noqa: E402
from slameval.synth import PerturbationSpec, random_trajectory  # noqa: E402
from slameval.trajio import load_tum, save_tum  # noqa: E402

from conftest import build_synth_cohort  # noqa: E402

_run = st.builds(
    PerturbationSpec,
    drift_per_frame=st.tuples(*[st.floats(-2e-4, 2e-4)] * 3),
    drift_rot_per_frame=st.floats(-1e-4, 1e-4),
    noise_sigma_trans=st.floats(1e-3, 1e-2),
    noise_sigma_rot=st.floats(1e-3, 1e-2),
    dropout_fraction=st.sampled_from([0.0, 0.1, 0.3]),
    seed=st.integers(0, 2**16),
)
_sequence = st.tuples(st.integers(0, 2**16), st.integers(12, 40), st.lists(_run, min_size=1,
                                                                           max_size=3))
_cohort = st.tuples(
    st.lists(_sequence, min_size=3, max_size=6),
    st.fixed_dictionaries({
        "stride": st.integers(1, 2),
        "rpe_delta": st.integers(1, 3),
        "rpe_mode": st.sampled_from(["fixed-delta", "all-pairs"]),
        "index_identity_association": st.booleans(),
    }),
)
_SETTINGS = settings(max_examples=8, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])
_METRICS = ("ate_rmse", "rpe_trans", "rpe_rot_rad", "tracked_fraction")


def _write(root: Path, cohort) -> Path:
    """The drawn cohort's TUM files and manifest under a fresh directory of root."""
    sequences, options = cohort
    specs = [(f"seq_{k}", random_trajectory(seed, n=frames, step_mean=0.006, turn_mean=0.02),
              runs) for k, (seed, frames, runs) in enumerate(sequences)]
    return build_synth_cohort(Path(tempfile.mkdtemp(dir=root)), specs, **options)


def _report(path: Path, jobs: int = 1) -> dict:
    manifest = load_manifest(path)
    return summary_to_dict(run_batch(manifest, jobs=jobs), manifest.options)


def _rewritten(path: Path, edit) -> Path:
    """A copy of the manifest at path, beside it, with its document passed through edit."""
    doc = json.loads(path.read_text())
    edit(doc)
    out = path.with_name(f"edited_{len(list(path.parent.iterdir()))}.json")
    out.write_text(json.dumps(doc))
    return out


def _moved(path: Path, move) -> Path:
    """A copy of the cohort in a new directory, with move(role, trajectory) applied to
    every file; role is "gt" or "est"."""
    root = Path(tempfile.mkdtemp(dir=path.parent))
    doc = json.loads(path.read_text())
    for seq in doc["sequences"]:
        for role, rel in [("gt", seq["gt_path"])] + [("est", p) for p in seq["estimate_paths"]]:
            save_tum(move(role, load_tum(path.parent / rel)), root / rel)
    (root / path.name).write_text(json.dumps(doc))
    return root / path.name


def _records(report: dict) -> list[dict]:
    return [record for seq in report["sequences"] for record in (seq["median"], *seq["runs"])]


def _assert_metrics_close(a: dict, b: dict, spacing: float = 0.0) -> None:
    assert [s["sequence_id"] for s in a["sequences"]] == [s["sequence_id"] for s in b["sequences"]]
    for x, y in zip(_records(a), _records(b)):
        for metric in _METRICS:
            u, v = x[metric], y[metric]
            if math.isnan(u) or math.isnan(v):
                assert math.isnan(u) and math.isnan(v), (metric, u, v)
                continue
            slack = spacing if metric in ("ate_rmse", "rpe_trans") else 0.0
            assert abs(u - v) <= 1e-9 * abs(u) + slack, (metric, u, v)


@_SETTINGS
@given(cohort=_cohort, data=st.data())
def test_permuting_the_sequences_leaves_the_report_unchanged(tmp_path, cohort, data):
    path = _write(tmp_path, cohort)
    order = data.draw(st.permutations(range(len(cohort[0]))))
    permuted = _rewritten(path, lambda doc: doc.update(
        sequences=[doc["sequences"][k] for k in order]))

    def canonical(report):
        report["sequences"].sort(key=lambda seq: seq["sequence_id"])
        report["failures"].sort(key=lambda failure: (failure["sequence_id"], failure["path"]))
        report["excluded_sequences"].sort()
        return dump_json(report)

    assert canonical(_report(permuted)) == canonical(_report(path))


@_SETTINGS
@given(cohort=_cohort)
def test_listing_every_estimate_twice_leaves_every_median_unchanged(tmp_path, cohort):
    path = _write(tmp_path, cohort)

    def twice(doc):
        for seq in doc["sequences"]:
            seq["estimate_paths"] *= 2

    medians = [dump_json([seq["sequence_id"], seq["median"]])
               for report in (_report(path), _report(_rewritten(path, twice)))
               for seq in report["sequences"]]
    assert medians[: len(medians) // 2] == medians[len(medians) // 2 :]


@_SETTINGS
@given(cohort=_cohort)
def test_two_jobs_write_the_report_of_one(tmp_path, monkeypatch, cohort):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = _write(tmp_path, cohort)
    assert dump_json(_report(path, jobs=2)) == dump_json(_report(path, jobs=1))


@_SETTINGS
@given(cohort=_cohort)
def test_an_epoch_clock_moves_no_metric(tmp_path, cohort):
    path = _write(tmp_path, cohort)
    shifted = _moved(path, lambda role, traj: Trajectory.from_arrays(traj.t + 1.3e9, traj.xyz,
                                                                      traj.q))
    _assert_metrics_close(_report(path), _report(shifted))


@_SETTINGS
@given(cohort=_cohort, axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda a: math.hypot(*a) > 0.1), angle=st.floats(0.0, math.pi),
    offset=st.tuples(*[st.floats(-1e6, 1e6)] * 3))
def test_a_rigid_transform_of_every_estimate_moves_no_metric(tmp_path, cohort, axis, angle,
                                                             offset):
    path = _write(tmp_path, cohort)
    r = quat_from_axis_angle(axis, angle)

    def move(role, traj):
        if role == "gt":
            return traj
        return Trajectory.from_arrays(traj.t, quat_rotate(r, traj.xyz) + offset,
                                      quat_normalize(quat_mul(r, traj.q)))

    spacing = 2.0 * float(np.spacing(max(map(abs, offset)) + 10.0))
    _assert_metrics_close(_report(path), _report(_moved(path, move)), spacing)
