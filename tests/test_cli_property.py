"""Property: any command line over small files ends in exit 0, 2 or 3.

Generated argv drive `cli.main` over small valid and invalid TUM files
and manifests. Every run must return 0 (success), 2 (bad input) or 3
(empty association), including argparse's own exits, and must neither
raise (a traceback) nor warn with a RuntimeWarning, in this process or
in a batch worker. `--jobs` and SLAMEVAL_JOBS stay within 1-2.
"""

import json
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from slameval.cli import main  # noqa: E402

# Numbers of every kind, most of them invalid for some flag
_number = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-1", "1e400", "-0.0", "nan", "inf", "x", "", "1,0"]),
)


def _mostly(good, bad):
    """Draws from good four times in five, else from bad."""
    return st.sampled_from([good] * 4 + [bad]).flatmap(lambda strategy: strategy)


def _value(*good: str):
    """A flag value: mostly one of the good ones, else any number."""
    return _mostly(st.sampled_from(good), _number)


_vec3 = _mostly(
    st.sampled_from(["0,0,0", "1e-4,0,0", "1 2 3", "0.5,-1,2"]),
    st.lists(_number, min_size=2, max_size=4).map(",".join),
)

# A pose after its timestamp: a translation and a unit quaternion
_pose_body = st.builds(
    lambda xyz, quat: " ".join(map(repr, (*xyz, *quat))),
    st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    st.sampled_from([(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.6, 0.8), (0.5, 0.5, 0.5, 0.5)]),
)
_bad_line = st.one_of(
    st.lists(_number, min_size=7, max_size=9).map(" ".join),
    st.sampled_from(["", "# comment", "1 nan 0 0 0 0 0 1", "0 0 0 0 0 0 0",
                     "9 0 0 0 0 0 0 2"]),
    st.text(max_size=10),
)


@st.composite
def _tum_bytes(draw) -> bytes:
    """Poses on a 30 Hz clock, now and then with a defective line or byte."""
    first = draw(st.integers(0, 4))
    steps = [k for k in range(first, first + draw(st.integers(1, 12)))
             if draw(st.integers(0, 4))]  # about one frame in five dropped
    # the clock offset: none, within, beyond or far beyond the default tolerance
    offset = draw(_mostly(st.sampled_from([0.0, 0.004]), st.sampled_from([0.05, 100.0])))
    lines = [f"{k / 30.0 + offset!r} {draw(_pose_body)}" for k in steps]
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad_line))
    data = "\n".join(lines).encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 19)) == 0:
        data += b"\xff"
    return data


_file = _mostly(st.sampled_from(["gt.txt", "est.txt"]), st.sampled_from(["missing.txt", "sub"]))
_option = st.sampled_from([("max_time_diff", 0.1), ("rpe_delta", 2), ("rpe_mode", "all-pairs"),
                           ("stride", 2), ("min_tracked", 0.0),
                           ("index_identity_association", True), ("gap_ratio_min", 1.5)])
_entries = st.lists(
    st.fixed_dictionaries({
        "sequence_id": st.sampled_from(["a", "b", "c", "d"]),
        "gt_path": _file,
        "estimate_paths": st.lists(_file, min_size=1, max_size=3),
    }),
    min_size=1, max_size=4, unique_by=lambda entry: entry["sequence_id"],
)
# one defect a manifest may carry: (where, key, value), or cut the text at a byte
_defect = st.sampled_from([
    ("entry", "sequence_id", None), ("entry", "sequence_id", ""), ("entry", "estimate_paths", []),
    ("entry", "gt_path", 3), ("options", "max_time_diff", -1), ("options", "rpe_delta", 0),
    ("options", "rpe_mode", "x"), ("options", "stride", 0), ("options", "bogus", 1),
    ("cut", None, 17),
])


@st.composite
def _manifest(draw) -> bytes:
    """A manifest document, valid four times in five, else with one defect."""
    doc = {"schema_version": 1, "options": dict(draw(st.lists(_option, max_size=2))),
           "sequences": draw(_entries)}
    where, key, value = draw(_mostly(st.just((None, None, None)), _defect))
    if where == "entry":
        doc["sequences"][0][key] = value
    elif where == "options":
        doc["options"][key] = value
    text = json.dumps(doc)
    return (text[:value] if where == "cut" else text).encode()


def _flags(**choices):
    """Each flag present or absent, with its drawn value (None: a switch)."""
    return st.tuples(*[
        st.one_of(st.just([]), values.map(lambda v, f=flag: [f] if v is None else [f, v]))
        for flag, values in choices.items()
    ]).map(lambda parts: [token for part in parts for token in part])


_pair = {
    "--max-diff": _value("0.02", "0.1", "1"),
    "--index-assoc": st.none(),
    "--json": _mostly(st.just("r.json"), st.sampled_from(["out/r.json", "sub"])),
}
_argv = st.one_of(
    st.tuples(
        st.just(["ate"]),
        _mostly(st.tuples(_file, _file).map(list), st.lists(_file, max_size=3)),
        _flags(**_pair),
    ),
    st.tuples(
        st.just(["rpe"]),
        st.tuples(_file, _file).map(list),
        _flags(**_pair, **{"--delta": _value("1", "2", "5"), "--allow-large": st.none(),
                           "--mode": _mostly(st.sampled_from(["fixed-delta", "all-pairs"]),
                                             st.just("x"))}),
    ),
    st.tuples(
        st.just(["stats"]), st.lists(_file, max_size=3), _flags(**{"--stride": _value("1", "2")})
    ),
    st.tuples(
        st.just(["batch", "m.json"]),
        _mostly(st.just(["--out", "bundle"]), st.sampled_from([["--out", "gt.txt"], []])),
        _flags(**{"--jobs": st.sampled_from(["1", "2"]), "--stride": _value("1", "2", "3"),
                  "--svg": st.none()}),
    ),
    st.tuples(
        st.just(["synth"]),
        _mostly(st.just(["--gt-out", "out/g.txt", "--est-out", "out/e.txt"]),
                st.sampled_from([["--gt-out", "sub", "--est-out", "e.txt"], ["--gt-out", "g.txt"]])),
        _flags(**{
            "--seed": _value("0", "7"), "--frames": _value("1", "2", "30"),
            "--step-mean": _value("0.006", "0"), "--turn-mean": _value("0.025", "0"),
            "--drift": _vec3, "--drift-rot": _value("0", "1e-5"),
            "--noise-trans": _value("0", "0.003"), "--noise-rot": _value("0", "0.002"),
            "--dropout": _value("0", "0.05", "0.9"), "--offset": _vec3,
            "--offset-yaw": _value("0", "0.7"),
        }),
    ),
    st.lists(st.sampled_from(["ate", "--version", "-x", "batch", "nope", "--jobs"]), max_size=3)
    .map(lambda argv: (argv,)),
).map(lambda parts: [token for part in parts for token in part])


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    gt=_tum_bytes(), est=_tum_bytes(), manifest=_manifest(), argv=_argv,
    env_jobs=st.sampled_from([None, "1", "2", "x", ""]),
)
def test_cli_exits_cleanly_on_any_input(tmp_path, monkeypatch, capfd, gt, est, manifest, argv,
                                        env_jobs):
    (tmp_path / "gt.txt").write_bytes(gt)
    (tmp_path / "est.txt").write_bytes(est)
    (tmp_path / "m.json").write_bytes(manifest)
    (tmp_path / "sub").mkdir(exist_ok=True)
    monkeypatch.chdir(tmp_path)
    if env_jobs is None:
        monkeypatch.delenv("SLAMEVAL_JOBS", raising=False)
    else:
        monkeypatch.setenv("SLAMEVAL_JOBS", env_jobs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors, --version
            code = exc.code
    err = capfd.readouterr().err
    assert code in (0, 2, 3), (argv, err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
