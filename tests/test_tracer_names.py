"""The names the benchmark tracer replaces on `slameval.cli` are the ones the
commands call.

`perfbench/tracer.py` wraps each ("cli", name) pair of its WRAPS table by
replacing the module attribute. A command that called its own binding
instead would run untraced; here each such name is replaced by a recorder
and a `synth` and a `batch` command must call every one of them.
"""

import importlib.util
from pathlib import Path

import pytest

from slameval import cli
from slameval.synth import PerturbationSpec, random_trajectory

from conftest import build_synth_cohort

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _cli_wraps() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [attr for owner, attr, _, _ in tracer.WRAPS if owner == "cli"]


CLI_WRAPS = _cli_wraps()
CALLED = {
    "synth": {"main", "random_trajectory", "perturb", "save_tum"},
    "batch": {"main", "load_manifest", "run_batch", "write_report_bundle"},
}


def test_the_two_commands_cover_every_traced_cli_name():
    assert set(CLI_WRAPS) == CALLED["synth"] | CALLED["batch"]


@pytest.mark.parametrize("command", sorted(CALLED))
def test_command_calls_each_traced_cli_name_through_the_module(tmp_path, monkeypatch, capsys,
                                                                command):
    calls = []
    for name in CLI_WRAPS:
        def recorder(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorder)
    if command == "synth":
        argv = ["synth", "--gt-out", str(tmp_path / "g.txt"), "--est-out",
                str(tmp_path / "e.txt"), "--frames", "30", "--dropout", "0.1"]
    else:
        gt = random_trajectory(seed=211, n=30, step_mean=0.006, turn_mean=0.02)
        manifest = build_synth_cohort(tmp_path, [("a", gt, [PerturbationSpec(seed=1)])])
        argv = ["batch", str(manifest), "--out", str(tmp_path / "r"), "--jobs", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert set(calls) == CALLED[command]
