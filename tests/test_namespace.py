"""The lazy package namespace, the modules each CLI command loads and the
CLI's single-threaded BLAS default.

Each check runs in a fresh interpreter, since the test process has long
imported numpy and the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slameval.synth import PerturbationSpec, random_trajectory

from conftest import build_synth_cohort

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str, **env_overrides) -> str:
    """Standard output of `python -c code` with slameval importable; a value of
    None removes that variable from the child's environment."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, value in env_overrides.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_numpy():
    out = _run("import sys, slameval; print(sorted(m for m in sys.modules if 'numpy' in m"
               " or m.startswith('slameval.')))")
    assert out.strip() == "[]"


def test_every_exported_name_is_its_home_module_object():
    out = _run(
        "import importlib, json, slameval\n"
        "bad = [n for m, names in slameval._EXPORTS.items() for n in names\n"
        "       if getattr(slameval, n) is not getattr(importlib.import_module('slameval.' + m), n)]\n"
        "print(json.dumps([bad, len(slameval.__all__), len(set(slameval.__all__))]))\n"
    )
    bad, count, distinct = json.loads(out)
    assert bad == []
    assert count == distinct == 47


def test_star_import_dir_and_unknown_names():
    out = _run(
        "import json, slameval\n"
        "scope = {}\n"
        "exec('from slameval import *', scope)\n"
        "missing = [n for n in slameval.__all__ if n not in scope]\n"
        "listed = [n for n in slameval.__all__ if n not in dir(slameval)]\n"
        "try:\n"
        "    slameval.no_such_name\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "from slameval import metrics\n"  # a submodule, not a re-exported name
        "print(json.dumps([missing, listed, error, metrics.__name__,"
        " slameval.ate is metrics.ate]))\n"
    )
    missing, listed, error, submodule, same = json.loads(out)
    assert missing == [] and listed == []
    assert error == "module 'slameval' has no attribute 'no_such_name'"
    assert submodule == "slameval.metrics" and same


def test_cli_defaults_blas_to_one_thread():
    code = "import os, slameval.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS=None).strip() == "1"


def test_cli_keeps_a_preset_blas_thread_count():
    code = "import os, slameval.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS="2").strip() == "2"


def test_library_import_leaves_blas_threads_alone():
    code = "import os, slameval.trajio; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _run(code, OPENBLAS_NUM_THREADS=None).strip() == "None"


# the modules every command loads: the CLI, its errors and TUM reading and writing
_BASE = ["cli", "errors", "geom3d", "trajio"]
_EVALUATE = ["align", "batch", "cohort", "metrics", "trajstats"]


@pytest.mark.parametrize("argv, own", [
    (["synth", "--gt-out", "{d}/g.txt", "--est-out", "{d}/e.txt", "--frames", "50",
      "--offset", "1,2,3", "--dropout", "0.1"], ["synth"]),
    (["stats", "{d}/gt/a.txt"], ["trajstats"]),
    (["ate", "{d}/gt/a.txt", "{d}/est/a_run0.txt"], _EVALUATE),
    (["rpe", "{d}/gt/a.txt", "{d}/est/a_run0.txt"], _EVALUATE),
    (["ate", "{d}/gt/a.txt", "{d}/est/a_run0.txt", "--json", "{d}/a.json"],
     _EVALUATE + ["report", "svgplot"]),
    (["batch", "{d}/manifest.json", "--out", "{d}/r", "--svg"], _EVALUATE + ["report", "svgplot"]),
], ids=["synth", "stats", "ate", "rpe", "ate-json", "batch"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, own):
    gt = random_trajectory(seed=210, n=50, step_mean=0.006, turn_mean=0.02)
    build_synth_cohort(tmp_path, [("a", gt, [PerturbationSpec(noise_sigma_trans=0.001)])])
    argv = [arg.format(d=tmp_path) for arg in argv]
    out = _run(
        "import json, sys\n"
        "from slameval.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('slameval.'))]))\n"
    )
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(f"slameval.{m}" for m in _BASE + own)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_process_runs_one_thread():
    code = "import os, slameval.cli; print(len(os.listdir('/proc/self/task')))"
    assert _run(code, OPENBLAS_NUM_THREADS=None).strip() == "1"
