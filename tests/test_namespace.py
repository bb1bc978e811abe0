"""The lazy package namespace, the modules each CLI command loads (synth
without numpy.random) and the CLI's single-threaded BLAS default.

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


def _run(code: str, *flags: str, **env_overrides) -> subprocess.CompletedProcess:
    """`python FLAGS -c code` with slameval importable, checked to exit 0; a value
    of None removes that variable from the child's environment."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, value in env_overrides.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_numpy():
    out = _run("import sys, slameval; print(sorted(m for m in sys.modules if 'numpy' in m"
               " or m.startswith('slameval.')))").stdout
    assert out.strip() == "[]"


def test_every_exported_name_is_its_home_module_object():
    out = _run(
        "import importlib, json, slameval\n"
        "bad = [n for m, names in slameval._EXPORTS.items() for n in names\n"
        "       if getattr(slameval, n) is not getattr(importlib.import_module('slameval.' + m), n)]\n"
        "print(json.dumps([bad, len(slameval.__all__), len(set(slameval.__all__))]))\n"
    ).stdout
    bad, count, distinct = json.loads(out)
    assert bad == []
    assert count == distinct == 47


def test_star_import_dir_and_unknown_names():
    out = _run(
        "import json, slameval, slameval.cli\n"
        "scope = {}\n"
        "exec('from slameval import *', scope)\n"
        "missing = [n for n in slameval.__all__ if n not in scope]\n"
        "listed = [n for n in slameval.__all__ if n not in dir(slameval)]\n"
        "errors = []\n"
        "for module in (slameval, slameval.cli):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        errors.append(str(exc))\n"
        "from slameval import metrics\n"  # a submodule, not a re-exported name
        "print(json.dumps([missing, listed, errors, metrics.__name__,"
        " slameval.ate is metrics.ate]))\n"
    ).stdout
    missing, listed, errors, submodule, same = json.loads(out)
    assert missing == [] and listed == []
    assert errors == ["module 'slameval' has no attribute 'no_such_name'",
                      "module 'slameval.cli' has no attribute 'no_such_name'"]
    assert submodule == "slameval.metrics" and same


@pytest.mark.parametrize("module, name", [("slameval", "PerturbationSpec"),
                                          ("slameval.cli", "random_trajectory")])
def test_importtime_lists_the_modules_a_lazy_name_loads(module, name):
    # -X importtime reports imports made through __import__, not importlib.import_module
    stderr = _run(f"import {module}; {module}.{name}", "-X", "importtime").stderr
    assert "slameval.synth" in [line.rpartition("|")[2].strip() for line in stderr.splitlines()]


def test_cli_defaults_blas_to_one_thread():
    code = "import os, slameval.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS=None).stdout.strip() == "1"


def test_cli_keeps_a_preset_blas_thread_count():
    code = "import os, slameval.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS="2").stdout.strip() == "2"


def test_library_import_leaves_blas_threads_alone():
    code = "import os, slameval.trajio; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _run(code, OPENBLAS_NUM_THREADS=None).stdout.strip() == "None"


# the modules every command loads: the CLI, its errors and TUM reading and writing
_BASE = ["cli", "errors", "geom3d", "trajio"]
_PAIR = ["align", "metrics"]
# report and the modules it imports for the report bundle; not batch, and not for
# the pair commands' JSON files, whose writer lives in trajio
_REPORT = ["cohort", "report", "svgplot", "trajstats"]


@pytest.mark.parametrize("argv, own", [
    (["synth", "--gt-out", "{d}/g.txt", "--est-out", "{d}/e.txt", "--frames", "50",
      "--offset", "1,2,3", "--dropout", "0.1"], ["synth"]),
    (["stats", "{d}/gt/a.txt"], ["trajstats"]),
    (["ate", "{d}/gt/a.txt", "{d}/est/a_run0.txt"], _PAIR),
    (["rpe", "{d}/gt/a.txt", "{d}/est/a_run0.txt", "--index-assoc"], _PAIR),
    (["ate", "{d}/gt/a.txt", "{d}/est/a_run0.txt", "--json", "{d}/a.json"], _PAIR),
    (["rpe", "{d}/gt/a.txt", "{d}/est/a_run0.txt", "--json", "{d}/r.json"], _PAIR),
    (["batch", "{d}/manifest.json", "--out", "{d}/r", "--svg"], ["batch"] + _PAIR + _REPORT),
], ids=["synth", "stats", "ate", "rpe", "ate-json", "rpe-json", "batch"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, own):
    gt = random_trajectory(seed=210, n=50, step_mean=0.006, turn_mean=0.02)
    build_synth_cohort(tmp_path, [("a", gt, [PerturbationSpec(noise_sigma_trans=0.001)])])
    argv = [arg.format(d=tmp_path) for arg in argv]
    out = _run(
        "import json, sys\n"
        "from slameval.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('slameval.'))]))\n"
    ).stdout
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(f"slameval.{m}" for m in _BASE + own)


def test_synth_loads_neither_numpy_random_nor_openssl(tmp_path):
    # numpy.random imports secrets, which loads OpenSSL's libcrypto through _hashlib
    argv = ["synth", "--gt-out", f"{tmp_path}/g.txt", "--est-out", f"{tmp_path}/e.txt",
            "--frames", "50", "--offset", "1,2,3", "--drift", "0.001,0,0", "--drift-rot", "0.001",
            "--noise-trans", "0.01", "--noise-rot", "0.01", "--dropout", "0.1"]
    out = _run(
        "import json, sys\n"
        "from slameval.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, [m for m in ('numpy.random', 'secrets', '_hashlib')"
        " if m in sys.modules]]))\n"
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [0, []]


def test_report_reexports_the_json_writer_of_trajio():
    from slameval import report, trajio

    assert report.dump_json is trajio.dump_json and "dump_json" in report.__all__


def test_cli_import_loads_no_json():
    # dump_json imports json on first use, so synth and stats never load it
    assert _run("import sys, slameval.cli; print('json' in sys.modules)").stdout.strip() == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_process_runs_one_thread():
    code = "import os, slameval.cli; print(len(os.listdir('/proc/self/task')))"
    assert _run(code, OPENBLAS_NUM_THREADS=None).stdout.strip() == "1"
