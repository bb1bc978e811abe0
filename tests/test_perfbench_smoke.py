"""Smoke run of the benchmark harness: `python3 perfbench/run.py --quick`.

The quick mode runs every benchmark workload at reduced size, untraced and
traced, through all of the harness's correctness checks: the numpy
reference metrics, the planted bad files and the repeatability of the
summary. No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_quick_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"], cwd=ROOT, capture_output=True,
        text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results and all(r["correct"] is True for r in results), proc.stdout[-4000:]
