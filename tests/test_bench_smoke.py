"""The benchmark's smoke run: every workload at tiny sizes, untraced and
traced, checked against BENCHMARK.json.  The traced pass wraps pipeline
functions at their binding sites, so a renamed or re-bound function
fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke():
    out = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                          "--smoke"], cwd=ROOT, capture_output=True,
                         text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "smoke ok" in out.stdout
