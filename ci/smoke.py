"""Benchmark smoke run: every workload of BENCHMARK.json for 3 seconds.

    python ci/smoke.py

Run from the repository root, on Python 3.11 or later (``perfbench/run.py``
reads ``pyproject.toml`` with ``tomllib``).  Runs
``perfbench/run.py --workload <w> --seconds 3`` for each workload name that
``BENCHMARK.json`` declares, in its order, and prints ``<w>: <last line>``.
Exits 1 unless every run exits 0 and its last line is a JSON object
reporting ``"correct": true`` and ``"failed": 0``.
"""

import json
import subprocess
import sys

with open("BENCHMARK.json", encoding="utf-8") as f:
    workloads = [w["name"] for w in json.load(f)["workloads"]]

ok = True
for w in workloads:
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", w, "--seconds", "3"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.splitlines()
    last = lines[-1] if lines else ""
    print(f"{w}: {last}", flush=True)
    try:
        report = json.loads(last)
    except json.JSONDecodeError:
        report = None
    ok &= (
        run.returncode == 0
        and isinstance(report, dict)
        and report.get("correct") is True
        and report.get("failed") == 0
    )
sys.exit(not ok)
