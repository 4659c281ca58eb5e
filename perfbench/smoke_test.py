"""Smoke test: every workload at tiny size, through the full benchmark path.

Runs ``run.py --size tiny`` for each workload, untraced and traced, so the
pass runner, the checks, the pass-to-pass determinism comparison and the
tracer all run.  Takes about half a minute.  Run it with pytest or directly::

    python3 -m pytest perfbench/smoke_test.py -q
    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import spec  # noqa: E402
from run import CONFIG, END_TO_END_UNITS, WORKLOADS  # noqa: E402


def run_tiny(workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "5",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    untraced = run_tiny(workload, trace=0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] > 0
    assert set(untraced["metrics"]) == set(END_TO_END_UNITS)
    assert all(metric["value"] > 0 for metric in untraced["metrics"].values())
    traced = run_tiny(workload, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert set(traced["metrics"]) == set(units)
    assert all(traced["metrics"][name]["unit"] == unit for name, unit in units.items())


def test_workloads_match_spec() -> None:
    assert set(WORKLOADS) == set(spec.WORKLOADS)


def test_kv_sbft_n209() -> None:
    check_workload("kv-sbft-n209")


def test_kv_pbft_n49() -> None:
    check_workload("kv-pbft-n49")


def test_ledger_sbft_n53() -> None:
    check_workload("ledger-sbft-n53")


def test_faults_sbft_n53() -> None:
    check_workload("faults-sbft-n53")


if __name__ == "__main__":
    for name in WORKLOADS:
        check_workload(name)
        print(f"{name}: ok")
