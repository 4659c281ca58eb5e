"""SBFT benchmark: one workload, one seed, the median of several passes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv-sbft-n209 --seed 1 --seconds 30 --trace 0

Each pass runs ``one_pass.py`` in a fresh interpreter with ``PYTHONHASHSEED``
pinned, one pass at a time.  Passes repeat until the next one would end after
``--seconds`` (at least three).  With ``--trace 0`` the run
reports every end-to-end metric as the median over its passes; with
``--trace 1`` it runs one traced pass and untraced passes beside it, and
reports the per-layer metrics of the traced pass plus the tracing overhead.

Every pass checks its own outputs (see ``checks.py``), and all passes of a run
must produce identical simulated outputs and exact counts.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``;
``attempted`` and ``failed`` count operations (puts or transactions) over all
passes of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PASS_TIMEOUT_S = 170
MIN_PASSES = 3

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in CONFIG["end_to_end"]}

HOST_METRICS = ("run_s", "setup_s", "peak_rss_mb")

HASH_FUNCTIONS = ("sha256_hex", "sha256_int", "block_digest", "chain_digest")


def per_layer(traced: Dict[str, Any], overhead_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    layers, counts = traced["layers"], traced["counts"]
    self_s, span_s, calls = layers["self_s"], layers["span_s"], layers["calls"]

    def self_time(layer: str) -> Tuple[float, str]:
        return (self_s.get(layer, 0.0), "s")

    def count(value: float) -> Tuple[float, str]:
        return (value, "count")

    return {
        "sim.loop_self_s": self_time("sim.loop"),
        "sim.net_self_s": self_time("sim.net"),
        "sim.process_self_s": self_time("sim.process"),
        "sim.events": count(counts["events"]),
        "sim.msgs": count(counts["msgs"]),
        "sim.kb": (counts["bytes"] / 1024.0, "kB"),
        "crypto.threshold_self_s": self_time("crypto.threshold"),
        "crypto.share_signs": count(calls.get("ThresholdScheme.sign_share", 0)),
        "crypto.share_verifies": count(calls.get("ThresholdScheme.verify_share", 0)),
        "crypto.combines": count(calls.get("ThresholdScheme.combine", 0)),
        "crypto.proof_verifies": count(calls.get("ThresholdScheme.verify", 0)),
        "crypto.sig_self_s": self_time("crypto.sig"),
        "crypto.sig_signs": count(calls.get("SigningKey.sign", 0)),
        "crypto.sig_verifies": count(calls.get("VerifyKey.verify", 0)),
        "crypto.hash_self_s": self_time("crypto.hash"),
        "crypto.hash_calls": count(sum(calls.get(name, 0) for name in HASH_FUNCTIONS)),
        "core.replica_self_s": self_time("core.replica"),
        "core.client_self_s": self_time("core.client"),
        "core.fast_commits": count(counts["fast_commits"]),
        "core.slow_commits": count(counts["slow_commits"]),
        "core.view_changes": count(counts["view_changes"]),
        "core.state_transfers": count(counts["state_transfers"]),
        "core.client_retries": count(counts["client_retries"]),
        "core.client_msgs_per_req": (
            (counts["execute_acks"] + counts["client_replies"]) / traced["requests"], "msgs/req"
        ),
        "core.reexecuted_ops": count(counts["reexecuted_ops"]),
        "pbft.replica_self_s": self_time("pbft.replica"),
        "pbft.commits": count(counts["pbft_commits"]),
        "services.exec_self_s": self_time("services.exec"),
        "services.cache_hits": count(counts["cache_hits"]),
        "services.cache_misses": count(counts["cache_misses"]),
        "services.snapshot_self_s": self_time("services.snapshot"),
        "services.state_transfer_kb": (counts["state_transfer_bytes"] / 1024.0, "kB"),
        "evm.self_s": self_time("evm"),
        "evm.executions": count(calls.get("EVM.execute", 0)),
        "protocols.keys_s": (span_s.get("protocols.keys", 0.0), "s"),
        "protocols.build_s": (
            span_s.get("protocols.build", 0.0)
            - span_s.get("protocols.keys", 0.0)
            - span_s.get("workloads.inputs", 0.0),
            "s",
        ),
        "workloads.inputs_s": (span_s.get("workloads.inputs", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def run_one_pass(workload: str, seed: int, size: str, trace: bool) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(BENCH_DIR / "one_pass.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"pass of {workload} (seed {seed}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact_outputs(report: Dict[str, Any]) -> Dict[str, Any]:
    """What every pass of one seed must reproduce bit for bit."""
    return {"sim": report["sim"], "counts": report["counts"], "requests": report["requests"]}


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 values)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> Dict[str, Any]:
    start = time.monotonic()
    traced = run_one_pass(workload, seed, size, trace=True) if trace else None
    passes: List[Dict[str, Any]] = []
    durations: List[float] = []
    while True:
        began = time.monotonic()
        passes.append(run_one_pass(workload, seed, size, trace=False))
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break

    reports = passes + ([traced] if traced else [])
    failures = sorted({failure for report in reports for failure in report["failures"]})
    reference = exact_outputs(passes[0])
    for report in reports[1:]:
        if exact_outputs(report) != reference:
            failures.append("passes of one seed differ in simulated outputs or exact counts")
            break

    print(
        f"{workload} seed {seed}: {len(passes)} passes" + (" + 1 traced" if traced else "")
        + f", {passes[0]['requests']} requests and {passes[0]['latency_samples']} latency samples each"
    )
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        untraced_run_s = statistics.median(p["host"]["run_s"] for p in passes)
        overhead = traced["host"]["run_s"] - untraced_run_s
        for name, (value, unit) in per_layer(traced, overhead).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:28s} {value:14.4f} {unit}")
    else:
        raw = {key: statistics.median(p["host"][key] for p in passes) for key in ("run_cpu_s", "setup_cpu_s")}
        print(f"  uncalibrated CPU seconds: run {raw['run_cpu_s']:.4f}, set-up {raw['setup_cpu_s']:.4f}")
        replays = [p["replay_cpu_s"] for p in passes if p["replay_cpu_s"] is not None]
        if replays:
            print(f"  single-node sequential replay of the committed blocks: {statistics.median(replays):.4f} s CPU")
        for name, unit in END_TO_END_UNITS.items():
            if name in HOST_METRICS:
                values = [p["host"][name] for p in passes]
            else:
                values = [p["sim"][name] for p in passes]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(
                f"  {name:20s} {value:14.4f} {unit:10s} min {min(values):.4f} "
                f"max {max(values):.4f} spread {100 * spread(values):.1f}%"
            )
    return {
        "correct": not failures,
        "attempted": sum(report["operations"] for report in reports),
        "failed": sum(report["failed_operations"] for report in reports),
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no SBFT sources at {ROOT / 'src' / 'repro'}: run from a full checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
