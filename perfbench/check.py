"""Steadiness check: do two sets of runs agree within BENCHMARK.json's bounds?

Usage (from the repository root)::

    python3 perfbench/check.py --runs 10 --sets 2
    python3 perfbench/check.py --analyze .perfbench/check-runs.jsonl

Each set runs ``run.py`` once per seed on every workload (set ``k`` uses
seeds ``first-seed + k*runs`` onwards, so the two sets share no seed).  Every
run's result line is appended to ``.perfbench/check-runs.jsonl``.  For each
workload and end-to-end metric the check reports every set's median and its
spread (interquartile range over median), and passes when

* each spread is within the metric's bound,
* every set's median differs from the first set's, either way, by at most
  the bound times the first set's median,
* every run is correct and the share of failed operations is the same in
  every set.

It exits with 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List

from run import spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LOG = ROOT / ".perfbench" / "check-runs.jsonl"


def run_sets(config: Dict[str, Any], runs: int, sets: int, first_seed: int) -> List[Dict[str, Any]]:
    LOG.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for set_index in range(sets):
        for workload in (w["name"] for w in config["workloads"]):
            for offset in range(runs):
                seed = first_seed + set_index * runs + offset
                command = list(config["command"]) + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(config["run_seconds"]), "--trace", "0",
                ]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
                row = {"set": set_index, "workload": workload, "seed": seed,
                       "result": json.loads(done.stdout.strip().splitlines()[-1])}
                with open(LOG, "a") as log:
                    log.write(json.dumps(row, sort_keys=True) + "\n")
                print(f"set {set_index} {workload} seed {seed} done", flush=True)
                rows.append(row)
    return rows


def analyze(config: Dict[str, Any], rows: List[Dict[str, Any]]) -> bool:
    grouped: Dict[str, Dict[int, List[Dict[str, Any]]]] = defaultdict(lambda: defaultdict(list))
    for row in rows:
        grouped[row["workload"]][row["set"]].append(row["result"])
    ok = True
    for workload, sets in sorted(grouped.items()):
        order = sorted(sets)
        print(f"\n{workload}: " + ", ".join(f"set {k}: {len(sets[k])} runs" for k in order))
        shares = []
        for k in order:
            results = sets[k]
            if not all(result["correct"] for result in results):
                print(f"  set {k}: INCORRECT run(s)")
                ok = False
            shares.append((sum(r["failed"] for r in results), sum(r["attempted"] for r in results)))
        failed_shares = {failed / attempted for failed, attempted in shares}
        if len(failed_shares) > 1:
            print(f"  failed shares differ between sets: {shares}")
            ok = False
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, verdicts = [], set()
            first_median = None
            for k in order:
                values = [r["metrics"][name]["value"] for r in sets[k]]
                median, width = statistics.median(values), spread(values)
                cells.append(f"median {median:12.4f} spread {100 * width:5.1f}%")
                if width > bound:
                    verdicts.add("SPREAD")
                elif width > bound / 3:
                    verdicts.add("wide")
                if first_median is None:
                    first_median = median
                elif abs(median - first_median) > bound * first_median:
                    verdicts.add("MOVED")
            if verdicts & {"SPREAD", "MOVED"}:
                ok = False
            verdict = ",".join(sorted(verdicts)) or "ok"
            print(f"  {name:20s} bound {bound:4.2f} | " + " | ".join(cells) + f" | {verdict}")
    print("\nPASS" if ok else "\nFAIL")
    return ok


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--analyze", type=Path, nargs="*", help="result logs to analyze instead of running")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.analyze:
        rows = [json.loads(line) for path in args.analyze for line in path.read_text().splitlines() if line]
    else:
        rows = run_sets(config, args.runs, args.sets, args.first_seed)
    return 0 if analyze(config, rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
