"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass so that every pass begins with
cold memo tables and a cold execution cache.  It builds the workload, runs it
through ``repro.protocols.build_cluster``, runs every correctness check and
prints one JSON object as its last line of output.

With ``--trace 1`` the layer wrappers of :mod:`tracing` are installed before
the cluster is built; the pass then also reports per-layer self times and
call counts and writes its spans under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import checks
import spec
import tracing
from repro.core import execution_cache

#: Simulated seconds the checks let in-flight work run on after the last
#: completion.
DRAIN_S = 2.0

#: Where the traced pass writes its spans.
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: Host times are CPU seconds scaled to a nominal host speed.  The host's
#: speed is read with a fixed loop of PROBE_ITERATIONS iterations, run before
#: and after set-up and every PROBE_EVERY_S of simulation-loop CPU time; each
#: stretch of CPU time is scaled by PROBE_NOMINAL_S over the mean of the two
#: probes around it.  PROBE_NOMINAL_S is the probe's time on the 2-vCPU VM
#: the reference figures come from, in its fast state.
PROBE_ITERATIONS = 20_000
PROBE_NOMINAL_S = 0.0013
PROBE_EVERY_S = 0.05
SLICE_EVENTS = 500


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop: how fast the host is right now."""
    start = time.process_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.process_time() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of CPU measured between two probes, at the nominal host speed."""
    return seconds * PROBE_NOMINAL_S * 2.0 / (before + after)


def run_pass(name: str, size: str, seed: int, trace: bool) -> Dict[str, Any]:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = spec.get(name, size)
    cpu = time.process_time
    marks: Dict[str, float] = {}
    completions: List[float] = []
    blocks: checks.Blocks = {}

    def post_build(cluster: Any) -> None:
        setup_cpu_s = cpu() - cpu0
        if tracer is not None:
            tracer.end()
        marks["setup_cpu_s"] = setup_cpu_s
        marks["setup_s"] = calibrated(setup_cpu_s, probe0, probe())
        sim_run = cluster.sim.run
        clients = list(cluster.clients.values())

        def sliced_run(until: Any = None, max_events: Any = None, stop_when: Any = None) -> int:
            # The loop runs in slices of SLICE_EVENTS events, with a speed
            # probe after every PROBE_EVERY_S of loop CPU time.  Slicing does
            # not change the event order: Cluster.run stops the simulator in
            # the event that completes the last client, so a slice that ends
            # with every client done, or short of its size, is the last one.
            processed, segment, raw, scaled = 0, 0.0, 0.0, 0.0
            before = probe()
            while True:
                start = cpu()
                count = sim_run(until=until, max_events=SLICE_EVENTS, stop_when=stop_when)
                segment += cpu() - start
                processed += count
                finished = count < SLICE_EVENTS or all(client.done for client in clients)
                if finished or segment >= PROBE_EVERY_S:
                    after = probe()
                    raw += segment
                    scaled += calibrated(segment, before, after)
                    segment, before = 0.0, after
                if finished:
                    marks["run_s"], marks["run_cpu_s"] = scaled, raw
                    return processed

        cluster.sim.run = sliced_run
        record = cluster.recorder.record

        def recording(issued_at: float, completed_at: float, operations: int = 1) -> None:
            completions.append(completed_at)
            record(issued_at, completed_at, operations=operations)

        cluster.recorder.record = recording
        for replica_id, replica in cluster.replicas.items():
            log = blocks[replica_id] = []
            execute_block = replica.service.execute_block

            def logged(sequence: int, operations: Any, _execute=execute_block, _log=log) -> Any:
                _log.append((sequence, operations))
                return _execute(sequence, operations)

            replica.service.execute_block = logged

    probe0 = probe()
    cpu0 = cpu()
    if tracer is not None:
        tracer.begin("protocols.build", "setup")
    plan, restarted = spec.fault_plan(workload) if workload.faults else (None, ())
    inputs = spec.make_inputs(workload, seed)
    cluster = spec.make_cluster(workload, seed, plan)
    cluster.post_build = post_build
    result = cluster.run(inputs)
    del cluster.sim.run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False

    generated = [
        request for client in range(workload.clients) for request in inputs.client_operations(client)
    ]
    operations = sum(len(request) for request in generated)
    latencies = sorted(cluster.recorder.samples)
    completions.sort()
    stats = cluster.network.stats
    replicas = list(cluster.replicas.values())
    clients = list(cluster.clients.values())
    committed = checks.committed_sequence(cluster)
    cache = execution_cache.stats()

    def total(stat: str, nodes: List[Any]) -> int:
        return sum(node.stats.get(stat, 0) for node in nodes)

    counts = {
        "events": result.events_processed,
        "msgs": stats.messages_sent,
        "bytes": stats.bytes_sent,
        "committed_blocks": committed,
        "completed_requests": cluster.recorder.completed_requests,
        "completed_ops": cluster.recorder.completed_operations,
        "fast_commits": total("blocks_committed_fast", replicas),
        "slow_commits": total("blocks_committed_slow", replicas),
        "pbft_commits": total("blocks_committed", replicas) if workload.protocol == "pbft" else 0,
        "view_changes": total("view_changes", replicas),
        "state_transfers": total("state_transfers", replicas),
        "client_retries": total("retries", clients),
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "state_transfer_bytes": stats.per_type_bytes.get("state-transfer-response", 0),
        "reexecuted_ops": 0,
    }
    sim = {
        "sim_tput_ops": result.throughput,
        "sim_lat_p50_ms": 1000.0 * _percentile(latencies, 0.50),
        "sim_lat_p95_ms": 1000.0 * _percentile(latencies, 0.95),
        "sim_outage_ms": 1000.0 * max(b - a for a, b in zip(completions, completions[1:])),
        "sim_msgs_per_block": stats.messages_sent / committed,
    }

    # Let in-flight protocol work finish, outside every measurement: the run
    # stops at the last client's first acknowledgement, when lagging replicas
    # and the other collectors' acknowledgements are still on their way.
    # Client-bound messages are counted after this.
    cluster.sim.run(until=cluster.sim.now + DRAIN_S)
    counts["execute_acks"] = stats.per_type_count.get("execute-ack", 0)
    counts["client_replies"] = stats.per_type_count.get("client-reply", 0)
    replay_cpu_s = None
    failures = checks.check_completion(cluster, generated)
    failures += checks.check_agreement(cluster, workload)
    failures += checks.check_protocol(workload, counts, len(generated))
    if workload.faults:
        failures += checks.check_faults(cluster, plan, restarted, counts)
    reference = checks.reference_replica(cluster)
    if reference is None:
        failures.append("no replica executed every committed block itself")
    else:
        found, counts["reexecuted_ops"] = checks.check_executed_inputs(
            reference, blocks, generated, repeats_allowed=workload.faults
        )
        failures += found
        if workload.service == "kv":
            failures += checks.check_kv_contents(reference, blocks, generated)
        else:
            found, replay_cpu_s = checks.check_ledger_replay(reference, blocks, inputs)
            failures += found

    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "size": size,
        "requests": len(generated),
        "operations": operations,
        "failed_operations": operations - cluster.recorder.completed_operations,
        "latency_samples": len(latencies),
        "replay_cpu_s": replay_cpu_s,
        "host": dict(marks, peak_rss_mb=peak_rss_mb),
        "sim": sim,
        "counts": counts,
        "failures": failures,
    }
    if tracer is not None:
        report["layers"] = {
            "self_s": dict(tracer.self_time),
            "span_s": dict(tracer.span_time),
            "calls": dict(tracer.calls),
            "spans": len(tracer.span_start),
        }
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}", {"workload": name, "seed": seed})
    return report


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    report = run_pass(args.workload, args.size, args.seed, bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
