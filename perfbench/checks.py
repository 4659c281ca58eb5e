"""Correctness checks run after every pass.

Each check compares the run against something computed independently of it:
the inputs the benchmark generated, a plain re-execution, or a protocol
property.  Every check returns a list of failure messages (empty on success).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.core import execution_cache
from repro.errors import InvalidProof

Blocks = Dict[int, List[Tuple[int, Sequence[Any]]]]


def _op_key(operation: Any) -> Tuple[int, int]:
    return (operation.client_id, operation.timestamp)


def committed_sequence(cluster: Any) -> int:
    return max(replica.last_executed for replica in cluster.replicas.values())


def reference_replica(cluster: Any) -> Any:
    """A replica at the last committed sequence that executed every block itself."""
    last = committed_sequence(cluster)
    for _replica_id, replica in sorted(cluster.replicas.items()):
        if replica.last_executed == last and replica.stats.state_transfers == 0:
            return replica
    return None


def check_completion(cluster: Any, generated: List[List[Any]]) -> List[str]:
    requests = len(generated)
    operations = sum(len(request) for request in generated)
    recorder = cluster.recorder
    failures = []
    if recorder.completed_requests != requests:
        failures.append(f"completed {recorder.completed_requests} of {requests} requests")
    if recorder.completed_operations != operations:
        failures.append(f"completed {recorder.completed_operations} of {operations} operations")
    return failures


def check_agreement(cluster: Any, workload: Any) -> List[str]:
    """Replicas agree on the state digest over every sequence both executed."""
    failures = []
    last = committed_sequence(cluster)
    at_last = sum(1 for r in cluster.replicas.values() if r.last_executed == last)
    if at_last < workload.n - workload.f:
        failures.append(f"only {at_last} replicas reached sequence {last}, need {workload.n - workload.f}")
    seen: Dict[Any, Tuple[int, str]] = {}
    for replica_id, replica in sorted(cluster.replicas.items()):
        if workload.service == "kv":
            # The KV store keeps its digest after every block: compare them all.
            points = []
            for sequence in range(1, replica.last_executed + 1):
                try:
                    points.append((sequence, replica.service.digest_at(sequence)))
                except InvalidProof:
                    continue
        else:
            # The ledger exposes only its current digest.
            points = [(replica.last_executed, replica.service.digest())]
        for sequence, digest in points:
            first = seen.setdefault(sequence, (replica_id, digest))
            if first[1] != digest:
                failures.append(
                    f"replicas {first[0]} and {replica_id} disagree at sequence {sequence}"
                )
                break
    return failures


def check_executed_inputs(
    reference: Any, blocks: Blocks, generated: List[List[Any]], repeats_allowed: bool
) -> Tuple[List[str], int]:
    """The reference replica executed every generated operation and nothing else.

    Without faults every operation must run exactly once.  With
    ``repeats_allowed`` it must run at least once: after a view change the
    protocol orders a retried request again (see the README).  Returns the
    failures and the number of repeated executions.
    """
    executed = Counter(_op_key(op) for _seq, ops in blocks[reference.node_id] for op in ops)
    expected = Counter(_op_key(op) for request in generated for op in request)
    failures = []
    missing = len(set(expected) - set(executed))
    unknown = len(set(executed) - set(expected))
    if missing or unknown:
        failures.append(
            f"replica {reference.node_id} missed {missing} generated operations "
            f"and executed {unknown} that were never generated"
        )
    repeated = sum(executed.values()) - len(executed)
    if repeated and not repeats_allowed:
        failures.append(f"replica {reference.node_id} executed {repeated} operations more than once")
    return failures, repeated


def check_kv_contents(reference: Any, blocks: Blocks, generated: List[List[Any]]) -> List[str]:
    """The store equals a plain dict of the generated puts, applied in commit order."""
    by_key = {_op_key(op): op.payload for request in generated for op in request}
    expected: Dict[str, Any] = {}
    for _sequence, ops in blocks[reference.node_id]:
        for op in ops:
            put = by_key[_op_key(op)]
            expected[put.key] = put.value
    actual = reference.service.snapshot()["data"]
    if actual != expected:
        return [f"replica {reference.node_id} holds {len(actual)} keys, expected {len(expected)} (or values differ)"]
    return []


def check_ledger_replay(reference: Any, blocks: Blocks, inputs: Any) -> Tuple[List[str], float]:
    """Re-executing the committed blocks on a fresh ledger gives the same digest.

    Also returns the CPU seconds of that single-node sequential replay, the
    no-consensus baseline for the ledger workload.
    """
    fresh = inputs.service_factory()
    execution_cache.clear()
    previous = execution_cache.set_enabled(False)
    start = time.process_time()
    try:
        for sequence, ops in blocks[reference.node_id]:
            fresh.execute_block(sequence, ops)
    finally:
        seconds = time.process_time() - start
        execution_cache.set_enabled(previous)
    if fresh.digest() != reference.service.digest():
        return ["sequential re-execution of the committed blocks gives another ledger digest"], seconds
    return [], seconds


def check_protocol(workload: Any, counts: Dict[str, float], requests: int) -> List[str]:
    """Linearity, client acknowledgements and the fast path."""
    failures = []
    n = workload.n
    per_block = counts["msgs"] / counts["committed_blocks"]
    if workload.protocol == "pbft":
        if per_block <= n * n:
            failures.append(f"PBFT sent {per_block:.0f} messages per block, expected more than n^2={n * n}")
    elif per_block >= n * n:
        failures.append(f"SBFT sent {per_block:.0f} messages per block, expected fewer than n^2={n * n}")
    if workload.faults:
        return failures
    acks, replies = counts["execute_acks"], counts["client_replies"]
    if workload.protocol == "pbft":
        if (acks, replies) != (0, n * requests):
            failures.append(f"PBFT clients got {acks} acks and {replies} replies, expected n={n} replies per request")
    elif (acks, replies) != ((workload.c + 1) * requests, 0):
        failures.append(f"SBFT clients got {acks} acks and {replies} replies, expected c+1={workload.c + 1} acks per request")
    if workload.protocol != "pbft":
        slow = counts["slow_commits"]
        if slow or not counts["fast_commits"]:
            failures.append(f"fault-free SBFT committed {slow} blocks on the slow path")
    return failures


def check_faults(cluster: Any, plan: Any, restarted: Sequence[int], counts: Dict[str, float]) -> List[str]:
    failures = []
    fired = len(cluster.injector.applied) if cluster.injector is not None else 0
    if fired != len(plan):
        failures.append(f"{fired} of {len(plan)} planned faults fired")
    if not counts["slow_commits"]:
        failures.append("no slow-path commit while c+1 backups were down")
    if not counts["view_changes"] or max(r.view for r in cluster.replicas.values()) < 1:
        failures.append("no view change after the primary crashed")
    last = committed_sequence(cluster)
    for replica_id in restarted:
        replica = cluster.replicas[replica_id]
        if replica.last_executed != last or replica.stats.state_transfers == 0:
            failures.append(
                f"restarted replica {replica_id} at sequence {replica.last_executed} of {last} "
                f"after {replica.stats.state_transfers} state transfers"
            )
    return failures
