"""The four benchmark workloads: what each one builds from a seed.

Every workload is a closed loop: each client sends its next request only after
the previous one completed.  A workload is fully determined by its name, its
size (``full`` for measurement, ``tiny`` for the smoke test) and the seed; the
seed picks both the generated inputs (keys or transactions) and the
simulator's seed (network jitter, state-transfer peer choice).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.protocols import build_cluster
from repro.sim.faults import FaultPlan
from repro.workloads import EthereumWorkload, KVWorkload

#: Protocol timers of the fault workload, short enough that the fast-path
#: fallback, the view change and client retries all fit in the scripted
#: timeline below.
FAULT_TIMERS = {
    "fast_path_timeout": 0.05,
    "batch_timeout": 0.01,
    "view_change_timeout": 1.0,
    "client_retry_timeout": 1.5,
    "checkpoint_interval": 8,
}

#: Scripted fault timeline, absolute simulated seconds.
CRASH_AT = 0.4      # c+1 backups crash: the fast path is impossible
RESTART_AT = 1.2    # they restart and catch up by state transfer
PRIMARY_AT = 2.0    # the view-0 primary crashes: a view change follows


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    f: int
    c: int
    topology: str
    clients: int
    service: str                      # "kv" or "ledger"
    requests_per_client: int = 0
    puts_per_request: int = 16        # KV only
    key_space: int = 10_000           # KV only
    transactions: int = 0             # ledger only
    batch_size: int = 4
    overrides: Dict[str, Any] = field(default_factory=dict)
    faults: bool = False

    @property
    def n(self) -> int:
        return 3 * self.f + 2 * self.c + 1


_KV_AT_SCALE = dict(
    topology="world",
    clients=48,
    service="kv",
    requests_per_client=5,
    batch_size=48,
    overrides={"batch_timeout": 1.0},
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="kv-sbft-n209",
            protocol="sbft-c8",
            f=64,
            c=8,
            **_KV_AT_SCALE,
        ),
        Workload(
            name="kv-pbft-n49",
            protocol="pbft",
            f=16,
            c=0,
            **dict(_KV_AT_SCALE, topology="continent"),
        ),
        Workload(
            name="ledger-sbft-n53",
            protocol="sbft-c8",
            f=16,
            c=2,
            topology="continent",
            clients=16,
            service="ledger",
            requests_per_client=13,
            transactions=17_200,
            batch_size=16,
            overrides={"batch_timeout": 1.0},
        ),
        Workload(
            name="faults-sbft-n53",
            protocol="sbft-c8",
            f=16,
            c=2,
            topology="continent",
            clients=4,
            service="kv",
            requests_per_client=50,
            overrides=FAULT_TIMERS,
            faults=True,
        ),
    )
}

#: Smoke-test sizes: the same protocols, replica counts and checks, with few
#: requests.  The fault workload keeps enough requests to span its timeline.
TINY: Dict[str, Dict[str, Any]] = {
    "kv-sbft-n209": dict(clients=4, requests_per_client=2, batch_size=4),
    "kv-pbft-n49": dict(clients=4, requests_per_client=2, batch_size=4),
    "ledger-sbft-n53": dict(clients=2, requests_per_client=2, transactions=400, batch_size=2),
    "faults-sbft-n53": dict(clients=2, requests_per_client=30, puts_per_request=2),
}


class EvenShares:
    """A ``repro.workloads`` generator cut to the same request count per client.

    The Ethereum trace is chunked by bytes, so its chunk count, and with it the
    number of clients left with one request more than the rest, depends on the
    seed.  Those last lone requests would set the longest gap between
    completions.  The trace is generated a little longer than needed and
    every client sends the first ``requests_per_client`` of its share.
    """

    def __init__(self, generator: Any, requests_per_client: int):
        self.generator = generator
        self.requests_per_client = requests_per_client

    def set_num_clients(self, num_clients: int) -> None:
        self.generator.set_num_clients(num_clients)

    def service_factory(self) -> Any:
        return self.generator.service_factory()

    def client_operations(self, client_id: int) -> List[Any]:
        share = self.generator.client_operations(client_id)
        if len(share) < self.requests_per_client:
            raise ValueError(f"client {client_id} has only {len(share)} requests")
        return share[: self.requests_per_client]


def get(name: str, size: str = "full") -> Workload:
    workload = WORKLOADS[name]
    if size == "tiny":
        workload = dataclasses.replace(workload, **TINY[name])
    return workload


def fault_plan(workload: Workload) -> Tuple[FaultPlan, Tuple[int, ...]]:
    """The scripted timeline and the backups it crashes and restarts."""
    n = workload.n
    backups = tuple(range(n - 1, n - 2 - workload.c, -1))
    plan = FaultPlan.crash_first(len(backups), node_ids=backups, at_time=CRASH_AT)
    plan = plan.extend(FaultPlan.restart(backups, at_time=RESTART_AT))
    plan = plan.extend(FaultPlan.crash_first(1, at_time=PRIMARY_AT))
    return plan, backups


def make_inputs(workload: Workload, seed: int) -> Any:
    """The generated client inputs (a ``repro.workloads`` generator)."""
    input_seed = seed * 2 + 1
    if workload.service == "kv":
        return KVWorkload(
            requests_per_client=workload.requests_per_client,
            batch_size=workload.puts_per_request,
            key_space=workload.key_space,
            seed=input_seed,
        )
    trace = EthereumWorkload(
        num_transactions=workload.transactions,
        seed=input_seed,
        num_clients=workload.clients,
    )
    return EvenShares(trace, workload.requests_per_client)


def make_cluster(workload: Workload, seed: int, plan: Optional[FaultPlan]) -> Any:
    return build_cluster(
        workload.protocol,
        f=workload.f,
        c=workload.c,
        num_clients=workload.clients,
        topology=workload.topology,
        batch_size=workload.batch_size,
        seed=seed * 2,
        fault_plan=plan,
        config_overrides=dict(workload.overrides),
    )
