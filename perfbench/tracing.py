"""Span tracing from outside the program, for the traced pass.

:func:`install` wraps public entry points of each ``src/repro`` package with a
:class:`Tracer` span.  A layer's self time is the duration of its spans minus
the time their child spans cover.  A call into a layer from the same layer
(``chain_digest`` calling ``sha256_hex``, ``combine_filtering`` calling
``combine``) is counted but opens no span of its own.

Protocol handlers run mostly in callbacks: ``on_message`` charges the
simulated CPU through ``Process.compute`` and the real work runs when that
completes; timers fire through ``Process.set_timer``.  So the callbacks a
replica or client hands to ``compute`` and ``set_timer`` are wrapped too and
counted as that process's handler layer.

Spans are kept in memory in flat arrays (name, parent, start, end) and
written out by :meth:`Tracer.write` once the pass is over.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time: Counter = Counter()
        self.span_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.enabled = True
        # One frame per open span: [span index, layer, child time, start].
        self._stack: List[list] = []

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, layer: str, name: str) -> None:
        """Open a span explicitly (paired with :meth:`end`)."""
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(stack[-1][0] if stack else -1)
        start = self.clock()
        self.span_start.append(start)
        self.span_end.append(0.0)
        stack.append([index, layer, 0.0, start])

    def end(self) -> None:
        end = self.clock()
        stack = self._stack
        index, layer, child, start = stack.pop()
        duration = end - start
        self.span_end[index] = end
        self.self_time[layer] += duration - child
        self.span_time[layer] += duration
        if stack:
            stack[-1][2] += duration

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around each outermost call."""
        calls = self.calls
        stack = self._stack
        begin = self.begin
        end = self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            calls[name] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            begin(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write the span arrays (raw doubles/ints) and a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as out:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)
        index = {
            "spans": len(self.span_start),
            "columns": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "names": self.names,
            "self_s": dict(self.self_time),
            "span_s": dict(self.span_time),
            "calls": dict(self.calls),
        }
        index.update(extra)
        path.with_suffix(".json").write_text(json.dumps(index, indent=1, sort_keys=True))


def _wrap_method(tracer: Tracer, cls: type, method: str, layer: str) -> None:
    name = f"{cls.__name__}.{method}"
    setattr(cls, method, tracer.wrap(layer, name, getattr(cls, method)))


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module's reference to ``original`` at ``replacement``.

    The digest functions are imported by name all over the package, so
    patching ``repro.crypto.hashing`` alone would miss most callers.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer with ``tracer`` spans.

    Must run before the cluster is built, so instances see the wrappers.
    """
    import repro.protocols  # noqa: F401  (loads every layer below)
    from repro.core.client import SBFTClient
    from repro.core.keys import TrustedSetup
    from repro.core.replica import SBFTReplica
    from repro.crypto import hashing
    from repro.crypto.signatures import SigningKey, VerifyKey
    from repro.crypto.threshold import ThresholdScheme
    from repro.evm.vm import EVM
    from repro.pbft.replica import PBFTReplica
    from repro.services.authenticated_kv import AuthenticatedKVStore
    from repro.services.kvstore import KVStore
    from repro.services.ledger import LedgerService
    from repro.sim.events import Simulator
    from repro.sim.network import Network
    from repro.sim.process import Process
    from repro.workloads import EthereumWorkload, KVWorkload

    _wrap_method(tracer, Simulator, "run", "sim.loop")
    for method in ("send", "broadcast_bulk"):
        _wrap_method(tracer, Network, method, "sim.net")

    for method in (
        "sign_share", "forge_share", "verify_share", "combine",
        "combine_filtering", "verify", "verify_message",
    ):
        _wrap_method(tracer, ThresholdScheme, method, "crypto.threshold")
    _wrap_method(tracer, SigningKey, "sign", "crypto.sig")
    _wrap_method(tracer, VerifyKey, "verify", "crypto.sig")
    for fn_name in ("sha256_hex", "sha256_int", "block_digest", "chain_digest"):
        original = getattr(hashing, fn_name)
        _rebind(original, tracer.wrap("crypto.hash", fn_name, original))

    handler_layers = {SBFTReplica: "core.replica", SBFTClient: "core.client", PBFTReplica: "pbft.replica"}
    for cls, layer in handler_layers.items():
        _wrap_method(tracer, cls, "on_message", layer)
    _wrap_process(tracer, Process, handler_layers)

    for cls in (AuthenticatedKVStore, KVStore, LedgerService):
        if "execute_block" in vars(cls):
            _wrap_method(tracer, cls, "execute_block", "services.exec")
        for method in ("snapshot", "restore"):
            _wrap_method(tracer, cls, method, "services.snapshot")
    _wrap_method(tracer, EVM, "execute", "evm")

    _wrap_method(tracer, TrustedSetup, "__init__", "protocols.keys")
    _wrap_method(tracer, TrustedSetup, "client_signing_key", "protocols.keys")
    for cls in (KVWorkload, EthereumWorkload):
        _wrap_method(tracer, cls, "client_operations", "workloads.inputs")


def _wrap_process(tracer: Tracer, process_cls: type, handler_layers: Dict[type, str]) -> None:
    """Trace ``Process`` plumbing, and the handler callbacks it schedules."""
    wrap = tracer.wrap
    layer_by_type: Dict[type, Optional[str]] = {}

    def layer_of(process: Any) -> Optional[str]:
        kind = type(process)
        if kind not in layer_by_type:
            layer_by_type[kind] = next(
                (layer for cls, layer in handler_layers.items() if isinstance(process, cls)), None
            )
        return layer_by_type[kind]

    def with_traced_callback(method: Callable, kind: str) -> Callable:
        def schedule(self: Any, delay: float, callback: Callable, *args: Any) -> Any:
            layer = layer_of(self)
            if layer is not None:
                callback = wrap(layer, f"{type(self).__name__}.{kind}", callback)
            return method(self, delay, callback, *args)

        return schedule

    process_cls.set_timer = with_traced_callback(process_cls.set_timer, "timer")
    process_cls.compute = with_traced_callback(process_cls.compute, "compute")
    for method in ("deliver", "set_timer", "cancel_timer", "compute", "charge_cpu"):
        _wrap_method(tracer, process_cls, method, "sim.process")
