"""Side-band layer tracer: times the repro layers from outside.

The benchmark never edits the program. For a traced run it replaces the
public functions the layers call one another through with timing
wrappers (module globals where a caller imported a name, class
attributes for methods), records a span per call, and restores every
original on :meth:`Tracer.uninstall`.

Spans nest on one stack. A layer's *self* time is its spans' duration
minus the part covered by the spans of wrapped callees, so the self
times of all layers add up to the time spent inside the root spans the
benchmark opens around its own calls into the program (the ``api``
layer keeps whatever no wrapper claimed). Wrappers record nothing
outside a root span, which keeps client-side work (for example the
simulated devices re-signing their report chains) out of the service's
layers.

The MTB/DWT retire hooks are deliberately not wrapped: the JIT only
hoists hooks it recognises, so wrapping them would run a different
(interpreted) program. Those layers are counted from the attestation
results instead.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, owner attribute or None, attribute, layer, result hook name)
#: -- owner None patches a module global (a caller's imported name)
_TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[str]], ...] = (
    # fleet service path
    ("repro.cfa.fleet.shard", "ShardedFleetService", "submit",
     "shard.frame", None),
    ("repro.cfa.fleet.service", "FleetService", "submit", "service", None),
    ("repro.cfa.fleet.session", "SessionManager", "ingest",
     "session.ingest", None),
    ("repro.cfa.fleet.session", None, "decode_report", "wire.decode", None),
    ("repro.cfa.streaming", None, "decode_report", "wire.decode", None),
    ("repro.cfa.report", "Report", "verify", "auth.mac", None),
    ("repro.cfa.fleet.verify", None, "expand", "speccfa.expand",
     "_on_expand"),
    ("repro.cfa.fleet.session", None, "expand", "speccfa.expand",
     "_on_expand"),
    ("repro.cfa.fleet.service", None, "expand", "speccfa.expand",
     "_on_expand"),
    ("repro.cfa.fleet.service", None, "screen_records", "bounds.screen",
     "_on_screen"),
    ("repro.cfa.policy.engine", "PolicyEngine", "observe", "policy.observe",
     "_on_policy"),
    ("repro.cfa.fleet.mining", "TrafficSampler", "observe",
     "mining.observe", None),
    ("repro.cfa.fleet.mining", None, "mine_fleet_dictionary", "mining.mine",
     None),
    ("repro.cfa.fleet.service", None, "verify_session_chain",
     "verify.chain", None),
    ("repro.cfa.verifier", "Verifier", "replay", "replay", "_on_replay"),
    ("repro.cfa.verifier", "NaiveVerifier", "replay", "replay",
     "_on_replay"),
    ("repro.cfa.fleet.verify", "ReplayCache", "key", "replay_cache.key",
     None),
    ("repro.cfa.fleet.verify", "ReplayCache", "lookup",
     "replay_cache.lookup", None),
    ("repro.cfa.fleet.verify", "ReplayCache", "store", "replay_cache.store",
     None),
    ("repro.cfa.fleet.store", "DurableReplayCache", "lookup",
     "replay_cache.lookup", None),
    ("repro.cfa.fleet.store", "DurableReplayCache", "store",
     "replay_cache.store", None),
    ("repro.cfa.fleet.store", "EvidenceStore", "append", "evidence.append",
     None),
    ("repro.cfa.fleet.store", "EvidenceStore", "append_decision",
     "evidence.append", None),
    ("repro.cfa.fleet.store", "EvidenceStore", "__init__", "evidence.open",
     None),
    ("repro.core.analysis.certificate", None, "certify_workload",
     "bounds.certify", None),
    # device side and offline pipeline
    ("repro.eval.runner", None, "prepare", "offline.prepare", None),
    ("repro.cfa.fleet.simulator", None, "prepare", "offline.prepare", None),
    ("repro.cfa.fleet.verify", None, "prepare", "offline.prepare", None),
    ("repro.cfa.engine", "RapTrackEngine", "attest", "engine.attest",
     "_on_attest"),
    ("repro.baselines.traces", "TracesEngine", "attest", "engine.attest",
     "_on_attest"),
    ("repro.baselines.naive_mtb", "NaiveMtbEngine", "attest",
     "engine.attest", "_on_attest"),
    ("repro.machine.mcu", "MCU", "run", "machine.run", "_on_machine"),
    ("repro.machine.jit.runtime", None, "compile_superblock", "jit.compile",
     None),
    ("repro.cfa.verifier", "Verifier", "verify", "verify", None),
    ("repro.cfa.verifier", "NaiveVerifier", "verify", "verify", None),
    ("repro.cfa.report", "Report", "sign", "auth.sign", None),
)


class Tracer:
    """Span stack plus per-layer self time, call counts and counters."""

    def __init__(self):
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self) -> None:
        self._stack.append(0)
        self._stack.append(time.perf_counter_ns())

    def exit(self, layer: str) -> None:
        elapsed = time.perf_counter_ns() - self._stack.pop()
        children = self._stack.pop()
        self.self_ns[layer] += elapsed - children
        self.calls[layer] += 1
        if self._stack:
            self._stack[-2] += elapsed

    def _wrap(self, layer: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(layer)
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- result hooks (counters measured where the work happens) --------------

    def _on_expand(self, records) -> None:
        self.counts["speccfa.expanded_records"] += len(records)

    def _on_screen(self, reason) -> None:
        if reason is not None:
            self.counts["bounds.rejects"] += 1

    def _on_policy(self, decisions) -> None:
        self.counts["policy.decisions"] += len(decisions)

    def _on_replay(self, outcome) -> None:
        self.counts["replay.path_len"] += len(outcome.path)

    def _on_attest(self, result) -> None:
        self.counts["mtb.packets"] += result.mtb_packets
        self.counts["mtb.partial_reports"] += result.partial_report_count
        self.counts["gateway.calls"] += result.gateway_calls
        self.counts["gateway.sim_cycles"] += result.gateway_cycles

    def _on_machine(self, run) -> None:
        self.counts["machine.instructions"] += run.instructions

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for module_name, owner_name, attr, layer, hook_name in _TARGETS:
            module = importlib.import_module(module_name)
            owner = (module if owner_name is None
                     else getattr(module, owner_name))
            original = owner.__dict__[attr] if owner_name else getattr(
                module, attr)
            hook = getattr(self, hook_name) if hook_name else None
            if isinstance(original, staticmethod):
                patched = staticmethod(
                    self._wrap(layer, original.__func__, hook))
            else:
                patched = self._wrap(layer, original, hook)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # -- read-out -------------------------------------------------------------

    def take(self) -> "Tracer":
        """Hand over everything recorded so far and start afresh (the
        patches stay installed)."""
        snapshot = Tracer()
        snapshot.self_ns.update(self.self_ns)
        snapshot.calls.update(self.calls)
        snapshot.counts.update(self.counts)
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        return snapshot

    def self_us(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e3

    def total_self_us(self) -> float:
        return sum(self.self_ns.values()) / 1e3
