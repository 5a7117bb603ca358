"""Helpers shared by the workloads: timed calls, statistics, memory."""

from __future__ import annotations

import collections
import math
import resource
import statistics
import time
from typing import Callable, Deque, Dict, List, Optional, Sequence

from tracer import Tracer

#: set-ups per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 3


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: seconds one calibration loop takes on the host of record (a typical
#: figure); every time the benchmark reports is in those host-seconds
CALIBRATION_REF_S = 0.0003
#: wall seconds between calibrations, at most
CALIBRATION_INTERVAL_S = 0.1
#: calibrations the host clock's factor is the median of
CALIBRATION_WINDOW = 5


class _Cell:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right

    def step(self, salt: int) -> int:
        return (self.left * 31 + self.right + salt) & 0xFFFF


def calibration_loop() -> int:
    """A fixed burst of interpreter work (method calls, attribute and
    integer arithmetic, dict and list traffic) written here, so no
    change to the program moves it. On the host of record this tracked
    the program's speed across the host's phases better than a loop
    heavy in HMAC and struct calls."""
    cell = _Cell(1, 2)
    table: Dict[int, int] = {}
    seen: List[int] = []
    acc = 0
    for i in range(700):
        acc ^= cell.step(i)
        cell.left, cell.right = cell.right, acc
        table[acc & 255] = i
        seen.append(table.get(i & 255, 0))
    return acc + len(seen)


class HostClock:
    """A clock that counts reference-host seconds.

    The host of record is a 2-vCPU VM whose speed switches between two
    levels about 1.5x apart every 10 to 60 seconds, presumably as other
    tenants load the same physical cores. Raw wall-clock figures differ
    from run to run by more than any bound worth setting. This clock
    times :func:`calibration_loop` (median of three) at most every
    ``CALIBRATION_INTERVAL_S`` wall seconds and counts wall time at
    ``factor = CALIBRATION_REF_S / calibration time``, taking the median
    over the last ``CALIBRATION_WINDOW`` calibrations: the host's phases
    last seconds, one calibration's noise does not. A slow phase thus
    stretches neither a latency nor a throughput. Calibration time
    itself is not counted.
    """

    def __init__(self):
        self._base = 0.0
        # a full window from the start, so the first set-up's factor is
        # a median too
        self._recent: Deque[float] = collections.deque(
            (self._measure() for _ in range(CALIBRATION_WINDOW)),
            maxlen=CALIBRATION_WINDOW)
        self.factor = median(self._recent)
        self._stamp = time.perf_counter()

    @staticmethod
    def _measure() -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - t0)
        return CALIBRATION_REF_S / median(times)

    def calibrate(self, force: bool = False) -> None:
        """Re-time the loop if ``CALIBRATION_INTERVAL_S`` has passed (or
        ``force``)."""
        wall = time.perf_counter()
        if force or wall - self._stamp >= CALIBRATION_INTERVAL_S:
            self._base += (wall - self._stamp) * self.factor
            self._recent.append(self._measure())
            self.factor = median(self._recent)
            self._stamp = time.perf_counter()

    def now(self) -> float:
        self.calibrate()
        return self._base + (time.perf_counter() - self._stamp) * self.factor


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Caller:
    """Times every call the benchmark makes into the program.

    A call is timed on the wall clock and scaled by the host clock's
    factor from just before it; a call longer than the calibration
    interval is re-calibrated after it and scaled by the mean of the
    two factors. ``busy_s`` accumulates the scaled time and
    ``raw_busy_s`` the wall time. With a tracer attached each call is a
    root span (layer ``api``), so the layer wrappers record only work
    the program does on the benchmark's behalf.
    """

    def __init__(self, clock: HostClock, tracer: Optional[Tracer] = None):
        self.clock = clock
        self.tracer = tracer
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.last_s = 0.0

    def call(self, fn: Callable, *args):
        clock, tracer = self.clock, self.tracer
        clock.calibrate()
        factor = clock.factor
        if tracer is not None:
            tracer.enter()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            raw = time.perf_counter() - start
            if tracer is not None:
                tracer.exit("api")
            if raw >= CALIBRATION_INTERVAL_S:
                clock.calibrate(force=True)
                factor = (factor + clock.factor) / 2
            self.last_s = raw * factor
            self.busy_s += self.last_s
            self.raw_busy_s += raw


#: per-layer metric -> traced layer whose self time it reports, in
#: microseconds per unit of work (a settled session or a sweep)
SERVICE_TIMES = (
    ("shard.frame_us", "shard.frame"),
    ("service.self_us", "service"),
    ("session.ingest_us", "session.ingest"),
    ("wire.decode_us", "wire.decode"),
    ("auth.mac_us", "auth.mac"),
    ("speccfa.expand_us", "speccfa.expand"),
    ("bounds.screen_us", "bounds.screen"),
    ("policy.observe_us", "policy.observe"),
    ("mining.observe_us", "mining.observe"),
    ("verify.chain_us", "verify.chain"),
    ("replay.us", "replay"),
    ("replay_cache.key_us", "replay_cache.key"),
    ("replay_cache.lookup_us", "replay_cache.lookup"),
    ("replay_cache.store_us", "replay_cache.store"),
    ("evidence.append_us", "evidence.append"),
    ("api.other_us", "api"),
)

#: device-side metric -> layer, in milliseconds per sweep (attest-sweep)
#: or per set-up's device attestations (fleets)
DEVICE_TIMES = (
    ("offline.prepare_ms", "offline.prepare"),
    ("engine.attest_ms", "engine.attest"),
    ("machine.run_ms", "machine.run"),
    ("jit.compile_ms", "jit.compile"),
    ("verify.ms", "verify"),
    ("auth.sign_ms", "auth.sign"),
)

#: device-side counters, per sweep or per set-up
DEVICE_COUNTS = ("machine.instructions", "mtb.packets",
                 "mtb.partial_reports", "gateway.calls",
                 "gateway.sim_cycles")


def layer_metrics(window: Tracer, units: float, scale: float,
                  device: Tracer, device_units: float,
                  device_scale: float) -> Dict[str, float]:
    """Per-layer numbers from a traced window and a traced device-side
    phase (the same snapshot for attest-sweep). Spans are timed on the
    wall clock; ``scale`` and ``device_scale`` (host-clock over wall
    time of the phase) put them on the host clock like every other
    reported time."""
    out: Dict[str, float] = {}
    for name, layer in SERVICE_TIMES:
        out[name] = window.self_us(layer) * scale / units
    out["auth.mac_calls"] = window.calls.get("auth.mac", 0) / units
    out["speccfa.expanded_records"] = (
        window.counts.get("speccfa.expanded_records", 0) / units)
    out["bounds.rejects"] = window.counts.get("bounds.rejects", 0) / units
    out["policy.decisions"] = (
        window.counts.get("policy.decisions", 0) / units)
    replays = window.calls.get("replay", 0)
    out["replay.calls"] = replays / units
    out["replay.path_len"] = (
        window.counts.get("replay.path_len", 0) / replays if replays
        else 0.0)
    total = window.total_self_us()
    out["replay.share_pct"] = (
        100.0 * window.self_us("replay") / total if total else 0.0)
    for name, layer in DEVICE_TIMES:
        out[name] = device.self_us(layer) * device_scale / 1e3 / device_units
    out["jit.compiles"] = device.calls.get("jit.compile", 0) / device_units
    for name in DEVICE_COUNTS:
        out[name] = device.counts.get(name, 0) / device_units
    return out
