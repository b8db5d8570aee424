"""Open-loop workload generation and per-stage service demand.

Arrivals are open-loop: the next arrival time depends only on the phase plan
and the arrival RNG stream, never on how the system responds. Phases are
consecutive ``[start, end)`` windows; a constant process emits its first
arrival exactly at the start of the first positive-rate phase and then every
``1/rate`` seconds, while a poisson process restarts memorylessly at each
phase boundary.

Service demand is affine in the stage's input size:
``demand = base + per_byte * input_bytes``. The backend stage sees the
frontend's output, ``payload * reduction``. Scenario files carry demand in
milliseconds and ms-per-kB (1 kB = 1000 bytes); the profiles here are already
converted to seconds and seconds-per-byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import fields

ARRIVAL_CONSTANT = "constant"
ARRIVAL_POISSON = "poisson"
ARRIVAL_KINDS = (ARRIVAL_CONSTANT, ARRIVAL_POISSON)

PAYLOAD_CONSTANT = "constant"
PAYLOAD_LOGNORMAL = "lognormal"
PAYLOAD_EMPIRICAL = "empirical"
PAYLOAD_DISTS = (PAYLOAD_CONSTANT, PAYLOAD_LOGNORMAL, PAYLOAD_EMPIRICAL)

EMPIRICAL_UNIFORM = "uniform"
EMPIRICAL_CYCLE = "cycle"
EMPIRICAL_MODES = (EMPIRICAL_UNIFORM, EMPIRICAL_CYCLE)

STAGE_FRONTEND = "frontend"
STAGE_BACKEND = "backend"
STAGES = (STAGE_FRONTEND, STAGE_BACKEND)


@fields.declare
@dataclass(frozen=True)
class Phase:
    rate: float = field(metadata={"bounds": ">= 0"})
    duration_s: float = field(metadata={"bounds": "> 0"})


@fields.declare
@dataclass(frozen=True)
class PayloadSpec:
    """Payload size distribution. Field usage depends on ``dist``:
    constant -> ``bytes``; lognormal -> ``mu``/``sigma`` (of ln size);
    empirical -> ``values`` plus ``mode`` (uniform draw or cycle)."""

    dist: str = field(default=PAYLOAD_CONSTANT, metadata={"one_of": ("dist", PAYLOAD_DISTS)})
    bytes: int = field(default=250_000, metadata={"bounds": ">= 1", "when": PAYLOAD_CONSTANT})
    mu: float = field(default=0.0, metadata={"when": PAYLOAD_LOGNORMAL})
    sigma: float = field(default=0.0, metadata={"bounds": ">= 0", "when": PAYLOAD_LOGNORMAL})
    values: tuple[int, ...] = field(default=(), metadata={"when": PAYLOAD_EMPIRICAL})
    mode: str = field(
        default=EMPIRICAL_UNIFORM, metadata={"one_of": ("mode", EMPIRICAL_MODES), "when": PAYLOAD_EMPIRICAL}
    )


@fields.declare
@dataclass(frozen=True)
class WorkloadSpec:
    arrival: str = field(default=ARRIVAL_CONSTANT, metadata={"one_of": ("kind", ARRIVAL_KINDS)})
    payload: PayloadSpec = PayloadSpec()
    phases: tuple[Phase, ...] = ()


@dataclass(frozen=True)
class StageProfile:
    """Affine demand model for one pipeline stage, in seconds and bytes."""

    stage: str
    base_demand_s: float
    per_byte_demand_s: float
    reduction_factor: float = 1.0


def phase_windows(spec: WorkloadSpec) -> list[tuple[float, float, float]]:
    """Phases as consecutive (start, end, rate) windows from t=0."""
    windows = []
    start = 0.0
    for phase in spec.phases:
        end = start + phase.duration_s
        windows.append((start, end, phase.rate))
        start = end
    return windows


def next_arrival(spec: WorkloadSpec, now: float | None, rng: random.Random, windows=None) -> float | None:
    """Time of the arrival after ``now``, or None when the plan is exhausted.

    ``now`` is the previous arrival time; ``None`` primes the process at the
    start of the plan. Arrivals land strictly inside their phase window.
    ``windows`` is ``phase_windows(spec)``, which a caller drawing many
    arrivals computes once; it is computed here when omitted.
    """
    if windows is None:
        windows = phase_windows(spec)
    if spec.arrival == ARRIVAL_CONSTANT:
        return _next_constant(windows, now)
    if spec.arrival == ARRIVAL_POISSON:
        return _next_poisson(windows, now, rng)
    raise ValueError(f"unknown arrival kind {spec.arrival!r}")


def _next_constant(windows, now):
    if now is None:
        for start, _end, rate in windows:
            if rate > 0.0:
                return start
        return None
    for start, end, rate in windows:
        if start <= now < end:
            if rate > 0.0:
                # arrivals sit on the exact grid start + k/rate; reconstruct k
                # instead of accumulating 1/rate, which drifts
                k = round((now - start) * rate) + 1
                candidate = start + k / rate
                if candidate < end:
                    return candidate
            # spill into the next phase that generates traffic
            for start2, _end2, rate2 in windows:
                if start2 >= end and rate2 > 0.0:
                    return start2
            return None
    return None


def _next_poisson(windows, now, rng):
    cursor = now
    for start, end, rate in windows:
        if cursor is not None and cursor >= end:
            continue
        anchor = start if cursor is None or cursor < start else cursor
        if rate > 0.0:
            candidate = anchor + rng.expovariate(rate)
            if candidate < end:
                return candidate
        # overshoot or idle phase: restart memorylessly at the next boundary
        cursor = end
    return None


class PayloadSampler:
    """Stateful payload source; only the empirical cycle mode actually keeps
    state, but a single interface keeps the call site uniform."""

    def __init__(self, spec: PayloadSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self._cycle_at = 0

    def sample(self) -> int:
        spec = self.spec
        if spec.dist == PAYLOAD_CONSTANT:
            return spec.bytes
        if spec.dist == PAYLOAD_LOGNORMAL:
            size = math.exp(self.rng.gauss(spec.mu, spec.sigma))
            return max(1, int(round(size)))
        if spec.dist == PAYLOAD_EMPIRICAL:
            if spec.mode == EMPIRICAL_CYCLE:
                value = spec.values[self._cycle_at % len(spec.values)]
                self._cycle_at += 1
                return value
            return spec.values[self.rng.randrange(len(spec.values))]
        raise ValueError(f"unknown payload dist {spec.dist!r}")


def service_demand(profile: StageProfile, input_bytes: float) -> float:
    """Seconds of vCPU time one request consumes at this stage."""
    return profile.base_demand_s + profile.per_byte_demand_s * input_bytes
