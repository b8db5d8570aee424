"""Service endpoints and cross-cluster load balancing.

An ``Endpoint`` is a replica's identity (service, cluster, replica index) and
its health, as a proxy sidecar sees it; the engine's replicas extend it with
their queues, so the balancers pick the replica objects themselves. Health
flips come from the fault timeline, which ``faults.apply`` replays on the
engine's replicas.

Two balancing policies are modeled after the data-plane proxies they stand in
for: round-robin (the ingress default) and least-connection (pick the endpoint
with the fewest outstanding requests). Balancer state is per load-balancing
point: the ingress keeps one round-robin cursor over all frontend replicas,
and every frontend replica keeps its own state over the backend replicas,
mirroring proxy sidecars that do not share counters.

Least-connection breaks ties by rotating a cursor through the tied endpoints.
A strict lowest-index rule would collapse onto endpoint 0 whenever the
inter-pick gap exceeds the response time (counts all read zero), which is the
common regime at moderate load; rotation keeps ties fair while still picking
index 0 first from a fresh state.

Both policies skip unhealthy endpoints. Counts are held by position, so
``pick_lc`` finds in C the first least count in cyclic order from the cursor.
A healthy endpoint there is the exact answer: no healthy one has fewer, and
an earlier healthy tie would have been found first; else it scans in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ROUND_ROBIN = "round_robin"
LEAST_CONNECTION = "least_connection"
POLICIES = (ROUND_ROBIN, LEAST_CONNECTION)


class NoHealthyEndpoint(Exception):
    """Raised by a pick when every candidate endpoint is unhealthy or absent."""


class Endpoint:
    """One replica of a service in a cluster. Identity semantics: two distinct
    Endpoint objects are never equal, so they can key dicts directly."""

    __slots__ = ("service", "cluster", "replica", "healthy")

    def __init__(self, service: str, cluster: int, replica: int, healthy: bool = True):
        self.service = service
        self.cluster = cluster
        self.replica = replica
        self.healthy = healthy

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.service, self.cluster, self.replica)

    def __repr__(self) -> str:
        state = "up" if self.healthy else "down"
        return f"Endpoint({self.service}@c{self.cluster}#{self.replica},{state})"


@dataclass
class BalancerState:
    """Mutable per-balancer bookkeeping.

    ``rr_cursor`` is the next position to try (also the tie-rotation cursor
    for least-connection). ``outstanding`` counts requests dispatched but not
    yet answered, one per position of the endpoint list picked from.
    """

    policy: str = ROUND_ROBIN
    rr_cursor: int = 0
    outstanding: list[int] = field(default_factory=list)


def pick_rr(state: BalancerState, endpoints: list[Endpoint]) -> Endpoint:
    """Round-robin over healthy endpoints, skipping unhealthy ones without
    losing cursor position."""
    n = len(endpoints)
    i = state.rr_cursor
    for _ in range(n):
        endpoint = endpoints[i]
        i = i + 1 if i + 1 < n else 0
        if endpoint.healthy:
            state.rr_cursor = i
            return endpoint
    raise NoHealthyEndpoint("no healthy endpoint available")


def pick_lc(state: BalancerState, endpoints: list[Endpoint]) -> Endpoint:
    """Least outstanding requests; ties rotate via the cursor."""
    counts = state.outstanding
    n = len(endpoints)
    cursor = state.rr_cursor
    if n:
        low = min(counts)
        i = counts.index(low)
        if i < cursor and low in counts[cursor:]:
            i = counts.index(low, cursor)
        if endpoints[i].healthy:
            state.rr_cursor = (i + 1) % n
            return endpoints[i]
    best = -1
    for step in range(n):
        i = (cursor + step) % n
        if endpoints[i].healthy and (best < 0 or counts[i] < counts[best]):
            best = i
    if best < 0:
        raise NoHealthyEndpoint("no healthy endpoint available")
    state.rr_cursor = (best + 1) % n
    return endpoints[best]


def pick(state: BalancerState, endpoints: list[Endpoint]) -> Endpoint:
    if state.policy == ROUND_ROBIN:
        return pick_rr(state, endpoints)
    if state.policy == LEAST_CONNECTION:
        return pick_lc(state, endpoints)
    raise ValueError(f"unknown policy {state.policy!r}")


def lc_update(state: BalancerState, position: int, delta: int) -> None:
    """Adjust the outstanding count at a position; counts never go negative."""
    count = state.outstanding[position] + delta
    if count < 0:
        raise ValueError(f"outstanding count at position {position} would go negative")
    state.outstanding[position] = count
