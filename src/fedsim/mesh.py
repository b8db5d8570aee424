"""Service endpoints and cross-cluster load balancing.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

ROUND_ROBIN = "round_robin"
LEAST_CONNECTION = "least_connection"
POLICIES = (ROUND_ROBIN, LEAST_CONNECTION)


class NoHealthyEndpoint(Exception):
    """Raised by a pick when every candidate endpoint is unhealthy or absent."""


class UnknownEndpoint(Exception):
    """Raised when an endpoint reference does not resolve."""


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

    ``rr_cursor`` is the next index to try (also the tie-rotation cursor for
    least-connection). ``outstanding`` counts requests dispatched but not yet
    answered, per endpoint.
    """

    policy: str = ROUND_ROBIN
    rr_cursor: int = 0
    outstanding: dict[Endpoint, int] = field(default_factory=dict)


class ServiceRegistry:
    """Endpoint directory, grouped by service, in registration order."""

    def __init__(self):
        self._by_service: dict[str, list[Endpoint]] = {}

    def add(self, endpoint: Endpoint) -> None:
        self._by_service.setdefault(endpoint.service, []).append(endpoint)

    def list(self, service: str) -> list[Endpoint]:
        return self._by_service.get(service, [])

    def set_health(self, service: str, cluster: int, replica: int | None, healthy: bool) -> None:
        """Mark one replica, or with ``replica=None`` every replica of the
        service in the cluster, healthy or unhealthy."""
        candidates = [e for e in self.list(service) if e.cluster == cluster]
        if replica is not None:
            candidates = [e for e in candidates if e.replica == replica]
        if not candidates:
            target = f"{service}@cluster {cluster}" + ("" if replica is None else f"#{replica}")
            raise UnknownEndpoint(f"no such endpoint: {target}")
        for endpoint in candidates:
            endpoint.healthy = healthy


def pick_rr(state: BalancerState, endpoints: list[Endpoint]) -> Endpoint:
    """Round-robin over healthy endpoints, skipping unhealthy ones without
    losing cursor position."""
    n = len(endpoints)
    for step in range(n):
        i = (state.rr_cursor + step) % n if n else 0
        if n and endpoints[i].healthy:
            state.rr_cursor = (i + 1) % n
            return endpoints[i]
    raise NoHealthyEndpoint("no healthy endpoint available")


def pick_lc(state: BalancerState, endpoints: list[Endpoint]) -> Endpoint:
    """Least outstanding requests; ties rotate via the cursor."""
    n = len(endpoints)
    best = None
    best_i = -1
    best_count = 0
    for step in range(n):
        i = (state.rr_cursor + step) % n
        endpoint = endpoints[i]
        if not endpoint.healthy:
            continue
        count = state.outstanding.get(endpoint, 0)
        if best is None or count < best_count:
            best, best_i, best_count = endpoint, i, count
    if best is None:
        raise NoHealthyEndpoint("no healthy endpoint available")
    state.rr_cursor = (best_i + 1) % n
    return best


def pick(state: BalancerState, endpoints: list[Endpoint]) -> Endpoint:
    if state.policy == ROUND_ROBIN:
        return pick_rr(state, endpoints)
    if state.policy == LEAST_CONNECTION:
        return pick_lc(state, endpoints)
    raise ValueError(f"unknown policy {state.policy!r}")


def lc_update(state: BalancerState, endpoint: Endpoint, delta: int) -> None:
    """Adjust the outstanding count for an endpoint; counts never go negative."""
    count = state.outstanding.get(endpoint, 0) + delta
    if count < 0:
        raise ValueError(f"outstanding count for {endpoint!r} would go negative")
    state.outstanding[endpoint] = count


def ingress_route(state: BalancerState, frontends: list[Endpoint]) -> Endpoint:
    """The ingress balances round-robin over every frontend replica in the
    federation, flattened cluster-major."""
    return pick_rr(state, frontends)
