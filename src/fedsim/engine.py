"""Discrete-event engine: virtual clock, event queue, request lifecycle.

Events are (time, seq, kind, payload) tuples on a heap; seq is the insertion
counter, so equal-time events run in scheduling order and replay is exact.
All randomness comes from per-source streams derived from the scenario seed,
which makes a run a pure function of (scenario, seed).

Request path: client -> gateway -> frontend replica -> gateway -> backend
replica -> gateway -> frontend -> gateway -> client. Every gateway traversal
costs the configured base delay; the cross-cluster legs additionally classify
the directed link and sample impairment delay and loss. Intra-cluster legs
cost the intra-cluster base delay and never drop.

Replicas are FIFO queues with a concurrency limit of
``max(1, node_vcpus // replicas_on_node)``; each in-service request holds one
vCPU for its full demand.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from . import faults, mesh, metrics, netem, workload
from .rng import stream

ARRIVAL = "arrival"
LINK_DELIVER = "link_deliver"
SERVICE_START = "service_start"
SERVICE_COMPLETE = "service_complete"
TIMEOUT = "timeout"
TIMELINE_APPLY = "timeline_apply"
SCRAPE = "scrape"
PROBE_SEND = "probe_send"
PROBE_RECV = "probe_recv"

EVENT_KINDS = frozenset(
    {
        ARRIVAL,
        LINK_DELIVER,
        SERVICE_START,
        SERVICE_COMPLETE,
        TIMEOUT,
        TIMELINE_APPLY,
        SCRAPE,
        PROBE_SEND,
        PROBE_RECV,
    }
)

OUTCOME_COMPLETED = "completed"
OUTCOME_LOST = "lost"
OUTCOME_TIMED_OUT = "timed_out"

# link_deliver hop tags, in path order
HOP_REQUEST_FE = "request_fe"
HOP_REQUEST_BE = "request_be"
HOP_RESPONSE_FE = "response_fe"
HOP_RESPONSE_CLIENT = "response_client"

TRACE_FIELDS = (
    "ingress_in",
    "fe_start",
    "fe_end",
    "be_dispatch",
    "be_start",
    "be_end",
    "response_out",
)


class EngineError(Exception):
    """Internal consistency violation (e.g. scheduling into the past)."""


class Request:
    """One request's trace: timestamps stamped as the lifecycle progresses."""

    __slots__ = (
        "id",
        "payload_bytes",
        "reduced_bytes",
        "ingress_in",
        "fe_start",
        "fe_end",
        "be_dispatch",
        "be_start",
        "be_end",
        "response_out",
        "frontend",
        "backend",
        "outcome",
        "responded",
        "lc_open",
    )

    def __init__(self, rid: int, payload_bytes: int, reduced_bytes: float):
        self.id = rid
        self.payload_bytes = payload_bytes
        self.reduced_bytes = reduced_bytes
        self.ingress_in = None
        self.fe_start = None
        self.fe_end = None
        self.be_dispatch = None
        self.be_start = None
        self.be_end = None
        self.response_out = None
        self.frontend = None
        self.backend = None
        self.outcome = None
        self.responded = False
        self.lc_open = False

    def __repr__(self) -> str:
        return f"Request(#{self.id}, {self.outcome or 'in_flight'})"


class ReplicaState:
    """Runtime state of one service replica pinned to one node."""

    __slots__ = ("endpoint", "node", "concurrency_limit", "free_slots", "in_service", "fifo", "busy_vcpu_seconds")

    def __init__(self, endpoint: mesh.Endpoint, node: int, concurrency_limit: int):
        self.endpoint = endpoint
        self.node = node
        self.concurrency_limit = concurrency_limit
        self.free_slots = concurrency_limit
        self.in_service: set[int] = set()
        self.fifo: deque = deque()
        self.busy_vcpu_seconds = 0.0

    def outstanding(self) -> int:
        return len(self.in_service) + len(self.fifo)


@dataclass
class RunResult:
    """Snapshot of a run's outputs; returned by ``EngineState.run``."""

    metrics: metrics.MetricsStore
    traces: list
    probes: list
    event_count: int
    arrivals: int
    completed: int
    lost: int
    timed_out: int
    cluster_names: tuple[str, ...]
    rate_window_s: float
    scrape_interval_s: float

    @property
    def in_flight(self) -> int:
        return self.arrivals - self.completed - self.lost - self.timed_out


class EngineState:
    """The whole mutable world of one run."""

    def __init__(self, topology):
        self.topology = topology
        self.spec = spec = topology.spec
        self.clock = 0.0
        self.event_count = 0
        self._seq = 0
        self._heap: list = []
        self._primed = False

        # scenario values read per event, looked up once here
        self.cluster_names = tuple(cluster.name for cluster in spec.clusters)
        self.links = spec.links
        self.workload = spec.workload
        self.frontend = topology.frontend
        self.backend = topology.backend
        self.timeout_s = spec.timeout_s
        self.scrape_interval_s = spec.scrape_interval_s
        self.duration_s = spec.duration_s

        n = len(self.cluster_names)
        self.base_delay_s = spec.links.base_delay_ms * 1e-3
        self.intra_delay_s = spec.links.intra_base_delay_ms * 1e-3
        self.table = netem.table_from_links(spec.links)
        self.blackout_saved: dict = {}

        # one gateway-mediated path per ordered cluster pair
        self.paths = {(i, j): ("gateway",) for i in range(n) for j in range(n) if i != j}

        self.delay_streams = {key: stream(spec.seed, "delay", *key) for key in self.paths}
        self.loss_channels = {key: netem.LossChannel(stream(spec.seed, "loss", *key)) for key in self.paths}
        self.arrival_rng = stream(spec.seed, "arrival")
        self.payload_sampler = workload.PayloadSampler(spec.workload.payload, stream(spec.seed, "payload"))

        self.registry = mesh.ServiceRegistry()
        self.replicas: dict[mesh.Endpoint, ReplicaState] = {}
        self._place_replicas()

        self.frontend_endpoints = self.registry.list(self.frontend.name) if self.frontend else []
        self.backend_endpoints = self.registry.list(self.backend.name) if self.backend else []
        self.ingress_state = mesh.BalancerState(policy=mesh.ROUND_ROBIN)
        self.fe_states = {
            endpoint: mesh.BalancerState(policy=topology.backend_policy) for endpoint in self.frontend_endpoints
        }

        self.metrics = metrics.MetricsStore()
        self.traces: list[Request] = []
        self.probes: list = []
        self.probe_plans: list = []
        self.arrivals = 0
        self.completed = 0
        self.lost = 0
        self.timed_out = 0
        self._next_request_id = 0

        self.event_tail: deque = deque(maxlen=1000)
        self.debug_log: list | None = None

    def _place_replicas(self) -> None:
        # round-robin replicas over each cluster's nodes, services in order,
        # then size concurrency by how many replicas share each node
        clusters = self.spec.clusters
        placed: list[tuple[mesh.Endpoint, int, int]] = []
        node_cursor = {k: 0 for k in range(len(clusters))}
        per_node_count: dict[tuple[int, int], int] = {}
        for service in self.topology.services:
            for cluster_index, count in service.placements:
                nodes = clusters[cluster_index].nodes
                for replica_index in range(count):
                    node = node_cursor[cluster_index] % nodes
                    node_cursor[cluster_index] += 1
                    endpoint = mesh.Endpoint(service.name, cluster_index, replica_index)
                    placed.append((endpoint, cluster_index, node))
                    per_node_count[(cluster_index, node)] = per_node_count.get((cluster_index, node), 0) + 1
        for endpoint, cluster_index, node in placed:
            vcpus = clusters[cluster_index].vcpus_per_node
            limit = max(1, vcpus // per_node_count[(cluster_index, node)])
            self.registry.add(endpoint)
            self.replicas[endpoint] = ReplicaState(endpoint, node, limit)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: float, kind: str, payload=None) -> None:
        if time < self.clock:
            raise EngineError(f"event scheduled in the past: {kind} at {time!r}, clock {self.clock!r}")
        if kind not in EVENT_KINDS:
            raise EngineError(f"unknown event kind {kind!r}")
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def _prime(self) -> None:
        for time, action in faults.compile_timeline(self.spec.timeline, self.topology.index_of):
            self.schedule(time, TIMELINE_APPLY, action)
        self.schedule(0.0, SCRAPE)
        first = workload.next_arrival(self.workload, None, self.arrival_rng)
        if first is not None and self.frontend_endpoints:
            self.schedule(first, ARRIVAL)

    def run(self, until: float) -> RunResult:
        """Execute all events with time strictly below ``until``; the clock
        ends at ``until``. Can be called repeatedly with increasing bounds."""
        if not self._primed:
            self._primed = True
            self._prime()
        heap = self._heap
        handlers = self._HANDLERS
        while heap and heap[0][0] < until:
            time, seq, kind, payload = heapq.heappop(heap)
            self.clock = time
            self.event_count += 1
            self.event_tail.append((time, seq, kind))
            if self.debug_log is not None:
                self.debug_log.append((time, seq, kind, _describe(payload)))
            handlers[kind](self, time, payload)
        if until > self.clock:
            self.clock = until
        return self.result()

    def result(self) -> RunResult:
        return RunResult(
            metrics=self.metrics,
            traces=list(self.traces),
            probes=list(self.probes),
            event_count=self.event_count,
            arrivals=self.arrivals,
            completed=self.completed,
            lost=self.lost,
            timed_out=self.timed_out,
            cluster_names=self.cluster_names,
            rate_window_s=self.spec.rate_window_s,
            scrape_interval_s=self.scrape_interval_s,
        )

    # -- request lifecycle --------------------------------------------------

    def _finalize(self, request: Request, outcome: str) -> None:
        if request.outcome is not None:
            return
        request.outcome = outcome
        if outcome == OUTCOME_COMPLETED:
            self.completed += 1
        elif outcome == OUTCOME_LOST:
            self.lost += 1
        else:
            self.timed_out += 1

    def _on_arrival(self, t: float, _payload) -> None:
        payload_bytes = self.payload_sampler.sample()
        reduction = self.frontend.profile.reduction_factor
        request = Request(self._next_request_id, payload_bytes, payload_bytes * reduction)
        self._next_request_id += 1
        self.arrivals += 1
        request.ingress_in = t
        self.traces.append(request)
        try:
            frontend = mesh.ingress_route(self.ingress_state, self.frontend_endpoints)
        except mesh.NoHealthyEndpoint:
            self._finalize(request, OUTCOME_LOST)
        else:
            request.frontend = frontend
            self.schedule(t + self.base_delay_s, LINK_DELIVER, (request, frontend, HOP_REQUEST_FE))
        nxt = workload.next_arrival(self.workload, t, self.arrival_rng)
        if nxt is not None:
            self.schedule(nxt, ARRIVAL)

    def _on_link_deliver(self, t: float, payload) -> None:
        request, target, hop = payload
        if hop == HOP_REQUEST_FE:
            demand = workload.service_demand(self.frontend.profile, request.payload_bytes)
            self._admit(self.replicas[target], request, demand, t)
        elif hop == HOP_REQUEST_BE:
            if request.outcome is not None:
                return  # timed out before the message arrived
            demand = workload.service_demand(self.backend.profile, request.reduced_bytes)
            self._admit(self.replicas[target], request, demand, t)
        elif hop == HOP_RESPONSE_FE:
            if request.outcome is not None or request.responded:
                return
            request.responded = True
            self._release_lc(request)
            # zero-demand merge at the frontend, reply leaves via the gateway
            self.schedule(t + self.base_delay_s, LINK_DELIVER, (request, None, HOP_RESPONSE_CLIENT))
        elif hop == HOP_RESPONSE_CLIENT:
            if request.outcome is not None:
                return
            request.response_out = t
            self._finalize(request, OUTCOME_COMPLETED)
        else:
            raise EngineError(f"unknown hop {hop!r}")

    def _admit(self, replica: ReplicaState, request: Request, demand: float, t: float) -> None:
        if replica.free_slots > 0:
            replica.free_slots -= 1
            self.schedule(t, SERVICE_START, (replica, request, demand))
        else:
            replica.fifo.append((request, demand))

    def _pass_slot(self, replica: ReplicaState, t: float) -> None:
        if replica.fifo:
            next_request, next_demand = replica.fifo.popleft()
            self.schedule(t, SERVICE_START, (replica, next_request, next_demand))
        else:
            replica.free_slots += 1

    def _on_service_start(self, t: float, payload) -> None:
        replica, request, demand = payload
        if request.outcome is not None:
            # abandoned while queued; hand the slot on
            self._pass_slot(replica, t)
            return
        if replica.endpoint.service == self.frontend.name:
            request.fe_start = t
        else:
            request.be_start = t
        replica.in_service.add(request.id)
        self.schedule(t + demand, SERVICE_COMPLETE, (replica, request, demand))

    def _on_service_complete(self, t: float, payload) -> None:
        replica, request, demand = payload
        replica.in_service.discard(request.id)
        replica.busy_vcpu_seconds += demand
        self._pass_slot(replica, t)
        if replica.endpoint.service == self.frontend.name:
            request.fe_end = t
            self._dispatch_backend(request, t)
        else:
            request.be_end = t
            self._dispatch_response(request, t)

    def _dispatch_backend(self, request: Request, t: float) -> None:
        state = self.fe_states[request.frontend]
        try:
            backend = mesh.pick(state, self.backend_endpoints)
        except mesh.NoHealthyEndpoint:
            self._finalize(request, OUTCOME_LOST)
            return
        request.backend = backend
        request.be_dispatch = t
        mesh.lc_update(state, backend, +1)
        request.lc_open = True
        self.schedule(t + self.timeout_s, TIMEOUT, request)
        self._send(request, request.frontend.cluster, backend.cluster, backend, HOP_REQUEST_BE, t)

    def _dispatch_response(self, request: Request, t: float) -> None:
        self._send(request, request.backend.cluster, request.frontend.cluster, request.frontend, HOP_RESPONSE_FE, t)

    def _send(self, request: Request, src: int, dst: int, target, hop: str, t: float) -> None:
        if src == dst:
            self.schedule(t + self.intra_delay_s, LINK_DELIVER, (request, target, hop))
            return
        rule = self.table.classify(src, dst, netem.DATA)
        if netem.sample_loss(rule, self.loss_channels[(src, dst)]):
            # the pending timeout releases the balancer count
            self._finalize(request, OUTCOME_LOST)
            return
        delay_s = netem.sample_delay(rule, self.delay_streams[(src, dst)]) * 1e-3 + self.base_delay_s
        self.schedule(t + delay_s, LINK_DELIVER, (request, target, hop))

    def _release_lc(self, request: Request) -> None:
        if request.lc_open:
            mesh.lc_update(self.fe_states[request.frontend], request.backend, -1)
            request.lc_open = False

    def _on_timeout(self, t: float, request: Request) -> None:
        if request.responded:
            return
        self._release_lc(request)
        if request.outcome is None:
            self._finalize(request, OUTCOME_TIMED_OUT)

    # -- control plane ------------------------------------------------------

    def _on_timeline_apply(self, t: float, action) -> None:
        faults.apply(self, action)

    def _on_scrape(self, t: float, _payload) -> None:
        metrics.scrape(self, t)
        nxt = t + self.scrape_interval_s
        if nxt < self.duration_s:
            self.schedule(nxt, SCRAPE)

    def _on_probe_send(self, t: float, payload) -> None:
        from . import probes as probes_mod

        probes_mod.handle_probe_send(self, t, payload)

    def _on_probe_recv(self, t: float, sample) -> None:
        self.probes.append(sample)

    _HANDLERS = {
        ARRIVAL: _on_arrival,
        LINK_DELIVER: _on_link_deliver,
        SERVICE_START: _on_service_start,
        SERVICE_COMPLETE: _on_service_complete,
        TIMEOUT: _on_timeout,
        TIMELINE_APPLY: _on_timeline_apply,
        SCRAPE: _on_scrape,
        PROBE_SEND: _on_probe_send,
        PROBE_RECV: _on_probe_recv,
    }


def _describe(payload) -> str:
    if payload is None:
        return ""
    if isinstance(payload, Request):
        return repr(payload)
    if isinstance(payload, tuple):
        return ",".join(_describe(part) for part in payload)
    return repr(payload)
