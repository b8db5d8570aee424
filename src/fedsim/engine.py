"""Discrete-event engine: virtual clock, event queue, request lifecycle.

Events are (time, seq, kind, payload) tuples; seq is the insertion counter,
so equal-time events run in scheduling order and replay is exact. Timeouts
wait in a FIFO lane beside the heap: every one is armed ``timeout_s`` after a
dispatch and the clock never goes back, so they arrive already in order. The
loop takes whichever of the lane head and the heap head is first by
(time, seq). Event times must be finite and not before the clock. All
randomness comes from per-source streams derived from the scenario seed,
which makes a run a pure function of (scenario, seed).

Request path: client -> gateway -> frontend replica -> gateway -> backend
replica -> gateway -> frontend -> gateway -> client. Every gateway traversal
costs the configured base delay; the cross-cluster legs additionally cross
the directed link, which samples impairment delay or drops the message.
Intra-cluster legs cost the intra-cluster base delay and never drop.

Replicas are FIFO queues with a concurrency limit of
``max(1, node_vcpus // replicas_on_node)``; each in-service request holds one
vCPU for its full demand. A request admitted to a free slot starts service at
once, and a freed slot goes at once to the head of the queue, skipping
requests that timed out while queued (a request whose timeout falls due at
that very instant counts as timed out). A start at the instant a scrape is
due waits until that scrape has run, so a scrape sees every replica as it was
before the starts of its instant. Starts and skips are not queued as events,
but each counts as one ``service_start`` in ``event_count``, the event tail
and the debug log.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from . import faults, mesh, metrics, netem, probes, workload
from .probes import PROBE_RECV, PROBE_SEND
from .rng import stream

ARRIVAL = "arrival"
LINK_DELIVER = "link_deliver"
# names the starts and skips in event_count and the logs; never queued
SERVICE_START = "service_start"
SERVICE_COMPLETE = "service_complete"
TIMEOUT = "timeout"
TIMELINE_APPLY = "timeline_apply"
SCRAPE = "scrape"

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

    __slots__ = (
        "endpoint", "node", "concurrency_limit", "is_frontend", "free_slots", "in_service", "fifo", "busy_vcpu_seconds"
    )

    def __init__(self, endpoint: mesh.Endpoint, node: int, concurrency_limit: int, is_frontend: bool):
        self.endpoint = endpoint
        self.node = node
        self.concurrency_limit = concurrency_limit
        self.is_frontend = is_frontend
        self.free_slots = concurrency_limit
        self.in_service = 0
        self.fifo: deque = deque()
        self.busy_vcpu_seconds = 0.0

    def outstanding(self) -> int:
        return self.in_service + len(self.fifo)

    def __repr__(self) -> str:
        endpoint = self.endpoint
        return f"ReplicaState({endpoint.service}@c{endpoint.cluster}#{endpoint.replica})"


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
        self._timeouts: deque = deque()  # the timeout lane, in (time, seq) order
        self._primed = False
        # time of the scrape not yet run; starts at that instant wait for it
        self._scrape_at: float | None = None
        self._deferred_starts: list = []

        # scenario values read per event, looked up once here
        self.cluster_names = tuple(cluster.name for cluster in spec.clusters)
        self.links = spec.links
        self.workload = spec.workload
        self.phase_windows = workload.phase_windows(spec.workload)
        self.frontend = topology.frontend
        self.backend = topology.backend
        self.timeout_s = spec.timeout_s
        self.scrape_interval_s = spec.scrape_interval_s
        self.duration_s = spec.duration_s

        self.base_delay_s = spec.links.base_delay_ms * 1e-3
        self.intra_delay_s = spec.links.intra_base_delay_ms * 1e-3
        self.table = netem.ClassifierTable(spec.links, spec.seed)
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

        self._handlers = {
            ARRIVAL: self._on_arrival,
            LINK_DELIVER: self._on_link_deliver,
            SERVICE_COMPLETE: self._on_service_complete,
            TIMEOUT: self._on_timeout,
            TIMELINE_APPLY: self._on_timeline_apply,
            SCRAPE: self._on_scrape,
            PROBE_SEND: self._on_probe_send,
            PROBE_RECV: self._on_probe_recv,
        }
        self._hops = {
            HOP_REQUEST_FE: self._deliver_request_fe,
            HOP_REQUEST_BE: self._deliver_request_be,
            HOP_RESPONSE_FE: self._deliver_response_fe,
            HOP_RESPONSE_CLIENT: self._deliver_response_client,
        }

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
            is_frontend = self.frontend is not None and endpoint.service == self.frontend.name
            self.replicas[endpoint] = ReplicaState(endpoint, node, limit, is_frontend)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: float, kind: str, payload=None) -> None:
        if not self.clock <= time < math.inf:
            raise EngineError(f"event time before the clock or not finite: {kind} at {time!r}, clock {self.clock!r}")
        if kind not in self._handlers:
            raise EngineError(f"unknown event kind {kind!r}")
        entry = (time, self._seq, kind, payload)
        self._seq += 1
        lane = self._timeouts
        # a timeout earlier than the lane's tail (scheduled from outside the
        # run) keeps the lane sorted by going to the heap
        if kind == TIMEOUT and (not lane or time >= lane[-1][0]):
            lane.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def _prime(self) -> None:
        for time, action in faults.compile_timeline(self.spec.timeline, self.topology.index_of):
            self.schedule(time, TIMELINE_APPLY, action)
        self._scrape_at = 0.0
        self.schedule(0.0, SCRAPE)
        first = workload.next_arrival(self.workload, None, self.arrival_rng, self.phase_windows)
        if first is not None and self.frontend_endpoints:
            self.schedule(first, ARRIVAL)

    def run(self, until: float) -> RunResult:
        """Execute all events with time strictly below ``until``; the clock
        ends at ``until``. Can be called repeatedly with increasing bounds."""
        if not self._primed:
            self._primed = True
            self._prime()
        heap = self._heap
        lane = self._timeouts
        pop = heapq.heappop
        popleft = lane.popleft
        handlers = self._handlers
        tail = self.event_tail.append
        debug_log = self.debug_log
        while True:
            if lane and (not heap or lane[0] < heap[0]):
                entry = lane[0]
                if entry[0] >= until:
                    break
                popleft()
            elif heap and heap[0][0] < until:
                entry = pop(heap)
            else:
                break
            time, seq, kind, payload = entry
            self.clock = time
            self.event_count += 1
            tail(entry)
            if debug_log is not None:
                debug_log.append((time, seq, kind, _describe(payload)))
            handlers[kind](time, payload)
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
        nxt = workload.next_arrival(self.workload, t, self.arrival_rng, self.phase_windows)
        if nxt is not None:
            self.schedule(nxt, ARRIVAL)

    def _on_link_deliver(self, t: float, payload) -> None:
        request, target, hop = payload
        self._hops[hop](request, target, t)

    def _deliver_request_fe(self, request: Request, target, t: float) -> None:
        demand = workload.service_demand(self.frontend.profile, request.payload_bytes)
        self._admit(self.replicas[target], request, demand, t)

    def _deliver_request_be(self, request: Request, target, t: float) -> None:
        if request.outcome is not None:
            return  # timed out before the message arrived
        demand = workload.service_demand(self.backend.profile, request.reduced_bytes)
        self._admit(self.replicas[target], request, demand, t)

    def _deliver_response_fe(self, request: Request, _target, t: float) -> None:
        if request.outcome is not None or request.responded:
            return
        request.responded = True
        self._release_lc(request)
        # zero-demand merge at the frontend, reply leaves via the gateway
        self.schedule(t + self.base_delay_s, LINK_DELIVER, (request, None, HOP_RESPONSE_CLIENT))

    def _deliver_response_client(self, request: Request, _target, t: float) -> None:
        if request.outcome is not None:
            return
        request.response_out = t
        self._finalize(request, OUTCOME_COMPLETED)

    def _admit(self, replica: ReplicaState, request: Request, demand: float, t: float) -> None:
        if replica.free_slots > 0:
            replica.free_slots -= 1
            self._start(replica, request, demand, t)
        else:
            replica.fifo.append((request, demand))

    def _pass_slot(self, replica: ReplicaState, t: float) -> None:
        if replica.fifo:
            request, demand = replica.fifo.popleft()
            self._start(replica, request, demand, t)
        else:
            replica.free_slots += 1

    def _start(self, replica: ReplicaState, request: Request, demand: float, t: float) -> None:
        """Start ``request`` on the slot it holds, or hand the slot on down
        the queue if the request was abandoned while queued."""
        if t == self._scrape_at:
            # a scrape due at this instant sees the replica before any start
            # at this instant, so starts wait until it has run
            self._deferred_starts.append((replica, request, demand))
            return
        fifo = replica.fifo
        while True:
            payload = (replica, request, demand)
            self.event_count += 1
            self.event_tail.append((t, None, SERVICE_START, payload))
            if self.debug_log is not None:
                self.debug_log.append((t, None, SERVICE_START, _describe(payload)))
            # a timeout due at this instant fires before the start
            if request.outcome is None and (replica.is_frontend or t < request.be_dispatch + self.timeout_s):
                break
            if not fifo:
                replica.free_slots += 1
                return
            request, demand = fifo.popleft()
        if replica.is_frontend:
            request.fe_start = t
        else:
            request.be_start = t
        replica.in_service += 1
        self.schedule(t + demand, SERVICE_COMPLETE, payload)

    def _on_service_complete(self, t: float, payload) -> None:
        replica, request, demand = payload
        replica.in_service -= 1
        replica.busy_vcpu_seconds += demand
        self._pass_slot(replica, t)
        if replica.is_frontend:
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
        delay_ms = self.table.classify(src, dst).transit_ms()
        if delay_ms is None:
            # the pending timeout releases the balancer count
            self._finalize(request, OUTCOME_LOST)
            return
        delay_s = delay_ms * 1e-3 + self.base_delay_s
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
        self._scrape_at = nxt if nxt < self.duration_s else None
        if self._scrape_at is not None:
            self.schedule(nxt, SCRAPE)
        deferred, self._deferred_starts = self._deferred_starts, []
        for replica, request, demand in deferred:
            self._start(replica, request, demand, t)

    def _on_probe_send(self, t: float, payload) -> None:
        probes.handle_probe_send(self, t, payload)

    def _on_probe_recv(self, t: float, sample) -> None:
        self.probes.append(sample)


def _describe(payload) -> str:
    if payload is None:
        return ""
    if isinstance(payload, Request):
        return repr(payload)
    if isinstance(payload, tuple):
        return ",".join(_describe(part) for part in payload)
    return repr(payload)
