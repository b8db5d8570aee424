"""Discrete-event engine: virtual clock, event queue, request lifecycle.

Events are (time, seq, kind, payload) tuples; seq is the insertion counter,
so equal-time events run in scheduling order and replay is exact. Timeouts
wait in a FIFO lane beside the heap: every one is armed ``timeout_s`` after a
dispatch and the clock never goes back, so they arrive already in order. The
loop takes whichever of the lane head and the heap head is first by
(time, seq). Event times must be finite and not before the clock, and a
``run`` bound must not be NaN or before it, so the clock is monotone across
``run`` calls. All randomness comes from per-source streams derived from the
scenario seed, which makes a run a pure function of (scenario, seed).

Request path: client -> gateway -> frontend replica -> gateway -> backend
replica -> gateway -> frontend -> gateway -> client. Every gateway traversal
costs the configured base delay; the cross-cluster legs additionally cross
the directed link, which samples impairment delay or drops the message.
Intra-cluster legs cost the intra-cluster base delay and never drop.

The engine takes the placements, stage profiles and compiled timeline from
the ``ValidatedTopology`` and resolves none of them again.
A replica is one ``Replica`` object: a ``mesh.Endpoint`` (identity and
health, what the balancers pick) extended with its node, queue and busy
counter; messages carry it as their target. ``engine.replicas`` lists them
in placement order. A ``link_deliver`` payload is (request, target,
deliver), ``deliver`` being the hop's own function (``request_fe``,
``request_be``, ``response_fe`` or ``response_client``); the debug log names
the hop by its name. ``run`` returns the engine itself, whose counters,
``traces``, ``probes`` and ``metrics`` are the run's outputs so far.

``traces`` holds requests in id order and ``probes`` samples in receipt
order. Without ``streams`` they hold every one. With ``streams`` (a
``metrics.Streams``, see ``metrics.stream_csv``), every ``FLUSH_BATCH``
arrivals the requests at the head of ``traces`` whose rows are final go to
``streams.traces`` and are dropped, up to the first that is not: a row is
final once the request has an outcome and is not in backend service (a
request that times out during backend service still gets ``be_end``). So
``traces`` holds the requests in flight and at most the rows that wait
behind the oldest of them. Every ``FLUSH_BATCH`` samples go to
``streams.probes`` and are dropped, so nothing per probe outlives its batch;
the streams fold them into per-pair RTT sums as they write them (see
``metrics``), and ``probes_received`` counts them as they are handed over.
Each scrape hands its rows to the streams as ``metrics.scrape`` records
them. ``metrics.export_csv`` hands on the rest, still held, and closes the
streams.
At the end of every ``run`` call the clock must be finite, ``in_flight``
must equal the held requests without an outcome, no balancer count may be
below 0, each frontend's count for a backend must equal the pending
timeouts of the requests it sent there whose count is still open, and each
replica's free slots and requests in service, neither below 0, must add up
to its concurrency limit, with a free slot only while nothing is queued;
otherwise ``EngineError``. An outcome is never cleared, so each check counts
from the oldest request that had none at the check before, and a stepped
run reads each final request about once. A count can stand while nothing is in
flight: a request lost on a link has its outcome at once, but its count is
released only when its timeout fires.

Replicas are FIFO queues with a concurrency limit of
``max(1, node_vcpus // replicas_on_node)``; each in-service request holds one
vCPU for its full demand. A request admitted to a free slot starts service at
once, and a freed slot goes at once to the head of the queue, skipping
requests that timed out while queued (a request whose timeout falls due at
that very instant counts as timed out). A start happens inside the event
that frees or finds its slot. Scrape k runs at exactly
``k * scrape_interval_s`` while that is below the duration, and sees every
event before it in (time, seq) order, the starts they made included. Starts
and skips are not queued as events, but each counts as one
``service_start`` in ``event_count`` and in the debug log.

The loop records events only when asked: with ``debug_log`` set (a list, or
a bounded deque), each event and start appends (time, seq, kind, detail) to
it; otherwise the cost is one ``is not None`` test per event and per start.
The handlers and hops are plain functions called with the engine, so nothing
the engine holds refers back to it, and it is freed with its last reference.

A ping queues one ``probe_send`` event per grid step, with payload
``(plan_index, k)``, which probes every pair of the plan (see ``probes``)
through the links ``run_ping`` resolved once as it made the plan, and one
``probe_recv`` per probe, which records its sample.

The event path is laid out for CPython 3.11's specializing interpreter
(PEP 659, https://peps.python.org/pep-0659/), whose attribute reads take a
slow path under two rules:

- an object that sets 30 or more instance attributes does not keep them
  inline, so every read of one goes through its dict;
- a class attribute of a mutable type (a dict, or an instance of a Python
  class) blocks specialized reads of the same name.

So ``EngineState`` keeps every attribute in ``__slots__``. Its ``__dict__``
slot still takes an attribute set from outside (a test replaces ``run``),
but that engine's method reads then take the slow path. The kind -> handler
table is the module-level ``_HANDLERS``, and ``netem.ImpairmentRule`` is a
slotted dataclass, so no field default stays a class attribute.
"""

from __future__ import annotations

import heapq
from math import inf, isfinite
from collections import deque
from itertools import chain

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

# held requests or samples per hand-over to the streams
FLUSH_BATCH = 1024


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


class Replica(mesh.Endpoint):
    """One service replica pinned to one node: its mesh identity and health,
    its queue and busy counter, and a backend's index in the balancer counts."""

    __slots__ = (
        "node", "concurrency_limit", "is_frontend", "free_slots", "in_service", "fifo", "busy_vcpu_seconds", "position",
    )

    def __init__(self, service: str, cluster: int, replica: int, node: int, concurrency_limit: int, is_frontend: bool):
        super().__init__(service, cluster, replica)
        self.node = node
        self.concurrency_limit = concurrency_limit
        self.is_frontend = is_frontend
        self.free_slots = concurrency_limit
        self.in_service = 0
        self.fifo: deque = deque()
        self.busy_vcpu_seconds = 0.0


class EngineState:
    """The whole mutable world of one run."""

    # every attribute in a slot, so its reads specialize (module docstring)
    __slots__ = (
        "topology", "spec", "clock", "event_count", "_seq", "_heap", "_timeouts", "_primed",
        "_scrape_k", "cluster_names", "links", "workload", "phase_windows",
        "frontend", "backend", "timeout_s", "scrape_interval_s", "duration_s", "base_delay_s", "intra_delay_s",
        "table", "arrival_rng", "payload_sampler", "replicas", "frontend_endpoints", "backend_endpoints",
        "ingress_state", "fe_states", "metrics", "traces", "_open_from", "probes", "streams", "rtt_sums",
        "_probes_streamed", "probe_plans", "arrivals", "completed", "lost", "timed_out",
        "_next_request_id", "debug_log", "__dict__", "__weakref__",
    )

    def __init__(self, topology):
        self.topology = topology
        self.spec = spec = topology.spec
        self.clock = 0.0
        self.event_count = 0
        self._seq = 0
        self._heap: list = []
        self._timeouts: deque = deque()  # the timeout lane, in (time, seq) order
        self._primed = False
        self._scrape_k = 0  # number of the next scrape

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

        self.replicas = self._place_replicas()
        self.frontend_endpoints = [replica for replica in self.replicas if replica.is_frontend]
        self.backend_endpoints = [replica for replica in self.replicas if not replica.is_frontend]
        for position, backend in enumerate(self.backend_endpoints):
            backend.position = position
        self.ingress_state = mesh.BalancerState(policy=mesh.ROUND_ROBIN)
        self.fe_states = {
            endpoint: mesh.BalancerState(topology.backend_policy, outstanding=[0] * len(self.backend_endpoints))
            for endpoint in self.frontend_endpoints
        }

        self.metrics = metrics.Scrapes.of(self.replicas, self.cluster_names)
        self.traces: list[Request] = []  # not yet written
        # the id of the oldest request without an outcome at the last check;
        # an outcome is never cleared, so the next check counts from there
        self._open_from = 0
        self.probes: list = []  # held samples
        self.streams = None  # metrics.Streams, where rows go once final
        # per pair, the probes.RttSums of the probes the streams wrote (None
        # for a pair with none), set when metrics.export_csv closes them
        self.rtt_sums: list = [[None] * len(self.cluster_names) for _ in self.cluster_names]
        self._probes_streamed = 0  # samples handed to the streams
        self.probe_plans: list = []
        self.arrivals = 0
        self.completed = 0
        self.lost = 0
        self.timed_out = 0
        self._next_request_id = 0

        # None, or a list or deque that records (time, seq, kind, detail) per event
        self.debug_log = None

    def _place_replicas(self) -> list[Replica]:
        # round-robin replicas over each cluster's nodes, services in order,
        # then size concurrency by how many replicas share each node
        clusters = self.spec.clusters
        placed: list[tuple[str, int, int, int, bool]] = []
        node_cursor = [0] * len(clusters)
        per_node_count: dict[tuple[int, int], int] = {}
        for service in self.spec.services:
            is_frontend = service.stage == workload.STAGE_FRONTEND
            for cluster_index, count in self.topology.placements[service.name].items():
                for replica_index in range(count):
                    node = node_cursor[cluster_index] % clusters[cluster_index].nodes
                    node_cursor[cluster_index] += 1
                    placed.append((service.name, cluster_index, replica_index, node, is_frontend))
                    per_node_count[cluster_index, node] = per_node_count.get((cluster_index, node), 0) + 1
        replicas = []
        for name, cluster_index, replica_index, node, is_frontend in placed:
            limit = max(1, clusters[cluster_index].vcpus_per_node // per_node_count[cluster_index, node])
            replicas.append(Replica(name, cluster_index, replica_index, node, limit, is_frontend))
        return replicas

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time: float, kind: str, payload=None) -> None:
        if not self.clock <= time < inf:
            raise EngineError(f"event time before the clock or not finite: {kind} at {time!r}, clock {self.clock!r}")
        if kind not in _HANDLERS:
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
        for time, action in self.topology.timeline:
            self.schedule(time, TIMELINE_APPLY, action)
        self.schedule(0.0, SCRAPE)
        first = workload.next_arrival(self.workload, None, self.arrival_rng, self.phase_windows)
        if first is not None and self.frontend_endpoints:
            self.schedule(first, ARRIVAL)

    def run(self, until: float) -> EngineState:
        """Execute all events with time strictly below ``until``; the clock
        ends at ``until``. Can be called repeatedly with increasing bounds.
        Returns the engine itself: its counters, ``traces``, ``probes`` and
        ``metrics`` are the run's outputs so far. Raises ``EngineError`` if
        ``until`` is NaN or before the clock, or if the end-of-run checks
        fail (see the module docstring)."""
        if not until >= self.clock:
            raise EngineError(f"run bound before the clock or not a number: until {until!r}, clock {self.clock!r}")
        if not self._primed:
            self._primed = True
            self._prime()
        heap = self._heap
        lane = self._timeouts
        pop = heapq.heappop
        popleft = lane.popleft
        handlers = _HANDLERS
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
            if debug_log is not None:
                debug_log.append((time, seq, kind, _describe(payload)))
            handlers[kind](self, time, payload)
        if until > self.clock:
            self.clock = until
        self._check_invariants()
        return self

    def _check_invariants(self) -> None:
        if not isfinite(self.clock):
            raise EngineError(f"clock not finite: {self.clock!r}")
        held = self.traces
        n = len(held)
        # held ids are consecutive (only final rows leave, from the head)
        start = max(0, self._open_from - held[0].id) if n else 0
        while start < n and held[start].outcome is not None:
            start += 1
        window = held[start:]
        self._open_from = window[0].id if window else self._next_request_id
        held_open = sum(1 for request in window if request.outcome is None)
        if held_open != self.in_flight:
            raise EngineError(f"{self.in_flight} requests in flight but {held_open} held without an outcome")
        backends = self.backend_endpoints
        for state in self.fe_states.values():
            for backend, count in zip(backends, state.outstanding):
                if count < 0:
                    raise EngineError(f"balancer count {count} below 0 for {backend!r}")
        # a count is released by the response or by the request's timeout,
        # so it stands for exactly the pending timeouts of open requests
        pending = {frontend: [0] * len(backends) for frontend in self.fe_states}
        for _time, _seq, kind, request in chain(self._timeouts, self._heap):
            if kind == TIMEOUT and request.lc_open:
                pending[request.frontend][request.backend.position] += 1
        for frontend, state in self.fe_states.items():
            if state.outstanding != pending[frontend]:
                counts = {backend: count for backend, count in zip(backends, state.outstanding) if count}
                held = {backend: count for backend, count in zip(backends, pending[frontend]) if count}
                raise EngineError(f"balancer counts {counts} at {frontend!r}, but pending timeouts hold {held}")
        for replica in self.replicas:
            free, busy = replica.free_slots, replica.in_service
            if free < 0 or busy < 0 or free + busy != replica.concurrency_limit or (free and replica.fifo):
                raise EngineError(
                    f"replica {replica.key} has {free} free slots and {busy} in service "
                    f"of {replica.concurrency_limit}, with {len(replica.fifo)} queued"
                )

    @property
    def in_flight(self) -> int:
        return self.arrivals - self.completed - self.lost - self.timed_out

    @property
    def probes_received(self) -> int:
        return len(self.probes) + self._probes_streamed

    # -- streaming ----------------------------------------------------------

    def _flush_traces(self) -> None:
        held = self.traces
        final = 0
        for request in held:
            if request.outcome is None or (request.be_start is not None and request.be_end is None):
                break
            final += 1
        if final:
            self.streams.traces(held[:final])
            del held[:final]

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
        rid = self._next_request_id
        if self.streams is not None and not rid % FLUSH_BATCH:
            self._flush_traces()
        payload_bytes = self.payload_sampler.sample()
        reduction = self.frontend.reduction_factor
        request = Request(rid, payload_bytes, payload_bytes * reduction)
        self._next_request_id = rid + 1
        self.arrivals += 1
        request.ingress_in = t
        self.traces.append(request)
        try:
            frontend = mesh.pick_rr(self.ingress_state, self.frontend_endpoints)
        except mesh.NoHealthyEndpoint:
            self._finalize(request, OUTCOME_LOST)
        else:
            request.frontend = frontend
            self.schedule(t + self.base_delay_s, LINK_DELIVER, (request, frontend, request_fe))
        nxt = workload.next_arrival(self.workload, t, self.arrival_rng, self.phase_windows)
        if nxt is not None:
            self.schedule(nxt, ARRIVAL)

    def _on_link_deliver(self, t: float, payload) -> None:
        request, target, deliver = payload
        deliver(self, request, target, t)

    def _start(self, replica: Replica, request: Request, demand: float, t: float) -> None:
        """Start ``request`` on the slot it holds, or hand the slot on down
        the queue if the request was abandoned while queued."""
        fifo = replica.fifo
        while True:
            self.event_count += 1
            if self.debug_log is not None:
                self.debug_log.append((t, None, SERVICE_START, _describe((replica, request, demand))))
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
        self.schedule(t + demand, SERVICE_COMPLETE, (replica, request, demand))

    def _on_service_complete(self, t: float, payload) -> None:
        replica, request, demand = payload
        replica.in_service -= 1
        replica.busy_vcpu_seconds += demand
        # the freed slot goes to the head of the queue
        if replica.fifo:
            queued, queued_demand = replica.fifo.popleft()
            self._start(replica, queued, queued_demand, t)
        else:
            replica.free_slots += 1
        frontend = request.frontend
        if not replica.is_frontend:
            request.be_end = t
            self._send(request, request.backend.cluster, frontend.cluster, frontend, response_fe, t)
            return
        # the frontend picks a backend and arms the request's timeout
        request.fe_end = t
        state = self.fe_states[frontend]
        try:
            backend = mesh.pick(state, self.backend_endpoints)
        except mesh.NoHealthyEndpoint:
            self._finalize(request, OUTCOME_LOST)
            return
        request.backend = backend
        request.be_dispatch = t
        mesh.lc_update(state, backend.position, +1)
        request.lc_open = True
        self.schedule(t + self.timeout_s, TIMEOUT, request)
        self._send(request, frontend.cluster, backend.cluster, backend, request_be, t)

    def _send(self, request: Request, src: int, dst: int, target, deliver, t: float) -> None:
        if src == dst:
            self.schedule(t + self.intra_delay_s, LINK_DELIVER, (request, target, deliver))
            return
        delay_ms = self.table.classify(src, dst).transit_ms()
        if delay_ms is None:
            # the pending timeout releases the balancer count
            self._finalize(request, OUTCOME_LOST)
            return
        delay_s = delay_ms * 1e-3 + self.base_delay_s
        self.schedule(t + delay_s, LINK_DELIVER, (request, target, deliver))

    def _release_lc(self, request: Request) -> None:
        if request.lc_open:
            mesh.lc_update(self.fe_states[request.frontend], request.backend.position, -1)
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
        self._scrape_k += 1
        nxt = self._scrape_k * self.scrape_interval_s
        if nxt < self.duration_s:
            self.schedule(nxt, SCRAPE)

    def _on_probe_send(self, t: float, payload) -> None:
        probes.handle_probe_send(self, t, payload)

    def _on_probe_recv(self, t: float, sample) -> None:
        held = self.probes
        held.append(sample)
        if self.streams is not None and len(held) >= FLUSH_BATCH:
            self.streams.probes(held)
            self._probes_streamed += len(held)
            held.clear()


# kind -> handler, as plain functions called with the engine: bound methods
# held by the engine would keep it in a cycle. A module-level table, since
# reads of a dict held as a class attribute do not specialize.
_HANDLERS = {
    ARRIVAL: EngineState._on_arrival,
    LINK_DELIVER: EngineState._on_link_deliver,
    SERVICE_COMPLETE: EngineState._on_service_complete,
    TIMEOUT: EngineState._on_timeout,
    TIMELINE_APPLY: EngineState._on_timeline_apply,
    SCRAPE: EngineState._on_scrape,
    PROBE_SEND: EngineState._on_probe_send,
    PROBE_RECV: EngineState._on_probe_recv,
}


# -- link_deliver hops, in path order (see the module docstring) -------------


def request_fe(engine: EngineState, request: Request, replica: Replica, t: float) -> None:
    demand = workload.service_demand(engine.frontend, request.payload_bytes)
    if replica.free_slots > 0:
        replica.free_slots -= 1
        engine._start(replica, request, demand, t)
    else:
        replica.fifo.append((request, demand))


def request_be(engine: EngineState, request: Request, replica: Replica, t: float) -> None:
    if request.outcome is not None:
        return  # timed out before the message arrived
    demand = workload.service_demand(engine.backend, request.reduced_bytes)
    if replica.free_slots > 0:
        replica.free_slots -= 1
        engine._start(replica, request, demand, t)
    else:
        replica.fifo.append((request, demand))


def response_fe(engine: EngineState, request: Request, _target, t: float) -> None:
    if request.outcome is not None or request.responded:
        return
    request.responded = True
    engine._release_lc(request)
    # zero-demand merge at the frontend, reply leaves via the gateway
    engine.schedule(t + engine.base_delay_s, LINK_DELIVER, (request, None, response_client))


def response_client(engine: EngineState, request: Request, _target, t: float) -> None:
    if request.outcome is not None:
        return
    request.response_out = t
    engine._finalize(request, OUTCOME_COMPLETED)


def _describe(payload) -> str:
    if payload is None:
        return ""
    if isinstance(payload, Request):
        return repr(payload)
    if type(payload) is tuple:  # a payload of parts, or a probe sample
        return ",".join(_describe(part) for part in payload)
    if callable(payload):  # a link_deliver hop
        return repr(payload.__name__)
    return repr(payload)
