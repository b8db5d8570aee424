"""Event ordering, request lifecycle, and run-level invariants."""

import gc
import weakref
from collections import deque

import pytest

import fedsim
from fedsim import metrics, probes, topology
from fedsim.engine import ARRIVAL, TIMEOUT, EngineError, EngineState, Request
from tests.conftest import (
    MINI_DOC,
    OVERLOAD,
    make_topology,
    run_scenario_text,
    invariants_checked_at_every_scrape,
    two_cluster_doc,
)

MINIMAL = """
clusters:
  - {name: only}
duration_s: 10
"""


# one single-slot backend busy for 1 s per request, a 0.5 s timeout and no
# delays; a request arrives every 0.25 s for requests_s
SLOW_BACKEND = """
clusters:
  - {{name: edge, nodes: 1, vcpus_per_node: 4}}
  - {{name: dc, nodes: 1, vcpus_per_node: 1}}
links: {{base_delay_ms: 0.0, intra_base_delay_ms: 0.0}}
services:
  - {{name: fe, stage: frontend, replicas_per_cluster: {{edge: 1}}, demand: {{base_ms: 62.5, per_kb_ms: 0.0}}}}
  - {{name: be, stage: backend, replicas_per_cluster: {{dc: 1}}, demand: {{base_ms: 1000.0, per_kb_ms: 0.0}}}}
workload:
  payload: {{dist: constant, bytes: 1000}}
  phases: [{{rate: 4, duration_s: {requests_s}}}]
duration_s: 5
timeout_s: 0.5
"""


# one cluster whose frontend has a single slot and a 1 s demand, twice the
# 0.5 s scrape interval; a request arrives every 0.5 s, so from 1 s on each
# whole second frees the slot and starts the next request at a scrape
SLOW_FRONTEND = """
clusters:
  - {name: solo, nodes: 1, vcpus_per_node: 2}
links: {base_delay_ms: 0.0, intra_base_delay_ms: 0.0}
services:
  - {name: fe, stage: frontend, replicas_per_cluster: {solo: 1}, demand: {base_ms: 1000.0, per_kb_ms: 0.0}}
  - {name: be, stage: backend, replicas_per_cluster: {solo: 1}, demand: {base_ms: 10.0, per_kb_ms: 0.0}}
workload:
  arrival: constant
  payload: {dist: constant, bytes: 1000}
  phases: [{rate: 2, duration_s: 4}]
duration_s: 4
timeout_s: 10
scrape_interval_s: 0.5
"""


def outcome_counts(result):
    counts = {"completed": 0, "lost": 0, "timed_out": 0, None: 0}
    for trace in result.traces:
        counts[trace.outcome] += 1
    return counts


class TestScheduling:
    def test_schedule_into_past_raises(self):
        _, engine = run_scenario_text(MINI_DOC, until=10)
        with pytest.raises(EngineError):
            engine.schedule(5.0, ARRIVAL)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_raises(self, time):
        engine = topology.build_runtime(make_topology(MINI_DOC))
        with pytest.raises(EngineError):
            engine.schedule(time, ARRIVAL)

    def test_timeout_scheduled_out_of_order_fires_at_its_time(self):
        # the run arms timeouts 5 s after each dispatch; one scheduled later
        # than all of them and one scheduled earlier than the last of them
        # must both fire at their own times
        engine = topology.build_runtime(make_topology(MINI_DOC))
        engine.debug_log = []
        engine.run(until=10.0)
        late, early = Request(-1, 1000, 1000.0), Request(-2, 1000, 1000.0)
        # counted as arrivals, so the end-of-run bookkeeping check holds
        engine.arrivals += 2
        engine.traces += (late, early)
        engine.schedule(30.0, TIMEOUT, late)
        engine.schedule(12.0, TIMEOUT, early)
        engine.run(until=12.0)
        assert early.outcome is None
        engine.run(until=20.0)
        assert (early.outcome, late.outcome) == ("timed_out", None)
        engine.run(until=40.0)
        assert late.outcome == "timed_out"
        fired = [(time, detail) for time, _seq, kind, detail in engine.debug_log if "#-" in detail]
        assert fired == [(12.0, "Request(#-2, in_flight)"), (30.0, "Request(#-1, in_flight)")]
        times = [entry[0] for entry in engine.debug_log]
        assert times == sorted(times)

    def test_unknown_event_kind_raises(self):
        engine = topology.build_runtime(make_topology(MINI_DOC))
        with pytest.raises(EngineError):
            engine.schedule(1.0, "teleport")

    def test_equal_time_events_run_in_declaration_order(self):
        # two set_link actions at the same instant: the later declaration
        # lands second and wins
        extra = (
            "timeline:\n"
            "  - {action: set_link, at_s: 5.0, src: west, dst: east, delay_ms: 10.0}\n"
            "  - {action: set_link, at_s: 5.0, src: west, dst: east, delay_ms: 40.0}\n"
        )
        _, engine = run_scenario_text(two_cluster_doc(extra=extra))
        assert engine.table.classify(0, 1).rule.delay_ms == 40.0

    def test_empty_scenario_runs_scrapes_only(self):
        result, engine = run_scenario_text(MINIMAL)
        assert result.event_count == 2  # scrapes at t=0 and t=5
        assert result.arrivals == 0
        assert result.traces == []
        assert engine.clock == 10.0

    def test_run_beyond_duration_stops_scraping(self):
        result, engine = run_scenario_text(MINI_DOC, until=1000.0)
        assert engine.clock == 1000.0
        store = result.metrics
        assert store.labels
        assert store.times == [5.0 * k for k in range(24)]
        assert len(store.busy) == len(store.outstanding) == 24


class TestConservation:
    def test_counters_match_traces(self):
        result, _ = run_scenario_text(two_cluster_doc(phase_s=20, duration_s=30))
        counts = outcome_counts(result)
        assert result.arrivals == len(result.traces)
        assert result.completed == counts["completed"]
        assert result.lost == counts["lost"]
        assert result.timed_out == counts["timed_out"]
        assert result.in_flight == counts[None]
        assert result.arrivals == 100

    def test_busy_seconds_equal_work_done(self):
        # constant 1 kB payload, per-byte 0: demands are exactly 10 and 30 ms
        result, engine = run_scenario_text(MINI_DOC)
        assert result.completed == 200
        fe_busy = sum(replica.busy_vcpu_seconds for replica in engine.frontend_endpoints)
        be_busy = sum(replica.busy_vcpu_seconds for replica in engine.backend_endpoints)
        assert fe_busy == pytest.approx(200 * 0.010, rel=1e-9)
        assert be_busy == pytest.approx(200 * 0.030, rel=1e-9)


    def test_balancer_and_busy_bookkeeping_settle_under_overload(self):
        # demands are 0.0625 s and 0.125 s, so busy sums are exact; every
        # dispatch's balancer count is released by its reply or timeout
        result, engine = run_scenario_text(OVERLOAD)
        assert result.arrivals == 800 and result.in_flight == 0
        counts = [count for state in engine.fe_states.values() for count in state.outstanding]
        assert counts and all(count == 0 for count in counts)
        for replica in engine.replicas:
            if replica.is_frontend:
                served = sum(1 for t in result.traces if t.frontend is replica and t.fe_end is not None)
                assert replica.busy_vcpu_seconds == 0.0625 * served
            else:
                served = sum(1 for t in result.traces if t.backend is replica and t.be_end is not None)
                assert replica.busy_vcpu_seconds == 0.125 * served
            assert served > 0


class TestEndOfRunChecks:
    def _engine(self):
        engine = topology.build_runtime(make_topology(OVERLOAD))
        engine.run(until=12.0)
        return engine

    def test_a_counter_out_of_step_with_the_held_requests_raises(self):
        engine = self._engine()
        engine.completed += 1
        with pytest.raises(EngineError, match="requests in flight but"):
            engine.run(until=engine.clock)  # runs no event, only the checks

    def test_a_request_gone_before_its_outcome_raises(self):
        # what a request streamed while still in flight would look like
        engine = self._engine()
        engine.traces.remove(next(t for t in engine.traces if t.outcome is None))
        with pytest.raises(EngineError, match="requests in flight but"):
            engine.run(until=engine.clock)  # runs no event, only the checks

    def test_a_balancer_count_below_zero_raises(self):
        engine = self._engine()
        state = next(iter(engine.fe_states.values()))
        state.outstanding[engine.backend_endpoints[0].position] = -1
        with pytest.raises(EngineError, match="below 0"):
            engine.run(until=engine.clock)  # runs no event, only the checks

    def test_a_balancer_count_no_pending_timeout_holds_raises(self):
        engine = self._engine()
        state = next(iter(engine.fe_states.values()))
        state.outstanding[engine.backend_endpoints[0].position] += 1
        with pytest.raises(EngineError, match="but pending timeouts hold"):
            engine.run(until=engine.clock)  # runs no event, only the checks

    def test_a_lossy_run_cut_every_10_ms_keeps_its_balancer_counts(self):
        # a request lost on a link keeps its count until its timeout fires,
        # so counts stay open at cuts where nothing is in flight
        links = "  base_delay_ms: 1.0\n  loss:\n    - {src: west, dst: east, p: 0.3}\n    - {src: east, dst: west, p: 0.3}"
        engine = topology.build_runtime(make_topology(two_cluster_doc(links=links, extra="timeout_s: 2.0")))
        open_while_idle = 0
        for k in range(1, 4001):
            engine.run(until=k * 0.01)
            counts = sum(count for state in engine.fe_states.values() for count in state.outstanding)
            open_while_idle += engine.in_flight == 0 and counts > 0
        assert engine.clock == engine.duration_s
        assert open_while_idle > 0

    def test_final_rows_dropped_between_steps_keep_the_count(self):
        # what a controller that steps the run might do to bound its memory
        engine = topology.build_runtime(make_topology(OVERLOAD))
        for k in range(1, 221):
            engine.run(until=k * 0.25)
            final = next((i for i, t in enumerate(engine.traces) if t.outcome is None), len(engine.traces))
            del engine.traces[: final // 2]
        assert engine.clock == engine.duration_s

    @pytest.mark.parametrize("breach", ["slot lost", "slot below zero", "free slot beside a queue"])
    def test_a_replica_whose_slots_do_not_add_up_raises(self, breach):
        engine = self._engine()
        replica = next(replica for replica in engine.replicas if replica.free_slots and not replica.fifo)
        if breach == "slot lost":
            replica.free_slots -= 1
        elif breach == "slot below zero":
            replica.free_slots, replica.in_service = -1, replica.in_service + replica.free_slots + 1
        else:
            replica.fifo.append((engine.traces[-1], 0.0))
        with pytest.raises(EngineError, match="free slots and"):
            engine.run(until=engine.clock)  # runs no event, only the checks

    def test_an_infinite_clock_raises(self):
        engine = self._engine()
        with pytest.raises(EngineError, match="clock not finite"):
            engine.run(until=float("inf"))

    @pytest.mark.parametrize("until", [5.0, float("nan")])
    def test_a_bound_before_the_clock_or_nan_raises_and_runs_nothing(self, until):
        # the clock is monotone across calls; a NaN bound would pop lane
        # entries, since entry time >= NaN is False
        engine = self._engine()
        queued = (list(engine._heap), list(engine._timeouts))
        with pytest.raises(EngineError, match="run bound before the clock or not a number"):
            engine.run(until=until)
        assert engine.clock == 12.0
        assert (list(engine._heap), list(engine._timeouts)) == queued

    def test_a_bound_below_zero_raises_before_the_first_event(self):
        engine = topology.build_runtime(make_topology(OVERLOAD))
        with pytest.raises(EngineError, match="run bound before the clock"):
            engine.run(until=-1.0)
        assert engine.event_count == 0 and not engine._heap

    def test_a_stepped_run_reads_each_request_before_the_oldest_open_one_once(self):
        # an outcome is never cleared, so the checks need not read a request
        # again once it and every request before it have one
        class Counted(list):
            reads = 0

            def __getitem__(self, index):
                got = super().__getitem__(index)
                self.reads += len(got) if isinstance(index, slice) else 1
                return got

            def __iter__(self):
                for request in super().__iter__():
                    self.reads += 1
                    yield request

        engine = topology.build_runtime(make_topology(OVERLOAD))
        held = engine.traces = Counted()
        bound = rescans = 0
        for k in range(1, 441):
            engine.run(until=k * 0.125)
            requests = list.__getitem__(held, slice(None))  # not counted
            first_open = next((i for i, request in enumerate(requests) if request.outcome is None), len(requests))
            # the requests from the oldest open one, the head, and the one
            # that stops the advance to it
            bound += 2 + len(requests) - first_open
            rescans += len(requests)
        assert engine.clock == engine.duration_s and len(requests) == engine.arrivals == 800
        # plus, over the run, each request before the last oldest open one
        assert held.reads <= bound + first_open < rescans / 10


class TestRequestPath:
    def test_trace_stamps_strictly_ordered(self):
        result, _ = run_scenario_text(two_cluster_doc(links="  base_delay_ms: 5.0"))
        done = [t for t in result.traces if t.outcome == "completed"]
        assert done
        for t in done:
            assert t.ingress_in < t.fe_start < t.fe_end
            assert t.fe_end == t.be_dispatch
            assert t.be_dispatch < t.be_start < t.be_end < t.response_out

    def test_first_request_reference_timing(self, poc_spec):
        topo = topology.validate(poc_spec)
        engine = topology.build_runtime(topo)
        result = engine.run(until=0.5)
        first = result.traces[0]
        b = 0.73e-3
        hop = 25.0e-3 + b  # edge <-> datacenter leg
        assert first.frontend.key == ("frontend", 0, 0)
        assert first.backend.key == ("backend", 2, 0)
        assert first.ingress_in == 0.0
        assert first.fe_start == pytest.approx(b, abs=1e-9)
        assert first.fe_end == pytest.approx(b + 0.023, abs=1e-9)
        assert first.be_dispatch == first.fe_end
        assert first.be_start == pytest.approx(b + 0.023 + hop, abs=1e-9)
        assert first.be_end == pytest.approx(b + 0.023 + hop + 0.082, abs=1e-9)
        assert first.response_out == pytest.approx(
            b + 0.023 + hop + 0.082 + hop + b, abs=1e-9
        )
        assert first.outcome == "completed"

    def test_forward_loss_drops_everything(self):
        links = "  base_delay_ms: 0.0\n  loss: [{src: west, dst: east, p: 1.0}]"
        result, engine = run_scenario_text(two_cluster_doc(links=links))
        assert result.completed == 0
        assert result.lost == result.arrivals == 100
        for trace in result.traces:
            assert trace.be_start is None
        be_busy = sum(replica.busy_vcpu_seconds for replica in engine.backend_endpoints)
        assert be_busy == 0.0

    def test_return_loss_wastes_backend_work(self):
        links = "  base_delay_ms: 0.0\n  loss: [{src: east, dst: west, p: 1.0}]"
        result, engine = run_scenario_text(two_cluster_doc(links=links))
        assert result.completed == 0
        assert result.lost == result.arrivals == 100
        # the backend served every request before the reply vanished
        be_busy = sum(replica.busy_vcpu_seconds for replica in engine.backend_endpoints)
        assert be_busy == pytest.approx(100 * 0.020, rel=1e-9)
        assert all(t.be_end is not None for t in result.traces)

    def test_extreme_delay_times_out_and_late_delivery_is_dropped(self):
        links = "  one_way_delay_ms: [[0.0, 6000.0], [0.0, 0.0]]"
        result, engine = run_scenario_text(
            two_cluster_doc(links=links, phase_s=2, duration_s=20)
        )
        assert result.arrivals == 10
        assert result.timed_out == 10
        assert result.completed == result.lost == 0
        # deliveries at ~6 s landed after the 5 s timeout and were ignored
        for trace in result.traces:
            assert trace.be_start is None
        be_busy = sum(replica.busy_vcpu_seconds for replica in engine.backend_endpoints)
        assert be_busy == 0.0

    def test_request_abandoned_in_queue_never_starts(self):
        # request 2 falls due at 1.0625 s, the very instant request 0 hands
        # the slot on, and times out without starting
        result, _ = run_scenario_text(SLOW_BACKEND.format(requests_s=1))
        stamps = [(t.be_dispatch, t.be_start, t.be_end, t.outcome) for t in result.traces]
        assert stamps == [
            (0.0625, 0.0625, 1.0625, "timed_out"),
            (0.3125, None, None, "timed_out"),
            (0.5625, None, None, "timed_out"),
            (0.8125, 1.0625, 2.0625, "timed_out"),
        ]

    def test_a_slot_handed_down_a_queue_of_abandoned_requests_comes_back(self):
        # two requests, then silence: request 1 times out in the queue, so
        # the slot request 0 frees at 1.0625 s finds no request to take it
        result, engine = run_scenario_text(SLOW_BACKEND.format(requests_s=0.5))
        stamps = [(t.be_dispatch, t.be_start, t.be_end, t.outcome) for t in result.traces]
        assert stamps == [(0.0625, 0.0625, 1.0625, "timed_out"), (0.3125, None, None, "timed_out")]
        (backend,) = engine.backend_endpoints
        assert (backend.free_slots, backend.in_service, len(backend.fifo)) == (1, 0, 0)

    def test_a_backend_in_the_frontends_cluster_is_one_intra_delay_away(self):
        result, engine = run_scenario_text(MINI_DOC + "links: {intra_base_delay_ms: 2.5}\n")
        assert engine.intra_delay_s == pytest.approx(2.5e-3) and result.completed == 200
        for t in result.traces:  # every slot is free when a request arrives
            assert t.be_start == t.be_dispatch + engine.intra_delay_s
            assert t.response_out == t.be_end + engine.intra_delay_s + engine.base_delay_s

    def test_unhealthy_frontends_lose_arrivals_at_ingress(self):
        extra = (
            "timeline:\n"
            "  - {action: set_health, at_s: 0.0, service: fe, cluster: west, healthy: false}\n"
        )
        result, _ = run_scenario_text(two_cluster_doc(extra=extra))
        assert result.arrivals == 100
        assert result.lost == 100
        assert all(t.fe_start is None for t in result.traces)


class TestScrapes:
    def test_a_start_at_a_scrape_instant_shows_in_that_scrape(self):
        # the scrape follows the completion that starts the queued request,
        # so the request counts as in service, not as gone
        result, engine = run_scenario_text(SLOW_FRONTEND)
        (frontend,) = engine.frontend_endpoints
        assert frontend.concurrency_limit == 1
        column = engine.metrics.replicas.index(frontend)
        times = engine.metrics.times
        outstanding = [engine.metrics.outstanding[k][column] for k in range(len(times)) if 0.5 <= times[k] <= 3.0]
        assert outstanding == [1, 1, 2, 2, 3, 3]
        assert [t.fe_start for t in result.traces[:4]] == [0.0, 1.0, 2.0, 3.0]

    def test_every_fine_scrape_of_overload_sees_each_slot_held(self):
        # scrapes every 62.5 ms, the frontend demand, tie with the starts
        doc = OVERLOAD.replace("scrape_interval_s: 0.5", "scrape_interval_s: 0.0625")
        with invariants_checked_at_every_scrape() as checked:
            _, engine = run_scenario_text(doc)
        assert len(checked) == len(engine.metrics.times) == 880


class TestDeterminism:
    def jittery_poisson_doc(self, seed=3):
        links = (
            "  base_delay_ms: 1.0\n"
            "  jitter: [{src: west, dst: east, dist: uniform, scale_ms: 2.0}]"
        )
        doc = two_cluster_doc(links=links).replace("arrival: constant", "arrival: poisson")
        return doc.replace("seed: 3", f"seed: {seed}")

    @staticmethod
    def stamps(result):
        return [
            (t.ingress_in, t.fe_start, t.fe_end, t.be_start, t.be_end, t.response_out, t.outcome)
            for t in result.traces
        ]

    def test_same_seed_same_run(self):
        a, _ = run_scenario_text(self.jittery_poisson_doc())
        b, _ = run_scenario_text(self.jittery_poisson_doc())
        assert self.stamps(a) == self.stamps(b)
        assert a.event_count == b.event_count

    def test_different_seed_different_run(self):
        a, _ = run_scenario_text(self.jittery_poisson_doc(seed=3))
        b, _ = run_scenario_text(self.jittery_poisson_doc(seed=4))
        assert self.stamps(a) != self.stamps(b)

    def test_incremental_runs_match_single_run(self):
        doc = self.jittery_poisson_doc()
        single, _ = run_scenario_text(doc, until=40.0)
        topo = make_topology(doc)
        engine = topology.build_runtime(topo)
        engine.run(until=13.0)
        engine.run(until=27.5)
        stepped = engine.run(until=40.0)
        assert self.stamps(single) == self.stamps(stepped)
        assert single.event_count == stepped.event_count
        assert single.metrics == stepped.metrics

    def test_split_runs_match_single_run_under_ties(self):
        # cut at scrape instants and mid-burst, where starts, timeouts and
        # scrapes share a time
        single, single_engine = run_scenario_text(OVERLOAD)
        engine = topology.build_runtime(make_topology(OVERLOAD))
        for until in (0.5, 10.0, 17.03125, 25.0, 30.0):
            engine.run(until=until)
        stepped = engine.run(until=55.0)
        assert self.stamps(single) == self.stamps(stepped)
        assert single.timed_out > 0 and single.lost > 0
        assert single.event_count == stepped.event_count
        assert single.metrics == stepped.metrics

    def test_intra_cluster_traffic_draws_no_link_randomness(self):
        doc = """
clusters:
  - {name: west, nodes: 2, vcpus_per_node: 4}
  - {name: east, nodes: 2, vcpus_per_node: 4}
services:
  - {name: fe, stage: frontend, replicas_per_cluster: {west: 1}, demand: {base_ms: 5.0, per_kb_ms: 0.0}}
  - {name: be, stage: backend, replicas_per_cluster: {west: 1}, demand: {base_ms: 20.0, per_kb_ms: 0.0}}
workload:
  payload: {dist: constant, bytes: 1000}
  phases: [{rate: 5.0, duration_s: 10}]
duration_s: 20
"""
        engine = topology.build_runtime(make_topology(doc))
        links = [link for row in engine.table.links for link in row if link is not None]
        result = engine.run(until=20.0)
        assert result.completed == 50
        # a link makes its streams on its first draw, so neither link made one
        assert len(links) == 2
        assert all(link.delay_rng is None and link.loss_rng is None for link in links)

    def test_single_cluster_has_no_link_state(self):
        engine = topology.build_runtime(make_topology(MINI_DOC))
        assert engine.table.links == [[None]]


class TestBalancingInEngine:
    def run_policy(self, policy_line=""):
        doc = two_cluster_doc().replace(
            "stage: backend", "stage: backend" + policy_line
        )
        result, _ = run_scenario_text(doc)
        counts = {0: 0, 1: 0}
        for trace in result.traces:
            if trace.backend is not None:
                counts[trace.backend.replica] += 1
        return counts

    def test_round_robin_splits_evenly(self):
        counts = self.run_policy()
        assert counts[0] == counts[1] == 50

    def test_least_connection_near_even_when_symmetric(self):
        counts = self.run_policy("\n    backend_policy: least_connection")
        assert counts[0] + counts[1] == 100
        assert abs(counts[0] - counts[1]) <= 5


class TestAttributeLayout:
    """The engine keeps every attribute in a slot. One set anywhere else
    would give the engine a dict and stop CPython specializing the reads of
    its attributes on the event path."""

    @pytest.mark.parametrize("use", ["built", "run", "streamed run and export", "ping"])
    def test_no_attribute_lands_outside_the_slots(self, use, tmp_path):
        scenario = fedsim.bundled_scenario("ping" if use == "ping" else "poc")
        engine = topology.build_runtime(make_topology(scenario.read_text()))
        if use == "run":
            engine.run(until=20.0)
        elif use == "streamed run and export":
            metrics.stream_csv(engine, tmp_path)
            engine.run(until=20.0)
            metrics.export_csv(engine, tmp_path)
        elif use == "ping":
            probes.run_ping(engine, duration_s=5.0)
        assert vars(engine) == {}

    def test_the_class_holds_no_dict(self):
        # a read through an instance of a class attribute does not specialize
        held = [name for name, value in vars(EngineState).items() if isinstance(value, dict)]
        assert held == []


class TestRunResult:
    def test_a_bounded_debug_log_keeps_the_last_events_of_a_full_one(self, poc_spec):
        topo = topology.validate(poc_spec)
        full, tail = topology.build_runtime(topo), topology.build_runtime(topo)
        full.debug_log, tail.debug_log = [], deque(maxlen=1000)
        full.run(until=60.0)
        tail.run(until=60.0)
        assert len(full.debug_log) == full.event_count > 1000
        assert list(tail.debug_log) == full.debug_log[-1000:]

    def test_debug_log_records_ordered_events(self):
        engine = topology.build_runtime(make_topology(MINI_DOC))
        engine.debug_log = []
        engine.run(until=20.0)
        assert engine.debug_log
        times = [entry[0] for entry in engine.debug_log]
        assert times == sorted(times)
        kinds = {entry[2] for entry in engine.debug_log}
        assert "arrival" in kinds and "scrape" in kinds

    @pytest.mark.parametrize("scenario", ["poc", "ping"])
    def test_a_finished_engine_is_freed_when_its_last_reference_goes(self, scenario):
        # with the cyclic collector off, only reference counts can free it:
        # nothing the engine holds may refer back to it
        engine = topology.build_runtime(make_topology(fedsim.bundled_scenario(scenario).read_text()))
        gc.disable()
        try:
            if scenario == "ping":
                probes.run_ping(engine, duration_s=1.0)
            else:
                engine.run(until=60.0)
            alive = weakref.ref(engine)
            del engine
            assert alive() is None
        finally:
            gc.enable()
