"""Event ordering, request lifecycle, and run-level invariants."""

import pytest

import fedsim
from fedsim import topology
from fedsim.engine import ARRIVAL, TIMEOUT, EngineError, Request
from tests.conftest import MINI_DOC, OVERLOAD, make_topology, run_scenario_text, two_cluster_doc

MINIMAL = """
clusters:
  - {name: only}
duration_s: 10
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
        series = result.metrics.series("replica_busy_vcpu_seconds_total")
        assert series
        for member in series:
            times = [t for t, _ in member.samples]
            assert times == [5.0 * k for k in range(24)], member.labels


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
        fe_busy = sum(
            engine.replicas[e].busy_vcpu_seconds for e in engine.registry.list("fe")
        )
        be_busy = sum(
            engine.replicas[e].busy_vcpu_seconds for e in engine.registry.list("be")
        )
        assert fe_busy == pytest.approx(200 * 0.010, rel=1e-9)
        assert be_busy == pytest.approx(200 * 0.030, rel=1e-9)


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
        be_busy = sum(engine.replicas[e].busy_vcpu_seconds for e in engine.registry.list("be"))
        assert be_busy == 0.0

    def test_return_loss_wastes_backend_work(self):
        links = "  base_delay_ms: 0.0\n  loss: [{src: east, dst: west, p: 1.0}]"
        result, engine = run_scenario_text(two_cluster_doc(links=links))
        assert result.completed == 0
        assert result.lost == result.arrivals == 100
        # the backend served every request before the reply vanished
        be_busy = sum(engine.replicas[e].busy_vcpu_seconds for e in engine.registry.list("be"))
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
        be_busy = sum(engine.replicas[e].busy_vcpu_seconds for e in engine.registry.list("be"))
        assert be_busy == 0.0

    def test_request_abandoned_in_queue_never_starts(self):
        # one single-slot backend busy for 1 s per request, a 0.5 s timeout and
        # no delays: request 2 falls due at 1.0625 s, the very instant request
        # 0 hands the slot on, and times out without starting
        doc = """
clusters:
  - {name: edge, nodes: 1, vcpus_per_node: 4}
  - {name: dc, nodes: 1, vcpus_per_node: 1}
links: {base_delay_ms: 0.0, intra_base_delay_ms: 0.0}
services:
  - {name: fe, stage: frontend, replicas_per_cluster: {edge: 1}, demand: {base_ms: 62.5, per_kb_ms: 0.0}}
  - {name: be, stage: backend, replicas_per_cluster: {dc: 1}, demand: {base_ms: 1000.0, per_kb_ms: 0.0}}
workload:
  payload: {dist: constant, bytes: 1000}
  phases: [{rate: 4, duration_s: 1}]
duration_s: 5
timeout_s: 0.5
"""
        result, _ = run_scenario_text(doc)
        stamps = [(t.be_dispatch, t.be_start, t.be_end, t.outcome) for t in result.traces]
        assert stamps == [
            (0.0625, 0.0625, 1.0625, "timed_out"),
            (0.3125, None, None, "timed_out"),
            (0.5625, None, None, "timed_out"),
            (0.8125, 1.0625, 2.0625, "timed_out"),
        ]

    def test_unhealthy_frontends_lose_arrivals_at_ingress(self):
        extra = (
            "timeline:\n"
            "  - {action: set_health, at_s: 0.0, service: fe, cluster: west, healthy: false}\n"
        )
        result, _ = run_scenario_text(two_cluster_doc(extra=extra))
        assert result.arrivals == 100
        assert result.lost == 100
        assert all(t.fe_start is None for t in result.traces)


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
        assert single.metrics.series("replica_busy_vcpu_seconds_total") == stepped.metrics.series(
            "replica_busy_vcpu_seconds_total"
        )

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
        for name in ("replica_busy_vcpu_seconds_total", "replica_outstanding_requests"):
            assert single.metrics.series(name) == stepped.metrics.series(name)

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
        before = [(link.delay_rng.getstate(), link.loss_channel.rng.getstate()) for link in links]
        result = engine.run(until=20.0)
        assert result.completed == 50
        after = [(link.delay_rng.getstate(), link.loss_channel.rng.getstate()) for link in links]
        assert len(links) == 2 and before == after

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


class TestRunResult:
    def test_snapshot_lists_are_copies(self):
        result, engine = run_scenario_text(MINI_DOC, until=30)
        assert result.traces is not engine.traces
        assert result.probes is not engine.probes
        assert result.cluster_names == ("solo",)

    def test_event_tail_is_bounded(self, poc_spec):
        engine = topology.build_runtime(topology.validate(poc_spec))
        engine.run(until=60.0)
        assert len(engine.event_tail) == 1000
        times = [entry[0] for entry in engine.event_tail]
        assert times == sorted(times)

    def test_debug_log_records_ordered_events(self):
        engine = topology.build_runtime(make_topology(MINI_DOC))
        engine.debug_log = []
        engine.run(until=20.0)
        assert engine.debug_log
        times = [entry[0] for entry in engine.debug_log]
        assert times == sorted(times)
        kinds = {entry[2] for entry in engine.debug_log}
        assert "arrival" in kinds and "scrape" in kinds
