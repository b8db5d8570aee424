"""Timeline validation, compilation, and live application."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import faults, topology
from fedsim.faults import (
    ApplyHealth,
    ApplyRule,
    BlackoutEnd,
    BlackoutEvent,
    BlackoutStart,
    SetHealthEvent,
    SetLinkEvent,
    check_timeline,
    compile_timeline,
)
from fedsim.netem import ImpairmentRule, JitterSpec, LossSpec
from tests.conftest import make_topology, run_scenario_text, two_cluster_doc

INDEX = {"west": 0, "east": 1}
PLACEMENTS = {"fe": {0: 1}, "be": {1: 2}}


class TestCheckTimeline:
    def test_clean_timeline_passes(self):
        events = (
            SetLinkEvent(at_s=5.0, src="west", dst="east", delay_ms=10.0),
            BlackoutEvent(at_s=10.0, cluster="east", end_s=20.0),
            SetHealthEvent(at_s=10.0, service="be", cluster="east", healthy=False),
        )
        assert check_timeline(events, INDEX, PLACEMENTS) == []

    def test_unknown_cluster_and_service(self):
        events = (
            SetLinkEvent(at_s=0.0, src="west", dst="mars"),
            BlackoutEvent(at_s=0.0, cluster="mars", end_s=5.0),
            SetHealthEvent(at_s=0.0, service="nope", cluster="west", healthy=False),
        )
        errors = check_timeline(events, INDEX, PLACEMENTS)
        assert "timeline[0].dst: unknown cluster 'mars'" in errors
        assert "timeline[1].cluster: unknown cluster 'mars'" in errors
        assert "timeline[2].service: unknown service 'nope'" in errors

    def test_set_health_needs_replicas_in_cluster(self):
        events = (
            SetHealthEvent(at_s=0.0, service="fe", cluster="east", healthy=False),
            SetHealthEvent(at_s=0.0, service="be", cluster="east", healthy=False, replica=2),
        )
        errors = check_timeline(events, INDEX, PLACEMENTS)
        assert "timeline[0]: service 'fe' has no replicas in cluster 'east'" in errors
        assert "timeline[1].replica: out of range for 'be'" in errors

    def test_degenerate_and_negative_windows(self):
        events = (
            BlackoutEvent(at_s=5.0, cluster="west", end_s=5.0),
            SetLinkEvent(at_s=-1.0, src="west", dst="east"),
            SetLinkEvent(at_s=0.0, src="west", dst="west"),
        )
        errors = check_timeline(events, INDEX, PLACEMENTS)
        assert "timeline[0]: end_s must exceed at_s" in errors
        assert "timeline[1].at_s < 0" in errors
        assert "timeline[2]: src and dst must differ" in errors

    def test_overlapping_blackouts_rejected(self):
        events = (
            BlackoutEvent(at_s=0.0, cluster="east", end_s=10.0),
            BlackoutEvent(at_s=5.0, cluster="east", end_s=15.0),
        )
        errors = check_timeline(events, INDEX, PLACEMENTS)
        assert errors == ["timeline[1]: blackout on 'east' overlaps an earlier blackout"]

    def test_adjacent_blackouts_allowed(self):
        events = (
            BlackoutEvent(at_s=0.0, cluster="east", end_s=10.0),
            BlackoutEvent(at_s=10.0, cluster="east", end_s=20.0),
            BlackoutEvent(at_s=5.0, cluster="west", end_s=15.0),
        )
        assert check_timeline(events, INDEX, PLACEMENTS) == []

    def test_bad_impairment_parameters(self):
        events = (
            SetLinkEvent(at_s=0.0, src="west", dst="east", delay_ms=-2.0),
            SetLinkEvent(at_s=0.0, src="west", dst="east", loss=LossSpec(p=1.5)),
            SetLinkEvent(at_s=0.0, src="west", dst="east", jitter=JitterSpec(dist="cauchy")),
        )
        errors = check_timeline(events, INDEX, PLACEMENTS)
        assert "timeline[0].delay_ms < 0" in errors
        assert "timeline[1].loss.p out of [0, 1]" in errors
        assert "timeline[2].jitter.dist: unknown dist 'cauchy'" in errors


class TestCompile:
    def test_blackout_expands_to_start_and_end(self):
        events = (
            SetHealthEvent(at_s=300.0, service="be", cluster="east", healthy=False),
            BlackoutEvent(at_s=300.0, cluster="east", end_s=600.0),
            SetLinkEvent(at_s=100.0, src="west", dst="east", delay_ms=9.0),
        )
        compiled = compile_timeline(events, INDEX)
        times = [t for t, _ in compiled]
        actions = [a for _, a in compiled]
        assert times == [100.0, 300.0, 300.0, 600.0]
        assert isinstance(actions[0], ApplyRule)
        assert actions[0] == ApplyRule(0, 1, ImpairmentRule(delay_ms=9.0))
        # same-time tie: the health flip was declared first, so it runs first
        assert actions[1] == ApplyHealth("be", 1, None, False)
        assert actions[2] == BlackoutStart(1)
        assert actions[3] == BlackoutEnd(1)

    def test_empty_timeline(self):
        assert compile_timeline((), INDEX) == []


class TestApply:
    def fresh_engine(self, extra=""):
        links = "  one_way_delay_ms: [[0.0, 25.0], [25.0, 0.0]]"
        return topology.build_runtime(make_topology(two_cluster_doc(links=links, extra=extra)))

    def test_apply_rule_replaces_link(self):
        engine = self.fresh_engine()
        faults.apply(engine, ApplyRule(0, 1, ImpairmentRule(delay_ms=70.0)))
        assert engine.table.classify(0, 1).rule.delay_ms == 70.0
        # the reverse direction is untouched
        assert engine.table.classify(1, 0).rule.delay_ms == 25.0

    def test_blackout_preserves_delay_and_restores_exact_rules(self):
        engine = self.fresh_engine()
        before = engine.table.classify(0, 1).rule
        faults.apply(engine, BlackoutStart(1))
        assert engine.table.classify(0, 1).blackouts == engine.table.classify(1, 0).blackouts == 1
        assert engine.table.classify(0, 1).transit_ms() is None
        # the rule, delay included, survives; only the link goes dark
        assert engine.table.classify(0, 1).rule is before
        faults.apply(engine, BlackoutEnd(1))
        # the identical rule object, not a reconstruction
        assert engine.table.classify(0, 1).rule is before
        assert engine.table.classify(0, 1).blackouts == 0
        assert engine.table.classify(0, 1).transit_ms() == 25.0

    def test_blackout_restores_absent_rules_to_default(self):
        # an unimpaired link goes back to no impairment at all
        engine = topology.build_runtime(make_topology(two_cluster_doc()))
        faults.apply(engine, BlackoutStart(1))
        assert engine.table.classify(0, 1).transit_ms() is None
        faults.apply(engine, BlackoutEnd(1))
        assert engine.table.classify(0, 1).rule == ImpairmentRule()
        assert engine.table.classify(0, 1).transit_ms() == 0.0

    def test_apply_health_whole_cluster(self):
        engine = self.fresh_engine()
        faults.apply(engine, ApplyHealth("be", 1, None, False))
        assert all(not e.healthy for e in engine.registry.list("be"))
        faults.apply(engine, ApplyHealth("be", 1, 0, True))
        healthy = {e.replica for e in engine.registry.list("be") if e.healthy}
        assert healthy == {0}

    def test_unknown_action_type_raises(self):
        engine = self.fresh_engine()
        with pytest.raises(TypeError):
            faults.apply(engine, "reboot")


class TestEndToEnd:
    def test_set_link_changes_live_latency(self):
        # delay jumps from 0 to 200 ms at t=10: later requests are slower
        extra = (
            "timeline:\n"
            "  - {action: set_link, at_s: 10.0, src: west, dst: east, delay_ms: 200.0}\n"
        )
        result, _ = run_scenario_text(two_cluster_doc(extra=extra))
        early = [t for t in result.traces if t.ingress_in < 9.0 and t.outcome == "completed"]
        late = [t for t in result.traces if t.ingress_in >= 10.0 and t.outcome == "completed"]
        assert early and late
        early_latency = max(t.response_out - t.ingress_in for t in early)
        late_latency = min(t.response_out - t.ingress_in for t in late)
        assert late_latency > early_latency + 0.15

    def test_blackout_loses_cross_cluster_requests(self):
        extra = (
            "timeline:\n"
            "  - {action: blackout, at_s: 5.0, cluster: east, end_s: 15.0}\n"
        )
        result, _ = run_scenario_text(two_cluster_doc(extra=extra))
        in_window = [t for t in result.traces if 5.0 <= t.ingress_in < 14.5]
        after = [t for t in result.traces if t.ingress_in >= 15.0]
        assert in_window and all(t.outcome == "lost" for t in in_window)
        assert after and all(t.outcome == "completed" for t in after)


# -- link state under overlapping blackouts and set_link ------------------------

THREE_CLUSTERS = """
clusters:
  - {{name: A, nodes: 1, vcpus_per_node: 1}}
  - {{name: B, nodes: 1, vcpus_per_node: 1}}
  - {{name: C, nodes: 1, vcpus_per_node: 1}}
links:
  one_way_delay_ms:
{matrix}
duration_s: 60
timeline:
{timeline}
"""
TEN_MS = ((0.0, 10.0, 10.0), (10.0, 0.0, 10.0), (10.0, 10.0, 0.0))


def three_cluster_engine(timeline, matrix=TEN_MS):
    rows = "\n".join(f"    - [{', '.join(str(cell) for cell in row)}]" for row in matrix)
    doc = THREE_CLUSTERS.format(matrix=rows, timeline="\n".join(f"  - {event}" for event in timeline) or "  []")
    return topology.build_runtime(make_topology(doc))


def observed(engine, src, dst):
    """Whether the link from ``src`` to ``dst`` is dark, and its rule."""
    link = engine.table.classify(src, dst)
    return link.blackouts > 0, link.rule


def expected(dark, delay_ms, loss=LossSpec()):
    return dark, ImpairmentRule(delay_ms, JitterSpec(), loss)


class TestLinkState:
    def test_overlapping_blackouts_on_different_clusters(self):
        # A is out over [10, 30) and B over [20, 40): A<->B is dark over
        # [10, 40), A<->C over [10, 30), B<->C over [20, 40)
        engine = three_cluster_engine(
            [
                "{action: blackout, at_s: 10, cluster: A, end_s: 30}",
                "{action: blackout, at_s: 20, cluster: B, end_s: 40}",
            ]
        )
        for t, dark_pairs in (
            (5, set()),
            (15, {(0, 1), (0, 2)}),
            (25, {(0, 1), (0, 2), (1, 2)}),
            (35, {(0, 1), (1, 2)}),
            (50, set()),
        ):
            engine.run(until=t)
            for a, b in ((0, 1), (0, 2), (1, 2)):
                for src, dst in ((a, b), (b, a)):
                    assert observed(engine, src, dst) == expected((a, b) in dark_pairs, 10.0), (t, src, dst)

    def test_set_link_inside_a_blackout_takes_effect_when_it_ends(self):
        engine = three_cluster_engine(
            [
                "{action: blackout, at_s: 10, cluster: A, end_s: 30}",
                "{action: set_link, at_s: 20, src: A, dst: B, delay_ms: 99, loss: {p: 0.5}}",
            ]
        )
        for t, forward, reverse in (
            (15, expected(True, 10.0), expected(True, 10.0)),
            (25, expected(True, 99.0, LossSpec(p=0.5)), expected(True, 10.0)),
            (35, expected(False, 99.0, LossSpec(p=0.5)), expected(False, 10.0)),
            (50, expected(False, 99.0, LossSpec(p=0.5)), expected(False, 10.0)),
        ):
            engine.run(until=t)
            assert observed(engine, 0, 1) == forward, t
            assert observed(engine, 1, 0) == reverse, t


CLUSTERS = ("A", "B", "C")
MATRIX = ((0.0, 11.0, 12.0), (21.0, 0.0, 23.0), (31.0, 32.0, 0.0))
HORIZON = 40


@st.composite
def link_timelines(draw):
    """Blackouts (never overlapping on one cluster, often across clusters)
    and set_links at whole seconds in [0, HORIZON]."""
    blackouts = []
    for cluster in CLUSTERS:
        bounds = sorted(draw(st.sets(st.integers(0, HORIZON), max_size=4)))
        if len(bounds) % 2:
            bounds.pop()
        blackouts += [(cluster, start, end) for start, end in zip(bounds[::2], bounds[1::2])]
    set_links = draw(
        st.lists(
            st.tuples(
                st.integers(0, HORIZON),
                st.sampled_from([(a, b) for a in range(3) for b in range(3) if a != b]),
                st.sampled_from([0.0, 5.0, 99.0]),
                st.sampled_from([0.0, 0.25, 1.0]),
            ),
            max_size=5,
        )
    )
    return blackouts, set_links


@settings(max_examples=100, deadline=None)
@given(timeline=link_timelines())
def test_link_state_matches_the_timeline(timeline):
    blackouts, set_links = timeline
    events = [
        f"{{action: blackout, at_s: {start}, cluster: {cluster}, end_s: {end}}}" for cluster, start, end in blackouts
    ]
    events += [
        f"{{action: set_link, at_s: {at}, src: {CLUSTERS[src]}, dst: {CLUSTERS[dst]}, "
        f"delay_ms: {delay}, loss: {{p: {p}}}}}"
        for at, (src, dst), delay, p in set_links
    ]
    engine = three_cluster_engine(events, MATRIX)
    for t in (k + 0.5 for k in range(HORIZON + 1)):
        engine.run(until=t)
        out = {CLUSTERS.index(cluster) for cluster, start, end in blackouts if start < t < end}
        for src in range(3):
            for dst in range(3):
                if src == dst:
                    continue
                # the last set_link at or before t wins; ties go to the later declaration
                delay, loss = MATRIX[src][dst], LossSpec()
                for at, pair, new_delay, p in sorted(set_links, key=lambda event: event[0]):
                    if pair == (src, dst) and at < t:
                        delay, loss = new_delay, LossSpec(p=p)
                want = expected(bool(out & {src, dst}), delay, loss)
                assert observed(engine, src, dst) == want, (t, src, dst)
