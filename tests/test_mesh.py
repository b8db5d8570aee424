"""Load balancer picks and cursors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import mesh, topology
from fedsim.mesh import (
    BalancerState,
    Endpoint,
    NoHealthyEndpoint,
    lc_update,
    pick,
    pick_lc,
    pick_rr,
)
from tests.conftest import make_topology


def make_endpoints(n, service="svc", cluster=0):
    return [Endpoint(service, cluster, i) for i in range(n)]


class TestRoundRobin:
    def test_cycles_in_order(self):
        eps = make_endpoints(3)
        state = BalancerState()
        picks = [pick_rr(state, eps).replica for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_skips_unhealthy_without_losing_position(self):
        eps = make_endpoints(4)
        state = BalancerState()
        assert pick_rr(state, eps).replica == 0
        eps[1].healthy = False
        # cursor sits at 1; the skip lands on 2 and advances past it
        assert pick_rr(state, eps).replica == 2
        assert state.rr_cursor == 3
        assert pick_rr(state, eps).replica == 3
        eps[1].healthy = True
        assert pick_rr(state, eps).replica == 0
        assert pick_rr(state, eps).replica == 1

    def test_all_unhealthy_raises(self):
        eps = make_endpoints(2)
        for e in eps:
            e.healthy = False
        with pytest.raises(NoHealthyEndpoint):
            pick_rr(BalancerState(), eps)

    def test_empty_list_raises(self):
        with pytest.raises(NoHealthyEndpoint):
            pick_rr(BalancerState(), [])

    def test_single_endpoint_repeats(self):
        eps = make_endpoints(1)
        state = BalancerState()
        assert [pick_rr(state, eps).replica for _ in range(3)] == [0, 0, 0]


class TestLeastConnection:
    def test_picks_minimum_outstanding(self):
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        state.outstanding = {eps[0]: 2, eps[1]: 0, eps[2]: 1}
        assert pick_lc(state, eps) is eps[1]
        assert state.rr_cursor == 2

    def test_fresh_state_picks_first(self):
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        assert pick_lc(state, eps) is eps[0]

    def test_ties_rotate(self):
        # with all counts equal the cursor spreads picks like round-robin
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        picks = [pick_lc(state, eps).replica for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_strictly_smaller_count_beats_rotation(self):
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        state.outstanding = {eps[0]: 0, eps[1]: 1, eps[2]: 1}
        for _ in range(4):
            assert pick_lc(state, eps) is eps[0]

    def test_skips_unhealthy(self):
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        state.outstanding = {eps[0]: 0, eps[1]: 5, eps[2]: 5}
        eps[0].healthy = False
        assert pick_lc(state, eps) in (eps[1], eps[2])

    def test_all_unhealthy_raises(self):
        eps = make_endpoints(2)
        for e in eps:
            e.healthy = False
        with pytest.raises(NoHealthyEndpoint):
            pick_lc(BalancerState(), eps)

    def test_update_tracks_dispatch_and_response(self):
        eps = make_endpoints(2)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        lc_update(state, eps[0], +1)
        lc_update(state, eps[0], +1)
        lc_update(state, eps[1], +1)
        assert state.outstanding == {eps[0]: 2, eps[1]: 1}
        lc_update(state, eps[0], -1)
        assert state.outstanding[eps[0]] == 1

    def test_update_rejects_negative_count(self):
        eps = make_endpoints(1)
        state = BalancerState()
        with pytest.raises(ValueError):
            lc_update(state, eps[0], -1)


class TestPickDispatch:
    def test_routes_by_policy(self):
        eps = make_endpoints(2)
        rr = BalancerState(policy=mesh.ROUND_ROBIN)
        lc = BalancerState(policy=mesh.LEAST_CONNECTION)
        lc.outstanding = {eps[0]: 3}
        assert pick(rr, eps) is eps[0]
        assert pick(lc, eps) is eps[1]

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            pick(BalancerState(policy="weighted"), make_endpoints(1))


class TestIngress:
    def test_cluster_major_order(self):
        frontends = [
            Endpoint("frontend", 0, 0),
            Endpoint("frontend", 0, 1),
            Endpoint("frontend", 1, 0),
            Endpoint("frontend", 1, 1),
        ]
        state = BalancerState()
        order = [pick_rr(state, frontends) for _ in range(4)]
        assert [(e.cluster, e.replica) for e in order] == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestServiceRegistry:
    # the engine's endpoint lists are the registry the balancers pick from
    DOC = """
clusters:
  - {name: a, nodes: 2, vcpus_per_node: 4}
  - {name: b, nodes: 2, vcpus_per_node: 4}
services:
  - {name: frontend, stage: frontend, replicas_per_cluster: {a: 1}}
  - {name: backend, stage: backend, replicas_per_cluster: {a: 2, b: 2}}
duration_s: 5
"""

    def test_lists_in_registration_order(self):
        engine = topology.build_runtime(make_topology(self.DOC))
        assert [e.key for e in engine.backend_endpoints] == [
            ("backend", 0, 0),
            ("backend", 0, 1),
            ("backend", 1, 0),
            ("backend", 1, 1),
        ]
        assert [e.key for e in engine.frontend_endpoints] == [("frontend", 0, 0)]


class TestEndpointIdentity:
    def test_distinct_objects_never_equal(self):
        a = Endpoint("svc", 0, 0)
        b = Endpoint("svc", 0, 0)
        assert a != b
        assert a.key == b.key
        counts = {a: 1, b: 2}
        assert len(counts) == 2


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), picks=st.integers(1, 200))
def test_round_robin_fairness(n, picks):
    # over any window, per-endpoint pick counts differ by at most one
    eps = make_endpoints(n)
    state = BalancerState()
    counts = dict.fromkeys(range(n), 0)
    for _ in range(picks):
        counts[pick_rr(state, eps).replica] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=8),
    cursor=st.integers(0, 7),
)
def test_least_connection_always_argmin(counts, cursor):
    eps = make_endpoints(len(counts))
    state = BalancerState(policy=mesh.LEAST_CONNECTION, rr_cursor=cursor % len(counts))
    state.outstanding = {e: c for e, c in zip(eps, counts)}
    chosen = pick_lc(state, eps)
    assert state.outstanding[chosen] == min(counts)
