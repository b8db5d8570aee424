"""Load balancer picks and cursors.

The differential tests at the end hold the position-indexed picks to the
Python scans they replaced, copied below as oracles: today's answer is the
fewest outstanding among healthy endpoints, first in cyclic order from the
cursor, with the cursor moved past the pick.
"""

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
        state.outstanding = [2, 0, 1]
        assert pick_lc(state, eps) is eps[1]
        assert state.rr_cursor == 2

    def test_fresh_state_picks_first(self):
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION, outstanding=[0, 0, 0])
        assert pick_lc(state, eps) is eps[0]

    def test_ties_rotate(self):
        # with all counts equal the cursor spreads picks like round-robin
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION, outstanding=[0, 0, 0])
        picks = [pick_lc(state, eps).replica for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_strictly_smaller_count_beats_rotation(self):
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        state.outstanding = [0, 1, 1]
        for _ in range(4):
            assert pick_lc(state, eps) is eps[0]

    def test_skips_unhealthy(self):
        eps = make_endpoints(3)
        state = BalancerState(policy=mesh.LEAST_CONNECTION)
        state.outstanding = [0, 5, 5]
        eps[0].healthy = False
        assert pick_lc(state, eps) in (eps[1], eps[2])

    def test_all_unhealthy_raises(self):
        eps = make_endpoints(2)
        for e in eps:
            e.healthy = False
        with pytest.raises(NoHealthyEndpoint):
            pick_lc(BalancerState(outstanding=[0, 0]), eps)

    def test_empty_list_raises(self):
        with pytest.raises(NoHealthyEndpoint):
            pick_lc(BalancerState(policy=mesh.LEAST_CONNECTION), [])

    def test_update_tracks_dispatch_and_response(self):
        # counts are held by position in the endpoint list
        state = BalancerState(policy=mesh.LEAST_CONNECTION, outstanding=[0, 0])
        lc_update(state, 0, +1)
        lc_update(state, 0, +1)
        lc_update(state, 1, +1)
        assert state.outstanding == [2, 1]
        lc_update(state, 0, -1)
        assert state.outstanding[0] == 1

    def test_update_rejects_negative_count(self):
        state = BalancerState(outstanding=[0])
        with pytest.raises(ValueError):
            lc_update(state, 0, -1)
        assert state.outstanding == [0]


class TestPickDispatch:
    def test_routes_by_policy(self):
        eps = make_endpoints(2)
        rr = BalancerState(policy=mesh.ROUND_ROBIN)
        lc = BalancerState(policy=mesh.LEAST_CONNECTION)
        lc.outstanding = [3, 0]
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
    state.outstanding = list(counts)
    chosen = pick_lc(state, eps)
    assert state.outstanding[chosen.replica] == min(counts)


# -- differential tests against the scans the position-indexed picks replaced --


def oracle_rr(cursor, endpoints):
    """The round-robin scan as it stood: (picked index, cursor after), or
    None if no endpoint is healthy."""
    n = len(endpoints)
    for step in range(n):
        i = (cursor + step) % n
        if endpoints[i].healthy:
            return i, (i + 1) % n
    return None


def oracle_lc(cursor, endpoints, outstanding):
    """The least-connection scan as it stood, over counts keyed by endpoint."""
    n = len(endpoints)
    best = None
    best_i = -1
    best_count = 0
    for step in range(n):
        i = (cursor + step) % n
        endpoint = endpoints[i]
        if not endpoint.healthy:
            continue
        count = outstanding.get(endpoint, 0)
        if best is None or count < best_count:
            best, best_i, best_count = endpoint, i, count
    if best is None:
        return None
    return best_i, (best_i + 1) % n


@st.composite
def balancers(draw, max_count=4):
    """(counts, health mask, cursor) over 1 to 130 endpoints; a mask is all
    up, all down or mixed."""
    n = draw(st.integers(1, 130))
    counts = draw(st.lists(st.integers(0, max_count), min_size=n, max_size=n))
    healthy = draw(
        st.one_of(st.just([True] * n), st.just([False] * n), st.lists(st.booleans(), min_size=n, max_size=n))
    )
    cursor = draw(st.integers(0, n - 1))
    return counts, healthy, cursor


def endpoints_with(healthy):
    eps = make_endpoints(len(healthy))
    for endpoint, up in zip(eps, healthy):
        endpoint.healthy = up
    return eps


def pick_or_none(state, eps):
    """(picked index, cursor after), or None if the pick raised
    ``NoHealthyEndpoint``, which must keep the cursor."""
    cursor = state.rr_cursor
    try:
        chosen = pick(state, eps)
    except NoHealthyEndpoint:
        assert state.rr_cursor == cursor
        return None
    return chosen.replica, state.rr_cursor


@settings(max_examples=200, deadline=None)
@given(balancer=balancers())
def test_least_connection_matches_the_scan(balancer):
    counts, healthy, cursor = balancer
    eps = endpoints_with(healthy)
    state = BalancerState(policy=mesh.LEAST_CONNECTION, rr_cursor=cursor, outstanding=list(counts))
    expected = oracle_lc(cursor, eps, dict(zip(eps, counts)))
    assert pick_or_none(state, eps) == expected
    assert state.outstanding == counts


@settings(max_examples=100, deadline=None)
@given(balancer=balancers(max_count=0))
def test_round_robin_matches_the_scan(balancer):
    _counts, healthy, cursor = balancer
    eps = endpoints_with(healthy)
    state = BalancerState(policy=mesh.ROUND_ROBIN, rr_cursor=cursor)
    expected = oracle_rr(cursor, eps)
    assert pick_or_none(state, eps) == expected


@settings(max_examples=60, deadline=None)
@given(
    balancer=balancers(max_count=0),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("pick")),
            st.tuples(st.just("release"), st.integers(0, 129)),
            st.tuples(st.just("flip"), st.integers(0, 129)),
        ),
        max_size=80,
    ),
)
def test_a_sequence_of_picks_releases_and_flips_matches_the_scans(balancer, steps):
    # what a frontend's balancer sees in a run: every pick adds one to the
    # picked count, a reply or timeout takes one off, and health flips
    _counts, healthy, cursor = balancer
    n = len(healthy)
    eps = endpoints_with(healthy)
    lc = BalancerState(policy=mesh.LEAST_CONNECTION, rr_cursor=cursor, outstanding=[0] * n)
    rr = BalancerState(policy=mesh.ROUND_ROBIN, rr_cursor=cursor)
    lc_cursor, rr_cursor, counts = cursor, cursor, dict.fromkeys(eps, 0)
    for step in steps:
        if step[0] == "pick":
            expected = oracle_lc(lc_cursor, eps, counts)
            assert pick_or_none(lc, eps) == expected
            if expected is not None:
                lc_cursor = expected[1]
                lc_update(lc, expected[0], +1)
                counts[eps[expected[0]]] += 1
            expected = oracle_rr(rr_cursor, eps)
            assert pick_or_none(rr, eps) == expected
            if expected is not None:
                rr_cursor = expected[1]
        elif step[0] == "release":
            i = step[1] % n
            if counts[eps[i]]:
                lc_update(lc, i, -1)
                counts[eps[i]] -= 1
            else:
                with pytest.raises(ValueError):
                    lc_update(lc, i, -1)
        else:
            eps[step[1] % n].healthy = not eps[step[1] % n].healthy
        assert lc.outstanding == [counts[endpoint] for endpoint in eps]
