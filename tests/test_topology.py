"""Scenario parsing, canonical rendering, validation, and placement."""

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import faults, topology
from fedsim.netem import JitterSpec, LossSpec
from fedsim.topology import (
    ClusterSpec,
    DemandSpec,
    FederationSpec,
    LinksSpec,
    ScenarioError,
    ServiceSpec,
    ValidationError,
    parse_scenario,
    render_scenario,
    validate,
)
from fedsim.workload import PayloadSpec, Phase, WorkloadSpec
from tests.conftest import MINI_DOC, make_topology, two_cluster_doc

MINIMAL = """
clusters:
  - {name: only}
duration_s: 10
"""


class TestParse:
    def test_minimal_document_defaults(self):
        spec = parse_scenario(MINIMAL)
        cluster = spec.clusters[0]
        assert (cluster.name, cluster.nodes, cluster.vcpus_per_node) == ("only", 1, 1)
        assert cluster.memory_gb == 8.0
        assert cluster.role == "edge"
        assert spec.seed == 0
        assert spec.duration_s == 10.0
        assert spec.scrape_interval_s == 5.0
        assert spec.timeout_s == 5.0
        assert spec.rate_window_s == 60.0
        assert spec.services == ()
        assert spec.timeline == ()
        assert spec.links.base_delay_ms == 0.0
        assert spec.links.one_way_delay_ms == ((0.0,),)

    def test_stage_demand_defaults(self):
        doc = """
clusters:
  - {name: a, nodes: 4, vcpus_per_node: 4}
services:
  - {name: fe, stage: frontend, replicas_per_cluster: {a: 1}}
  - {name: be, stage: backend, replicas_per_cluster: {a: 1}}
duration_s: 5
"""
        spec = parse_scenario(doc)
        fe, be = spec.services
        assert fe.demand == DemandSpec(base_ms=20.0, per_kb_ms=0.01, reduction=1 / 3)
        assert be.demand == DemandSpec(base_ms=80.0, per_kb_ms=0.02, reduction=1.0)
        assert fe.backend_policy is None

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("clusters:\n  - name: a\n   bad indent: [\n")
        message = exc.value.errors[0]
        assert message.startswith("syntax error at line ")
        assert "column" in message

    def test_libyaml_and_python_loaders_agree(self, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        assert topology._LOADER is yaml.CSafeLoader
        texts = [fedsim.bundled_scenario(name).read_text() for name in ("poc", "poc_lc", "blackout", "ping")]
        specs = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(topology, "_LOADER", loader)
            specs.append([parse_scenario(text) for text in texts])
            with pytest.raises(ScenarioError) as exc:
                parse_scenario("clusters: [{name: a}\n")
            assert exc.value.errors[0].startswith("syntax error at line ")
        assert specs[0] == specs[1]

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(MINIMAL + "nonsense: 1\n")
        assert exc.value.errors == ["document: unknown field 'nonsense'"]

    def test_unknown_service_field(self):
        doc = """
clusters: [{name: a}]
services:
  - {name: s, stage: frontend, replicas_per_cluster: {a: 1}, weight: 2}
duration_s: 5
"""
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert "services[0]: unknown field 'weight'" in exc.value.errors

    def test_missing_required_fields(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("duration_s: 5\n")
        assert "document: missing required field 'clusters'" in exc.value.errors
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("clusters: [{name: a}]\n")
        assert "document: missing required field 'duration_s'" in exc.value.errors

    def test_delay_matrix_row_count(self):
        doc = """
clusters: [{name: a}, {name: b}]
links:
  one_way_delay_ms: [[0, 1], [1, 0], [9, 9]]
duration_s: 5
"""
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.errors == ["links.one_way_delay_ms: expected 2 rows, got 3"]

    def test_delay_matrix_row_width(self):
        doc = """
clusters: [{name: a}, {name: b}]
links:
  one_way_delay_ms: [[0, 1], [1]]
duration_s: 5
"""
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.errors == ["links.one_way_delay_ms[1]: expected 2 entries, got 1"]

    def test_bool_rejected_where_number_expected(self):
        doc = MINIMAL.replace("duration_s: 10", "duration_s: true")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.errors == ["duration_s: expected a number"]

    def test_sparse_jitter_and_loss_resolved_by_name(self):
        doc = """
clusters: [{name: a}, {name: b}]
links:
  jitter: [{src: a, dst: b, dist: uniform, scale_ms: 3.0}]
  loss: [{src: b, dst: a, p: 0.5, correlation: 0.25}]
duration_s: 5
"""
        spec = parse_scenario(doc)
        assert spec.links.jitter[0][1] == JitterSpec(dist="uniform", scale_ms=3.0)
        assert spec.links.jitter[1][0] == JitterSpec()
        assert spec.links.loss[1][0] == LossSpec(p=0.5, correlation=0.25)
        assert spec.links.loss[0][1] == LossSpec()

    def test_sparse_entry_unknown_cluster(self):
        doc = """
clusters: [{name: a}]
links:
  loss: [{src: a, dst: z, p: 0.1}]
duration_s: 5
"""
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.errors == ["links.loss[0].dst: unknown cluster 'z'"]


class TestRender:
    def test_bundled_scenarios_round_trip(self):
        for name in ("poc", "poc_lc", "ping", "blackout"):
            spec = topology.load_scenario(fedsim.bundled_scenario(name))
            assert parse_scenario(render_scenario(spec)) == spec

    def test_render_is_canonical_fixed_point(self):
        text = render_scenario(parse_scenario(MINI_DOC))
        assert render_scenario(parse_scenario(text)) == text

    def test_render_makes_defaults_explicit(self):
        text = render_scenario(parse_scenario(MINIMAL))
        assert "scrape_interval_s: 5.0" in text
        assert "timeout_s: 5.0" in text
        assert "rate_window_s: 60.0" in text
        assert "one_way_delay_ms" in text


NAME_ST = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
SMALL_FLOAT = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
UNIT_FLOAT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def jitter_specs(draw):
    if draw(st.booleans()):
        return JitterSpec()
    return JitterSpec(dist=draw(st.sampled_from(["uniform", "normal"])), scale_ms=draw(SMALL_FLOAT))


@st.composite
def payload_specs(draw):
    dist = draw(st.sampled_from(["constant", "lognormal", "empirical"]))
    if dist == "constant":
        return PayloadSpec(dist=dist, bytes=draw(st.integers(1, 10**7)))
    if dist == "lognormal":
        return PayloadSpec(
            dist=dist,
            mu=draw(st.floats(-5, 20, allow_nan=False)),
            sigma=draw(st.floats(0, 3, allow_nan=False)),
        )
    return PayloadSpec(
        dist=dist,
        values=tuple(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=5))),
        mode=draw(st.sampled_from(["uniform", "cycle"])),
    )


@st.composite
def federation_specs(draw):
    names = draw(st.lists(NAME_ST, min_size=1, max_size=3, unique=True))
    n = len(names)
    clusters = tuple(
        ClusterSpec(
            name=name,
            nodes=draw(st.integers(1, 4)),
            vcpus_per_node=draw(st.integers(1, 8)),
            memory_gb=draw(st.floats(0.5, 64, allow_nan=False)),
            role=draw(st.sampled_from(["edge", "datacenter"])),
        )
        for name in names
    )
    links = LinksSpec(
        one_way_delay_ms=tuple(
            tuple(0.0 if i == j else draw(SMALL_FLOAT) for j in range(n)) for i in range(n)
        ),
        jitter=tuple(
            tuple(JitterSpec() if i == j else draw(jitter_specs()) for j in range(n))
            for i in range(n)
        ),
        loss=tuple(
            tuple(
                LossSpec()
                if i == j
                else LossSpec(p=draw(UNIT_FLOAT), correlation=draw(UNIT_FLOAT))
                for j in range(n)
            )
            for i in range(n)
        ),
        base_delay_ms=draw(SMALL_FLOAT),
        intra_base_delay_ms=draw(SMALL_FLOAT),
    )
    services = (
        ServiceSpec(
            name="fe-svc",
            stage="frontend",
            replicas_per_cluster={names[0]: draw(st.integers(1, 3))},
            demand=DemandSpec(
                base_ms=draw(SMALL_FLOAT),
                per_kb_ms=draw(SMALL_FLOAT),
                reduction=draw(st.floats(0.1, 1.0, allow_nan=False)),
            ),
            backend_policy=draw(st.sampled_from([None, "round_robin", "least_connection"])),
        ),
        ServiceSpec(
            name="be-svc",
            stage="backend",
            replicas_per_cluster={names[-1]: draw(st.integers(1, 3))},
            demand=DemandSpec(base_ms=draw(SMALL_FLOAT), per_kb_ms=draw(SMALL_FLOAT)),
        ),
    )
    workload = WorkloadSpec(
        phases=tuple(
            Phase(rate=draw(st.floats(0, 100, allow_nan=False)), duration_s=draw(st.floats(0.1, 1000, allow_nan=False)))
            for _ in range(draw(st.integers(0, 3)))
        ),
        arrival=draw(st.sampled_from(["constant", "poisson"])),
        payload=draw(payload_specs()),
    )
    timeline = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["set_link", "blackout", "set_health"]))
        if kind == "set_link" and n > 1:
            timeline.append(
                faults.SetLinkEvent(
                    at_s=draw(SMALL_FLOAT),
                    src=names[0],
                    dst=names[-1],
                    delay_ms=draw(SMALL_FLOAT),
                    jitter=draw(jitter_specs()),
                    loss=LossSpec(p=draw(UNIT_FLOAT), correlation=draw(UNIT_FLOAT)),
                )
            )
        elif kind == "blackout":
            at = draw(st.floats(0, 100, allow_nan=False))
            timeline.append(
                faults.BlackoutEvent(at_s=at, cluster=names[0], end_s=at + draw(st.floats(1, 100, allow_nan=False)))
            )
        else:
            timeline.append(
                faults.SetHealthEvent(
                    at_s=draw(SMALL_FLOAT),
                    service="fe-svc",
                    cluster=names[0],
                    healthy=draw(st.booleans()),
                    replica=draw(st.sampled_from([None, 0, 1])),
                )
            )
    return FederationSpec(
        clusters=clusters,
        links=links,
        services=services,
        workload=workload,
        timeline=tuple(timeline),
        seed=draw(st.integers(0, 2**64 - 1)),
        duration_s=draw(st.floats(1, 10000, allow_nan=False)),
        scrape_interval_s=draw(st.floats(0.1, 60, allow_nan=False)),
        timeout_s=draw(st.floats(0.1, 60, allow_nan=False)),
        rate_window_s=draw(st.floats(1, 600, allow_nan=False)),
    )


@settings(max_examples=150, deadline=None)
@given(spec=federation_specs())
def test_round_trip_any_spec(spec):
    assert parse_scenario(render_scenario(spec)) == spec


class TestValidate:
    def test_collects_every_violation(self):
        doc = """
clusters:
  - {name: a, nodes: 0, vcpus_per_node: 4, memory_gb: 8, role: moon}
  - {name: a}
links:
  base_delay_ms: -1.0
services:
  - name: s1
    stage: frontend
    replicas_per_cluster: {a: 0}
    demand: {base_ms: -5.0, per_kb_ms: 0.0}
  - name: s1
    stage: backend
    replicas_per_cluster: {zz: 1}
workload:
  arrival: constant
  phases: [{rate: -1.0, duration_s: 0}]
duration_s: 0
"""
        with pytest.raises(ValidationError) as exc:
            validate(parse_scenario(doc))
        errors = exc.value.errors
        expected = [
            "clusters[0].nodes < 1",
            "clusters[0].role: unknown role 'moon'",
            "clusters[1].name: duplicate 'a'",
            "links.base_delay_ms < 0",
            "services[0]: at least one replica required",
            "services[0].demand.base_ms < 0",
            "services[1].name: duplicate 's1'",
            "services[1].replicas_per_cluster: unknown cluster 'zz'",
            "workload.phases[0].rate < 0",
            "workload.phases[0].duration_s <= 0",
            "duration_s <= 0",
        ]
        for message in expected:
            assert message in errors, message

    def test_two_frontends_rejected(self):
        doc = """
clusters: [{name: a, nodes: 2, vcpus_per_node: 4}]
services:
  - {name: f1, stage: frontend, replicas_per_cluster: {a: 1}}
  - {name: f2, stage: frontend, replicas_per_cluster: {a: 1}}
duration_s: 5
"""
        with pytest.raises(ValidationError) as exc:
            validate(parse_scenario(doc))
        assert "services: more than one frontend service" in exc.value.errors

    def test_conflicting_backend_policies(self):
        doc = """
clusters: [{name: a, nodes: 2, vcpus_per_node: 4}]
services:
  - {name: f, stage: frontend, replicas_per_cluster: {a: 1}, backend_policy: round_robin}
  - {name: b, stage: backend, replicas_per_cluster: {a: 1}, backend_policy: least_connection}
duration_s: 5
"""
        with pytest.raises(ValidationError) as exc:
            validate(parse_scenario(doc))
        assert "services: conflicting backend_policy values" in exc.value.errors

    def test_traffic_requires_both_stages(self):
        doc = """
clusters: [{name: a, nodes: 2, vcpus_per_node: 4}]
services:
  - {name: f, stage: frontend, replicas_per_cluster: {a: 1}}
workload:
  phases: [{rate: 1.0, duration_s: 10}]
duration_s: 5
"""
        with pytest.raises(ValidationError) as exc:
            validate(parse_scenario(doc))
        assert "workload requires one frontend and one backend service" in exc.value.errors

    def test_probe_only_scenario_needs_no_services(self, ping_spec):
        topo = validate(ping_spec)
        assert topo.frontend is None
        assert topo.backend is None
        assert topo.spec.duration_s == 600.0

    def test_diagonal_impairments_rejected(self):
        doc = """
clusters: [{name: a}, {name: b}]
links:
  one_way_delay_ms: [[3.0, 1.0], [1.0, 0.0]]
  loss: [{src: a, dst: a, p: 0.2}]
duration_s: 5
"""
        with pytest.raises(ValidationError) as exc:
            validate(parse_scenario(doc))
        assert "one_way_delay[0][0] != 0" in exc.value.errors
        assert "loss[0][0].p != 0" in exc.value.errors

    def test_placements_sorted_and_zero_counts_dropped(self):
        doc = """
clusters:
  - {name: a, nodes: 2, vcpus_per_node: 4}
  - {name: b, nodes: 2, vcpus_per_node: 4}
  - {name: c, nodes: 2, vcpus_per_node: 4}
services:
  - {name: f, stage: frontend, replicas_per_cluster: {c: 1, a: 2, b: 0}}
  - {name: g, stage: backend, replicas_per_cluster: {b: 1}}
duration_s: 5
"""
        topo = validate(parse_scenario(doc))
        assert topo.frontend.placements == ((0, 2), (2, 1))
        assert topo.backend.placements == ((1, 1),)
        assert topo.index_of == {"a": 0, "b": 1, "c": 2}

    def test_profile_units_converted(self):
        topo = make_topology(two_cluster_doc())
        assert topo.frontend.profile.base_demand_s == pytest.approx(0.005)
        assert topo.backend.profile.base_demand_s == pytest.approx(0.020)
        assert topo.frontend.profile.per_byte_demand_s == 0.0

    def test_poc_profile_reference_values(self, poc_spec):
        topo = validate(poc_spec)
        fe, be = topo.frontend.profile, topo.backend.profile
        assert fe.base_demand_s == pytest.approx(0.020)
        assert fe.per_byte_demand_s == pytest.approx(0.01e-6)
        assert fe.reduction_factor == pytest.approx(1 / 3)
        assert be.base_demand_s == pytest.approx(0.080)
        assert be.per_byte_demand_s == pytest.approx(0.02e-6)


class TestPocTopology:
    def test_link_matrix_concentrates_on_c3(self, poc_spec):
        topo = validate(poc_spec)
        delay = topo.spec.links.one_way_delay_ms
        hot = {(0, 2), (1, 2), (2, 0), (2, 1)}
        for i in range(4):
            for j in range(4):
                expected = 25.0 if (i, j) in hot else 0.0
                assert delay[i][j] == expected, (i, j)
        assert topo.spec.links.base_delay_ms == 0.73
        assert topo.spec.links.intra_base_delay_ms == 0.0

    def test_roles(self, poc_spec):
        roles = [c.role for c in validate(poc_spec).spec.clusters]
        assert roles == ["edge", "edge", "datacenter", "datacenter"]


class TestBuildRuntime:
    def test_poc_each_replica_gets_own_node(self, poc_spec):
        engine = topology.build_runtime(validate(poc_spec))
        for endpoint in engine.registry.list("frontend") + engine.registry.list("backend"):
            replica = engine.replicas[endpoint]
            assert replica.concurrency_limit == 4, endpoint
        fe_nodes = {(e.cluster, engine.replicas[e].node) for e in engine.registry.list("frontend")}
        assert len(fe_nodes) == 4

    def test_crowded_node_splits_vcpus(self):
        doc = """
clusters: [{name: a, nodes: 1, vcpus_per_node: 4}]
services:
  - {name: f, stage: frontend, replicas_per_cluster: {a: 1}}
  - {name: g, stage: backend, replicas_per_cluster: {a: 3}}
duration_s: 5
"""
        engine = topology.build_runtime(make_topology(doc))
        # one node hosts all 4 replicas: each gets 4 // 4 = 1 slot
        for endpoint, replica in engine.replicas.items():
            assert replica.node == 0
            assert replica.concurrency_limit == 1

    def test_concurrency_floor_is_one(self):
        doc = """
clusters: [{name: a, nodes: 1, vcpus_per_node: 2}]
services:
  - {name: f, stage: frontend, replicas_per_cluster: {a: 1}}
  - {name: g, stage: backend, replicas_per_cluster: {a: 4}}
duration_s: 5
"""
        engine = topology.build_runtime(make_topology(doc))
        for replica in engine.replicas.values():
            assert replica.concurrency_limit == 1

    def test_round_robin_node_assignment_spans_services(self):
        doc = """
clusters: [{name: a, nodes: 2, vcpus_per_node: 4}]
services:
  - {name: f, stage: frontend, replicas_per_cluster: {a: 1}}
  - {name: g, stage: backend, replicas_per_cluster: {a: 2}}
duration_s: 5
"""
        engine = topology.build_runtime(make_topology(doc))
        nodes = {e.key: r.node for e, r in engine.replicas.items()}
        assert nodes == {("f", 0, 0): 0, ("g", 0, 0): 1, ("g", 0, 1): 0}
        limits = {e.key: r.concurrency_limit for e, r in engine.replicas.items()}
        # node 0 hosts two replicas, node 1 hosts one
        assert limits == {("f", 0, 0): 2, ("g", 0, 0): 4, ("g", 0, 1): 2}

    def test_build_is_deterministic(self, poc_spec):
        def fingerprint():
            engine = topology.build_runtime(validate(poc_spec))
            return [
                (e.key, r.node, r.concurrency_limit)
                for e, r in engine.replicas.items()
            ]

        assert fingerprint() == fingerprint()

    def test_event_queue_starts_empty(self, poc_spec):
        engine = topology.build_runtime(validate(poc_spec))
        assert engine.clock == 0.0
        assert not engine._heap


class TestSchema:
    def test_bundled_scenario_name_suffix(self):
        assert fedsim.bundled_scenario("poc") == fedsim.bundled_scenario("poc.scenario")
        assert fedsim.bundled_scenario("poc").name == "poc.scenario"
