"""Scenario parsing, canonical rendering, validation, and placement."""

import gc
import random
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import faults, topology, workload
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
from perfbench.scenarios import _links
from tests.conftest import DEEP, MINI_DOC, make_topology, two_cluster_doc

MINIMAL = """
clusters:
  - {name: only}
duration_s: 10
"""

# PyYAML's safe loaders, and fedsim's lean loader over each
BASES = (yaml.SafeLoader, *([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else []))
LEAN_LOADERS = tuple(topology.lean_loader(base) for base in BASES)


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
        assert issubclass(topology._LOADER, yaml.CSafeLoader)
        texts = [fedsim.bundled_scenario(name).read_text() for name in ("poc", "poc_lc", "blackout", "ping")]
        specs = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader, *LEAN_LOADERS):
            monkeypatch.setattr(topology, "_LOADER", loader)
            specs.append([parse_scenario(text) for text in texts])
            with pytest.raises(ScenarioError) as exc:
                parse_scenario("clusters: [{name: a}\n")
            assert exc.value.errors[0].startswith("syntax error at line ")
        assert all(loaded == specs[0] for loaded in specs)

    def test_nesting_too_deep_is_a_scenario_error(self, monkeypatch, shallow_recursion):
        text = "clusters: " + "[" * DEEP + "]" * DEEP + "\nduration_s: 5\n"
        for loader in (*BASES, *LEAN_LOADERS):
            monkeypatch.setattr(topology, "_LOADER", loader)
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(text)
            # PyYAML's pure-Python composer recurses once per level; libyaml's composes any depth
            if issubclass(loader, yaml.SafeLoader):
                assert exc.value.errors == ["document: nested too deeply"]
            else:
                assert exc.value.errors == ["clusters[0]: expected a mapping"]

    def test_a_date_the_safe_constructor_cannot_build_is_a_syntax_error(self, monkeypatch):
        for loader in (*BASES, *LEAN_LOADERS):
            monkeypatch.setattr(topology, "_LOADER", loader)
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(MINIMAL.replace("duration_s: 10", "duration_s: 2001-13-01"))
            assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith("syntax error: month must be in 1..12")

    @pytest.mark.parametrize("value", ["!!float ''", "!!int ''", "!!bool 'maybe'", "!!timestamp 'x'"])
    def test_a_typed_scalar_the_safe_constructor_cannot_build_is_a_syntax_error(self, value, monkeypatch):
        # PyYAML's constructors fail here with IndexError, KeyError or AttributeError
        for loader in (*BASES, *LEAN_LOADERS):
            monkeypatch.setattr(topology, "_LOADER", loader)
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(MINIMAL.replace("duration_s: 10", f"duration_s: {value}"))
            assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith("syntax error: "), loader

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

    def test_sparse_entry_keeps_the_error_order(self):
        doc = """
clusters: [{name: a}]
links:
  loss: [{src: z, dst: y, weight: 1}]
duration_s: 5
"""
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.errors == ["links.loss[0]: unknown field 'weight'"]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc.replace(", weight: 1", ""))
        assert exc.value.errors == ["links.loss[0].src: unknown cluster 'z'"]

    def test_sparse_entry_of_a_duplicate_name_goes_to_its_first_cluster(self):
        doc = """
clusters: [{name: a}, {name: b}, {name: a}]
links:
  jitter: [{src: b, dst: a, dist: uniform, scale_ms: 1.0}]
duration_s: 5
"""
        jitter = parse_scenario(doc).links.jitter
        assert jitter[1] == (JitterSpec("uniform", 1.0), JitterSpec(), JitterSpec())


class TestLeanLoader:
    """``topology.lean_loader`` gives PyYAML's own result, or error, over
    either base."""

    CASES = {
        "aliases": "a: &x {k: [1, 2]}\nb: *x\nc: [*x, *x]\nd: &s text\ne: *s\n",
        "merge keys": "base: &b {x: 1, y: 2}\nderived:\n  <<: *b\n  y: 3\nmany: {<<: [*b, {z: 4}]}\n",
        "value key": "{=: 1, a: 2}",
        "recursive list": "&a [*a, 1]",
        "recursive map": "&m {self: *m, k: [*m]}",
        "timestamps": "t: 2001-12-14t21:59:43.10-05:00\nd: 2002-12-14\n",
        "binary": "!!binary aGVsbG8=",
        "set": "!!set {a, b}",
        "omap": "!!omap [a: 1, b: 2]",
        "duplicate keys": "{a: 1, b: 2, a: 3}",
        "non-string keys": "{1: a, 2.5: b, true: c, ~: d, 0x10: e, 1.0: f}",
        "yaml 1.1 numbers": "[0x1F, 017, 0b101, 1_000.5, 1:30.5, 190:20:30, +.inf, -.Inf, .nan, 6.8523015e+5, -0]",
        "yaml 1.1 bools and nulls": "[yes, No, on, OFF, y, n, ~, null, Null, '']",
        "quoted numbers": "[\"1\", '2.5', \"true\", '~']",
        "explicit tags": "[!!str 123, !!int '42', !!float '1', !!bool 'yes', !!null '']",
        "empty document": "",
        "empty explicit document": "---\n...\n",
        "syntax error": "[1, 2",
        "bad int": "[1, !!int abc]",
        "two bad ints": "[[!!int a], !!int b]",  # PyYAML builds the outer list's items first: 'b' fails
        "unknown tag": "!foo bar",
        "wrong node for tag": "!!seq {a: 1}",
        "collection key": "? [1, 2]\n: x\n",
        "collection key of a map": "{? {a: 1} : x}",
        "deep nesting": "[" * DEEP + "]" * DEEP,
        # the lean path reads a float as float(text) where float takes it
        "float minus zero": "-0.0",
        "float without a fraction": "1.",
        "float with two underscores": "1__0.5",
        "float with a plus sign": "!!float '+.5'",
        "float with two signs": "!!float '+-1'",  # PyYAML strips the '+' and reads -1.0; float() rejects it
        "empty float": "!!float ''",
        "float between spaces": "!!float ' 1.5 '",
        "float minus inf": "!!float '-inf'",
    }

    @staticmethod
    def _load(text, loader):
        try:
            return "ok", yaml.load(text, Loader=loader)
        except Exception as exc:  # compared below: the same type and message
            return "error", (type(exc), str(exc))

    @staticmethod
    def _depth(value):
        depth = 0
        while isinstance(value, list):
            value, depth = value[0] if value else None, depth + 1
        return depth

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_as_pyyaml(self, case, shallow_recursion):
        text = self.CASES[case]
        results = []
        for base, lean in zip(BASES, LEAN_LOADERS):
            expected, got = self._load(text, base), self._load(text, lean)
            assert got[0] == expected[0], (base, got, expected)
            if got[0] == "error":  # libyaml words its errors differently, so each against its own base
                assert got == expected
            else:
                results += [expected[1], got[1]]
        for value in results:
            if case == "deep nesting":  # == and repr would recurse too deep
                assert self._depth(value) == DEEP
            else:
                assert repr(value) == repr(results[0])
                assert type(value) is type(results[0])

    def test_aliases_share_their_anchor(self):
        for loader in (*BASES, *LEAN_LOADERS):
            doc = yaml.load(self.CASES["aliases"], Loader=loader)
            assert doc["b"] is doc["a"] and doc["c"][0] is doc["a"] and doc["c"][1] is doc["a"]
            assert doc["a"]["k"] == [1, 2]
            recursive = yaml.load(self.CASES["recursive list"], Loader=loader)
            assert recursive[0] is recursive
            mapping = yaml.load(self.CASES["recursive map"], Loader=loader)
            assert mapping["self"] is mapping and mapping["k"][0] is mapping

    def test_alias_chain_is_shared_not_copied(self):
        # 2^30 leaves if each alias were a copy
        levels = 30
        text = "- &l0 [leaf]\n" + "".join(f"- &l{k} [*l{k - 1}, *l{k - 1}]\n" for k in range(1, levels + 1))
        for loader in (*BASES, *LEAN_LOADERS):
            doc = yaml.load(text, Loader=loader)
            assert len(doc) == levels + 1 and doc[0] == ["leaf"]
            for k in range(1, levels + 1):
                assert doc[k][0] is doc[k - 1] and doc[k][1] is doc[k - 1]

    def test_lean_loader_builds_a_plain_document_itself(self, monkeypatch):
        for base, lean in zip(BASES, LEAN_LOADERS):
            calls = []
            monkeypatch.setattr(base, "construct_document", lambda self, node: calls.append(node))
            doc = yaml.load(fedsim.bundled_scenario("blackout").read_text(), Loader=lean)
            assert calls == [] and doc["clusters"][0]["name"]
            recursive = yaml.load("&a [*a, {k: *a}]", Loader=lean)
            assert calls == [] and recursive[0] is recursive and recursive[1]["k"] is recursive
            assert yaml.load("d: 2002-12-14", Loader=lean) is None and len(calls) == 1  # the patched fallback
            monkeypatch.undo()

    def test_plain_scalar_tags_are_resolved_once_per_load(self, monkeypatch):
        for base, lean in zip(BASES, LEAN_LOADERS):
            calls = []
            resolve = base.resolve
            monkeypatch.setattr(base, "resolve", lambda self, *args: calls.append(args[1]) or resolve(self, *args))
            text = "[{src: a, p: 0.5}, {src: a, p: 0.5}, 'a']"
            assert yaml.load(text, Loader=lean) == [{"src": "a", "p": 0.5}] * 2 + ["a"]
            assert [value for value in calls if value is not None] == ["src", "a", "p", "0.5", "a"]
            calls.clear()
            yaml.load(text, Loader=lean)  # a new load resolves every text again
            assert [value for value in calls if value is not None] == ["src", "a", "p", "0.5", "a"]
            monkeypatch.undo()

    @pytest.mark.parametrize("case", ["scenarios", "timestamps", "bad int", "syntax error"])
    def test_a_load_leaves_no_cyclic_garbage(self, case):
        # with the collector off, reference counts alone must free the
        # composed node tree and the loader, on the lean path and the fallback
        if case == "scenarios":
            texts = [fedsim.bundled_scenario(name).read_text() for name in ("poc", "poc_lc", "blackout", "ping")]
        else:
            texts = [self.CASES[case]]
        gc.collect()
        gc.disable()
        try:
            for lean in LEAN_LOADERS:
                for text in texts:
                    self._load(text, lean)
                    assert gc.collect() == 0, (lean, text[:40])
        finally:
            gc.enable()


class TestLoadPausesTheCollector:
    """``topology.load_yaml`` runs no cyclic collection, and leaves the
    collector as it found it, whatever the load's outcome."""

    @staticmethod
    def _wide_scenario(n: int = 64) -> str:
        names = [f"C{k}" for k in range(n)]
        links = _links(random.Random(n), names, lambda i, j: 10.0, 0.25, (0.001, 0.02))
        return yaml.safe_dump({"clusters": [{"name": name} for name in names], "links": links, "duration_s": 5})

    @staticmethod
    def _collections_during(load) -> list[int]:
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.callbacks.append(record)
        try:
            load()
        finally:
            gc.callbacks.remove(record)
        return generations

    @pytest.fixture(autouse=True)
    def _restore_the_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_a_wide_scenario_loads_without_a_collection(self):
        text = self._wide_scenario()
        gc.enable()
        assert self._collections_during(lambda: topology.load_yaml(text)) == []
        assert gc.isenabled()
        assert len(parse_scenario(text).clusters) == 64

    def test_a_collector_turned_off_stays_off(self):
        gc.disable()
        topology.load_yaml(self._wide_scenario(4))
        assert not gc.isenabled()

    @pytest.mark.parametrize("text", ["[1, 2", "[" * DEEP + "]" * DEEP], ids=["syntax error", "deep nesting"])
    def test_a_load_that_fails_turns_the_collector_back_on(self, text, monkeypatch, shallow_recursion):
        # the pure-Python composer raises RecursionError on the deep nesting
        monkeypatch.setattr(topology, "_LOADER", LEAN_LOADERS[0])
        gc.enable()
        with pytest.raises(ScenarioError):
            topology.load_yaml(text)
        assert gc.isenabled()


SCALARS = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
)
KEYS = st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none())
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20,
)


@given(DOCUMENTS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_lean_loader_reads_any_dumped_document_as_pyyaml_does(document, flow):
    text = yaml.safe_dump(document, default_flow_style=flow)
    for base, lean in zip(BASES, LEAN_LOADERS):
        assert repr(yaml.load(text, Loader=lean)) == repr(yaml.load(text, Loader=base))


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

    @pytest.mark.parametrize(
        "duration_s, interval_s, accepted",
        [
            (86_400.0, 1.0, True),
            (100_000.0, 1.0, True),
            (100_000.5, 1.0, False),
            (120.0, 1e-6, False),
            (1e300, 1e-300, False),
        ],
    )
    def test_scrape_count_is_bounded(self, duration_s, interval_s, accepted):
        # written as YAML floats: 1.0e-06, not 1e-06, which YAML reads as a string
        spec = parse_scenario(
            f"clusters: [{{name: only}}]\nduration_s: {duration_s:.6e}\nscrape_interval_s: {interval_s:.6e}\n"
        )
        if accepted:
            validate(spec)
            return
        with pytest.raises(ValidationError) as exc:
            validate(spec)
        expected = f"scrape_interval_s: {interval_s!r} gives more than 100000 scrapes over duration_s {duration_s!r}"
        assert exc.value.errors == [expected]

    @pytest.mark.parametrize(
        "mu, sigma, accepted", [(700.0, 0.9, True), (709.0, 0.078, True), (800.0, 1.0, False), (0.0, 71.0, False)]
    )
    def test_lognormal_payload_must_not_overflow(self, mu, sigma, accepted):
        doc = MINI_DOC.replace("{dist: constant, bytes: 1000}", f"{{dist: lognormal, mu: {mu}, sigma: {sigma}}}")
        if accepted:
            make_topology(doc)
            return
        with pytest.raises(ValidationError) as exc:
            make_topology(doc)
        assert [error.split(" exceeds ")[0] for error in exc.value.errors] == [
            f"workload.payload: mu + 10 * sigma = {mu + 10 * sigma!r}"
        ]

    @pytest.mark.parametrize(
        "payload, error",
        [
            (f"{{dist: constant, bytes: {int(sys.float_info.max)}}}", None),
            (f"{{dist: constant, bytes: {int(sys.float_info.max) + 1}}}", "workload.payload.bytes"),
            (f"{{dist: constant, bytes: {10**400}}}", "workload.payload.bytes"),
            (f"{{dist: empirical, values: [1, {int(sys.float_info.max)}]}}", None),
            (f"{{dist: empirical, values: [1, {10**400}, 2]}}", "workload.payload.values"),
        ],
        ids=["max_float", "above_max_float", "10**400", "values_max_float", "values_10**400"],
    )
    def test_payload_size_must_fit_a_float(self, payload, error):
        doc = MINI_DOC.replace("{dist: constant, bytes: 1000}", payload)
        if error is None:
            make_topology(doc)
            return
        with pytest.raises(ValidationError) as exc:
            make_topology(doc)
        assert exc.value.errors == [f"{error}: must be at most the largest float, {sys.float_info.max!r}"]

    @pytest.mark.parametrize(
        "payload, frontend, backend, error",
        [
            (f"{{dist: constant, bytes: {10**308}}}", "per_kb_ms: 1.0e+7", "per_kb_ms: 0.0", "services[0]"),
            (f"{{dist: empirical, values: [1, {10**308}]}}", "per_kb_ms: 1.0e+7", "per_kb_ms: 0.0", "services[0]"),
            ("{dist: lognormal, mu: 700, sigma: 0.5}", "per_kb_ms: 1.0e+9", "per_kb_ms: 0.0", "services[0]"),
            ("{dist: lognormal, mu: 700, sigma: 0.5}", "per_kb_ms: 1.0e+6", "per_kb_ms: 0.0", None),
            # the backend serves the frontend's reduced bytes, a quarter here
            (f"{{dist: constant, bytes: {10**308}}}", "per_kb_ms: 0.0, reduction: 0.25", "per_kb_ms: 4.0e+6", None),
            (f"{{dist: constant, bytes: {10**308}}}", "per_kb_ms: 0.0, reduction: 0.25", "per_kb_ms: 1.0e+7", "services[1]"),
        ],
        ids=["constant", "empirical", "lognormal", "lognormal_fits", "reduced_fits", "reduced_overflows"],
    )
    def test_demand_of_the_largest_payload_must_be_finite(self, payload, frontend, backend, error):
        doc = (
            MINI_DOC.replace("{dist: constant, bytes: 1000}", payload)
            .replace("{base_ms: 10.0, per_kb_ms: 0.0}", f"{{base_ms: 10.0, {frontend}}}")
            .replace("{base_ms: 30.0, per_kb_ms: 0.0}", f"{{base_ms: 30.0, {backend}}}")
        )
        if error is None:
            make_topology(doc)
            return
        with pytest.raises(ValidationError) as exc:
            make_topology(doc)
        [message] = exc.value.errors
        assert message.startswith(f"{error}.demand: base_ms + per_kb_ms * ") and message.endswith("overflows a float")

    def test_the_demand_check_uses_the_engine_formula(self, monkeypatch):
        # validate computes each stage's demand with workload.service_demand,
        # the function the engine serves requests with
        make_topology(MINI_DOC)
        monkeypatch.setattr(workload, "service_demand", lambda profile, input_bytes: float("inf"))
        with pytest.raises(ValidationError) as exc:
            make_topology(MINI_DOC)
        assert [message.split(":")[0] for message in exc.value.errors] == ["services[0].demand", "services[1].demand"]

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
        # placement order: services in declaration order, then clusters, then
        # replica index
        assert [r.key for r in engine.replicas] == [
            *(("frontend", cluster, index) for cluster in (0, 1) for index in range(2)),
            *(("backend", cluster, index) for cluster in (2, 3) for index in range(3)),
        ]
        for replica in engine.frontend_endpoints + engine.backend_endpoints:
            assert replica.concurrency_limit == 4, replica
        fe_nodes = {(r.cluster, r.node) for r in engine.frontend_endpoints}
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
        for replica in engine.replicas:
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
        for replica in engine.replicas:
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
        nodes = {r.key: r.node for r in engine.replicas}
        assert nodes == {("f", 0, 0): 0, ("g", 0, 0): 1, ("g", 0, 1): 0}
        limits = {r.key: r.concurrency_limit for r in engine.replicas}
        # node 0 hosts two replicas, node 1 hosts one
        assert limits == {("f", 0, 0): 2, ("g", 0, 0): 4, ("g", 0, 1): 2}

    def test_build_is_deterministic(self, poc_spec):
        def fingerprint():
            engine = topology.build_runtime(validate(poc_spec))
            return [(r.key, r.node, r.concurrency_limit) for r in engine.replicas]

        assert fingerprint() == fingerprint()

    def test_event_queue_starts_empty(self, poc_spec):
        engine = topology.build_runtime(validate(poc_spec))
        assert engine.clock == 0.0
        assert not engine._heap


class TestSchema:
    def test_bundled_scenario_name_suffix(self):
        assert fedsim.bundled_scenario("poc") == fedsim.bundled_scenario("poc.scenario")
        assert fedsim.bundled_scenario("poc").name == "poc.scenario"
