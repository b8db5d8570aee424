"""The benchmark's tracer finds every entry point it wraps.

``perfbench/tracer.py`` wraps fedsim's functions by module and attribute
name and counts events through the engine's kind constants. A name that no
longer resolves is reported absent rather than failing, so a rename would
otherwise surface only where the benchmark runs traced; these checks fail
wherever the suite runs.

A name that resolves can still miss the work: a caller that binds
``netem.sample_loss`` or ``netem.sample_delay`` by ``from .netem import``
calls the original, which the tracer never sees. The traced commands below
check the counts each seam must report against what the run wrote.
"""

import csv
import importlib

import pytest

import fedsim
from fedsim import cli, engine, topology
from perfbench.tracer import EVENT_KINDS, TARGETS, Tracer


@pytest.mark.parametrize("module, attribute", [target[:2] for target in TARGETS], ids=[t[2] for t in TARGETS])
def test_every_traced_entry_point_is_a_callable_of_fedsim(module, attribute):
    owner = importlib.import_module(f"fedsim.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"fedsim.{module}.{attribute}"


@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_every_traced_event_kind_has_its_engine_constant(kind):
    assert getattr(engine, kind.upper(), None) is not None


@pytest.fixture
def tracer():
    traced = Tracer()
    traced.install()
    try:
        yield traced
    finally:
        traced.uninstall()


def traced_layers(tracer, argv) -> dict:
    assert cli.main(argv) == 0
    values, absent = tracer.layers()
    assert not absent
    return values


def test_a_traced_ping_looks_up_each_link_once_and_draws_no_loss_where_none_can_drop(tracer, tmp_path, capsys):
    # the bundled ping has no loss rule and no timeline
    scenario = fedsim.bundled_scenario("ping")
    n = len(topology.load_scenario(scenario).clusters)
    steps = 10
    values = traced_layers(tracer, ["ping", str(scenario), "--duration", "2", "--out-dir", str(tmp_path)])
    assert values["netem.classify_calls"] == n * (n - 1)  # the plan's cross pairs
    assert values["netem.loss_calls"] == values["netem.drops"] == 0
    assert values["netem.delay_calls"] == 2 * steps * n * (n - 1)
    assert values["engine.events.probe_recv"] == steps * n * n


# probe-only, so that every drop is a probe's: independent loss, then
# correlated loss, on east->west, and a blackout that darkens both
# directions, west->east's rule, which cannot drop, among them
LOSSY_PING = """
clusters:
  - {name: west, nodes: 1, vcpus_per_node: 1, memory_gb: 1, role: edge}
  - {name: east, nodes: 1, vcpus_per_node: 1, memory_gb: 1, role: datacenter}
links:
  base_delay_ms: 1.0
  jitter: [{src: west, dst: east, dist: normal, scale_ms: 0.5}]
  loss: [{src: east, dst: west, p: 0.3}]
timeline:
  - {action: set_link, at_s: 4, src: east, dst: west, loss: {p: 0.2, correlation: 0.5}}
  - {action: blackout, at_s: 10, cluster: east, end_s: 12}
seed: 5
duration_s: 20
"""


def test_every_drop_of_a_traced_ping_is_a_lost_row(tracer, tmp_path, capsys):
    path = tmp_path / "lossy.scenario"
    path.write_text(LOSSY_PING)
    out = tmp_path / "out"
    values = traced_layers(tracer, ["ping", str(path), "--out-dir", str(out)])
    with (out / "probe_rtt.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    lost = sum(row["lost"] == "true" for row in rows)
    assert values["netem.drops"] == lost > 10 * 2  # more than the blackout's 10 steps of 2 pairs
    assert values["netem.classify_calls"] == 2
    assert values["engine.events.probe_recv"] == len(rows) == 100 * 4


def test_a_traced_run_without_loss_or_blackouts_makes_no_loss_call(tracer, tmp_path, capsys):
    scenario = fedsim.bundled_scenario("poc")
    values = traced_layers(tracer, ["run", str(scenario), "--until", "20", "--out-dir", str(tmp_path)])
    assert values["netem.loss_calls"] == values["netem.drops"] == 0
    # every message that crosses a link looks it up and draws its delay once
    assert values["netem.delay_calls"] == values["netem.classify_calls"] > 0
    assert values["mesh.pick_calls"] > 0
