import pytest

import fedsim
from fedsim import topology


def make_topology(text: str):
    return topology.validate(topology.parse_scenario(text))


def run_scenario_text(text: str, until: float | None = None):
    topo = make_topology(text)
    engine = topology.build_runtime(topo)
    return engine.run(until=topo.spec.duration_s if until is None else until), engine


@pytest.fixture(scope="session")
def poc_spec():
    return topology.load_scenario(fedsim.bundled_scenario("poc"))


@pytest.fixture(scope="session")
def ping_spec():
    return topology.load_scenario(fedsim.bundled_scenario("ping"))


# single-cluster pipeline used by several engine and metrics tests
MINI_DOC = """
clusters:
  - {name: solo, nodes: 2, vcpus_per_node: 4, memory_gb: 8, role: edge}
services:
  - name: fe
    stage: frontend
    replicas_per_cluster: {solo: 1}
    demand: {base_ms: 10.0, per_kb_ms: 0.0}
  - name: be
    stage: backend
    replicas_per_cluster: {solo: 1}
    demand: {base_ms: 30.0, per_kb_ms: 0.0}
workload:
  arrival: constant
  payload: {dist: constant, bytes: 1000}
  phases:
    - {rate: 2.0, duration_s: 100}
seed: 7
duration_s: 120
"""

# two clusters, frontend on one, backend on the other, tunable link block
TWO_CLUSTER_DOC = """
clusters:
  - {{name: west, nodes: 2, vcpus_per_node: 4, memory_gb: 8, role: edge}}
  - {{name: east, nodes: 2, vcpus_per_node: 4, memory_gb: 8, role: datacenter}}
links:
{links}
services:
  - name: fe
    stage: frontend
    replicas_per_cluster: {{west: 1}}
    demand: {{base_ms: 5.0, per_kb_ms: 0.0}}
  - name: be
    stage: backend
    replicas_per_cluster: {{east: 2}}
    demand: {{base_ms: 20.0, per_kb_ms: 0.0}}
workload:
  arrival: constant
  payload: {{dist: constant, bytes: 1000}}
  phases:
    - {{rate: 5.0, duration_s: {phase_s}}}
seed: 3
duration_s: {duration_s}
{extra}
"""


def two_cluster_doc(links: str = "  base_delay_ms: 0.0", phase_s: float = 20,
                    duration_s: float = 40, extra: str = "") -> str:
    return TWO_CLUSTER_DOC.format(links=links, phase_s=phase_s, duration_s=duration_s, extra=extra)
