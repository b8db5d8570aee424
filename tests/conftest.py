import sys
from contextlib import contextmanager

import pytest

import fedsim
from fedsim import metrics, topology


def make_topology(text: str):
    return topology.validate(topology.parse_scenario(text))


def run_scenario_text(text: str, until: float | None = None):
    topo = make_topology(text)
    engine = topology.build_runtime(topo)
    return engine.run(until=topo.spec.duration_s if until is None else until), engine


@contextmanager
def invariants_checked_at_every_scrape():
    """Within the block, ``metrics.scrape`` first checks the engine's
    invariants: among them, every replica's free slots and requests in
    service add up to its concurrency limit, and it has a free slot only
    while its queue is empty. Yields the times of the scrapes it checked."""
    scrape, checked = metrics.scrape, []

    def checking(engine, t):
        engine._check_invariants()
        checked.append(t)
        scrape(engine, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "scrape", checking)
        yield checked


# nests deeper than Python recurses under ``shallow_recursion``; PyYAML's
# pure-Python scanner takes time quadratic in the depth (0.8 s at 1,100)
DEEP = 600


@pytest.fixture
def shallow_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(DEEP - 100)
    yield
    sys.setrecursionlimit(limit)


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


# built so that events tie: zero link and gateway delays, and demands and
# arrival gaps that are exact binary fractions of a second. Its two
# single-slot backends are overloaded against a 0.5 s timeout; dc1 drops 10%
# of its replies and dc2 goes dark for 10 s without a health flip. Its traces
# therefore hold completed, lost and timed-out requests, about half of the
# timed-out ones abandoned in a backend queue.
OVERLOAD = """
clusters:
  - {name: edge, nodes: 1, vcpus_per_node: 4, memory_gb: 8, role: edge}
  - {name: dc1, nodes: 1, vcpus_per_node: 1, memory_gb: 8, role: datacenter}
  - {name: dc2, nodes: 1, vcpus_per_node: 1, memory_gb: 8, role: datacenter}
links:
  base_delay_ms: 0.0
  intra_base_delay_ms: 0.0
  one_way_delay_ms:
    - [0, 0, 0]
    - [0, 0, 0]
    - [0, 0, 0]
  loss:
    - {src: dc1, dst: edge, p: 0.1}
services:
  - name: fe
    stage: frontend
    replicas_per_cluster: {edge: 1}
    demand: {base_ms: 62.5, per_kb_ms: 0.0}
  - name: be
    stage: backend
    replicas_per_cluster: {dc1: 1, dc2: 1}
    demand: {base_ms: 125.0, per_kb_ms: 0.0}
    backend_policy: least_connection
workload:
  arrival: constant
  payload: {dist: constant, bytes: 1000}
  phases:
    - {rate: 16, duration_s: 20}
    - {rate: 32, duration_s: 10}
    - {rate: 8, duration_s: 20}
timeline:
  - {action: blackout, at_s: 10, cluster: dc2, end_s: 20}
seed: 11
duration_s: 55
timeout_s: 0.5
scrape_interval_s: 0.5
rate_window_s: 2.0
"""

# OVERLOAD with cluster and service names that csv quoting must handle: a
# comma, double quotes and a leading space. Cut at 25 s (inside its busiest
# phase), its traces hold every outcome, in flight included, and pings on it
# lose probes to the lossy link and the blackout.
QUOTED = """
clusters:
  - {name: 'edge, "west"', nodes: 1, vcpus_per_node: 4, memory_gb: 8, role: edge}
  - {name: ' dc1', nodes: 1, vcpus_per_node: 1, memory_gb: 8, role: datacenter}
  - {name: 'dc "2"', nodes: 1, vcpus_per_node: 1, memory_gb: 8, role: datacenter}
links:
  base_delay_ms: 0.0
  intra_base_delay_ms: 0.0
  one_way_delay_ms:
    - [0, 0, 0]
    - [0, 0, 0]
    - [0, 0, 0]
  loss:
    - {src: ' dc1', dst: 'edge, "west"', p: 0.1}
services:
  - name: 'fe, "front"'
    stage: frontend
    replicas_per_cluster: {'edge, "west"': 1}
    demand: {base_ms: 62.5, per_kb_ms: 0.0}
  - name: ' be'
    stage: backend
    replicas_per_cluster: {' dc1': 1, 'dc "2"': 1}
    demand: {base_ms: 125.0, per_kb_ms: 0.0}
    backend_policy: least_connection
workload:
  arrival: constant
  payload: {dist: constant, bytes: 1000}
  phases:
    - {rate: 16, duration_s: 20}
    - {rate: 32, duration_s: 10}
    - {rate: 8, duration_s: 20}
timeline:
  - {action: blackout, at_s: 10, cluster: 'dc "2"', end_s: 20}
seed: 11
duration_s: 55
timeout_s: 0.5
scrape_interval_s: 0.5
rate_window_s: 2.0
"""
