"""Golden digests of the bundled scenarios' exports.

A run is a pure function of (scenario, seed), so every exported CSV, the
ping RTT matrix and ``summary.yaml:results`` are pinned by SHA-256. A change
that alters any of them on purpose updates the digests here and says so.
``poc_lc`` is cut at ``--until 120`` (a fifth of its 610 s) to keep the test
short; the others run to their scenario duration.

``OVERLOAD`` (in ``conftest``), whose events tie, is pinned run to the end,
cut mid-burst with ``--until``, and with scrapes every 62.5 ms, the frontend
demand, so that scrapes tie with service starts and completions. The cut
run's ``events.csv`` (``--debug-events``) is pinned too: its ``detail``
cells name each ``link_deliver`` hop (``'request_fe'`` and so on).

Two pings pin the order of probe sends against other events at the same
instant: ``blackout`` probed every 100 ms for 310 s, through request traffic
and into its first blackout, and ``TIE_PING``, whose answered probes land
exactly on the next send instant and whose lost ones on their own.

``JITTER`` pins the jittered delay draws: its requests and probes cross
links with uniform and with normal jitter, and backends in the frontends'
cluster are one non-zero intra-cluster delay away. Its run and its ping
(which carries the same request traffic beside the probes) put jittered
values in all five CSVs.
"""

import hashlib
import json

import pytest
import yaml

import fedsim
from fedsim import cli, metrics, probes, topology
from tests.conftest import OVERLOAD, make_topology

CSVS = (
    "cpu_rate.csv",
    "probe_rtt.csv",
    "replica_busy_vcpu_seconds_total.csv",
    "replica_outstanding_requests.csv",
    "traces.csv",
)

RUNS = {
    "poc": ["run"],
    "poc_lc": ["run", "--until", "120"],
    "blackout": ["run"],
    "ping": ["ping"],
}

OVERLOAD_RUNS = {
    "full": (OVERLOAD, []),
    "cut": (OVERLOAD, ["--until", "25"]),
    "fine_scrape": (OVERLOAD.replace("scrape_interval_s: 0.5", "scrape_interval_s: 0.0625"), []),
}

# Probe-only, pinged every 500 ms: a diagonal probe takes 2 x 250 ms and one
# across a 250 ms link 2 x 250 ms, so its receipt lands on the next send
# instant; across the undelayed links a receipt lands on its own send
# instant, and so does a probe lost to the lossy links or to the blackout,
# whose ends and the scrapes tie with sends too.
TIE_PING = """
clusters:
  - {name: a, nodes: 1, vcpus_per_node: 1, memory_gb: 1, role: edge}
  - {name: b, nodes: 1, vcpus_per_node: 1, memory_gb: 1, role: edge}
  - {name: c, nodes: 1, vcpus_per_node: 1, memory_gb: 1, role: datacenter}
links:
  base_delay_ms: 0.0
  intra_base_delay_ms: 250.0
  one_way_delay_ms:
    - [0, 250, 0]
    - [250, 0, 125]
    - [0, 125, 0]
  loss:
    - {src: a, dst: c, p: 0.3}
    - {src: c, dst: b, p: 0.2}
timeline:
  - {action: blackout, at_s: 5, cluster: c, end_s: 7.5}
seed: 5
duration_s: 30
scrape_interval_s: 1.0
"""

JITTER = """
clusters:
  - {name: a, nodes: 2, vcpus_per_node: 4, memory_gb: 8, role: edge}
  - {name: b, nodes: 2, vcpus_per_node: 4, memory_gb: 8, role: datacenter}
  - {name: c, nodes: 2, vcpus_per_node: 4, memory_gb: 8, role: datacenter}
links:
  base_delay_ms: 0.5
  intra_base_delay_ms: 0.25
  one_way_delay_ms:
    - [0, 12, 20]
    - [15, 0, 0]
    - [18, 0, 0]
  jitter:
    - {src: a, dst: b, dist: uniform, scale_ms: 3.0}
    - {src: b, dst: a, dist: normal, scale_ms: 2.0}
    - {src: a, dst: c, dist: normal, scale_ms: 4.0}
    - {src: c, dst: a, dist: uniform, scale_ms: 1.5}
services:
  - name: fe
    stage: frontend
    replicas_per_cluster: {a: 2}
    demand: {base_ms: 5.0, per_kb_ms: 0.01}
  - name: be
    stage: backend
    replicas_per_cluster: {a: 1, b: 2, c: 1}
    demand: {base_ms: 20.0, per_kb_ms: 0.02}
    backend_policy: round_robin
workload:
  arrival: poisson
  payload: {dist: constant, bytes: 4000}
  phases:
    - {rate: 40, duration_s: 30}
seed: 11
duration_s: 35
scrape_interval_s: 1.0
rate_window_s: 5.0
"""

JITTER_RUNS = {"run": [], "ping": ["--interval", "0.5"]}

PING_RUNS = {
    "blackout": (fedsim.bundled_scenario("blackout").read_text(), ["--interval", "0.1", "--duration", "310"]),
    "tie": (TIE_PING, ["--interval", "0.5"]),
}

GOLDEN = {
    "poc": {
        "cpu_rate.csv": "8a243c69de48407f503bd0a87ea040735036809632df6229c8687a4286012d8e",
        "probe_rtt.csv": "11784ddbd7d4c85a2e5c733fe36d873023b4b2cac9e6727b10ee50d53ce13798",
        "replica_busy_vcpu_seconds_total.csv": "5a98afd6393902e72491b1c5ce9dddfd437c3206c956fa58452fca903751931e",
        "replica_outstanding_requests.csv": "c23c6d2fdb8c96e347572c8c2385b31e5d36c6fd9dc6a826e8d87eb643e145f4",
        "traces.csv": "598ed2cbacb7c4d83335ff2ddebd2052a93512d00e9aea1b8a919ea0f0420e5e",
        "summary.yaml:results": "7ffebee2f94e291fc15f96dfd270d533533f9a44ad0d431e9b640858c9319c32",
    },
    "poc_lc": {
        "cpu_rate.csv": "c0235487a75dc3781d3b64a7eff8ed1e6d7d7869d7f0019f1cd0cf1c5b8ea6f3",
        "probe_rtt.csv": "11784ddbd7d4c85a2e5c733fe36d873023b4b2cac9e6727b10ee50d53ce13798",
        "replica_busy_vcpu_seconds_total.csv": "7933f520d52d85f19149524392c206c3a9b8016e5acb58e75c43a9f6fdef7412",
        "replica_outstanding_requests.csv": "7b23d024e12a3ff64f2444a6e00f9d1a07b061d368cf5a2fd14a96d9abd6e64a",
        "traces.csv": "56a6329ec2d89aacb2dc4b7116b5ec7ada027c24cadb12fe91f995948485a774",
        "summary.yaml:results": "1e8e24a59bd37915eccbf3094e94a7803b01a96b70f025103889e61e040ecc6c",
    },
    "blackout": {
        "cpu_rate.csv": "43858fc3f112bffb4a30b8135281cc5baba7f9e886fd9c693db8a62ccf43b5f4",
        "probe_rtt.csv": "11784ddbd7d4c85a2e5c733fe36d873023b4b2cac9e6727b10ee50d53ce13798",
        "replica_busy_vcpu_seconds_total.csv": "06b8799f0ce0b264cdb18a01232c3e7cf7cb48ded09f61bb8733c913681542f6",
        "replica_outstanding_requests.csv": "f88b97893ad2731d2ee62b14e8704466de6e5ec2ce4d2a361a3a10765b606f35",
        "traces.csv": "d27784d45120b02d5adfda1b00b7e73052f1cfcfeb55b965cc913b8e8ff69d4e",
        "summary.yaml:results": "614c658bb67599db6e0031a32615fa58749dd184666b0836d912fd5a9c18b018",
    },
    "ping": {
        "cpu_rate.csv": "950a5dfcb1f66fc34a9243cd4092f6430b31a8f092ca14df9d48fe6f0b8e938c",
        "probe_rtt.csv": "908dc67d0334f0ad506dffb4cb904a834642dd8299deaac2ea71bfbd60d0ddeb",
        "replica_busy_vcpu_seconds_total.csv": "950a5dfcb1f66fc34a9243cd4092f6430b31a8f092ca14df9d48fe6f0b8e938c",
        "replica_outstanding_requests.csv": "950a5dfcb1f66fc34a9243cd4092f6430b31a8f092ca14df9d48fe6f0b8e938c",
        "traces.csv": "b41359c773cd8ddea9f830f0797aad303b108dc8442b6c89aabfeec56843405e",
        "rtt_matrix.yaml": "98cceac1e028dff673ca3bce282154cb5052c80f8617ad135b1287393a644ea9",
    },
}

OVERLOAD_GOLDEN = {
    "full": {
        "cpu_rate.csv": "929d5118c5dba182df57326428cbbb7b463d29b1ca486234cb05cbac0a685248",
        "probe_rtt.csv": "11784ddbd7d4c85a2e5c733fe36d873023b4b2cac9e6727b10ee50d53ce13798",
        "replica_busy_vcpu_seconds_total.csv": "69475c0a375eb870037ca9c91db373cb2e9e41e4368e4f8140ff4f1502e68af0",
        "replica_outstanding_requests.csv": "3a725965a2435fe329b7c0f8492a8392b5305f6c3d1d8ad8b8b9ed16bc034669",
        "traces.csv": "2c9c9a45ced1690f7286f130e7c7f08bcc78eff37c21d52d6ecf5ea719beb510",
        "summary.yaml:results": "f7409c2fce698782799dafa0a9b5e99755b2a410aa537265e981b7d2f8d67a6d",
    },
    "cut": {
        "cpu_rate.csv": "dacac51d50dfdaafeaa8668913f6df7b2cee7f8e34e980424e1f42e653c28781",
        "probe_rtt.csv": "11784ddbd7d4c85a2e5c733fe36d873023b4b2cac9e6727b10ee50d53ce13798",
        "replica_busy_vcpu_seconds_total.csv": "0dce67c6fa803941783b735b644737f948134e7d848a46170570094cfbe8035e",
        "replica_outstanding_requests.csv": "3ed70d2b7e6ed9f95b05a1647f50b6da5becedef39c1927f5d1924f7d4793517",
        "traces.csv": "e83a4d5e1120a0359475ea202af691edb38b5e54f671909b2cdb68f5edc156d6",
        "summary.yaml:results": "8d2a06aff8f51f6f48fd010cba14cf295c98060cdbe0401889c66dcabfbb4831",
    },
    "fine_scrape": {
        "cpu_rate.csv": "d45dfb9a3bdb2782eecea567cdb04efee318f74d2cea59d0f809f0a29f2e745b",
        "probe_rtt.csv": "11784ddbd7d4c85a2e5c733fe36d873023b4b2cac9e6727b10ee50d53ce13798",
        "replica_busy_vcpu_seconds_total.csv": "27d157402665d4c2f29d87ca1194e487d453c685b43f38ccfa3f2ee714887bb9",
        "replica_outstanding_requests.csv": "71fbc5b972ee8f8f14a5f80dda441d69ce9f491ef9f87121a94142dc45047571",
        "traces.csv": "2c9c9a45ced1690f7286f130e7c7f08bcc78eff37c21d52d6ecf5ea719beb510",
        "summary.yaml:results": "dbccf3fa5d2b51a23d51c7bd3da35b65615d531fd6fa839993fc8c94ce92dad3",
    },
}

# events.csv of the "cut" OVERLOAD run with --debug-events
OVERLOAD_EVENTS_GOLDEN = "89bc2f5981b8d06cc663a582044d77661dc99e37bcee04f75a07d545c054124e"

PING_GOLDEN = {
    "blackout": {
        "cpu_rate.csv": "dd3b3be27b314bd332107edbbe54d8b64c4c0552b5017bfa91aadc167e82e421",
        "probe_rtt.csv": "a6b04a290f94b8e9ac20c0df99177a84103862bff43cac7ee78207fcf09241ea",
        "replica_busy_vcpu_seconds_total.csv": "b476b85e08d4200f8e7d7f1655a9cf9271ae9916856971c885fb703d1f0e6a9d",
        "replica_outstanding_requests.csv": "8f938f074816f5c01252416459c8c884db62acec06ad8076728798b9f692285c",
        "traces.csv": "a18c7480a37db2ecefc40c580ebfee87a96911a34f12f1f5d6b681e38f5ffdae",
        "rtt_matrix.yaml": "eba601ef707c01a017fe443d67c66bd7cd19077d060135e1014dcb6bc4b8818f",
    },
    "tie": {
        "cpu_rate.csv": "950a5dfcb1f66fc34a9243cd4092f6430b31a8f092ca14df9d48fe6f0b8e938c",
        "probe_rtt.csv": "9cdba63ff74ebfecd6434da2e65acd368cf6d3e03ad0f2bd24a2dd343aea5d09",
        "replica_busy_vcpu_seconds_total.csv": "950a5dfcb1f66fc34a9243cd4092f6430b31a8f092ca14df9d48fe6f0b8e938c",
        "replica_outstanding_requests.csv": "950a5dfcb1f66fc34a9243cd4092f6430b31a8f092ca14df9d48fe6f0b8e938c",
        "traces.csv": "b41359c773cd8ddea9f830f0797aad303b108dc8442b6c89aabfeec56843405e",
        "rtt_matrix.yaml": "523d147cb5ec61666ad6cf43995930de20012b096d41b48d0adc5858a650bffb",
    },
}

JITTER_GOLDEN = {
    "run": {
        "cpu_rate.csv": "66c383d2add131e12cbeff58d72be8c0f53783fe55cf1e76752a4dcc63f3c5f4",
        "probe_rtt.csv": "11784ddbd7d4c85a2e5c733fe36d873023b4b2cac9e6727b10ee50d53ce13798",
        "replica_busy_vcpu_seconds_total.csv": "f38531d2bd59539833d9453bf055babab13ede4b5e77a62b4ce61527eb5b00ea",
        "replica_outstanding_requests.csv": "5e907937f9dac1b7174775da81259f109b12381291a8de334cf1c8988c859c8d",
        "traces.csv": "89fec5f03ebbe021ca841b22a29f6145904e34aa71173352780395a0419e7ea3",
        "summary.yaml:results": "e1e7b5129d6c5b0df569f053e6b7aed247185a480832ea76c3a5c846af948790",
    },
    "ping": {
        "cpu_rate.csv": "66c383d2add131e12cbeff58d72be8c0f53783fe55cf1e76752a4dcc63f3c5f4",
        "probe_rtt.csv": "d7c9d7f70ae38fcdfb437d3e007874e8d42b0d44d6ed45576f00770d43c97d33",
        "replica_busy_vcpu_seconds_total.csv": "f38531d2bd59539833d9453bf055babab13ede4b5e77a62b4ce61527eb5b00ea",
        "replica_outstanding_requests.csv": "45e21b71954acdccf117267a0131944fdacae1acf9467235662cd20c2e1ab3c1",
        "traces.csv": "c8b24a18c507fccbf32f8f6a50184a6c27f54bd0078dfca0960042ff2f9adb30",
        "rtt_matrix.yaml": "61bd8324b2ffd2581dca53262e330cfd499738c3d5d37a900eb3ab4b19c8f63c",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(out) -> dict[str, str]:
    digests = {name: _sha256((out / name).read_bytes()) for name in CSVS}
    if (out / "rtt_matrix.yaml").exists():
        digests["rtt_matrix.yaml"] = _sha256((out / "rtt_matrix.yaml").read_bytes())
    if (out / "summary.yaml").exists():
        results = yaml.safe_load((out / "summary.yaml").read_text())["results"]
        digests["summary.yaml:results"] = _sha256(json.dumps(results, sort_keys=True).encode())
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_bundled_exports_match_golden_digests(name, tmp_path, capsys):
    command, *options = RUNS[name]
    out = tmp_path / name
    argv = [command, str(fedsim.bundled_scenario(name)), "--out-dir", str(out), *options]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert _digests(out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(OVERLOAD_RUNS))
def test_overload_exports_match_golden_digests(name, tmp_path, capsys):
    text, options = OVERLOAD_RUNS[name]
    scenario = tmp_path / "overload.yaml"
    scenario.write_text(text)
    out = tmp_path / name
    assert cli.main(["run", str(scenario), "--out-dir", str(out), *options]) == 0
    capsys.readouterr()
    assert _digests(out) == OVERLOAD_GOLDEN[name]


def test_overload_event_log_matches_its_golden_digest(tmp_path, capsys):
    text, options = OVERLOAD_RUNS["cut"]
    scenario = tmp_path / "overload.yaml"
    scenario.write_text(text)
    out = tmp_path / "cut"
    assert cli.main(["run", str(scenario), "--out-dir", str(out), *options, "--debug-events"]) == 0
    capsys.readouterr()
    events = (out / "events.csv").read_bytes()
    for hop in (b"'request_fe'", b"'request_be'", b"'response_fe'", b"'response_client'"):
        assert hop in events
    assert _sha256(events) == OVERLOAD_EVENTS_GOLDEN


@pytest.mark.parametrize("name", sorted(PING_RUNS))
def test_ping_exports_match_golden_digests(name, tmp_path, capsys):
    text, options = PING_RUNS[name]
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text)
    out = tmp_path / name
    assert cli.main(["ping", str(scenario), "--out-dir", str(out), *options]) == 0
    capsys.readouterr()
    assert _digests(out) == PING_GOLDEN[name]


@pytest.mark.parametrize("command", sorted(JITTER_RUNS))
def test_jitter_exports_match_golden_digests(command, tmp_path, capsys):
    scenario = tmp_path / "jitter.yaml"
    scenario.write_text(JITTER)
    out = tmp_path / command
    assert cli.main([command, str(scenario), "--out-dir", str(out), *JITTER_RUNS[command]]) == 0
    capsys.readouterr()
    assert _digests(out) == JITTER_GOLDEN[command]


def test_ping_stepped_in_pieces_matches_one_long_run(tmp_path):
    def ping(cuts):
        engine = topology.build_runtime(make_topology(TIE_PING))
        run = engine.run

        def stepped(until):
            for cut in cuts:
                run(cut)
            return run(until)

        engine.run = stepped
        probes.run_ping(engine, interval_s=0.5)
        return engine

    # cuts on send instants, between them, and one that runs nothing
    whole, pieces = ping([]), ping([0.5, 0.5, 3.25, 7.5, 7.75, 20.0])
    assert pieces.probes == whole.probes
    assert (pieces.event_count, pieces.clock) == (whole.event_count, whole.clock)
    metrics.export_csv(pieces, tmp_path)
    assert _sha256((tmp_path / "probe_rtt.csv").read_bytes()) == PING_GOLDEN["tie"]["probe_rtt.csv"]
