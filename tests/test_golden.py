"""Golden digests of the bundled scenarios' exports.

A run is a pure function of (scenario, seed), so every exported CSV, the
ping RTT matrix and ``summary.yaml:results`` are pinned by SHA-256. A change
that alters any of them on purpose updates the digests here and says so.
``poc_lc`` is cut at ``--until 120`` (a fifth of its 610 s) to keep the test
short; the others run to their scenario duration.
"""

import hashlib
import json

import pytest
import yaml

import fedsim
from fedsim import cli

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
