"""Scenario generators for the benchmark workloads.

Each generator is a pure function of ``(seed, scale)``: it draws from its own
``random.Random`` seeded with the workload name and the seed, never from the
global random state, and returns a plain scenario document (a dict);
``cli_args`` gives the one CLI command that runs it. The program only ever
sees the YAML rendering of that document; the output checks read the
document itself.

``scale`` shrinks the simulated duration. The benchmark always uses 1.0; the
benchmark's own tests use small scales to get artifacts quickly.
"""

from __future__ import annotations

import math
import random

import yaml

BASE_DELAY_MS = 0.73
INTRA_BASE_DELAY_MS = 0.05
# a jitter scale never exceeds delay / JITTER_HEADROOM, so clamping a delay
# sample at zero cannot bias a mean (normal jitter: P < 3e-7 per draw)
JITTER_HEADROOM = 5.0

PIPELINE_LIGHT_S = 60.0
PIPELINE_HEAVY_S = 120.0
WIDE_DURATION_S = 300.0
PING_DURATION_S = 100.0
PING_INTERVAL_S = 0.25


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _cluster(name: str, role: str) -> dict:
    return {"name": name, "nodes": 4, "vcpus_per_node": 4, "memory_gb": 8, "role": role}


def _jitter(rng: random.Random, src: str, dst: str, delay_ms: float) -> dict:
    scale = round(delay_ms / JITTER_HEADROOM * rng.uniform(0.3, 1.0), 3)
    return {"src": src, "dst": dst, "dist": rng.choice(("uniform", "normal")), "scale_ms": scale}


def _links(rng: random.Random, names: list[str], delay_of, loss_share: float, loss_range) -> dict:
    """Full delay matrix from ``delay_of(i, j)``, jitter on every cross link,
    independent loss (correlation 0) on a ``loss_share`` of them."""
    n = len(names)
    delay = [[0.0 if i == j else round(delay_of(i, j), 3) for j in range(n)] for i in range(n)]
    jitter, loss = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            jitter.append(_jitter(rng, names[i], names[j], delay[i][j]))
            if rng.random() < loss_share:
                p = round(rng.uniform(*loss_range), 4)
                loss.append({"src": names[i], "dst": names[j], "p": p, "correlation": 0.0})
    return {
        "base_delay_ms": BASE_DELAY_MS,
        "intra_base_delay_ms": INTRA_BASE_DELAY_MS,
        "one_way_delay_ms": delay,
        "jitter": jitter,
        "loss": loss,
    }


# The offered load and the payload distribution are the same for every seed,
# so that seeds change where the work goes but not how much of it there is.
PAYLOAD = {"dist": "lognormal", "mu": round(math.log(300_000), 6), "sigma": 0.3}
PIPELINE_RATES = (60.0, 220.0)
WIDE_RATE = 80.0


def _pipeline(policy: str, frontends: dict, backends: dict) -> list[dict]:
    return [
        {
            "name": "frontend",
            "stage": "frontend",
            "replicas_per_cluster": frontends,
            "demand": {"base_ms": 20.0, "per_kb_ms": 0.01, "reduction": 0.3333333333333333},
        },
        {
            "name": "backend",
            "stage": "backend",
            "replicas_per_cluster": backends,
            "demand": {"base_ms": 80.0, "per_kb_ms": 0.02},
            "backend_policy": policy,
        },
    ]


def pipeline_lc(seed: int, scale: float = 1.0) -> dict:
    """The poc_lc federation with jittered links, lognormal payloads and a
    light-then-heavy poisson plan; no loss and no faults."""
    rng = _rng("pipeline_lc", seed)
    names = ["C1", "C2", "C3", "C4"]
    far = {n: rng.uniform(20.0, 30.0) for n in ("C1", "C2")}
    near = {n: rng.uniform(2.0, 4.0) for n in ("C1", "C2")}

    def delay_of(i, j):
        a, b = sorted((names[i], names[j]))
        if b == "C3" and a in far:
            return far[a]
        if b == "C4" and a in near:
            return near[a]
        return rng.uniform(1.0, 3.0)

    links = _links(rng, names, delay_of, loss_share=0.0, loss_range=(0.0, 0.0))
    light, heavy = PIPELINE_LIGHT_S * scale, PIPELINE_HEAVY_S * scale
    phases = [
        {"rate": PIPELINE_RATES[0], "duration_s": light},
        {"rate": PIPELINE_RATES[1], "duration_s": heavy},
    ]
    return {
        "clusters": [_cluster(n, "edge" if n in ("C1", "C2") else "datacenter") for n in names],
        "links": links,
        "services": _pipeline("least_connection", {"C1": 2, "C2": 2}, {"C3": 3, "C4": 3}),
        "workload": {"arrival": "poisson", "payload": dict(PAYLOAD), "phases": phases},
        "seed": seed,
        # the tail lets every request finish and the last scrape see it
        "duration_s": light + heavy + 10.0,
    }


EDGES = [f"E{k}" for k in range(1, 9)]
DCS = [f"D{k}" for k in range(1, 9)]


def wide_rr_faults(seed: int, scale: float = 1.0) -> dict:
    """16 clusters, round-robin over 24 backends, loss on some links, four
    staggered DC blackouts paired with health flips, and one set_link."""
    rng = _rng("wide_rr_faults", seed)
    names = EDGES + DCS

    def delay_of(i, j):
        crossing = (names[i][0] == "E") != (names[j][0] == "E")
        return rng.uniform(5.0, 40.0) if crossing else rng.uniform(2.0, 10.0)

    links = _links(rng, names, delay_of, 0.25, (0.001, 0.02))
    duration = WIDE_DURATION_S * scale
    dark = rng.sample(DCS, 4)
    timeline = []
    for k, dc in enumerate(dark):
        start = round(duration * (0.1 + 0.2 * k + rng.uniform(-0.02, 0.02)), 3)
        end = round(start + duration * rng.uniform(0.06, 0.1), 3)
        timeline += [
            {"action": "blackout", "at_s": start, "cluster": dc, "end_s": end},
            {"action": "set_health", "at_s": start, "service": "backend", "cluster": dc, "healthy": False},
            {"action": "set_health", "at_s": end, "service": "backend", "cluster": dc, "healthy": True},
        ]
    src = rng.choice(EDGES)
    dst = rng.choice([dc for dc in DCS if dc not in dark])
    new_delay = round(links["one_way_delay_ms"][names.index(src)][names.index(dst)] + rng.uniform(20.0, 30.0), 3)
    timeline.append(
        {
            "action": "set_link",
            "at_s": round(duration * rng.uniform(0.4, 0.5), 3),
            "src": src,
            "dst": dst,
            "delay_ms": new_delay,
            "jitter": {"dist": "uniform", "scale_ms": round(new_delay / 10.0, 3)},
            "loss": {"p": 0.0, "correlation": 0.0},
        }
    )
    return {
        "clusters": [_cluster(n, "edge" if n[0] == "E" else "datacenter") for n in names],
        "links": links,
        "services": _pipeline("round_robin", {e: 2 for e in EDGES}, {d: 3 for d in DCS}),
        "workload": {
            "arrival": "poisson",
            "payload": dict(PAYLOAD),
            "phases": [{"rate": WIDE_RATE, "duration_s": duration}],
        },
        "timeline": timeline,
        "seed": seed,
        "duration_s": duration + 10.0,
        "scrape_interval_s": 2.0,
    }


def ping_wide(seed: int, scale: float = 1.0) -> dict:
    """16 probe-only clusters with jitter on every cross link and loss on some."""
    rng = _rng("ping_wide", seed)
    names = [f"P{k:02d}" for k in range(1, 17)]
    links = _links(rng, names, lambda i, j: rng.uniform(5.0, 50.0), 0.3, (0.005, 0.05))
    return {
        "clusters": [_cluster(n, "edge" if k < 8 else "datacenter") for k, n in enumerate(names)],
        "links": links,
        "seed": seed,
        "duration_s": PING_DURATION_S * scale,
    }


GENERATORS = {"pipeline_lc": pipeline_lc, "wide_rr_faults": wide_rr_faults, "ping_wide": ping_wide}


def cli_args(workload: str, doc: dict, scenario_path: str, out_dir: str) -> list[str]:
    """The one CLI command a workload runs, as ``fedsim.cli.main`` argv."""
    if workload == "ping_wide":
        return ["ping", scenario_path, "--out-dir", out_dir, "--interval", repr(PING_INTERVAL_S), "--duration", repr(doc["duration_s"])]
    return ["run", scenario_path, "--out-dir", out_dir]


def render(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=200)
