"""Output checks for one benchmark operation.

Every expectation is derived from the generated scenario document, never
from a stored copy of an earlier run: conservation and bookkeeping, the
affine demand model, the fault timeline's effect on balancing, and the link
model's statistics. ``check`` returns a list of failures, each prefixed with
the name of the check that failed; an empty list means the outputs pass.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter, defaultdict
from pathlib import Path

import yaml

from scenarios import PING_INTERVAL_S

STAMPS = ("ingress_in", "fe_start", "fe_end", "be_dispatch", "be_start", "be_end", "response_out")
OUTCOMES = ("completed", "lost", "timed_out", "in_flight")
SIGMAS = 5.0
# mass of one normal tail beyond SIGMAS standard deviations
ONE_TAIL = 0.5 * math.erfc(SIGMAS / math.sqrt(2.0))
# after a DC comes back, at least one pick must land on it within this long
RESUME_WINDOW_S = 5.0
EPS = 1e-9


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _stamp(row: dict, name: str) -> float | None:
    value = row[name]
    return None if value == "" else float(value)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= EPS + rel * max(abs(a), abs(b))


def binomial_plausible(k: int, n: int, q: float) -> bool:
    """Whether k successes of n draws at rate q lie inside the exact binomial
    interval with the tail mass of a SIGMAS-sigma normal interval. The normal
    approximation is too tight for a mean of a few losses: at 400 draws and
    q = 0.0075 it rejects 13 losses, which a correct program produces with
    probability 1.4e-5 per pair."""
    pmf = [math.comb(n, i) * q**i * (1.0 - q) ** (n - i) for i in range(n + 1)]
    return math.fsum(pmf[: k + 1]) >= ONE_TAIL and math.fsum(pmf[k:]) >= ONE_TAIL


def digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact; ``summary.yaml`` contributes only its
    deterministic ``results`` section."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.yaml":
            data = yaml.safe_dump(yaml.safe_load(data)["results"], sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def check(workload: str, doc: dict, out_dir: Path) -> list[str]:
    try:
        if workload == "ping_wide":
            return _check_ping(doc, out_dir)
        summary = yaml.safe_load((out_dir / "summary.yaml").read_text())["results"]
        traces = _read_csv(out_dir / "traces.csv")
        failures = _check_requests(summary, traces)
        if workload == "pipeline_lc":
            failures += _check_pipeline(doc, out_dir, summary, traces)
        elif workload == "wide_rr_faults":
            failures += _check_wide(doc, traces)
        return failures
    except (OSError, KeyError, TypeError, ValueError, yaml.YAMLError) as exc:
        return [f"artifacts: unreadable or malformed: {exc!r}"]


# -- every request workload ---------------------------------------------------


def _check_requests(summary: dict, traces: list[dict]) -> list[str]:
    failures = []
    total = sum(summary[k] for k in OUTCOMES)
    if summary["arrivals"] != total:
        failures.append(f"conservation: arrivals {summary['arrivals']} != completed+lost+timed_out+in_flight {total}")
    if len(traces) != summary["arrivals"]:
        failures.append(f"trace_counts: {len(traces)} trace rows, summary has {summary['arrivals']} arrivals")
    outcomes = Counter(row["outcome"] for row in traces)
    for outcome in OUTCOMES:
        if outcomes[outcome] != summary[outcome]:
            failures.append(f"trace_counts: {outcomes[outcome]} {outcome} rows, summary has {summary[outcome]}")
    for row in traces:
        if row["outcome"] != "completed":
            continue
        stamps = [_stamp(row, name) for name in STAMPS]
        if None in stamps or any(a > b for a, b in zip(stamps, stamps[1:])):
            failures.append(f"trace_order: request {row['id']} has stamps {stamps}")
            break
    return failures


def _services(doc: dict) -> dict[str, dict]:
    return {service["stage"]: service for service in doc["services"]}


def _demand_s(service: dict, input_bytes: float) -> float:
    demand = service["demand"]
    return demand["base_ms"] * 1e-3 + demand["per_kb_ms"] * 1e-6 * input_bytes


# -- pipeline_lc --------------------------------------------------------------


def _check_pipeline(doc: dict, out_dir: Path, summary: dict, traces: list[dict]) -> list[str]:
    failures = []
    if summary["lost"] or summary["timed_out"]:
        failures.append(f"no_loss: {summary['lost']} lost and {summary['timed_out']} timed out, expected none")

    offered = sum(phase["rate"] * phase["duration_s"] for phase in doc["workload"]["phases"])
    if abs(summary["arrivals"] - offered) > SIGMAS * math.sqrt(offered):
        failures.append(f"arrival_count: {summary['arrivals']} arrivals, expected {offered:.0f} +- {SIGMAS} sigma")

    stages = _services(doc)
    frontend, backend = stages["frontend"], stages["backend"]
    reduction = frontend["demand"]["reduction"]
    busy_samples = _read_csv(out_dir / "replica_busy_vcpu_seconds_total.csv")
    last_scrape = max(float(row["time_s"]) for row in busy_samples)
    served: dict[tuple, float] = defaultdict(float)
    demand_errors = []
    for row in traces:
        payload = int(row["payload_bytes"])
        reduced = float(row["reduced_bytes"])
        if not _close(reduced, payload * reduction):
            demand_errors.append(f"request {row['id']}: reduced_bytes {reduced} != {payload} * {reduction}")
        for prefix, service, size in (("fe", frontend, payload), ("be", backend, reduced)):
            start, end = _stamp(row, f"{prefix}_start"), _stamp(row, f"{prefix}_end")
            if start is None or end is None:
                continue
            expected = _demand_s(service, size)
            if not _close(end - start, expected):
                demand_errors.append(f"request {row['id']}: {prefix} service {end - start!r}s, demand {expected!r}s")
            if end <= last_scrape:
                served[(row[f"{prefix}_cluster"], service["name"], row[f"{prefix}_replica"])] += expected
    failures += [f"demand: {message}" for message in demand_errors[:3]]

    last: dict[tuple, float] = {}
    for row in busy_samples:
        last[(row["cluster"], row["service"], row["replica"])] = float(row["value"])
    for key in sorted(set(last) | set(served)):
        if not _close(last.get(key, 0.0), served.get(key, 0.0), rel=1e-7):
            failures.append(f"busy_counter: replica {key} last sample {last.get(key)}, served demand {served.get(key, 0.0)}")
    return failures


# -- wide_rr_faults -----------------------------------------------------------


def _check_wide(doc: dict, traces: list[dict]) -> list[str]:
    failures = []
    picks = [
        (float(row["be_dispatch"]), (row["fe_cluster"], row["fe_replica"]), (row["be_cluster"], row["be_replica"]))
        for row in traces
        if row["be_dispatch"] != ""
    ]
    blackouts = [(e["cluster"], e["at_s"], e["end_s"]) for e in doc["timeline"] if e["action"] == "blackout"]
    for dc, start, end in blackouts:
        inside = [t for t, _fe, (cluster, _r) in picks if cluster == dc and start <= t < end]
        if inside:
            failures.append(f"blackout: {len(inside)} picks of {dc} inside its outage [{start}, {end}), first at {inside[0]}")
        if not any(cluster == dc and end <= t < end + RESUME_WINDOW_S for t, _fe, (cluster, _r) in picks):
            failures.append(f"blackout: no pick of {dc} within {RESUME_WINDOW_S}s after its outage ends at {end}")

    # every backend is healthy outside the outages, so round-robin must
    # spread each frontend's picks evenly over all of them
    backends = [
        (cluster, str(r))
        for cluster, count in _services(doc)["backend"]["replicas_per_cluster"].items()
        for r in range(count)
    ]
    edges = sorted({t for _dc, start, end in blackouts for t in (start, end)} | {0.0, doc["duration_s"]})
    outages = [(start, end) for _dc, start, end in blackouts]
    windows = [
        (a, b)
        for a, b in zip(edges, edges[1:])
        if not any(start <= a < end for start, end in outages)
    ]
    for a, b in windows:
        counts: dict[tuple, Counter] = defaultdict(Counter)
        for t, fe, be in picks:
            if a <= t < b:
                counts[fe][be] += 1
        for fe, per_backend in sorted(counts.items()):
            values = [per_backend[be] for be in backends]
            if set(per_backend) - set(backends) or max(values) - min(values) > 1:
                failures.append(f"rr_balance: frontend {fe} in [{a}, {b}) picked backends {min(values)}..{max(values)} times")
                break

    base = doc["links"]["base_delay_ms"]
    for event in doc["timeline"]:
        if event["action"] != "set_link":
            continue
        floor_s = (event["delay_ms"] - event["jitter"]["scale_ms"] + base) * 1e-3
        legs = [
            float(row["be_start"]) - float(row["be_dispatch"])
            for row in traces
            if row["fe_cluster"] == event["src"]
            and row["be_cluster"] == event["dst"]
            and row["be_start"] != ""
            and float(row["be_dispatch"]) >= event["at_s"]
        ]
        if not legs:
            failures.append(f"set_link: no request crossed {event['src']}->{event['dst']} after {event['at_s']}")
        elif min(legs) < floor_s - EPS:
            failures.append(f"set_link: {event['src']}->{event['dst']} leg of {min(legs)!r}s after the change, floor {floor_s!r}s")
    return failures


# -- ping_wide ----------------------------------------------------------------


def _link_tables(doc: dict):
    names = [cluster["name"] for cluster in doc["clusters"]]
    index = {name: k for k, name in enumerate(names)}
    n = len(names)
    variance = [[0.0] * n for _ in range(n)]
    for entry in doc["links"].get("jitter", []):
        scale = entry["scale_ms"]
        variance[index[entry["src"]]][index[entry["dst"]]] = scale * scale / 3.0 if entry["dist"] == "uniform" else scale * scale
    loss = [[0.0] * n for _ in range(n)]
    for entry in doc["links"].get("loss", []):
        loss[index[entry["src"]]][index[entry["dst"]]] = entry["p"]
    return names, doc["links"]["one_way_delay_ms"], variance, loss


def _check_ping(doc: dict, out_dir: Path) -> list[str]:
    failures = []
    traces = _read_csv(out_dir / "traces.csv")
    if traces:
        failures.append(f"conservation: probe-only scenario produced {len(traces)} request traces")

    names, delay, variance, loss = _link_tables(doc)
    base = doc["links"]["base_delay_ms"]
    intra = doc["links"]["intra_base_delay_ms"]
    expected_count = math.floor(doc["duration_s"] / PING_INTERVAL_S)
    samples: dict[tuple[str, str], list] = defaultdict(list)
    for row in _read_csv(out_dir / "probe_rtt.csv"):
        samples[(row["src"], row["dst"])].append(None if row["lost"] == "true" else float(row["rtt_ms"]))
    matrix = yaml.safe_load((out_dir / "rtt_matrix.yaml").read_text())

    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            got = samples.get((src, dst), [])
            if len(got) != expected_count:
                failures.append(f"probe_count: {src}->{dst} has {len(got)} probes, expected {expected_count}")
                continue
            answered = [rtt for rtt in got if rtt is not None]
            if i == j:
                if len(answered) != len(got) or any(not _close(rtt, 2 * intra) for rtt in answered):
                    failures.append(f"diagonal: {src} self-probes not all {2 * intra} ms")
                continue
            q = 1.0 - (1.0 - loss[i][j]) * (1.0 - loss[j][i])
            lost = len(got) - len(answered)
            if not binomial_plausible(lost, len(got), q):
                failures.append(f"loss: {src}->{dst} lost {lost}/{len(got)}, expected fraction {q:.4f}")
            if not answered:
                failures.append(f"rtt_mean: {src}->{dst} has no answered probe")
                continue
            mean = math.fsum(answered) / len(answered)
            expected = delay[i][j] + delay[j][i] + 2.0 * base
            sigma = math.sqrt((variance[i][j] + variance[j][i]) / len(answered))
            if abs(mean - expected) > SIGMAS * sigma + EPS:
                failures.append(f"rtt_mean: {src}->{dst} mean {mean:.4f} ms, expected {expected:.4f} +- {SIGMAS} sigma")
            reported = matrix["mean_rtt_ms"][src][dst]
            if not _close(reported, mean) or not _close(matrix["loss_fraction"][src][dst], lost / len(got)):
                failures.append(f"rtt_matrix: {src}->{dst} reports {reported}, probes give {mean}")
    return failures[:20]
