"""Federation-wide metrics: periodic scrapes, rate derivation, CSV export.

Scrape k runs at ``k * scrape_interval_s`` while that is below the duration
and records, per replica, the monotone counter
``replica_busy_vcpu_seconds_total`` (vCPU-seconds of completed service) and
the gauge ``replica_outstanding_requests`` (in service + queued). ``Scrapes``
holds them densely: one row per scrape, replicas in (cluster name, service,
replica) order.

CPU usage is a windowed rate over the counter, as a monitoring stack derives
it. The rate at scrape k is anchored ``lag = ceil((window - eps) / interval)``
scrapes back, on the last scrape at or before ``t_k - window + eps``; a lag
below 1 gives no rates.

Exports are deterministic: fixed column orders, rows in (time, cluster,
service, replica) order, floats written with ``repr``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

BUSY_COUNTER = "replica_busy_vcpu_seconds_total"
OUTSTANDING_GAUGE = "replica_outstanding_requests"
CPU_RATE = "cpu_rate"

_EPS = 1e-9


@dataclass
class Scrapes:
    """Every scrape of a run: ``times[k]``, and ``busy[k][r]`` and
    ``outstanding[k][r]`` for the replica labelled ``labels[r]``."""

    labels: list[tuple[str, str, str]]  # (cluster, service, replica)
    replicas: list = field(compare=False, repr=False)
    times: list[float] = field(default_factory=list)
    busy: list[list[float]] = field(default_factory=list)
    outstanding: list[list[float]] = field(default_factory=list)

    @classmethod
    def of(cls, replicas, cluster_names) -> Scrapes:
        """An empty store over ``replicas``, sorted by (cluster name,
        service, replica)."""

        def key(replica):
            return cluster_names[replica.cluster], replica.service, replica.replica

        ordered = sorted(replicas, key=key)
        return cls([(cluster, service, str(index)) for cluster, service, index in map(key, ordered)], ordered)


def scrape(engine, t: float) -> None:
    """Record one row of every per-replica series at time t."""
    store = engine.metrics
    replicas = store.replicas
    store.times.append(t)
    store.busy.append([replica.busy_vcpu_seconds for replica in replicas])
    store.outstanding.append([float(replica.in_service + len(replica.fifo)) for replica in replicas])


def cpu_rate(store: Scrapes, window_s: float, interval_s: float) -> list[tuple[float, list[float]]]:
    """Windowed rate of every replica's busy counter on a ``k * interval_s``
    grid: one (time, row) per scrape with a full window behind it."""
    times, busy = store.times, store.busy
    steps = (window_s - _EPS) / interval_s  # inf when the ratio overflows
    if not 0 < steps < len(times):
        return []
    lag = math.ceil(steps)
    rates = []
    for k in range(lag, len(times)):
        span = times[k] - times[k - lag]
        rates.append((times[k], [(now - then) / span for now, then in zip(busy[k], busy[k - lag])]))
    return rates


def cluster_rates(store: Scrapes, rates) -> dict[tuple[str, str], list[tuple[float, float]]]:
    """Sum ``cpu_rate`` rows per (cluster, service), adding the replicas in
    store order; keys come out in (cluster name, service) order."""
    groups: dict[tuple[str, str], list[int]] = {}
    for index, (cluster, service, _replica) in enumerate(store.labels):
        groups.setdefault((cluster, service), []).append(index)
    return {key: [(t, sum(row[i] for i in members)) for t, row in rates] for key, members in groups.items()}


def _write_rows(path: Path, labels, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "cluster", "service", "replica", "value"])
        for t, row in rows:
            stamp = repr(t)
            writer.writerows([stamp, *label, repr(value)] for label, value in zip(labels, row))


def _format_stamp(value) -> str:
    return "" if value is None else repr(value)


def export_csv(engine, out_dir: str | Path) -> dict[str, Path]:
    """Write the full artifact set of a run's engine; returns {name: path}.

    Files are always created, header-only when a run produced no data, so a
    consumer can rely on the manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    store, names = engine.metrics, engine.cluster_names
    for name, rows in (
        (BUSY_COUNTER, zip(store.times, store.busy)),
        (OUTSTANDING_GAUGE, zip(store.times, store.outstanding)),
        (CPU_RATE, cpu_rate(store, engine.spec.rate_window_s, engine.scrape_interval_s)),
    ):
        paths[name] = out / f"{name}.csv"
        _write_rows(paths[name], store.labels, rows)

    paths["probe_rtt"] = out / "probe_rtt.csv"
    with paths["probe_rtt"].open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "dst", "sent_at_s", "rtt_ms", "lost"])
        for sample in engine.probes:
            writer.writerow(
                [
                    names[sample.src],
                    names[sample.dst],
                    repr(sample.sent_at),
                    "" if sample.rtt_ms is None else repr(sample.rtt_ms),
                    "true" if sample.lost else "false",
                ]
            )

    paths["traces"] = out / "traces.csv"
    with paths["traces"].open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "id",
                "outcome",
                "payload_bytes",
                "reduced_bytes",
                "fe_service",
                "fe_cluster",
                "fe_replica",
                "be_service",
                "be_cluster",
                "be_replica",
                "ingress_in",
                "fe_start",
                "fe_end",
                "be_dispatch",
                "be_start",
                "be_end",
                "response_out",
            ]
        )
        for trace in engine.traces:
            frontend = trace.frontend
            backend = trace.backend
            writer.writerow(
                [
                    trace.id,
                    trace.outcome or "in_flight",
                    trace.payload_bytes,
                    repr(trace.reduced_bytes),
                    "" if frontend is None else frontend.service,
                    "" if frontend is None else names[frontend.cluster],
                    "" if frontend is None else frontend.replica,
                    "" if backend is None else backend.service,
                    "" if backend is None else names[backend.cluster],
                    "" if backend is None else backend.replica,
                    _format_stamp(trace.ingress_in),
                    _format_stamp(trace.fe_start),
                    _format_stamp(trace.fe_end),
                    _format_stamp(trace.be_dispatch),
                    _format_stamp(trace.be_start),
                    _format_stamp(trace.be_end),
                    _format_stamp(trace.response_out),
                ]
            )

    return paths
