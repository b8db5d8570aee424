"""Federation-wide metrics: periodic scrapes, rate derivation, CSV export.

The scraper visits every replica on a fixed interval starting at t=0 and
records two series per replica: the monotone counter
``replica_busy_vcpu_seconds_total`` (vCPU-seconds of completed service) and
the gauge ``replica_outstanding_requests`` (in service + queued). CPU usage
is derived the way a monitoring stack would: a windowed rate over the
counter, ``(v(t) - v(t - window)) / window``, evaluated at each scrape that
has a full window behind it.

Exports are deterministic: fixed column orders, rows sorted by
(time, cluster, service, replica), floats written with ``repr`` so equal runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

BUSY_COUNTER = "replica_busy_vcpu_seconds_total"
OUTSTANDING_GAUGE = "replica_outstanding_requests"
CPU_RATE = "cpu_rate"

_EPS = 1e-9


class MetricsError(Exception):
    pass


@dataclass
class MetricSeries:
    name: str
    labels: dict[str, str]
    samples: list[tuple[float, float]] = field(default_factory=list)

    def label_key(self) -> tuple:
        return tuple(sorted(self.labels.items()))


class MetricsStore:
    """Time series keyed by (metric name, label set)."""

    def __init__(self):
        self._series: dict[tuple, MetricSeries] = {}

    def add_sample(self, name: str, labels: dict[str, str], t: float, value: float) -> None:
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = MetricSeries(name, dict(labels))
            self._series[key] = series
        series.samples.append((t, value))

    def series(self, name: str) -> list[MetricSeries]:
        return [s for (series_name, _), s in self._series.items() if series_name == name]

    def get(self, name: str, **labels) -> MetricSeries | None:
        return self._series.get((name, tuple(sorted((k, str(v)) for k, v in labels.items()))))


def scrape(engine, t: float) -> None:
    """Record one sample of every per-replica series at time t."""
    cluster_names = engine.cluster_names
    for endpoint, replica in engine.replicas.items():
        labels = {
            "cluster": cluster_names[endpoint.cluster],
            "service": endpoint.service,
            "replica": str(endpoint.replica),
        }
        engine.metrics.add_sample(BUSY_COUNTER, labels, t, replica.busy_vcpu_seconds)
        engine.metrics.add_sample(OUTSTANDING_GAUGE, labels, t, float(replica.outstanding()))


def cpu_rate(series: MetricSeries, window_s: float) -> MetricSeries:
    """Windowed rate of a counter series, defined at each sample with a full
    window behind it. The window should span at least two scrape intervals."""
    samples = series.samples
    if len(samples) < 2:
        raise MetricsError(f"insufficient samples for a rate over {window_s}s")
    times = [t for t, _ in samples]
    out = []
    for i, (t_i, v_i) in enumerate(samples):
        cutoff = t_i - window_s
        if cutoff < times[0] - _EPS:
            continue
        j = bisect_right(times, cutoff + _EPS) - 1
        if j < 0 or j >= i:
            continue
        out.append((t_i, (v_i - samples[j][1]) / (t_i - times[j])))
    if not out:
        raise MetricsError(f"insufficient samples for a rate over {window_s}s")
    return MetricSeries(CPU_RATE, dict(series.labels), out)


def aggregate_by_cluster(rate_series) -> dict[tuple[str, str], MetricSeries]:
    """Sum series pointwise per (cluster, service); grids must line up."""
    groups: dict[tuple[str, str], list[MetricSeries]] = {}
    for series in rate_series:
        key = (series.labels["cluster"], series.labels["service"])
        groups.setdefault(key, []).append(series)
    aggregated = {}
    for key, members in groups.items():
        grid = [t for t, _ in members[0].samples]
        for member in members[1:]:
            if [t for t, _ in member.samples] != grid:
                raise MetricsError(f"mismatched scrape grids for {key}")
        summed = [
            (t, sum(member.samples[k][1] for member in members)) for k, t in enumerate(grid)
        ]
        aggregated[key] = MetricSeries(members[0].name, {"cluster": key[0], "service": key[1]}, summed)
    return aggregated


def _replica_sort_key(labels: dict[str, str]) -> tuple:
    replica = labels.get("replica", "0")
    return (labels.get("cluster", ""), labels.get("service", ""), int(replica) if replica.isdigit() else replica)


def _write_series_csv(path: Path, series_list) -> None:
    rows = []
    for series in series_list:
        key = _replica_sort_key(series.labels)
        for t, value in series.samples:
            rows.append((t, key, series.labels, value))
    rows.sort(key=lambda row: (row[0], row[1]))
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "cluster", "service", "replica", "value"])
        for t, _key, labels, value in rows:
            writer.writerow(
                [repr(t), labels.get("cluster", ""), labels.get("service", ""), labels.get("replica", ""), repr(value)]
            )


def _format_stamp(value) -> str:
    return "" if value is None else repr(value)


def export_csv(result, out_dir: str | Path) -> dict[str, Path]:
    """Write the full artifact set for a run; returns {name: path}.

    Files are always created, header-only when a run produced no data, so a
    consumer can rely on the manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    busy = result.metrics.series(BUSY_COUNTER)
    paths[BUSY_COUNTER] = out / f"{BUSY_COUNTER}.csv"
    _write_series_csv(paths[BUSY_COUNTER], busy)

    outstanding = result.metrics.series(OUTSTANDING_GAUGE)
    paths[OUTSTANDING_GAUGE] = out / f"{OUTSTANDING_GAUGE}.csv"
    _write_series_csv(paths[OUTSTANDING_GAUGE], outstanding)

    rates = []
    for series in busy:
        try:
            rates.append(cpu_rate(series, result.rate_window_s))
        except MetricsError:
            continue  # run shorter than the window
    paths[CPU_RATE] = out / f"{CPU_RATE}.csv"
    _write_series_csv(paths[CPU_RATE], rates)

    paths["probe_rtt"] = out / "probe_rtt.csv"
    with paths["probe_rtt"].open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "dst", "sent_at_s", "rtt_ms", "lost"])
        names = result.cluster_names
        for sample in result.probes:
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
        names = result.cluster_names
        for trace in result.traces:
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
