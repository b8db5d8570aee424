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
service, replica) order, floats written with ``repr``. ``traces.csv`` and
``probe_rtt.csv`` hold a row per request and per probe, so they are written
one formatted row at a time rather than through ``csv.writer``; the name
cells of each replica and probe pair still pass through it once, so names
keep its quoting, and rows end in its ``\r\n``. ``TraceWriter`` and
``ProbeWriter`` are the only formatters of those rows: ``stream_csv`` hands
them to the engine, which writes rows during the run (see ``engine``), and
``export_csv`` writes whatever rows are still held through them.
"""

from __future__ import annotations

import csv
import io
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


def left_sum(values):
    """``values`` added left to right onto int 0, one rounding per ``+=``.

    This is what ``sum()`` does up to Python 3.11. From 3.12 ``sum()``
    compensates the rounding of floats, so the same run would export other
    last digits; every float sum that reaches an artifact goes through here.
    """
    total = 0
    for value in values:
        total += value
    return total


def cluster_rates(store: Scrapes, rates) -> dict[tuple[str, str], list[tuple[float, float]]]:
    """Sum ``cpu_rate`` rows per (cluster, service), adding the replicas in
    store order; keys come out in (cluster name, service) order."""
    groups: dict[tuple[str, str], list[int]] = {}
    for index, (cluster, service, _replica) in enumerate(store.labels):
        groups.setdefault((cluster, service), []).append(index)
    return {key: [(t, left_sum(row[i] for i in members)) for t, row in rates] for key, members in groups.items()}


def _write_rows(path: Path, labels, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "cluster", "service", "replica", "value"])
        for t, row in rows:
            stamp = repr(t)
            writer.writerows([stamp, *label, repr(value)] for label, value in zip(labels, row))



# Row formats end in the csv module's \r\n. ``!r`` is repr, as csv.writer
# writes a float; a bare field is str, as it writes anything else. f-strings
# build no argument tuple per row, so the rows add no work for the collector.
_TRACE_HEADER = (
    "id,outcome,payload_bytes,reduced_bytes,fe_service,fe_cluster,fe_replica,be_service,be_cluster,be_replica,"
    "ingress_in,fe_start,fe_end,be_dispatch,be_start,be_end,response_out\r\n"
)
_PROBE_HEADER = "src,dst,sent_at_s,rtt_ms,lost\r\n"


def _cells(*values) -> str:
    """``values`` as csv.writer writes them in one row, quoted where a value
    holds a comma, a quote or a line break, without the line end."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(values)
    return buffer.getvalue()[:-2]


def _stamp(value) -> str:
    return "" if value is None else repr(value)


class TraceWriter:
    """``traces.csv`` at ``path``, one row per request handed to ``write``."""

    def __init__(self, path: Path, engine):
        names = engine.cluster_names
        self.path = path
        self._cells = {None: ",,"}
        for replica in engine.replicas:
            self._cells[replica] = _cells(replica.service, names[replica.cluster], replica.replica)
        self._handle = path.open("w", newline="")
        self._handle.write(_TRACE_HEADER)

    def write(self, requests) -> None:
        cells = self._cells
        write = self._handle.write
        for t in requests:
            # only a completed request has response_out, and it has every other stamp
            if t.response_out is not None:
                write(
                    f"{t.id},{t.outcome},{t.payload_bytes},{t.reduced_bytes!r},{cells[t.frontend]},{cells[t.backend]},"
                    f"{t.ingress_in!r},{t.fe_start!r},{t.fe_end!r},{t.be_dispatch!r},{t.be_start!r},{t.be_end!r},"
                    f"{t.response_out!r}\r\n"
                )
            else:
                stamps = (t.ingress_in, t.fe_start, t.fe_end, t.be_dispatch, t.be_start, t.be_end)
                write(
                    f"{t.id},{t.outcome or 'in_flight'},{t.payload_bytes},{t.reduced_bytes!r},{cells[t.frontend]},"
                    f"{cells[t.backend]},{','.join(map(_stamp, stamps))},\r\n"
                )

    def close(self) -> None:
        self._handle.close()


class ProbeWriter:
    """``probe_rtt.csv`` at ``path``, one row per probe sample handed to
    ``write``."""

    def __init__(self, path: Path, engine):
        self.path = path
        self._names = names = engine.cluster_names
        self._pair_cells: list[list[str | None]] = [[None] * len(names) for _ in names]  # filled as pairs show up
        # the probes of one grid step share one send-time object and mostly come
        # in a run, so the last one's repr is reused for the same object, never
        # for an equal value (0.0 and -0.0, or 1 and 1.0, are equal)
        self._last_sent = self._stamp = None
        self._handle = path.open("w", newline="")
        self._handle.write(_PROBE_HEADER)

    def write(self, samples) -> None:
        names, pair_cells = self._names, self._pair_cells
        last_sent, stamp = self._last_sent, self._stamp
        write = self._handle.write
        for src, dst, sent_at, rtt_ms in samples:
            cells = pair_cells[src][dst]
            if cells is None:
                cells = pair_cells[src][dst] = _cells(names[src], names[dst])
            if sent_at is not last_sent:
                last_sent, stamp = sent_at, repr(sent_at)
            if rtt_ms is None:
                write(f"{cells},{stamp},,true\r\n")
            else:
                write(f"{cells},{stamp},{rtt_ms!r},false\r\n")
        self._last_sent, self._stamp = last_sent, stamp

    def close(self) -> None:
        self._handle.close()


def stream_csv(engine, out_dir: str | Path) -> None:
    """Open ``traces.csv`` and ``probe_rtt.csv`` in ``out_dir`` as the
    engine's writers: from then on the engine writes each row once it is
    final and keeps only the rows not yet written. ``export_csv`` writes the
    rest and closes them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    engine.trace_writer = TraceWriter(out / "traces.csv", engine)
    engine.probe_writer = ProbeWriter(out / "probe_rtt.csv", engine)


def export_csv(engine, out_dir: str | Path) -> dict[str, Path]:
    """Write the full artifact set of a run's engine; returns {name: path}.

    Files are always created, header-only when a run produced no data, so a
    consumer can rely on the manifest. Traces and probes held by the engine
    go to its writers when ``stream_csv`` opened them, which this closes
    (requests still in flight get blank stamps); otherwise every held row is
    written here, and the engine is left as it was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    store = engine.metrics
    for name, rows in (
        (BUSY_COUNTER, zip(store.times, store.busy)),
        (OUTSTANDING_GAUGE, zip(store.times, store.outstanding)),
        (CPU_RATE, cpu_rate(store, engine.spec.rate_window_s, engine.scrape_interval_s)),
    ):
        paths[name] = out / f"{name}.csv"
        _write_rows(paths[name], store.labels, rows)

    for name, writer, held, writer_class in (
        ("probe_rtt", engine.probe_writer, engine.probes, ProbeWriter),
        ("traces", engine.trace_writer, engine.traces, TraceWriter),
    ):
        paths[name] = out / f"{name}.csv"
        if writer is None:  # not streamed: every row is still held
            writer = writer_class(paths[name], engine)
            writer.write(held)
            writer.close()
    engine.end_streams()
    return paths
