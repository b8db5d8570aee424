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
service, replica) order, floats written with ``repr``. Each CSV is written
one formatted row at a time rather than through ``csv.writer``; the name
cells of each replica and probe pair still pass through it once, so names
keep its quoting, and rows end in its ``\r\n``. ``Streams`` owns both
files and is the only writer of those rows: ``stream_csv`` hands one to the
engine, which writes rows during the run (see ``engine``), and
``export_csv`` writes whatever rows are still held through one.

``Streams`` takes plain values: requests, and probe samples as
``(src, dst, sent_at, rtt_ms)`` tuples. It packs each request's row into a
tuple of plain values and sends samples on as they are. One rule,
``_forks``, decides where rows are formatted: in a process that can fork,
runs no other thread, may use two CPUs and is not a ``multiprocessing``
worker, the streams fork one writer process when they open (``export_csv``
opens them with ``fork=False`` for rows that fit in one frame per file,
which leave a writer nothing to overlap): the run sends
it ``marshal`` frames of ``FRAME_ROWS`` rows down a pipe, each tagged with
its file, and the process formats them while the run goes on. One ``close`` finishes both files, ends
the pipe, reads back the probe pairs' RTT sums and waits for the process,
and raises ``WriterError`` if it failed. Elsewhere, and where a pipe or the
fork fails, the same formatters run in-process; both write the same bytes
and fold the same sums.

The probe row formatter folds each frame it writes into the pairs'
``probes.RttSums`` (``probes.group_rtts``), making a pair's on its first
row. A writer process sends them back down a second pipe once its input
ends, as one ``marshal`` frame of ``(src, dst, count, lost, shift, s1, s2)``
per pair, or nothing if it saw no probe row; ``Streams.rtt_sums`` holds
them after ``close``.
"""

from __future__ import annotations

import csv
import gc
import io
import marshal
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .probes import RttSums, group_rtts

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
    names = [_cells(*label) for label in labels]
    with path.open("w", encoding="utf-8", newline="") as handle:
        write = handle.write
        write("time_s,cluster,service,replica,value\r\n")
        for t, row in rows:
            stamp = repr(t)
            write("".join([f"{stamp},{name},{value!r}\r\n" for name, value in zip(names, row)]))


# Row formats end in the csv module's \r\n. ``!r`` is repr, as csv.writer
# writes a float; a bare field is str, as it writes anything else. f-strings
# build no argument tuple per row, so the rows add no work for the collector.
_TRACE_HEADER = (
    "id,outcome,payload_bytes,reduced_bytes,fe_service,fe_cluster,fe_replica,be_service,be_cluster,be_replica,"
    "ingress_in,fe_start,fe_end,be_dispatch,be_start,be_end,response_out\r\n"
)
_PROBE_HEADER = "src,dst,sent_at_s,rtt_ms,lost\r\n"
# the streamed files, in the order of the one-byte tag of their frames
_FILES = ("traces.csv", "probe_rtt.csv")

# packed rows per marshal frame sent to the writer process: a whole flush
# batch in one frame would raise the run's peak memory
FRAME_ROWS = 128
# asked of the writer process's pipe, so that the run seldom waits on a full one
_PIPE_BYTES = 1 << 20


class WriterError(RuntimeError):
    """The writer process ended with a non-zero status."""


def _cells(*values) -> str:
    """``values`` as csv.writer writes them in one row, quoted where a value
    holds a comma, a quote or a line break, without the line end."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(values)
    return buffer.getvalue()[:-2]


def _stamp(value) -> str:
    return "" if value is None else repr(value)


def _forks() -> bool:
    """Whether a writer process can format rows beside the run: the process
    can fork, runs no other thread (the child could be left holding a lock
    that thread held), is not a ``multiprocessing`` worker (whatever its
    start method; a pool's other workers already keep the CPUs busy), and
    may use a second CPU."""
    if not hasattr(os, "fork"):
        return False
    threading = sys.modules.get("threading")  # not loaded, no other thread
    if threading is not None and threading.active_count() > 1:
        return False
    multiprocessing = sys.modules.get("multiprocessing")  # not loaded, not a worker
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return False
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return len(cpus) >= 2


def _format_traces(write, rows) -> None:
    for rid, outcome, payload, reduced, fe, be, ingress, fe_start, fe_end, dispatch, be_start, be_end, out in rows:
        # only a completed request has response_out, and it has every other stamp
        if out is not None:
            write(
                f"{rid},{outcome},{payload},{reduced!r},{fe},{be},{ingress!r},{fe_start!r},{fe_end!r},"
                f"{dispatch!r},{be_start!r},{be_end!r},{out!r}\r\n"
            )
        else:
            stamps = (ingress, fe_start, fe_end, dispatch, be_start, be_end)
            write(
                f"{rid},{outcome or 'in_flight'},{payload},{reduced!r},{fe},{be},"
                f"{','.join(map(_stamp, stamps))},\r\n"
            )


class _ProbeFormatter:
    """Writes packed probe rows as text, keeping the cells of each pair, and
    folds each frame into ``sums[src][dst]``, the pair's ``RttSums`` (None
    until the pair's first row)."""

    def __init__(self, names):
        self._names = names
        # both filled as pairs show up
        self._pair_cells: list[list[str | None]] = [[None] * len(names) for _ in names]
        self.sums: list[list[RttSums | None]] = [[None] * len(names) for _ in names]
        # the probes of one grid step share one send-time object and mostly come
        # in a run, so the last one's repr is reused for the same object, never
        # for an equal value (0.0 and -0.0, or 1 and 1.0, are equal); marshal
        # keeps that sharing within a frame
        self._last_sent = self._stamp = None

    def __call__(self, write, rows) -> None:
        names, pair_cells = self._names, self._pair_cells
        last_sent, stamp = self._last_sent, self._stamp
        for src, dst, sent_at, rtt_ms in rows:
            cells = pair_cells[src][dst]
            if cells is None:
                cells = pair_cells[src][dst] = _cells(names[src], names[dst])
                self.sums[src][dst] = RttSums()
            if sent_at is not last_sent:
                last_sent, stamp = sent_at, repr(sent_at)
            if rtt_ms is None:
                write(f"{cells},{stamp},,true\r\n")
            else:
                write(f"{cells},{stamp},{rtt_ms!r},false\r\n")
        self._last_sent, self._stamp = last_sent, stamp
        group_rtts(rows, len(names), self.sums)


class Streams:
    """``traces.csv`` and ``probe_rtt.csv`` of one run in ``out_dir``, one
    row per request handed to ``traces`` and per probe sample handed to
    ``probes``, and the writer process that formats them where ``_forks``
    allows it and ``fork`` is true. ``close`` finishes both files."""

    def __init__(self, out_dir: Path, engine, fork: bool = True):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = tuple(out_dir / name for name in _FILES)
        names = engine.cluster_names
        self._cells = {None: ",,"}
        for replica in engine.replicas:
            self._cells[replica] = _cells(replica.service, names[replica.cluster], replica.replica)
        self._formats = (_format_traces, _ProbeFormatter(names))
        self._pid = self._pipe = self._sums_end = None
        self._files = []
        try:
            for path, header in zip(self.paths, (_TRACE_HEADER, _PROBE_HEADER)):
                self._files.append(path.open("w", encoding="utf-8", newline=""))
                self._files[-1].write(header)
        except OSError:
            self.close()
            raise
        if fork and _forks():
            self._fork()

    @property
    def rtt_sums(self) -> list[list[RttSums | None]]:
        """``[src][dst]``: the ``probes.RttSums`` of the pair's probe rows,
        None for a pair with none; complete once ``close`` has returned."""
        return self._formats[1].sums

    def traces(self, requests) -> None:
        cells = self._cells
        for start in range(0, len(requests), FRAME_ROWS):
            rows = [
                (t.id, t.outcome, t.payload_bytes, t.reduced_bytes, cells[t.frontend], cells[t.backend],
                 t.ingress_in, t.fe_start, t.fe_end, t.be_dispatch, t.be_start, t.be_end, t.response_out)
                for t in requests[start : start + FRAME_ROWS]
            ]
            self._send(0, rows)

    def probes(self, samples) -> None:
        for start in range(0, len(samples), FRAME_ROWS):
            self._send(1, samples[start : start + FRAME_ROWS])

    def _send(self, tag: int, rows: list) -> None:
        if self._pipe is None:
            self._formats[tag](self._files[tag].write, rows)
            return
        frame = marshal.dumps(rows)
        view = memoryview(bytes([tag]) + len(frame).to_bytes(4, "little") + frame)
        try:
            while view:  # a signal can cut a write short
                view = view[os.write(self._pipe, view) :]
        except BrokenPipeError:
            self.close()  # raises WriterError with the status of the writer that quit
            raise

    def close(self) -> None:
        """Finish both files: with a writer process, end its pipe, read back
        the RTT sums it folded and wait for it, raising ``WriterError`` if it
        failed. A second call does nothing."""
        for handle in self._files:
            handle.close()
        pipe, self._pipe = self._pipe, None
        if pipe is None:
            return
        os.close(pipe)
        with open(self._sums_end, "rb") as source:
            returned = source.read()
        status = os.waitpid(self._pid, 0)[1]
        if status:
            raise WriterError(f"writer of {', '.join(_FILES)} exited with status {os.waitstatus_to_exitcode(status)}")
        sums = self.rtt_sums
        for src, dst, *fields in marshal.loads(returned) if returned else ():
            sums[src][dst] = RttSums(*fields)

    def _fork(self) -> None:
        """Fork the writer process; each frame on its pipe is the file's index
        in one byte, the length in four and the ``marshal``ed rows, and the
        sums come back on a second pipe. Where a pipe or the fork cannot be
        made, the rows stay in-process."""
        for handle in self._files:
            handle.flush()  # or both processes would write the header
        ends: list[int] = []
        try:
            ends += os.pipe()  # the rows, from the run to the writer
            ends += os.pipe()  # the RTT sums, from the writer back to the run
            try:
                import fcntl

                fcntl.fcntl(ends[1], fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (ImportError, AttributeError, OSError):
                pass  # a smaller pipe only makes the run wait more often
            pid = os.fork()
        except OSError:
            for end in ends:
                os.close(end)
            return
        read_end, write_end, sums_end, sums_write_end = ends
        if pid == 0:
            self._serve(read_end, sums_write_end)
        os.close(read_end)
        os.close(sums_write_end)  # or the run would never see the end of the sums
        for handle in self._files:
            handle.close()
        self._pid, self._pipe, self._sums_end = pid, write_end, sums_end

    def _serve(self, read_end: int, sums_end: int) -> None:
        """The writer process: format every frame until the pipe's end, send
        the RTT sums back down ``sums_end``, then exit, 0 if every row and the
        sums were written. Never returns."""
        status, name = 1, ", ".join(_FILES)
        try:
            # keep only stdio, the two pipe ends and the two files: a write end
            # of another run's pipe held here would keep that writer from its end
            low = 3
            kept = sorted([read_end, sums_end, *(handle.fileno() for handle in self._files)])
            for fd in (*kept, os.sysconf("SC_OPEN_MAX")):
                os.closerange(low, fd)
                low = max(low, fd + 1)
            gc.disable()  # formatting makes no cycles, and a collection would touch every inherited object
            with open(read_end, "rb", buffering=_PIPE_BYTES) as source:
                while head := source.read(5):
                    tag, name = head[0], _FILES[head[0]]
                    rows = marshal.loads(source.read(int.from_bytes(head[1:], "little")))
                    self._formats[tag](self._files[tag].write, rows)
            for handle in self._files:
                handle.close()
            sums = [
                (src, dst, pair.count, pair.lost, pair.shift, pair.s1, pair.s2)
                for src, row in enumerate(self.rtt_sums)
                for dst, pair in enumerate(row)
                if pair is not None
            ]
            with open(sums_end, "wb") as sink:
                if sums:
                    sink.write(marshal.dumps(sums))
            status = 0
        except BaseException as exc:
            os.write(2, f"writer of {name}: {type(exc).__name__}: {exc}\n".encode(errors="replace"))
        finally:
            os._exit(status)


def stream_csv(engine, out_dir: str | Path) -> None:
    """Open the engine's ``Streams`` in ``out_dir``: from then on the engine
    writes each row once it is final and keeps only the rows not yet
    written. ``export_csv`` writes the rest and closes them."""
    engine.streams = Streams(Path(out_dir), engine)


def export_csv(engine, out_dir: str | Path) -> dict[str, Path]:
    """Write the full artifact set of a run's engine; returns {name: path}.

    Files are always created, header-only when a run produced no data, so a
    consumer can rely on the manifest. Traces and probes held by the engine
    go to its streams when ``stream_csv`` opened them, which this closes
    (requests still in flight get blank stamps); otherwise every held row is
    written here through streams of its own, and the engine keeps its rows.
    Either way ``engine.rtt_sums`` then holds the probe pairs' RTT sums.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {"probe_rtt": out / "probe_rtt.csv", "traces": out / "traces.csv"}
    if engine.streams is None:  # not streamed: every row is still held
        # rows that fit in one frame per file leave a writer process nothing to overlap
        small = len(engine.traces) <= FRAME_ROWS and len(engine.probes) <= FRAME_ROWS
        streams = Streams(out, engine, fork=not small)
        streams.traces(engine.traces)
        streams.probes(engine.probes)
        streams.close()
        engine.rtt_sums = streams.rtt_sums
    engine.end_streams()

    store = engine.metrics
    for name, rows in (
        (BUSY_COUNTER, zip(store.times, store.busy)),
        (OUTSTANDING_GAUGE, zip(store.times, store.outstanding)),
        (CPU_RATE, cpu_rate(store, engine.spec.rate_window_s, engine.scrape_interval_s)),
    ):
        paths[name] = out / f"{name}.csv"
        _write_rows(paths[name], store.labels, rows)
    return paths
