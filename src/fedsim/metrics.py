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
keep its quoting, and rows end in its ``\r\n``. ``Streams`` owns all five
files and is the only writer of their rows, one formatter per file:
``stream_csv`` hands one to the engine, which hands it each request and
probe row once final (see ``engine``), while ``scrape`` hands it each
scrape's counter and gauge rows, and the rate row of a scrape with a full
window behind it, as it records them; ``export_csv`` hands over whatever
rows are still held, through in-process streams of its own for an engine
without, and closes them. Streams opened after some scrapes start with
those.

``Streams`` takes plain values: requests, and probe samples as
``(src, dst, sent_at, rtt_ms)`` tuples; it reads scrape rows from the
engine's ``Scrapes`` as ``(time, values)``. It packs each request's row into
a tuple of plain values and sends the others on as they are. One rule,
``_forks``, decides where a streamed run's rows are
formatted: in a process that can fork, runs no other thread, may use two
CPUs and is not a ``multiprocessing`` worker, the streams that
``stream_csv`` opens fork one writer process (those ``export_csv`` opens
for an engine without streams format in-process, as a writer would have no
run to overlap): the run sends it frames down a pipe, each tagged with its
file and written by ``marshal`` version 2, which keeps no table of the
objects it has seen, and the process formats them while the run goes on.
A frame holds up to ``FRAME_ROWS`` request or probe rows, or the rows of
one scrape. One ``close`` finishes every file, ends the pipe, reads
back the probe pairs' RTT sums and waits for the process, and raises
``WriterError`` if it failed. Elsewhere, and where a pipe or the fork
fails, the same formatters run in-process; both write the same bytes and
fold the same sums.

The probe row formatter folds each frame it writes into the pairs'
``probes.RttSums`` (``probes.group_rtts``), making a pair's on its first
row. A writer process sends them back down a second pipe once its input
ends, as one ``marshal`` frame of ``(src, dst, count, lost, shift, s1, s2)``
per pair, or nothing if it saw no probe row; ``Streams.rtt_sums`` holds
them after ``close``.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import marshal
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
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
    """Record one row of every per-replica series at time t, and hand the
    rows to the engine's streams if it has them."""
    store = engine.metrics
    replicas = store.replicas
    store.times.append(t)
    store.busy.append([replica.busy_vcpu_seconds for replica in replicas])
    store.outstanding.append([float(replica.in_service + len(replica.fifo)) for replica in replicas])
    if engine.streams is not None:
        engine.streams.scrapes()


def _rate_lag(window_s: float, interval_s: float) -> int | None:
    """Scrapes between the two ends of a rate window on a ``k * interval_s``
    grid, or None where no scrape has a rate (a ratio not above 0, or not
    finite)."""
    steps = (window_s - _EPS) / interval_s  # inf when the ratio overflows
    return math.ceil(steps) if 0 < steps < math.inf else None


def _rate(store: Scrapes, k: int, lag: int) -> tuple[float, list[float]]:
    """The rate of every replica's busy counter at scrape k, over the
    ``lag`` scrapes behind it."""
    times, busy = store.times, store.busy
    span = times[k] - times[k - lag]
    return times[k], [(now - then) / span for now, then in zip(busy[k], busy[k - lag])]


def cpu_rate(store: Scrapes, window_s: float, interval_s: float) -> list[tuple[float, list[float]]]:
    """Windowed rate of every replica's busy counter on a ``k * interval_s``
    grid: one (time, row) per scrape with a full window behind it."""
    lag = _rate_lag(window_s, interval_s)
    return [] if lag is None else [_rate(store, k, lag) for k in range(lag, len(store.times))]


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


# Row formats end in the csv module's \r\n. ``!r`` is repr, as csv.writer
# writes a float; a bare field is str, as it writes anything else. f-strings
# build no argument tuple per row, so the rows add no work for the collector.
_TRACE_HEADER = (
    "id,outcome,payload_bytes,reduced_bytes,fe_service,fe_cluster,fe_replica,be_service,be_cluster,be_replica,"
    "ingress_in,fe_start,fe_end,be_dispatch,be_start,be_end,response_out\r\n"
)
_PROBE_HEADER = "src,dst,sent_at_s,rtt_ms,lost\r\n"
_SCRAPE_HEADER = "time_s,cluster,service,replica,value\r\n"
# the streamed files, in the order of the one-byte tag of their frames
FILES = ("traces.csv", "probe_rtt.csv", f"{BUSY_COUNTER}.csv", f"{OUTSTANDING_GAUGE}.csv", f"{CPU_RATE}.csv")
_HEADERS = (_TRACE_HEADER, _PROBE_HEADER, _SCRAPE_HEADER, _SCRAPE_HEADER, _SCRAPE_HEADER)
_BUSY, _OUTSTANDING, _RATE = 2, 3, 4  # the tags of the scrape files

# request or probe rows per marshal frame sent to the writer process: a whole
# flush batch in one frame would raise the run's peak memory; a frame of a
# scrape file holds one scrape
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


def _format_scrapes(names, write, rows) -> None:
    """Writes ``(time, values)`` rows of a scrape file, one line per replica
    named by the cells in ``names``."""
    for t, values in rows:
        stamp = repr(t)
        write("".join([f"{stamp},{name},{value!r}\r\n" for name, value in zip(names, values)]))


class _ProbeFormatter:
    """Writes packed probe rows as text, keeping the cells of each pair, and
    folds each frame into ``sums[src][dst]``, the pair's ``RttSums`` (None
    until the pair's first row)."""

    def __init__(self, names):
        self._names = names
        # both filled as pairs show up
        self._pair_cells: list[list[str | None]] = [[None] * len(names) for _ in names]
        self.sums: list[list[RttSums | None]] = [[None] * len(names) for _ in names]
        # the probes of one grid step share one send time and mostly come in a
        # run, so the last one's repr is reused for an equal value of the same
        # type other than zero: 0.0 and -0.0, and 1 and 1.0, are equal, but
        # their reprs are not
        self._last_sent = self._stamp = None

    def __call__(self, write, rows) -> None:
        names, pair_cells = self._names, self._pair_cells
        last_sent, stamp = self._last_sent, self._stamp
        for src, dst, sent_at, rtt_ms in rows:
            cells = pair_cells[src][dst]
            if cells is None:
                cells = pair_cells[src][dst] = _cells(names[src], names[dst])
                self.sums[src][dst] = RttSums()
            if not (sent_at == last_sent and sent_at and type(sent_at) is type(last_sent)):
                last_sent, stamp = sent_at, repr(sent_at)
            if rtt_ms is None:
                write(f"{cells},{stamp},,true\r\n")
            else:
                write(f"{cells},{stamp},{rtt_ms!r},false\r\n")
        self._last_sent, self._stamp = last_sent, stamp
        group_rtts(rows, len(names), self.sums)


class Streams:
    """The five CSVs of one run in ``out_dir``, one row per request handed to
    ``traces``, per probe sample handed to ``probes`` and per scrape (and
    rate) of ``engine.metrics``, taken by ``scrapes`` as the streams open
    and after each scrape, and the writer process that formats them where
    ``_forks`` allows it and ``fork`` is true. ``close`` finishes every
    file."""

    def __init__(self, out_dir: Path, engine, fork: bool = True):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = tuple(out_dir / name for name in FILES)
        names = engine.cluster_names
        self._cells = {None: ",,"}
        for replica in engine.replicas:
            self._cells[replica] = _cells(replica.service, names[replica.cluster], replica.replica)
        self._store = store = engine.metrics
        scrapes = partial(_format_scrapes, [_cells(*label) for label in store.labels])
        self._formats = (_format_traces, _ProbeFormatter(names), scrapes, scrapes, scrapes)
        self._lag = _rate_lag(engine.spec.rate_window_s, engine.scrape_interval_s)
        self._scraped = 0  # scrapes of the store handed over
        self._pid = self._pipe = self._sums_end = None
        self._files = []
        try:
            for path, header in zip(self.paths, _HEADERS):
                self._files.append(path.open("w", encoding="utf-8", newline=""))
                self._files[-1].write(header)
            if fork and _forks():
                self._fork()
            self.scrapes()
        except BaseException:
            self.close()
            raise

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

    def scrapes(self) -> None:
        """Take the scrapes the engine's store recorded since the last call,
        one frame per scrape and file: the counter's and the gauge's rows,
        and the rate of a scrape with a full window behind it."""
        store, lag = self._store, self._lag
        for k in range(self._scraped, len(store.times)):
            self._scraped = k + 1
            t = store.times[k]
            self._send(_BUSY, [(t, store.busy[k])])
            self._send(_OUTSTANDING, [(t, store.outstanding[k])])
            if lag is not None and k >= lag:
                self._send(_RATE, [_rate(store, k, lag)])

    def _send(self, tag: int, rows: list) -> None:
        if self._pipe is None:
            self._formats[tag](self._files[tag].write, rows)
            return
        frame = marshal.dumps(rows, 2)
        view = memoryview(bytes([tag]) + len(frame).to_bytes(4, "little") + frame)
        try:
            while view:  # a signal can cut a write short
                view = view[os.write(self._pipe, view) :]
        except BrokenPipeError:
            self.close()  # raises WriterError with the status of the writer that quit
            raise

    def close(self) -> None:
        """Finish every file: with a writer process, end its pipe, read back
        the RTT sums it folded and wait for it, raising ``WriterError`` if it
        failed. Once the pipe is taken, the sums pipe is closed and the
        writer waited for even if closing the pipe or reading the sums
        raises, as a second call does nothing."""
        with contextlib.ExitStack() as closing:  # every file, even if closing one raises
            for handle in self._files:
                closing.callback(handle.close)
        pipe, self._pipe = self._pipe, None
        if pipe is None:
            return
        try:
            os.close(pipe)  # Linux frees the descriptor even when this raises, so the writer still sees the end
        finally:
            try:
                with open(self._sums_end, "rb") as source:
                    returned = source.read()
            finally:
                status = os.waitpid(self._pid, 0)[1]
        if status:
            raise WriterError(f"writer of {', '.join(FILES)} exited with status {os.waitstatus_to_exitcode(status)}")
        sums = self.rtt_sums
        for src, dst, *fields in marshal.loads(returned) if returned else ():
            sums[src][dst] = RttSums(*fields)

    def _fork(self) -> None:
        """Fork the writer process; each frame on its pipe is the file's index
        in one byte, the length in four and the ``marshal``ed rows, and the
        sums come back on a second pipe. Where a pipe or the fork cannot be
        made, the rows stay in-process."""
        for handle in self._files:
            handle.flush()  # or both processes would write the headers
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
        status, name = 1, ", ".join(FILES)
        try:
            # keep only stdio, the two pipe ends and the files: a write end of
            # another run's pipe held here would keep that writer from its end
            low = 3
            kept = sorted([read_end, sums_end, *(handle.fileno() for handle in self._files)])
            for fd in (*kept, os.sysconf("SC_OPEN_MAX")):
                os.closerange(low, fd)
                low = max(low, fd + 1)
            gc.disable()  # formatting makes no cycles, and a collection would touch every inherited object
            with open(read_end, "rb", buffering=_PIPE_BYTES) as source:
                while head := source.read(5):
                    tag, name = head[0], FILES[head[0]]
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
                    sink.write(marshal.dumps(sums, 2))
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
    """Write the full artifact set of a run's engine; returns {name: path},
    ``name`` being each file's stem.

    Files are always created, header-only when a run produced no data, so a
    consumer can rely on the manifest. The traces and probes the engine holds
    go to its own streams when ``stream_csv`` opened them (and the files are
    theirs), else to streams opened here in ``out_dir``, which start with
    every scrape and format in-process; the engine keeps them either way, and
    requests still in flight get blank stamps. Closing the streams sets
    ``engine.rtt_sums`` to the probe pairs' RTT sums; an engine whose own
    streams are closed is not run further.
    """
    streams = engine.streams or Streams(Path(out_dir), engine, fork=False)
    streams.traces(engine.traces)
    streams.probes(engine.probes)
    streams.close()
    engine.rtt_sums = streams.rtt_sums
    return {path.stem: path for path in streams.paths}
