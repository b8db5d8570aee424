"""Command-line interface.

Subcommands:
  validate  parse + validate a scenario, print every violation and warning
  run       execute a scenario and export traces, metrics, and a summary
  ping      run the RTT probe experiment and print the matrix
  sweep     run one scenario across a list of values for one parameter path

Exit codes: 0 success, 1 invalid scenario or sweep values, 2 bad usage,
unreadable input or an output directory that cannot be written, 3 any error
raised inside a run, by its streams or while writing any artifact after it
(with an event-log tail dumped for diagnosis), 141 when the reader of
stdout has gone (the artifacts stand). A sweep exits with the largest code
of its runs.

``run`` and ``ping`` stream every CSV while the run goes
(``metrics.Streams``). Each first removes the files of
``_ARTIFACTS`` that an earlier command left in its output directory, and its
own if it fails from the opening of the streams on: it leaves only the tail,
or nothing at exit 2. Unless ``--debug-events`` recorded them, the run records
no events itself: after a failure inside the run the command is replayed on
a fresh engine that keeps its last 1000 events, and since a run is a pure
function of (scenario, seed) the replay fails at the same event. A failure
that does not recur there, or that came from the streams or after the run,
leaves a tail of the header only.

``sweep --param`` names a field of the canonical document, which writes out
every field; ``--values`` is a YAML flow sequence without its brackets, such as
``[0,5],[0,10]``; two values that share a variant directory are an error.
The runs of a parallel ``sweep`` format their rows in-process, not in a
writer process of their own: ``metrics`` sees that it runs in a pool worker.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import re
import sys
import time as wall_time
import traceback
from collections import deque
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import yaml

from . import __version__, metrics, probes, topology
from .engine import EngineError

# libyaml's safe dumper when PyYAML was built with it, as topology loads over
# libyaml's safe loader: the same representers, a faster emitter
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_ENGINE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command that signal ended

# the most probes (grid steps x cluster pairs) one ``ping`` may send
MAX_PROBES = 10**8

# every file ``run`` and ``ping`` write in their output directory
_ARTIFACTS = (
    "traces.csv", "probe_rtt.csv", f"{metrics.BUSY_COUNTER}.csv", f"{metrics.OUTSTANDING_GAUGE}.csv",
    f"{metrics.CPU_RATE}.csv", "events.csv", "summary.yaml", "rtt_matrix.yaml", "event_log_tail.csv",
)


class _Exit(SystemExit):
    """Raised with the exit ``code`` where an error has been printed; ``main``
    returns it, and ``_sweep_worker`` makes it that run's code."""


def _load_file(path: str, seed: int | None = None, printed: set | None = None):
    """Read a scenario file, then ``_load`` it; raises EXIT_IO if it cannot be read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        raise _Exit(EXIT_IO) from None
    return _load(text, seed, printed)


def _load(text: str, seed: int | None = None, printed: set | None = None):
    """Parse and validate scenario text, with ``seed`` overriding the
    scenario's. Returns the ``ValidatedTopology``, or raises EXIT_INVALID
    after printing every error. Its ``warnings`` go to stderr and do not
    change the outcome; given a set, it prints only the warnings not yet in
    ``printed`` and adds them to it."""
    try:
        spec = topology.parse_scenario(text)
        if seed is not None:
            spec = replace(spec, seed=seed)
        topo = topology.validate(spec)
    except (topology.ScenarioError, topology.ValidationError) as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        raise _Exit(EXIT_INVALID) from None
    printed = set() if printed is None else printed
    for message in topo.warnings:
        if message not in printed:
            printed.add(message)
            print(f"warning: {message}", file=sys.stderr)
    return topo


def _write_tail(engine, run, exc: Exception, in_run: bool, out: Path) -> None:
    """Print ``exc`` and write the last 1000 events before it to
    ``event_log_tail.csv``: the run's own with ``debug_log`` set, else, for a
    failure inside the run, those of ``run`` replayed on a fresh engine that
    writes no files. A run is a pure function of (scenario, seed), so the
    replay fails at the same event; a failure of the streams does not."""
    tail, note = (), None
    if engine.debug_log is not None:
        tail = engine.debug_log[-1000:]
    elif not in_run or isinstance(exc, metrics.WriterError):
        note = "the failure came from the writers or the export, not the run, so the tail holds no events"
    else:
        replay = topology.build_runtime(engine.topology)
        replay.debug_log = deque(maxlen=1000)
        # streams that take the rows the engine and its scrapes hand on, as
        # the run's did, so the replay holds no more than the run, and keep
        # none of them
        replay.streams = SimpleNamespace(traces=len, probes=len, scrapes=lambda: None)
        try:
            run(replay)
            note = "the failure did not recur when the run was replayed, so the tail holds no events"
        except Exception:
            tail = replay.debug_log
    detail = str(exc)
    if not isinstance(exc, EngineError):
        frame = traceback.extract_tb(exc.__traceback__)[-1]  # where it was raised
        detail = f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}: {exc}"
    print(f"engine error: {detail}", file=sys.stderr)
    if note is not None:
        print(note, file=sys.stderr)
    dump = out / "event_log_tail.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with dump.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_s", "seq", "kind"])
            for time, seq, kind, _detail in tail:
                writer.writerow([repr(time), seq, kind])
    except OSError as error:
        print(f"error: cannot write the event log tail to {dump}: {error.strerror or error}", file=sys.stderr)
    else:
        print(f"event log tail written to {dump}", file=sys.stderr)


def _write_yaml(path: Path, doc: dict) -> None:
    path.write_text(yaml.dump(doc, Dumper=_DUMPER, sort_keys=False), encoding="utf-8")


def _summarize(engine, out_dir: Path, elapsed_s: float, until: float) -> None:
    rate_means: dict[str, dict[str, float]] = {}
    rates = metrics.cpu_rate(engine.metrics, engine.spec.rate_window_s, engine.scrape_interval_s)
    for (cluster, service), series in metrics.cluster_rates(engine.metrics, rates).items():
        if series:  # empty when the run is shorter than the rate window
            values = [value for _, value in series]
            rate_means.setdefault(cluster, {})[service] = metrics.left_sum(values) / len(values)

    summary = {
        "results": {
            "seed": engine.spec.seed,
            "until_s": until,
            "arrivals": engine.arrivals,
            "completed": engine.completed,
            "lost": engine.lost,
            "timed_out": engine.timed_out,
            "in_flight": engine.in_flight,
            "events": engine.event_count,
            "probes": engine.probes_received,
            "mean_cpu_rate_cores": rate_means,
        },
        "meta": {
            "tool_version": __version__,
            "wall_time_s": round(elapsed_s, 3),
        },
    }
    _write_yaml(out_dir / "summary.yaml", summary)


def _clear(out: Path) -> None:
    """Remove every file of ``_ARTIFACTS`` from ``out``."""
    for name in _ARTIFACTS:
        with contextlib.suppress(OSError):  # absent, or not a file
            (out / name).unlink()


def _streamed(engine, out: Path, run, write) -> str:
    """The guarded step of ``run`` and ``ping``: clear ``out``, call
    ``run(engine)`` with the engine's traces and probes streamed into it,
    export every CSV, then call ``write(elapsed)``, which writes the
    command's own files and returns its report, returned here for the
    command to print once every file is complete; ``elapsed`` runs from the
    opening of the streams to the end of the run. On any failure clear
    ``out`` again and raise ``_Exit``: EXIT_IO if the streams cannot be
    opened, else EXIT_ENGINE after ``_write_tail``."""
    _clear(out)
    started = wall_time.perf_counter()
    in_run = False
    try:
        metrics.stream_csv(engine, out)
        in_run = True
        run(engine)
        in_run = False
        elapsed = wall_time.perf_counter() - started
        metrics.export_csv(engine, out)
        return write(elapsed)
    except Exception as exc:
        if engine.streams is not None:
            with contextlib.suppress(Exception):  # the streams may be what failed
                engine.streams.close()
        _clear(out)
        if engine.streams is None and isinstance(exc, OSError):
            print(f"error: cannot write to {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
            raise _Exit(EXIT_IO) from None
        _write_tail(engine, run, exc, in_run, out)
        raise _Exit(EXIT_ENGINE) from None


def _run_to_dir(topo, out_dir: str, until: float | None, debug_events: bool) -> int:
    """Run a loaded scenario and export. Shared by run and the sweep workers."""
    engine = topology.build_runtime(topo)
    if debug_events:
        engine.debug_log = []
    bound = topo.spec.duration_s if until is None else until
    out = Path(out_dir)

    def write(elapsed: float) -> str:
        if debug_events:
            with (out / "events.csv").open("w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["time_s", "seq", "kind", "detail"])
                for time, seq, kind, detail in engine.debug_log:
                    writer.writerow([repr(time), seq, kind, detail])
        _summarize(engine, out, elapsed, bound)
        return (
            f"{out}: {engine.arrivals} arrivals, {engine.completed} completed, "
            f"{engine.lost} lost, {engine.timed_out} timed out, {engine.event_count} events"
        )

    print(_streamed(engine, out, lambda state: state.run(until=bound), write))
    return EXIT_OK


def cmd_validate(args) -> int:
    _load_file(args.scenario)
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    return _run_to_dir(_load_file(args.scenario, args.seed), args.out_dir, args.until, args.debug_events)


def cmd_ping(args) -> int:
    topo = _load_file(args.scenario, args.seed)
    duration = args.duration if args.duration is not None else topo.spec.duration_s
    if not math.isfinite(duration / args.interval):
        print(f"error: duration / interval is not finite: {duration!r} / {args.interval!r}", file=sys.stderr)
        return EXIT_IO
    pairs = len(topo.spec.clusters) ** 2
    if probes.probe_count(duration, args.interval) * pairs > MAX_PROBES:
        print(
            f"error: duration / interval gives more than {MAX_PROBES} probes over {pairs} pairs: "
            f"{duration!r} / {args.interval!r}",
            file=sys.stderr,
        )
        return EXIT_IO
    engine = topology.build_runtime(topo)
    out = Path(args.out_dir)

    def ping(state):
        probes.run_ping(state, interval_s=args.interval, duration_s=duration)

    def write(_elapsed: float) -> str:
        names = engine.cluster_names
        stats = probes.rtt_stats(engine.rtt_sums)
        matrix_doc = {
            "interval_s": args.interval,
            "duration_s": duration,
            "mean_rtt_ms": _matrix_doc(stats.mean_ms, names),
            "variance_rtt_ms2": _matrix_doc(stats.variance_ms2, names),
            "loss_fraction": _matrix_doc(stats.loss_fraction, names),
        }
        _write_yaml(out / "rtt_matrix.yaml", matrix_doc)
        return probes.format_rtt_table(stats, names)

    print(_streamed(engine, out, ping, write))
    return EXIT_OK


def _matrix_doc(matrix, names) -> dict:
    return {
        names[i]: {names[j]: matrix[i][j] for j in range(len(names))}
        for i in range(len(names))
    }


_PATH_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_-]*)((?:\[\d+\])*)$")


def _resolve_path(doc, path: str):
    """Walk a dotted path with [index] suffixes; returns (parent, key)."""
    parent, key = None, None
    node = doc
    for token in path.split("."):
        match = _PATH_TOKEN.match(token)
        if match is None:
            raise KeyError(f"malformed segment '{token}'")
        name, indexes = match.group(1), match.group(2)
        if not isinstance(node, dict) or name not in node:
            raise KeyError(f"no field '{name}'")
        parent, key, node = node, name, node[name]
        for raw in re.findall(r"\[(\d+)\]", indexes):
            index = int(raw)
            if not isinstance(node, list) or index >= len(node):
                raise KeyError(f"index [{index}] out of range under '{name}'")
            parent, key, node = node, index, node[index]
    return parent, key


def _sweep_worker(task: tuple) -> tuple[str, int]:
    topo, out_dir, until = task
    try:
        return out_dir, _run_to_dir(topo, out_dir, until, False)
    except _Exit as exc:
        return out_dir, exc.code


def cmd_sweep(args) -> int:
    # operate on the canonical document so defaulted and empty fields are sweepable
    printed: set = set()  # each distinct warning is printed once per sweep
    canonical = topology.render_scenario(_load_file(args.scenario, printed=printed).spec)
    try:
        _resolve_path(topology.load_yaml(canonical), args.param)
    except KeyError as exc:
        print(f"error: unknown parameter path '{args.param}': {exc.args[0]}", file=sys.stderr)
        return EXIT_INVALID

    try:
        values = topology.load_yaml(args.values, items=True)
    except topology.ScenarioError as exc:
        print(f"error: --values [{args.values}] is not a YAML flow sequence: {exc.errors[0]}", file=sys.stderr)
        return EXIT_INVALID
    if not values:
        print("error: no values given", file=sys.stderr)
        return EXIT_INVALID

    tasks, subdirs = [], set()
    for value in values:
        variant = topology.load_yaml(canonical)
        parent, key = _resolve_path(variant, args.param)
        parent[key] = value
        try:
            variant_topo = _load(yaml.dump(variant, Dumper=_DUMPER, sort_keys=False), args.seed, printed)
        except _Exit:
            print(f"error: {args.param}={value} produces an invalid scenario", file=sys.stderr)
            raise
        subdir = str(Path(args.out_dir) / f"{args.param}={value}".replace("/", "_"))
        if subdir in subdirs:
            print(f"error: two --values share the variant directory {subdir}", file=sys.stderr)
            return EXIT_INVALID
        subdirs.add(subdir)
        tasks.append((variant_topo, subdir, args.until))

    # the executor starts every worker up front, so never more than the runs
    workers = min(args.jobs or 4, len(tasks))
    if workers == 1:
        codes = [_sweep_worker(task)[1] for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a sweep starts processes

        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = [code for _, code in pool.map(_sweep_worker, tasks)]
    return max(codes) if codes else EXIT_OK


def _seconds(text: str, allow_zero: bool) -> float:
    """A finite number of seconds above 0 (or at least 0), for argparse."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 <= value if allow_zero else 0.0 < value) or value == math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number {'>=' if allow_zero else '>'} 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return value


def _positive_seconds(text: str) -> float:
    return _seconds(text, allow_zero=False)


def _until_seconds(text: str) -> float:
    return _seconds(text, allow_zero=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_validate = subparsers.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")
    p_validate.set_defaults(func=cmd_validate)

    p_run = subparsers.add_parser("run", help="run a scenario and export results")
    p_run.add_argument("scenario")
    p_run.add_argument("--out-dir", default="fedsim-out/run")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--until", type=_until_seconds, default=None, help="stop at this virtual time")
    p_run.add_argument("--debug-events", action="store_true", help="also export the full event log")
    p_run.set_defaults(func=cmd_run)

    p_ping = subparsers.add_parser("ping", help="probe RTT between all cluster pairs")
    p_ping.add_argument("scenario")
    p_ping.add_argument("--out-dir", default="fedsim-out/ping")
    p_ping.add_argument("--seed", type=int, default=None)
    p_ping.add_argument("--interval", type=_positive_seconds, default=0.2, help="probe interval in seconds")
    p_ping.add_argument(
        "--duration", type=_positive_seconds, default=None, help="probe for this long (default: scenario duration)"
    )
    p_ping.set_defaults(func=cmd_ping)

    p_sweep = subparsers.add_parser("sweep", help="run one scenario across parameter values")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. workload.phases[0].rate")
    p_sweep.add_argument("--values", required=True, help="YAML flow sequence, no brackets: 1,2 or [0,5],[0,10]")
    p_sweep.add_argument("--out-dir", default="fedsim-out/sweep")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--until", type=_until_seconds, default=None)
    p_sweep.add_argument(
        "--jobs", type=_positive_int, default=None, help="parallel workers, at most one per run (default: 4)"
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        return exc.code


def entry() -> None:
    # a cluster name the locale cannot encode prints escaped, as on stderr
    sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = main()
        sys.stdout.flush()  # so that a report still buffered fails here, not at exit
    except BrokenPipeError:
        # the reader of stdout is gone: every artifact stands, and nothing more
        # is printed; stdout goes to devnull so that the flush at exit cannot
        # fail again (the idiom of the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
