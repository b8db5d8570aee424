"""Command-line interface.

Subcommands:
  validate  parse + validate a scenario, print every violation
  run       execute a scenario and export traces, metrics, and a summary
  ping      run the RTT probe experiment and print the matrix
  sweep     run one scenario across a list of values for one parameter path

Exit codes: 0 success, 1 invalid scenario or sweep values, 2 bad usage or
unreadable input, 3 engine errors (with an event-log tail dumped for
diagnosis).
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
import time as wall_time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import yaml

from . import __version__, faults, metrics, probes, topology
from .engine import EngineError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_ENGINE = 3


def _load_file(path: str, seed: int | None = None):
    """Read a scenario file, then ``_load`` it; EXIT_IO if it cannot be read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    return _load(text, seed)


def _load(text: str, seed: int | None = None):
    """Parse and validate scenario text, with ``seed`` overriding the
    scenario's. Returns (spec, topology), or EXIT_INVALID after printing every
    error. Warnings go to stderr and do not change the outcome."""
    try:
        spec = topology.parse_scenario(text)
        if seed is not None:
            spec = replace(spec, seed=seed)
        topo = topology.validate(spec)
    except (topology.ScenarioError, topology.ValidationError) as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID
    losses = [(f"loss[{i}][{j}]", loss) for i, row in enumerate(spec.links.loss) for j, loss in enumerate(row)]
    losses += [
        (f"timeline[{k}].loss", event.loss)
        for k, event in enumerate(spec.timeline)
        if isinstance(event, faults.SetLinkEvent)
    ]
    for path, loss in losses:
        if loss.correlation > 0:
            print(f"warning: {path}: loss correlation > 0 thins the marginal loss rate far below p", file=sys.stderr)
    return spec, topo


def _dump_event_tail(engine, out_dir: Path, exc: EngineError) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = out_dir / "event_log_tail.csv"
    with dump.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "seq", "kind"])
        for time, seq, kind, *_payload in engine.event_tail:
            writer.writerow([repr(time), seq, kind])
    print(f"engine error: {exc}", file=sys.stderr)
    print(f"event log tail written to {dump}", file=sys.stderr)


def _summarize(result, spec, out_dir: Path, elapsed_s: float, until: float) -> None:
    rate_means: dict[str, dict[str, float]] = {}
    try:
        rates = [
            metrics.cpu_rate(series, result.rate_window_s)
            for series in result.metrics.series(metrics.BUSY_COUNTER)
        ]
        for (cluster, service), series in sorted(metrics.aggregate_by_cluster(rates).items()):
            values = [value for _, value in series.samples]
            rate_means.setdefault(cluster, {})[service] = sum(values) / len(values)
    except metrics.MetricsError:
        pass  # run shorter than the rate window

    summary = {
        "results": {
            "seed": spec.seed,
            "until_s": until,
            "arrivals": result.arrivals,
            "completed": result.completed,
            "lost": result.lost,
            "timed_out": result.timed_out,
            "in_flight": result.in_flight,
            "events": result.event_count,
            "probes": len(result.probes),
            "mean_cpu_rate_cores": rate_means,
        },
        "meta": {
            "tool_version": __version__,
            "wall_time_s": round(elapsed_s, 3),
        },
    }
    (out_dir / "summary.yaml").write_text(yaml.safe_dump(summary, sort_keys=False), encoding="utf-8")


def _run_to_dir(spec, topo, out_dir: str, until: float | None, debug_events: bool) -> int:
    """Run a loaded scenario and export. Shared by run and the sweep workers."""
    engine = topology.build_runtime(topo)
    if debug_events:
        engine.debug_log = []
    bound = spec.duration_s if until is None else until
    out = Path(out_dir)
    started = wall_time.perf_counter()
    try:
        result = engine.run(until=bound)
    except EngineError as exc:
        _dump_event_tail(engine, out, exc)
        return EXIT_ENGINE
    elapsed = wall_time.perf_counter() - started

    out.mkdir(parents=True, exist_ok=True)
    metrics.export_csv(result, out)
    if debug_events:
        with (out / "events.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_s", "seq", "kind", "detail"])
            for time, seq, kind, detail in engine.debug_log:
                writer.writerow([repr(time), seq, kind, detail])
    _summarize(result, spec, out, elapsed, bound)
    print(
        f"{out}: {result.arrivals} arrivals, {result.completed} completed, "
        f"{result.lost} lost, {result.timed_out} timed out, {result.event_count} events"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    loaded = _load_file(args.scenario)
    if isinstance(loaded, int):
        return loaded
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    loaded = _load_file(args.scenario, args.seed)
    if isinstance(loaded, int):
        return loaded
    return _run_to_dir(*loaded, args.out_dir, args.until, args.debug_events)


def cmd_ping(args) -> int:
    loaded = _load_file(args.scenario, args.seed)
    if isinstance(loaded, int):
        return loaded
    spec, topo = loaded
    duration = args.duration if args.duration is not None else spec.duration_s
    if not math.isfinite(duration / args.interval):
        print(f"error: duration / interval is not finite: {duration!r} / {args.interval!r}", file=sys.stderr)
        return EXIT_IO
    engine = topology.build_runtime(topo)
    out = Path(args.out_dir)
    try:
        samples = probes.run_ping(engine, interval_s=args.interval, duration_s=duration)
    except EngineError as exc:
        _dump_event_tail(engine, out, exc)
        return EXIT_ENGINE

    names = [cluster.name for cluster in spec.clusters]
    stats = probes.rtt_stats(samples, len(names))
    out.mkdir(parents=True, exist_ok=True)
    metrics.export_csv(engine.result(), out)
    matrix_doc = {
        "interval_s": args.interval,
        "duration_s": duration,
        "mean_rtt_ms": _matrix_doc(stats.mean_ms, names),
        "variance_rtt_ms2": _matrix_doc(stats.variance_ms2, names),
        "loss_fraction": _matrix_doc(stats.loss_fraction, names),
    }
    (out / "rtt_matrix.yaml").write_text(yaml.safe_dump(matrix_doc, sort_keys=False), encoding="utf-8")
    print(probes.format_rtt_table(stats, names))
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
    spec, topo, out_dir, until = task
    return out_dir, _run_to_dir(spec, topo, out_dir, until, False)


def cmd_sweep(args) -> int:
    loaded = _load_file(args.scenario)
    if isinstance(loaded, int):
        return loaded

    # operate on the canonical document so defaulted fields are sweepable
    spec, _ = loaded
    canonical = topology.render_scenario(spec)
    doc = yaml.safe_load(canonical)
    try:
        _resolve_path(doc, args.param)
    except KeyError as exc:
        print(f"error: unknown parameter path '{args.param}': {exc.args[0]}", file=sys.stderr)
        return EXIT_INVALID

    values = [yaml.safe_load(token) for token in args.values.split(",") if token != ""]
    if not values:
        print("error: no values given", file=sys.stderr)
        return EXIT_INVALID

    tasks = []
    for value in values:
        variant = yaml.safe_load(canonical)
        parent, key = _resolve_path(variant, args.param)
        parent[key] = value
        variant_loaded = _load(yaml.safe_dump(variant, sort_keys=False), args.seed)
        if isinstance(variant_loaded, int):
            print(f"error: {args.param}={value} produces an invalid scenario", file=sys.stderr)
            return variant_loaded
        subdir = str(Path(args.out_dir) / f"{args.param}={value}".replace("/", "_"))
        tasks.append((*variant_loaded, subdir, args.until))

    workers = args.jobs if args.jobs else min(len(tasks), 4)
    if workers <= 1 or len(tasks) == 1:
        codes = [_sweep_worker(task)[1] for task in tasks]
    else:
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
    p_sweep.add_argument("--values", required=True, help="comma-separated YAML scalars")
    p_sweep.add_argument("--out-dir", default="fedsim-out/sweep")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--until", type=_until_seconds, default=None)
    p_sweep.add_argument("--jobs", type=int, default=None, help="parallel workers (default: min(runs, 4))")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
