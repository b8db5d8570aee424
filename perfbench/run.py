"""Benchmark runner: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload pipeline_lc --seed 1 --seconds 30 --trace 0

Run from the root of a fedsim source tree. The workload's scenario is
generated from ``--seed`` and written to ``.perfbench-out/<workload>/``.
It then repeats the workload's one CLI command, each time in a fresh
process (``child.py``), until ``--seconds`` have passed, and checks every
command's outputs. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json`` as medians over the commands, with times scaled to the
machine speed at which the child's gauge loop takes ``REFERENCE_S``; with
``--trace 1`` every round runs the command once untraced and once traced,
and it reports the per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a per-layer metric whose
entry point is missing from the program carries ``"absent": true``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import scenarios

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OPERATION_TIMEOUT_S = 60
# Wall and set-up times are scaled to the speed at which the child's gauge
# loop takes REFERENCE_S, about this machine's usual speed (see README).
REFERENCE_S = 0.0025
ARTIFACTS = ("traces", "probe_rtt", "replica_busy_vcpu_seconds_total", "replica_outstanding_requests", "cpu_rate")


class Workload:
    """One workload's generated scenario and the bookkeeping of its commands."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.doc = scenarios.GENERATORS[name](seed)
        self.dir = ROOT / ".perfbench-out" / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.scenario = self.dir / "scenario.yaml"
        self.scenario.write_text(scenarios.render(self.doc), encoding="utf-8")
        self.out = self.dir / "out"
        self.argv = scenarios.cli_args(name, self.doc, str(self.scenario), str(self.out))
        self.checked_digest: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def operation(self, mode: str) -> dict | None:
        """Run the command once; returns the child's report, or None if the
        command failed (non-zero exit or outputs rejected)."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        command = [sys.executable, str(HERE / "child.py"), str(ROOT), json.dumps(self.argv), mode, str(self.dir / "trace.json")]
        try:
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=OPERATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} command exceeded {OPERATION_TIMEOUT_S}s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._fail(f"{mode} command exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(lines[-1])
        print(f"{mode} operation {self.attempted}: wall {report['wall_s']:.4f}s peak {report['peak_rss_mb']:.2f}MB", file=sys.stderr)
        if report["code"] != 0:
            return self._fail(f"{mode} command: fedsim exited {report['code']}: {proc.stderr.strip()[-2000:]}")

        # Runs are a pure function of the scenario, so an output identical to
        # one that passed every check passes them too.
        digest = checks.digest(self.out)
        if digest != self.checked_digest:
            failures = checks.check(self.name, self.doc, self.out)
            if self.checked_digest is not None:
                failures.insert(0, "determinism: artifacts differ from an earlier run of the same scenario")
            if failures:
                self.correct = False
                return self._fail(f"{mode} command outputs rejected:\n  " + "\n  ".join(failures))
            self.checked_digest = digest
        return report

    def _fail(self, why: str) -> None:
        self.failed += 1
        print(f"operation failed: {why}", file=sys.stderr)
        return None


def scaled(seconds: float, gauge_s: list[float]) -> float:
    """``seconds`` of work at the speed where the gauge loop takes
    REFERENCE_S. The gauge sampled the vCPU at even intervals through those
    seconds, and the work done in an interval goes as 1 / the loop's time."""
    return seconds * REFERENCE_S * statistics.fmean(1 / t for t in gauge_s)


def measure(workload: Workload, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    plain, traced_reports, absent = [], [], []
    modes = ("plain", "traced") if traced else ("plain",)
    start = perf_counter()
    while True:
        for mode in modes:
            report = workload.operation(mode)
            if report is not None:
                (traced_reports if mode == "traced" else plain).append(report)
        if perf_counter() - start >= seconds:
            break
    if not plain or (traced and not traced_reports):
        raise SystemExit("error: no operation succeeded, nothing to report")

    if not traced:
        print(f"unscaled medians: wall_s {statistics.median(r['wall_s'] for r in plain):.6g} s, "
              f"setup_s {statistics.median(t for r in plain for t in r['setup_s']):.6g} s, "
              f"gauge loop {statistics.median(t for r in plain for t in r['gauge_s']):.6g} s")
        return {
            "wall_s": statistics.median(scaled(r["wall_s"], r["gauge_s"]) for r in plain),
            "setup_s": statistics.median(scaled(t, r["setup_gauge_s"]) for r in plain for t in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }, absent

    values = {name: statistics.median(r["layers"][name] for r in traced_reports) for name in traced_reports[0]["layers"]}
    absent = traced_reports[-1]["absent"]
    for artifact in ARTIFACTS:
        path = workload.out / f"{artifact}.csv"
        values[f"metrics.bytes.{artifact}"] = path.stat().st_size if path.exists() else 0
        if not path.exists():
            absent.append(f"metrics.bytes.{artifact}")
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced_reports) - statistics.median(r["wall_s"] for r in plain)
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedsim" / "cli.py").is_file():
        print(f"error: no fedsim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = Workload(args.workload, args.seed)
    values, absent = measure(workload, args.seconds, bool(args.trace))
    if set(values) != {metric["name"] for metric in wanted}:
        print(f"error: measured {sorted(values)} but BENCHMARK.json lists {sorted(m['name'] for m in wanted)}", file=sys.stderr)
        return 2

    # A metric whose entry point is missing from the program keeps a numeric
    # value, so the result still parses, and is marked absent, so that its 0
    # does not read as a measurement.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name in absent:
        metrics[name]["absent"] = True
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}" + (" absent" if metric.get("absent") else ""))
    print(f"{args.workload}: {workload.attempted} operations, {workload.failed} failed, outputs {'correct' if workload.correct else 'REJECTED'}")
    print(json.dumps({"correct": workload.correct, "attempted": workload.attempted, "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
