"""One benchmark operation in a fresh process.

    python3 perfbench/child.py <root> <argv-json> plain|traced [<trace-file>]

Runs one CLI command through ``fedsim.cli.main`` with the program imported
from ``<root>/src``, and prints one JSON line with its exit code, its wall
time from the call into the CLI to its return, and the process's peak RSS.

A ``plain`` operation then builds the engine from the same scenario text
again and again, without tracing, and reports each set-up time. Through the
command and the set-up repetitions a ``SpeedGauge`` times a short fixed loop
every ``GAUGE_PERIOD_S``; the reported times leave the loop's own time out,
and the loop's times go with them so that the runner can scale them to one
machine speed. A ``traced`` operation runs the command under
``tracer.Tracer``, without the gauge, reports the per-layer values, and
writes the spans to ``<trace-file>``.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import math
import random
import signal
import sys
from pathlib import Path
from time import perf_counter

SETUP_BUDGET_S = 0.3
SETUP_MIN_REPS = 3
GAUGE_ITEMS = 1000
GAUGE_PERIOD_S = 0.1


def _gauge_loop() -> int:
    """Fixed pure-Python work of the kinds the simulator does: heap pushes
    and pops of tuples, random draws, dict updates, float maths and string
    formatting. About 2 ms."""
    rng = random.Random(0)
    heap: list[tuple[float, int]] = []
    sums: dict[int, float] = {}
    for i in range(GAUGE_ITEMS):
        heapq.heappush(heap, (rng.random(), i))
        sums[i % 97] = sums.get(i % 97, 0.0) + math.sqrt(i)
    size = 0
    while heap:
        at, i = heapq.heappop(heap)
        size += len(f"{at:.6f},{i},{sums[i % 97]:.3f}")
    return size


class SpeedGauge:
    """Samples how fast this vCPU runs all through the code it wraps: once on
    entry and then every GAUGE_PERIOD_S, a SIGALRM handler on the same thread
    times ``_gauge_loop``. The vCPU's speed drifts by up to a half within
    seconds, so a sample taken only before or after a command misses it."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, *_) -> None:
        # with the collector off, the heap of the wrapped code cannot slow the loop
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _gauge_loop()
        self.ticks.append((start, perf_counter()))
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedGauge":
        _gauge_loop()
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def samples(self) -> list[float]:
        return [end - start for start, end in self.ticks]

    def net(self, start: float, end: float) -> float:
        """``end - start`` less the loop's time in between. A tick runs on
        this thread, so it lies wholly inside or wholly outside the interval."""
        return end - start - sum(e - s for s, e in self.ticks if start <= s and e <= end)


def _setup_times(topology, text: str) -> tuple[list[float], list[float]]:
    """Scenario text to an engine ready to run, repeated within a budget;
    returns the set-up times and the gauge's samples taken among them."""
    gc.collect()
    times: list[float] = []
    with SpeedGauge() as gauge:
        while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_BUDGET_S:
            start = perf_counter()
            topology.build_runtime(topology.validate(topology.parse_scenario(text)))
            times.append(gauge.net(start, perf_counter()))
    return times, gauge.samples()


def _peak_rss_mb() -> float:
    """This process's resident high-water mark. Not ``ru_maxrss``: that also
    counts the parent's resident set at the fork that started this process."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    root, argv, mode = Path(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(root / "src"))
    from fedsim import cli, topology

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    gauge = SpeedGauge()
    with gauge if tracer is None else contextlib.nullcontext():
        start = perf_counter()
        code = cli.main(argv)
        wall_s = gauge.net(start, perf_counter())
    result = {"code": code, "wall_s": wall_s, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["absent"] = tracer.layers()
        Path(sys.argv[4]).write_text(
            json.dumps({"argv": argv, "layers": result["layers"], "absent": result["absent"], "calls": tracer.calls, "spans": tracer.span_records()}, indent=1)
        )
    else:
        result["gauge_s"] = gauge.samples()
        result["setup_s"], result["setup_gauge_s"] = _setup_times(topology, Path(argv[1]).read_text(encoding="utf-8"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
