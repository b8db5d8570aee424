"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public entry points of the fedsim modules with
wrappers that time each call. Stage-level calls (parse, validate, build, the
event loop, export, RTT statistics, the CLI command) are recorded as spans
(name, start, end, parent); hot calls (one per event, message or pick) are
aggregated into a call count and total time, since a span per call would
cost more memory than the run itself. Everything is kept in memory and
written once at the end. Times are inclusive: a call's time contains the
time of any wrapped call it makes.

An entry point that no longer exists is reported absent instead of failing,
so the benchmark keeps running across refactors that remove or rename one.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

EVENT_KINDS = (
    "arrival",
    "link_deliver",
    "service_start",
    "service_complete",
    "timeout",
    "timeline_apply",
    "scrape",
    "probe_send",
    "probe_recv",
)

# (module, attribute, metric prefix, recorded as spans)
TARGETS = (
    ("topology", "parse_scenario", "topology.parse", True),
    ("topology", "validate", "topology.validate", True),
    ("topology", "build_runtime", "topology.build", True),
    ("engine", "EngineState.run", "engine.run", True),
    ("engine", "EngineState.schedule", "engine.schedule", False),
    ("workload", "next_arrival", "workload.next_arrival", False),
    ("workload", "PayloadSampler.sample", "workload.payload", False),
    ("mesh", "pick", "mesh.pick", False),
    ("netem", "ClassifierTable.classify", "netem.classify", False),
    ("netem", "sample_delay", "netem.delay", False),
    ("netem", "sample_loss", "netem.loss", False),
    ("faults", "apply", "faults.apply", False),
    ("metrics", "scrape", "metrics.scrape", False),
    ("metrics", "export_csv", "metrics.export", True),
    ("metrics", "cpu_rate", "metrics.cpu_rate", False),
    ("probes", "handle_probe_send", "probes.send", False),
    ("probes", "rtt_stats", "probes.rtt_stats", True),
    ("cli", "main", "cli.main", True),
)


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    def __init__(self):
        self.calls: dict[str, list] = {}  # prefix -> [count, total seconds]
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.kind_counts: dict = {}
        self.drops = 0
        self.events = 0
        self.rss_after_run_mb = 0.0
        self._stack: list[str] = []
        self._installed: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, prefix, as_span in TARGETS:
            try:
                module = importlib.import_module(f"fedsim.{module_name}")
            except ImportError:
                self.absent.append(prefix)
                continue
            *owner_path, name = attribute.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if not callable(original):
                self.absent.append(prefix)
                continue
            stat = self.calls.setdefault(prefix, [0, 0.0])
            wrapper = self._wrapper(prefix, original, stat, as_span)
            setattr(owner, name, wrapper)
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrapper(self, prefix, fn, stat, as_span):
        if prefix == "engine.schedule":
            kinds = self.kind_counts

            def schedule(engine, time, kind, *args, **kwargs):
                start = perf_counter()
                try:
                    return fn(engine, time, kind, *args, **kwargs)
                finally:
                    stat[1] += perf_counter() - start
                    stat[0] += 1
                    kinds[kind] = kinds.get(kind, 0) + 1

            return schedule
        if prefix == "netem.loss":
            tracer = self

            def sample_loss(*args, **kwargs):
                start = perf_counter()
                dropped = fn(*args, **kwargs)
                stat[1] += perf_counter() - start
                stat[0] += 1
                if dropped:
                    tracer.drops += 1
                return dropped

            return sample_loss
        if as_span:
            return self._span_wrapper(prefix, fn, stat)

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - start
                stat[0] += 1

        return counted

    def _span_wrapper(self, prefix, fn, stat):
        stack, spans, tracer = self._stack, self.spans, self

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(prefix)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat[1] += end - start
                stat[0] += 1
                spans.append((prefix, start, end, parent))
            if prefix == "engine.run":
                engine = args[0] if args else None
                tracer.events = getattr(result, "event_count", getattr(engine, "event_count", 0))
                tracer.rss_after_run_mb = _current_rss_mb()
            return result

        return span

    # -- results ---------------------------------------------------------------

    def _time(self, prefix: str) -> float:
        return self.calls.get(prefix, [0, 0.0])[1]

    def _count(self, prefix: str) -> int:
        return self.calls.get(prefix, [0, 0.0])[0]

    def layers(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values and the names of those that are absent."""
        try:
            engine_module = importlib.import_module("fedsim.engine")
        except ImportError:
            engine_module = None
        values: dict[str, float] = {}
        absent: list[str] = []

        def put(name, value, *prefixes):
            # a value derived from a missing entry point is absent, not 0
            if any(prefix in self.absent for prefix in prefixes):
                absent.append(name)
                values[name] = 0
            else:
                values[name] = value

        for stage in ("parse", "validate", "build"):
            put(f"topology.{stage}_s", self._time(f"topology.{stage}"), f"topology.{stage}")
        run_s = self._time("engine.run")
        put("engine.run_s", run_s, "engine.run")
        put("engine.events", self.events, "engine.run")
        for kind in EVENT_KINDS:
            # kinds may change representation; resolve through the engine's own constant
            constant = getattr(engine_module, kind.upper(), None)
            name = f"engine.events.{kind}"
            if constant is None:
                absent.append(name)
                values[name] = 0
            else:
                put(name, self.kind_counts.get(constant, 0), "engine.schedule")
        put("engine.schedule_s", self._time("engine.schedule"), "engine.schedule")
        put("engine.us_per_event", run_s / self.events * 1e6 if self.events else 0.0, "engine.run")
        for prefix in (
            "workload.next_arrival",
            "workload.payload",
            "mesh.pick",
            "netem.classify",
            "netem.delay",
            "netem.loss",
            "faults.apply",
            "metrics.scrape",
            "probes.send",
        ):
            put(f"{prefix}_calls", self._count(prefix), prefix)
            put(f"{prefix}_s", self._time(prefix), prefix)
        put("netem.drops", self.drops, "netem.loss")
        put("metrics.export_s", self._time("metrics.export"), "metrics.export")
        put("metrics.cpu_rate_s", self._time("metrics.cpu_rate"), "metrics.cpu_rate")
        put("metrics.rss_after_run_mb", self.rss_after_run_mb, "engine.run")
        put("probes.rtt_stats_s", self._time("probes.rtt_stats"), "probes.rtt_stats")
        stages = ("topology.parse", "topology.validate", "topology.build", "engine.run", "metrics.export")
        put("cli.other_s", self._time("cli.main") - sum(self._time(p) for p in stages), "cli.main", *stages)
        return values, absent

    def span_records(self) -> list[dict]:
        origin = min((start for _n, start, _e, _p in self.spans), default=0.0)
        return [
            {"name": name, "start_s": start - origin, "end_s": end - origin, "parent": parent}
            for name, start, end, parent in sorted(self.spans, key=lambda span: span[1])
        ]
