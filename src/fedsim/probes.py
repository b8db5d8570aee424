"""Active RTT probing between clusters.

A probe is a tiny message: forward and return legs each cross their directed
link, which samples its delay or drops it (a dark link drops every probe).
The measured RTT is therefore
``fwd_sample + ret_sample + 2 * base_delay``; a probe whose either leg drops
is recorded as lost. Probes on a cluster's own diagonal traverse only the
intra-cluster path.

Sends are paced on a fixed grid: pair p emits at k * interval for
k in [0, n) with n = floor(duration / interval) (epsilon-guarded so an exact
multiple is not lost to float division).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

PROBE_SEND = "probe_send"
PROBE_RECV = "probe_recv"


@dataclass(frozen=True)
class ProbeSample:
    """One probe result; ``rtt_ms`` is None when the probe was lost."""

    src: int
    dst: int
    sent_at: float
    rtt_ms: float | None

    @property
    def lost(self) -> bool:
        return self.rtt_ms is None


@dataclass(frozen=True)
class ProbePlan:
    pairs: tuple[tuple[int, int], ...]
    interval_s: float
    count: int


def probe_count(duration_s: float, interval_s: float) -> int:
    return int(duration_s / interval_s + 1e-9)


def run_ping(engine, pairs=None, interval_s: float = 0.2, duration_s: float | None = None):
    """Schedule a ping experiment on the engine and run it to ``duration_s``.

    Defaults to every ordered cluster pair including diagonals. Returns the
    collected samples; the engine also keeps them in ``engine.probes``.
    """
    n = len(engine.cluster_names)
    if duration_s is None:
        duration_s = engine.duration_s
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    plan = ProbePlan(tuple(pairs), interval_s, probe_count(duration_s, interval_s))
    plan_index = len(engine.probe_plans)
    engine.probe_plans.append(plan)
    if plan.count > 0:
        for pair_index in range(len(plan.pairs)):
            engine.schedule(0.0, PROBE_SEND, (plan_index, pair_index, 0))
    engine.run(until=duration_s)
    return list(engine.probes)


def handle_probe_send(engine, t: float, payload) -> None:
    plan_index, pair_index, k = payload
    plan = engine.probe_plans[plan_index]
    src, dst = plan.pairs[pair_index]
    if k + 1 < plan.count:
        engine.schedule((k + 1) * plan.interval_s, PROBE_SEND, (plan_index, pair_index, k + 1))

    links = engine.links
    if src == dst:
        rtt_ms = 2.0 * links.intra_base_delay_ms
        engine.schedule(t + rtt_ms * 1e-3, PROBE_RECV, ProbeSample(src, dst, t, rtt_ms))
        return

    # the return leg is sent only if the forward leg arrives
    forward_ms = engine.table.classify(src, dst).transit_ms()
    return_ms = None if forward_ms is None else engine.table.classify(dst, src).transit_ms()
    if return_ms is None:
        engine.schedule(t, PROBE_RECV, ProbeSample(src, dst, t, None))
        return
    rtt_ms = (forward_ms + links.base_delay_ms) + (return_ms + links.base_delay_ms)
    engine.schedule(t + rtt_ms * 1e-3, PROBE_RECV, ProbeSample(src, dst, t, rtt_ms))


@dataclass
class RttStats:
    """Per-pair matrices; entries are None where no probe was answered."""

    mean_ms: list[list[float | None]]
    variance_ms2: list[list[float | None]]
    loss_fraction: list[list[float | None]]
    count: list[list[int]]


def rtt_stats(samples, n_clusters: int) -> RttStats:
    """Mean, population variance, and loss fraction per ordered pair."""
    answered: dict[tuple[int, int], list[float]] = {}
    totals: dict[tuple[int, int], int] = {}
    for sample in samples:
        key = (sample.src, sample.dst)
        totals[key] = totals.get(key, 0) + 1
        if not sample.lost:
            answered.setdefault(key, []).append(sample.rtt_ms)

    shape = range(n_clusters)
    mean = [[None for _ in shape] for _ in shape]
    variance = [[None for _ in shape] for _ in shape]
    loss = [[None for _ in shape] for _ in shape]
    count = [[0 for _ in shape] for _ in shape]
    for (i, j), total in totals.items():
        count[i][j] = total
        values = answered.get((i, j), [])
        loss[i][j] = (total - len(values)) / total
        if values:
            mean[i][j] = statistics.fmean(values)
            variance[i][j] = statistics.pvariance(values)
    return RttStats(mean, variance, loss, count)


def format_rtt_table(stats: RttStats, names) -> str:
    """Fixed-width mean-RTT matrix (ms), with loss fractions when any probe
    was dropped."""
    width = max(8, max(len(name) for name in names) + 2)

    def row(label, cells):
        return label.rjust(width) + "".join(cell.rjust(width) for cell in cells)

    lines = ["mean RTT (ms)", row("", list(names))]
    for i, name in enumerate(names):
        cells = ["-" if stats.mean_ms[i][j] is None else f"{stats.mean_ms[i][j]:.2f}" for j in range(len(names))]
        lines.append(row(name, cells))
    if any(value for line in stats.loss_fraction for value in line):
        lines.append("loss fraction")
        lines.append(row("", list(names)))
        for i, name in enumerate(names):
            cells = [
                "-" if stats.loss_fraction[i][j] is None else f"{stats.loss_fraction[i][j]:.3f}"
                for j in range(len(names))
            ]
            lines.append(row(name, cells))
    return "\n".join(lines)
