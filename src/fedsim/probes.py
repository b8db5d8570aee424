"""Active RTT probing between clusters.

A probe is a tiny message: forward and return legs each cross their directed
link, which samples its delay or drops it (a dark link drops every probe).
The measured RTT is therefore
``fwd_sample + ret_sample + 2 * base_delay``; a probe whose either leg drops
is recorded as lost. Probes on a cluster's own diagonal traverse only the
intra-cluster path.

Sends are paced on a fixed grid: every pair emits at k * interval for
k in [0, n) with n = floor(duration / interval) (epsilon-guarded so an exact
multiple is not lost to float division). Grid step k is one ``probe_send``
event, which schedules step k + 1 and then sends every pair of the plan in
order. A receipt draws no randomness and schedules nothing, so no other
event can run between two sends of a step: the links' streams are drawn,
and the receipts queued, in (step, pair) order.

``group_rtts`` collects the RTTs of each pair, in sample order, and
``rtt_stats`` computes the statistics of those groups; a streamed ping
groups its samples batch by batch as they are written (see ``engine``), an
API caller all at once. The variance of each pair is computed exactly in
integers and rounded once, so it equals ``statistics.pvariance`` bit for bit
without its per-value fractions.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import NamedTuple

PROBE_SEND = "probe_send"
PROBE_RECV = "probe_recv"


class ProbeSample(NamedTuple):
    """One probe result; ``rtt_ms`` is None when the probe was lost. A tuple,
    so the statistics and the export unpack it without attribute lookups."""

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

    Defaults to every ordered cluster pair including diagonals. Returns
    ``engine.probes``, the engine's own list of the samples not yet written
    (every sample, unless the engine has a probe writer).
    """
    n = len(engine.cluster_names)
    if duration_s is None:
        duration_s = engine.duration_s
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    plan = ProbePlan(tuple(pairs), interval_s, probe_count(duration_s, interval_s))
    engine.probe_plans.append(plan)
    if plan.pairs and plan.count > 0:
        engine.schedule(0.0, PROBE_SEND, (len(engine.probe_plans) - 1, 0))
    return engine.run(until=duration_s).probes


def handle_probe_send(engine, t: float, payload) -> None:
    """Grid step k of a plan: schedule step k + 1, then probe every pair."""
    plan_index, k = payload
    plan = engine.probe_plans[plan_index]
    if k + 1 < plan.count:
        engine.schedule((k + 1) * plan.interval_s, PROBE_SEND, (plan_index, k + 1))

    schedule = engine.schedule
    classify = engine.table.classify
    base_ms = engine.links.base_delay_ms
    diagonal_ms = 2.0 * engine.links.intra_base_delay_ms
    for src, dst in plan.pairs:
        if src == dst:
            schedule(t + diagonal_ms * 1e-3, PROBE_RECV, ProbeSample(src, dst, t, diagonal_ms))
            continue
        # the return leg is sent only if the forward leg arrives
        forward_ms = classify(src, dst).transit_ms()
        return_ms = None if forward_ms is None else classify(dst, src).transit_ms()
        if return_ms is None:
            schedule(t, PROBE_RECV, ProbeSample(src, dst, t, None))
        else:
            rtt_ms = (forward_ms + base_ms) + (return_ms + base_ms)
            schedule(t + rtt_ms * 1e-3, PROBE_RECV, ProbeSample(src, dst, t, rtt_ms))


@dataclass
class RttStats:
    """Per-pair matrices; entries are None where no probe was answered."""

    mean_ms: list[list[float | None]]
    variance_ms2: list[list[float | None]]
    loss_fraction: list[list[float | None]]
    count: list[list[int]]


def pvariance(values) -> float:
    """``statistics.pvariance`` of floats, bit for bit, in integers.

    A float whose ``frexp`` exponent is e is a whole multiple of 2**(e - 53),
    so scaling every value by 2**shift, with shift = 53 minus the exponent
    of the smallest nonzero magnitude, makes each an integer N exactly. The
    variance is then the exact rational
    ``(count * sum(N*N) - sum(N)**2) / (count**2 * 4**shift)``, which int
    true division rounds correctly once, as ``pvariance`` rounds the same
    rational held as a Fraction.
    """
    smallest = min(filter(None, map(abs, values)), default=0.0)
    shift = max(0, 53 - math.frexp(smallest)[1])
    try:
        scaled = list(map(int, map(math.ldexp, values, repeat(shift))))
    except (OverflowError, ValueError):  # an infinity, a NaN, or too wide a range
        return statistics.pvariance(values)
    total = sum(scaled)
    count = len(scaled)
    return (count * sum(map(mul, scaled, scaled)) - total * total) / (count * count << 2 * shift)


def group_rtts(samples, n_clusters: int, groups=None) -> list[list[list]]:
    """``groups[src][dst]``: the RTT of every sample of the pair, in sample
    order, None for a lost probe. Appends to ``groups`` when given one."""
    if groups is None:
        groups = [[[] for _ in range(n_clusters)] for _ in range(n_clusters)]
    for src, dst, _sent_at, rtt_ms in samples:
        groups[src][dst].append(rtt_ms)
    return groups


def rtt_stats(groups) -> RttStats:
    """Mean, population variance, and loss fraction per ordered pair, from
    the RTTs ``group_rtts`` collected for it."""
    shape = range(len(groups))
    mean = [[None for _ in shape] for _ in shape]
    variance = [[None for _ in shape] for _ in shape]
    loss = [[None for _ in shape] for _ in shape]
    count = [[0 for _ in shape] for _ in shape]
    for i in shape:
        for j in shape:
            rtts = groups[i][j]
            if not rtts:
                continue
            lost = rtts.count(None)
            values = [rtt for rtt in rtts if rtt is not None] if lost else rtts
            count[i][j] = len(rtts)
            loss[i][j] = lost / len(rtts)
            if values:
                mean[i][j] = statistics.fmean(values)
                variance[i][j] = pvariance(values)
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
