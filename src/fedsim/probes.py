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
order. ``run_ping`` resolves a plan's legs once, as it makes the plan:
``plan_legs`` looks up each directed link the plan crosses by ``classify``
and the plan keeps the ``Link`` objects; a fault action changes a link in
place, never replaces it, so every step sends through the same ones.
A receipt draws no randomness and schedules nothing, so no other event can
run between two sends of a step: the links' streams are drawn, and the
receipts queued, in (step, pair) order.

A sample is the plain tuple ``(src, dst, sent_at, rtt_ms)``, cluster
indices and the send time in seconds, with ``rtt_ms`` None for a lost probe;
the engine hands it to ``metrics.Streams`` as it is.

``group_rtts`` folds the samples of each pair into an ``RttSums``: a count,
a lost count and exact integer sums of the RTTs and their squares, so a
pair's memory does not grow with the number of probes. ``rtt_stats``
computes the statistics from those sums. The probe row formatter folds the
samples frame by frame as it writes them, in the writer process where there
is one (see ``metrics``), and ``export_csv`` leaves the sums on
``engine.rtt_sums``. Mean and variance are rounded once from the exact sums,
so they equal ``statistics.fmean`` and ``statistics.pvariance`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, isfinite, ldexp

PROBE_SEND = "probe_send"
PROBE_RECV = "probe_recv"


@dataclass(frozen=True)
class ProbePlan:
    """``count`` grid steps ``interval_s`` apart, each probing every pair of
    ``legs``, as ``plan_legs`` resolves them on the engine's table."""

    legs: tuple
    interval_s: float
    count: int


def probe_count(duration_s: float, interval_s: float) -> int:
    return int(duration_s / interval_s + 1e-9)


def run_ping(engine, pairs=None, interval_s: float = 0.2, duration_s: float | None = None):
    """Schedule a ping experiment on the engine and run it to ``duration_s``.

    Defaults to every ordered cluster pair including diagonals. Returns
    ``engine.probes``, the engine's own list of the samples not yet written
    (every sample, unless the engine has streams).
    """
    n = len(engine.cluster_names)
    if duration_s is None:
        duration_s = engine.duration_s
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    plan = ProbePlan(plan_legs(engine.table, pairs), interval_s, probe_count(duration_s, interval_s))
    engine.probe_plans.append(plan)
    if plan.legs and plan.count > 0:
        engine.schedule(0.0, PROBE_SEND, (len(engine.probe_plans) - 1, 0))
    return engine.run(until=duration_s).probes


def plan_legs(table, pairs) -> tuple:
    """``(src, dst, forward, back)`` per pair: the ``Link`` each leg
    crosses, or None for both on a diagonal. Each directed link is looked up
    by ``table.classify`` once, however many pairs cross it."""
    crossed = {leg for src, dst in pairs if src != dst for leg in ((src, dst), (dst, src))}
    links = {leg: table.classify(*leg) for leg in crossed}
    return tuple(
        (src, dst, None, None) if src == dst else (src, dst, links[src, dst], links[dst, src])
        for src, dst in pairs
    )


def handle_probe_send(engine, t: float, payload) -> None:
    """Grid step k of a plan: schedule step k + 1, then probe every pair."""
    plan_index, k = payload
    plan = engine.probe_plans[plan_index]
    if k + 1 < plan.count:
        engine.schedule((k + 1) * plan.interval_s, PROBE_SEND, (plan_index, k + 1))
    schedule = engine.schedule
    base_ms = engine.links.base_delay_ms
    diagonal_ms = 2.0 * engine.links.intra_base_delay_ms
    for src, dst, forward, back in plan.legs:
        if forward is None:
            schedule(t + diagonal_ms * 1e-3, PROBE_RECV, (src, dst, t, diagonal_ms))
            continue
        # the return leg is sent only if the forward leg arrives
        forward_ms = forward.transit_ms()
        return_ms = None if forward_ms is None else back.transit_ms()
        if return_ms is None:
            schedule(t, PROBE_RECV, (src, dst, t, None))
        else:
            rtt_ms = (forward_ms + base_ms) + (return_ms + base_ms)
            schedule(t + rtt_ms * 1e-3, PROBE_RECV, (src, dst, t, rtt_ms))


@dataclass
class RttStats:
    """Per-pair matrices; entries are None where no probe was answered."""

    mean_ms: list[list[float | None]]
    variance_ms2: list[list[float | None]]
    loss_fraction: list[list[float | None]]
    count: list[list[int]]


class RttSums:
    """The running sums of one pair's RTTs, exact in integers.

    A float whose ``frexp`` exponent is e is a whole multiple of 2**(e - 53),
    so with ``shift`` at least 53 minus the exponent of the smallest nonzero
    magnitude seen, every value scales to an exact integer N = v * 2**shift.
    Only ``count``, ``lost``, ``shift``, ``s1`` = sum(N) and ``s2`` =
    sum(N*N) are kept. A value that needs a larger shift first rescales the
    sums, exactly: ``s1 <<= d``, ``s2 <<= 2 * d``. ``RttSums(count, lost,
    shift, s1, s2)`` takes the sums back from those five fields.

    ``mean`` is the exact sum rounded once and divided by the count, as
    ``statistics.fmean`` computes it (``math.fsum`` and int true division
    both round the exact sum correctly). ``variance`` is the exact rational
    ``(k * s2 - s1**2) / (k**2 * 4**shift)`` rounded once, which is the
    rational ``statistics.pvariance`` rounds. Both therefore equal the
    ``statistics`` results bit for bit, however the values were split into
    batches.
    """

    __slots__ = ("count", "lost", "shift", "s1", "s2", "_exact_from")

    def __init__(self, count: int = 0, lost: int = 0, shift: int = 0, s1: int = 0, s2: int = 0):
        self.count = count
        self.lost = lost
        self.shift = shift
        self.s1 = s1
        self.s2 = s2
        self._exact_from = ldexp(1.0, 52 - shift)  # values at least this scale exactly by ldexp

    def add(self, rtt_ms: float | None) -> None:
        """Fold one RTT, None for a lost probe. Raises ``ValueError`` on a
        value that is not finite."""
        self.count += 1
        if rtt_ms is None:
            self.lost += 1
            return
        if rtt_ms >= self._exact_from:
            try:
                scaled = int(ldexp(rtt_ms, self.shift))
            except OverflowError:  # past the float range once scaled
                scaled = self._scale(rtt_ms)
        else:
            scaled = self._scale(rtt_ms)
        self.s1 += scaled
        self.s2 += scaled * scaled

    def _scale(self, value: float) -> int:
        if not isfinite(value):
            raise ValueError(f"RTT not finite: {value!r}")
        mantissa, exponent = frexp(value)
        if not mantissa:
            return 0
        need = 53 - exponent
        shift = self.shift
        if need > shift:
            self.s1 <<= need - shift
            self.s2 <<= 2 * (need - shift)
            self.shift = shift = need
            self._exact_from = ldexp(1.0, 52 - shift)
        return int(ldexp(mantissa, 53)) << (shift - need)

    @property
    def mean(self) -> float | None:
        """None when no probe was answered."""
        k = self.count - self.lost
        return self.s1 / (1 << self.shift) / k if k else None

    @property
    def variance(self) -> float | None:
        """Population variance; None when no probe was answered."""
        k = self.count - self.lost
        return (k * self.s2 - self.s1 * self.s1) / (k * k << 2 * self.shift) if k else None


def group_rtts(samples, n_clusters: int, groups=None) -> list[list[RttSums]]:
    """``groups[src][dst]``: the ``RttSums`` of the pair's samples. Folds
    into ``groups`` when given them, which must hold sums for every pair of
    ``samples``."""
    if groups is None:
        groups = [[RttSums() for _ in range(n_clusters)] for _ in range(n_clusters)]
    for src, dst, _sent_at, rtt_ms in samples:
        groups[src][dst].add(rtt_ms)
    return groups


def rtt_stats(groups) -> RttStats:
    """Mean, population variance, and loss fraction per ordered pair, from
    the sums ``group_rtts`` folded for it; None in place of a pair's sums
    stands for no probe."""
    none = RttSums()
    groups = [[none if sums is None else sums for sums in row] for row in groups]
    return RttStats(
        [[sums.mean for sums in row] for row in groups],
        [[sums.variance for sums in row] for row in groups],
        [[sums.lost / sums.count if sums.count else None for sums in row] for row in groups],
        [[sums.count for sums in row] for row in groups],
    )


def format_rtt_table(stats: RttStats, names) -> str:
    """Fixed-width mean-RTT matrix (ms), with loss fractions when any probe
    was dropped."""
    width = max(8, max(len(name) for name in names) + 2)

    def row(label, cells):
        return label.rjust(width) + "".join(cell.rjust(width) for cell in cells)

    def block(title, matrix, spec):
        return [title, row("", names)] + [
            row(name, ["-" if value is None else format(value, spec) for value in matrix[i]])
            for i, name in enumerate(names)
        ]

    lines = block("mean RTT (ms)", stats.mean_ms, ".2f")
    if any(value for line in stats.loss_fraction for value in line):
        lines += block("loss fraction", stats.loss_fraction, ".3f")
    return "\n".join(lines)
