"""Per-link network impairment model.

The gateway impairs traffic between clusters the way a kernel packet
scheduler (netem) would. Each directed cluster pair is one ``Link``, held in
a dense n x n table:

- its configured rule ``{delay_ms, jitter, loss}``;
- how many of its two clusters are blacked out;
- its own delay stream and loss channel.

A link is dark while that count is above 0. A dark link keeps its rule, and
each message on it draws its loss stream as a ``p = 1, c = 0`` rule would, so
every message is dropped. Replacing the rule never touches the count, so a
rule set during a blackout takes effect when the last blackout ends.

Loss uses the correlated two-state scheme: each draw forms a composite uniform
``u = c * u_prev + (1 - c) * u_new`` and the message is lost iff ``u < p``.
With ``c = 0`` this degenerates to independent Bernoulli loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import fields
from .rng import stream

JITTER_NONE = "none"
JITTER_UNIFORM = "uniform"
JITTER_NORMAL = "normal"
JITTER_DISTS = (JITTER_NONE, JITTER_UNIFORM, JITTER_NORMAL)


@fields.declare
@dataclass(frozen=True)
class JitterSpec:
    """Symmetric delay variation around the base one-way delay."""

    dist: str = field(default=JITTER_NONE, metadata={"one_of": ("dist", JITTER_DISTS)})
    scale_ms: float = field(default=0.0, metadata={"bounds": ">= 0"})


@fields.declare
@dataclass(frozen=True)
class LossSpec:
    """Loss probability with optional correlation between consecutive draws."""

    p: float = field(default=0.0, metadata={"bounds": "[0, 1]"})
    correlation: float = field(default=0.0, metadata={"bounds": "[0, 1]"})


@dataclass(frozen=True)
class ImpairmentRule:
    """Impairment applied to one directed link."""

    delay_ms: float = 0.0
    jitter: JitterSpec = JitterSpec()
    loss: LossSpec = LossSpec()


# the rule a dark link draws its loss stream with
DARK = ImpairmentRule(loss=LossSpec(p=1.0, correlation=0.0))


class Link:
    """One directed link between two clusters."""

    __slots__ = ("rule", "blackouts", "delay_rng", "loss_channel")

    def __init__(self, rule: ImpairmentRule, delay_rng: random.Random, loss_channel: LossChannel):
        self.rule = rule
        self.blackouts = 0  # how many of its two clusters are blacked out; dark while > 0
        self.delay_rng = delay_rng
        self.loss_channel = loss_channel

    def transit_ms(self) -> float | None:
        """One message's impairment delay in ms, or None if the link drops it."""
        if sample_loss(DARK if self.blackouts else self.rule, self.loss_channel):
            return None
        return sample_delay(self.rule, self.delay_rng)


class ClassifierTable:
    """The links of a federation, ``links[src][dst]``, built from validated
    link matrices. The diagonal is None: intra-cluster traffic crosses no
    link."""

    __slots__ = ("links",)

    def __init__(self, links, seed: int):
        n = len(links.one_way_delay_ms)
        self.links = [
            [
                None
                if i == j
                else Link(
                    ImpairmentRule(links.one_way_delay_ms[i][j], links.jitter[i][j], links.loss[i][j]),
                    stream(seed, "delay", i, j),
                    LossChannel(stream(seed, "loss", i, j)),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]

    def classify(self, src: int, dst: int) -> Link:
        """The link a message from ``src`` to ``dst`` crosses."""
        return self.links[src][dst]


def sample_delay(rule: ImpairmentRule, rng: random.Random) -> float:
    """One-way delay sample in milliseconds; never negative."""
    jit = rule.jitter
    if jit.dist == JITTER_NONE:
        value = rule.delay_ms
    elif jit.dist == JITTER_UNIFORM:
        value = rule.delay_ms + rng.uniform(-jit.scale_ms, jit.scale_ms)
    elif jit.dist == JITTER_NORMAL:
        value = rule.delay_ms + rng.gauss(0.0, jit.scale_ms)
    else:
        raise ValueError(f"unknown jitter dist {jit.dist!r}")
    return value if value > 0.0 else 0.0


class LossChannel:
    """Per-directed-link loss state: the RNG plus the previous composite uniform."""

    __slots__ = ("rng", "prev_u")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.prev_u: float | None = None


def sample_loss(rule: ImpairmentRule, channel: LossChannel) -> bool:
    """Draw one loss decision on the channel. ``p <= 0`` consumes no randomness."""
    p = rule.loss.p
    if p <= 0.0:
        return False
    u_new = channel.rng.random()
    c = rule.loss.correlation
    if c > 0.0 and channel.prev_u is not None:
        u = c * channel.prev_u + (1.0 - c) * u_new
    else:
        u = u_new
    channel.prev_u = u
    return u < p
