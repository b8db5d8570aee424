"""Per-link network impairment model.

The gateway applies impairment rules to traffic between clusters the same way
a kernel packet scheduler would: each directed cluster pair carries a rule
``{delay_ms, jitter, loss}`` and a classifier picks the rule by
``(src, dst, traffic_class)``. Control-plane traffic (health checks, scrapes)
is classified separately and stays unimpaired unless a rule explicitly targets
it.

Loss uses the correlated two-state scheme: each draw forms a composite uniform
``u = c * u_prev + (1 - c) * u_new`` and the message is lost iff ``u < p``.
With ``c = 0`` this degenerates to independent Bernoulli loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import fields

DATA = "data"
CONTROL = "control"
TRAFFIC_CLASSES = (DATA, CONTROL)

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
    """Impairment applied to one directed link for one traffic class.

    ``src``/``dst`` are cluster indices; -1 means "any" and is only used by
    the shared default rule returned for unmatched lookups.
    """

    src: int
    dst: int
    delay_ms: float = 0.0
    jitter: JitterSpec = JitterSpec()
    loss: LossSpec = LossSpec()
    traffic_class: str = DATA

    @property
    def key(self) -> tuple[int, int, str]:
        return (self.src, self.dst, self.traffic_class)


DEFAULT_RULE = ImpairmentRule(src=-1, dst=-1)


class ClassifierTable:
    """Total lookup from (src, dst, traffic_class) to an impairment rule.

    The table is copy-on-write: ``with_rule`` and ``without`` return a new
    table sharing every untouched rule object, so rule identity is stable
    across unrelated updates.
    """

    __slots__ = ("rules",)

    def __init__(self, rules: dict[tuple[int, int, str], ImpairmentRule] | None = None):
        self.rules = dict(rules) if rules else {}

    def classify(self, src: int, dst: int, traffic_class: str = DATA) -> ImpairmentRule:
        rule = self.rules.get((src, dst, traffic_class))
        return rule if rule is not None else DEFAULT_RULE

    def with_rule(self, rule: ImpairmentRule) -> "ClassifierTable":
        updated = dict(self.rules)
        updated[rule.key] = rule
        return ClassifierTable(updated)

    def without(self, key: tuple[int, int, str]) -> "ClassifierTable":
        updated = dict(self.rules)
        updated.pop(key, None)
        return ClassifierTable(updated)


def classify(table: ClassifierTable, src: int, dst: int, traffic_class: str = DATA) -> ImpairmentRule:
    return table.classify(src, dst, traffic_class)


def update_rule(table: ClassifierTable, rule: ImpairmentRule) -> ClassifierTable:
    return table.with_rule(rule)


def table_from_links(links) -> ClassifierTable:
    """Compile a classifier table from validated link matrices.

    Only pairs with an actual impairment get an explicit data-class rule;
    everything else falls through to the no-impairment default.
    """
    n = len(links.one_way_delay_ms)
    rules = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            delay = links.one_way_delay_ms[i][j]
            jit = links.jitter[i][j]
            loss = links.loss[i][j]
            if delay or jit.dist != JITTER_NONE or loss.p:
                rules[(i, j, DATA)] = ImpairmentRule(i, j, delay, jit, loss, DATA)
    return ClassifierTable(rules)


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
