"""Per-link network impairment model.

The gateway impairs traffic between clusters the way a kernel packet
scheduler (netem) would. Each directed cluster pair is one ``Link``, held in
a dense n x n table:

- its configured rule ``{delay_ms, jitter, loss}``;
- how many of its two clusters are blacked out;
- its (seed, src, dst) key, its delay and loss streams, the spare normal of
  its delay stream, and the previous composite uniform of its loss draws.

Each sampler makes the link's stream it draws from on its first real draw:
a rule without jitter draws no delay and a rule with ``p = 0`` draws no loss,
so neither makes a stream. Most links of a wide federation carry no traffic
in a run, and each stream is a 2.5 KB MT19937 state derived through SHA-256.
A stream's seed depends only on the scenario seed and its label (``"delay"``
or ``"loss"``, src, dst), so a stream made late draws what it would have
drawn if made at set-up.

A link is dark while that count is above 0. A dark link keeps its rule, and
each message on it draws its loss stream as a ``p = 1, c = 0`` rule would, so
every message is dropped. Replacing the rule never touches the count, so a
rule set during a blackout takes effect when the last blackout ends.

``Link.transit_ms`` is the one definition of a message crossing a link: a
loss decision, then a delay draw. It makes no ``sample_loss`` call where
nothing can drop, a lit link whose rule has ``p = 0``; that call would draw
nothing, leave ``prev_u`` as it is and return False. It calls both samplers
through this module's globals, which the benchmark's tracer wraps.

Jitter is drawn in place from the delay stream's ``random()``, by the
formulas of ``random.Random`` with the same operations in the same order:
uniform jitter is ``uniform(-s, s)``, ``a + (b - a) * random()``, and normal
jitter is ``gauss(0.0, s)``, ``0.0 + z * s``, whose Box-Muller step makes
``z = cos(tau * u1) * r`` and a spare ``sin(tau * u1) * r`` from two
uniforms, with ``r = sqrt(-2 * log(1 - u2))``. ``gauss`` keeps the spare on
its stream for its next call; the link holds it instead. The delay stream
draws nothing else, so uniform draws and rule changes leave the spare in
place, as they would leave the stream's.

Loss uses the correlated two-state scheme: each draw forms a composite uniform
``u = c * u_prev + (1 - c) * u_new`` and the message is lost iff ``u < p``.
With ``c = 0`` this degenerates to independent Bernoulli loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, log, sin, sqrt, tau

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


CORRELATION_WARNING = "loss correlation > 0 thins the marginal loss rate far below p"


# slotted, so no JitterSpec default blocks specialized reads (see engine)
@dataclass(frozen=True, slots=True)
class ImpairmentRule:
    """Impairment applied to one directed link."""

    delay_ms: float = 0.0
    jitter: JitterSpec = JitterSpec()
    loss: LossSpec = LossSpec()


# the rule a dark link draws its loss stream with
DARK = ImpairmentRule(loss=LossSpec(p=1.0, correlation=0.0))


class Link:
    """One directed link between two clusters, keyed by its (seed, src, dst).
    Its streams are None until a sampler first draws from each."""

    __slots__ = ("rule", "blackouts", "key", "delay_rng", "loss_rng", "spare", "prev_u")

    def __init__(self, rule: ImpairmentRule, key: tuple):
        self.rule = rule
        self.blackouts = 0  # how many of its two clusters are blacked out; dark while > 0
        self.key = key
        self.delay_rng = self.loss_rng = None
        self.spare: float | None = None  # the second normal of its last Box-Muller step, until drawn
        self.prev_u: float | None = None  # the composite uniform of its last loss draw

    def transit_ms(self) -> float | None:
        """One message's impairment delay in ms, or None if the link drops it.
        A rule that cannot drop (``p = 0``, never ``DARK``) makes no loss
        call: ``sample_loss`` would draw nothing and return False."""
        loss_rule = DARK if self.blackouts else self.rule
        if loss_rule.loss.p > 0.0 and sample_loss(loss_rule, self):
            return None
        return sample_delay(self.rule, self)


class ClassifierTable:
    """The links of a federation, ``links[src][dst]``, built from validated
    link matrices. The diagonal is None: intra-cluster traffic crosses no
    link."""

    __slots__ = ("links",)

    def __init__(self, links, seed: int):
        n = len(links.one_way_delay_ms)
        self.links = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    rule = ImpairmentRule(links.one_way_delay_ms[i][j], links.jitter[i][j], links.loss[i][j])
                    self.links[i][j] = Link(rule, (seed, i, j))

    def classify(self, src: int, dst: int) -> Link:
        """The link a message from ``src`` to ``dst`` crosses."""
        return self.links[src][dst]


def sample_delay(rule: ImpairmentRule, link: Link) -> float:
    """One-way delay sample in milliseconds on the link; never negative. A
    rule without jitter consumes no randomness."""
    jit = rule.jitter
    if jit.dist == JITTER_NONE:
        value = rule.delay_ms
    else:
        rng = link.delay_rng
        # an explicit test, not a __getattr__ that fills the slot: defining
        # __getattr__ sends every attribute read on the class through
        # CPython's slow lookup path
        if rng is None:
            seed, src, dst = link.key
            rng = link.delay_rng = stream(seed, "delay", src, dst)
        if jit.dist == JITTER_UNIFORM:
            low = -jit.scale_ms
            value = rule.delay_ms + (low + (jit.scale_ms - low) * rng.random())
        elif jit.dist == JITTER_NORMAL:
            # random.Random.gauss in place, inlined as in workload.PayloadSampler
            # (a helper called once per pair costs more on the loop); both
            # copies are pinned by test_golden's VARIATES and by the stdlib
            # comparisons in test_netem and test_workload
            z = link.spare
            if z is None:
                x2pi = rng.random() * tau
                g2rad = sqrt(-2.0 * log(1.0 - rng.random()))
                z = cos(x2pi) * g2rad
                link.spare = sin(x2pi) * g2rad
            else:
                link.spare = None
            value = rule.delay_ms + (0.0 + z * jit.scale_ms)
        else:
            raise ValueError(f"unknown jitter dist {jit.dist!r}")
    return value if value > 0.0 else 0.0


def sample_loss(rule: ImpairmentRule, link: Link) -> bool:
    """Draw one loss decision on the link. ``p <= 0`` consumes no randomness."""
    p = rule.loss.p
    if p <= 0.0:
        return False
    rng = link.loss_rng
    if rng is None:  # an explicit test, as in sample_delay
        seed, src, dst = link.key
        rng = link.loss_rng = stream(seed, "loss", src, dst)
    u_new = rng.random()
    c = rule.loss.correlation
    if c > 0.0 and link.prev_u is not None:
        u = c * link.prev_u + (1.0 - c) * u_new
    else:
        u = u_new
    link.prev_u = u
    return u < p
