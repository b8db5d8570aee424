import math
import random

import pytest

from fedsim import netem
from fedsim.netem import (
    ClassifierTable,
    ImpairmentRule,
    JitterSpec,
    LossChannel,
    LossSpec,
    sample_delay,
    sample_loss,
)
from fedsim.rng import stream

N_DRAWS = 100_000


def rule(delay=0.0, jitter=None, loss=None):
    return ImpairmentRule(delay, jitter or JitterSpec(), loss or LossSpec())


# -- link table ------------------------------------------------------------


def test_classify_falls_back_to_default(poc_spec):
    # a pair the link matrices leave unimpaired gets the no-impairment rule
    table = ClassifierTable(poc_spec.links, poc_spec.seed)
    assert table.classify(0, 3).rule == ImpairmentRule()
    assert table.classify(0, 3).transit_ms() == 0.0


def test_classify_explicit_rule_wins(poc_spec):
    table = ClassifierTable(poc_spec.links, poc_spec.seed)
    r = rule(delay=70.0)
    table.classify(0, 2).rule = r
    assert table.classify(0, 2).rule is r
    # reverse direction untouched
    assert table.classify(2, 0).rule.delay_ms == 25.0


def test_update_leaves_unrelated_rules_untouched(poc_spec):
    table = ClassifierTable(poc_spec.links, poc_spec.seed)
    first = table.classify(0, 1).rule
    table.classify(1, 0).rule = rule(delay=20.0)
    # identity, not just equality: the other direction keeps its rule object
    assert table.classify(0, 1).rule is first


def test_table_is_dense_over_the_link_matrices(poc_spec):
    links = poc_spec.links
    table = ClassifierTable(links, poc_spec.seed)
    for i in range(4):
        assert table.links[i][i] is None
        for j in set(range(4)) - {i}:
            link = table.classify(i, j)
            assert link.rule == ImpairmentRule(links.one_way_delay_ms[i][j], links.jitter[i][j], links.loss[i][j])
            assert link.blackouts == 0
    assert table.classify(0, 2).rule.delay_ms == 25.0


def test_dark_link_drops_every_message_and_draws_as_full_loss():
    # a dark link keeps its rule and draws its loss stream as p = 1, c = 0
    lossy = rule(delay=5.0, loss=LossSpec(p=0.3, correlation=0.5))
    dark = netem.Link(lossy, stream(9, "delay"), LossChannel(stream(9, "loss")))
    dark.blackouts = 1
    full = LossChannel(stream(9, "loss"))
    for _ in range(50):
        assert dark.transit_ms() is None
        assert sample_loss(rule(loss=LossSpec(1.0)), full)
    assert dark.loss_channel.prev_u == full.prev_u
    assert dark.rule is lossy
    # once lit, the correlated draws go on from the blackout's last draw
    dark.blackouts = 0
    for _ in range(50):
        assert dark.transit_ms() == (None if sample_loss(lossy, full) else 5.0)


# -- delay sampling --------------------------------------------------------


def test_no_jitter_is_exact():
    rng = stream(0, "t")
    assert sample_delay(rule(delay=25.0), rng) == 25.0
    assert sample_delay(rule(delay=0.0), rng) == 0.0


def test_uniform_jitter_bounds():
    r = rule(delay=25.0, jitter=JitterSpec("uniform", 2.0))
    rng = stream(1, "t")
    values = [sample_delay(r, rng) for _ in range(10_000)]
    assert all(23.0 <= v <= 27.0 for v in values)
    assert min(values) < 23.5 and max(values) > 26.5  # actually spreads


def test_negative_samples_clamp_to_zero():
    r = rule(delay=1.0, jitter=JitterSpec("uniform", 5.0))
    rng = stream(2, "t")
    values = [sample_delay(r, rng) for _ in range(10_000)]
    assert min(values) == 0.0
    assert all(v >= 0.0 for v in values)


def test_unknown_jitter_dist_rejected():
    with pytest.raises(ValueError):
        sample_delay(rule(jitter=JitterSpec("pareto", 1.0)), stream(0, "t"))


def test_uniform_jitter_moments():
    # U(-s, s) around the base: mean = delay, var = s^2 / 3
    scale = 2.0
    r = rule(delay=25.0, jitter=JitterSpec("uniform", scale))
    rng = stream(3, "t")
    values = [sample_delay(r, rng) for _ in range(N_DRAWS)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert mean == pytest.approx(25.0, abs=4 * scale / math.sqrt(3 * N_DRAWS))
    assert var == pytest.approx(scale**2 / 3, rel=0.03)


def test_normal_jitter_moments():
    scale = 2.0
    r = rule(delay=25.0, jitter=JitterSpec("normal", scale))
    rng = stream(4, "t")
    values = [sample_delay(r, rng) for _ in range(N_DRAWS)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert mean == pytest.approx(25.0, abs=4 * scale / math.sqrt(N_DRAWS))
    assert var == pytest.approx(scale**2, rel=0.05)


# -- loss sampling ---------------------------------------------------------


def test_zero_loss_never_drops_and_consumes_nothing():
    channel = LossChannel(stream(5, "l"))
    before = channel.rng.getstate()
    assert not any(sample_loss(rule(loss=LossSpec(0.0)), channel) for _ in range(100))
    assert channel.rng.getstate() == before


def test_full_loss_always_drops():
    channel = LossChannel(stream(6, "l"))
    assert all(sample_loss(rule(loss=LossSpec(1.0)), channel) for _ in range(100))


def test_iid_loss_rate():
    p = 0.1
    channel = LossChannel(stream(7, "l"))
    r = rule(loss=LossSpec(p))
    losses = sum(sample_loss(r, channel) for _ in range(N_DRAWS))
    sigma = math.sqrt(p * (1 - p) / N_DRAWS)
    assert losses / N_DRAWS == pytest.approx(p, abs=4 * sigma)


def test_composite_recurrence_exact():
    # scripted uniforms through u = c*u_prev + (1-c)*u_new, lost iff u < p
    class Scripted:
        def __init__(self, values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    channel = LossChannel(Scripted([0.1, 0.9, 0.2]))
    r = rule(loss=LossSpec(p=0.3, correlation=0.5))
    assert sample_loss(r, channel) is True  # u = 0.1
    assert sample_loss(r, channel) is False  # u = 0.5*0.1 + 0.5*0.9 = 0.5
    assert sample_loss(r, channel) is False  # u = 0.5*0.5 + 0.5*0.2 = 0.35
    assert channel.prev_u == pytest.approx(0.35)


def test_correlated_loss_clusters():
    # frozen oracle for the composite-uniform scheme at p=0.2, c=0.25:
    # marginal sits near 0.10 (the recurrence reshapes the composite's
    # distribution) and losses cluster strongly
    r = rule(loss=LossSpec(p=0.2, correlation=0.25))
    channel = LossChannel(stream(8, "l"))
    losses = [sample_loss(r, channel) for _ in range(N_DRAWS)]
    marginal = sum(losses) / len(losses)
    after_loss = [b for a, b in zip(losses, losses[1:]) if a]
    conditional = sum(after_loss) / len(after_loss)
    assert 0.09 <= marginal <= 0.112
    assert conditional / marginal > 1.5


def test_per_link_streams_do_not_interact():
    # drawing on one link never shifts another link's sequence
    r = rule(loss=LossSpec(0.5))

    solo = LossChannel(stream(11, "loss", 0, 2))
    alone = [sample_loss(r, solo) for _ in range(200)]

    other = LossChannel(stream(11, "loss", 1, 2))
    mixed = LossChannel(stream(11, "loss", 0, 2))
    interleaved = []
    for _ in range(200):
        sample_loss(r, other)
        interleaved.append(sample_loss(r, mixed))
    assert interleaved == alone


def chi_square_2x2(a, b):
    n = len(a)
    n11 = sum(1 for x, y in zip(a, b) if x and y)
    n10 = sum(1 for x, y in zip(a, b) if x and not y)
    n01 = sum(1 for x, y in zip(a, b) if not x and y)
    n00 = n - n11 - n10 - n01
    row1, row0 = n11 + n10, n01 + n00
    col1, col0 = n11 + n01, n10 + n00
    stat = 0.0
    for observed, row, col in ((n11, row1, col1), (n10, row1, col0), (n01, row0, col1), (n00, row0, col0)):
        expected = row * col / n
        stat += (observed - expected) ** 2 / expected
    return stat


def test_two_link_loss_sequences_statistically_independent():
    r = rule(loss=LossSpec(0.3))
    a_channel = LossChannel(stream(12, "loss", 0, 2))
    b_channel = LossChannel(stream(12, "loss", 1, 2))
    a = [sample_loss(r, a_channel) for _ in range(N_DRAWS)]
    b = [sample_loss(r, b_channel) for _ in range(N_DRAWS)]
    # chi-square independence, df=1: critical value 6.635 at alpha=0.01
    assert chi_square_2x2(a, b) < 6.635
