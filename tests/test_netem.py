import copy
import dataclasses
import math
import pickle
import random
import types

import pytest

from fedsim import faults, netem, topology
from fedsim.netem import (
    ClassifierTable,
    ImpairmentRule,
    JitterSpec,
    LossSpec,
    sample_delay,
    sample_loss,
)
from fedsim.rng import stream

N_DRAWS = 100_000


def rule(delay=0.0, jitter=None, loss=None):
    return ImpairmentRule(delay, jitter or JitterSpec(), loss or LossSpec())


def link_on(delay_rng=None, loss_rng=None, r=None):
    """A link that draws from the given streams; its key is never used."""
    link = netem.Link(r or rule(), (0, 0, 1))
    link.delay_rng, link.loss_rng = delay_rng, loss_rng
    return link


# -- the rule ----------------------------------------------------------------


def test_no_rule_field_is_shadowed_by_a_class_attribute():
    # a default held as a class attribute of a mutable type (a JitterSpec)
    # stops CPython specializing the reads of that field on every message
    for f in dataclasses.fields(ImpairmentRule):
        assert isinstance(vars(ImpairmentRule)[f.name], types.MemberDescriptorType), f.name


@pytest.mark.parametrize(
    "r",
    [ImpairmentRule(), netem.DARK, rule(12.5, JitterSpec("normal", 2.0), LossSpec(0.25, 0.5))],
    ids=["default", "dark", "impaired"],
)
def test_a_rule_survives_pickle_and_deepcopy(r):
    for again in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert type(again) is ImpairmentRule and not hasattr(again, "__dict__")
        assert again == r and hash(again) == hash(r)


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
    dark = link_on(stream(9, "delay"), stream(9, "loss"), lossy)
    dark.blackouts = 1
    full = link_on(loss_rng=stream(9, "loss"))
    for _ in range(50):
        assert dark.transit_ms() is None
        assert sample_loss(rule(loss=LossSpec(1.0)), full)
    assert dark.prev_u == full.prev_u
    assert dark.rule is lossy
    # once lit, the correlated draws go on from the blackout's last draw
    dark.blackouts = 0
    for _ in range(50):
        assert dark.transit_ms() == (None if sample_loss(lossy, full) else 5.0)


# -- delay sampling --------------------------------------------------------


def test_no_jitter_is_exact():
    link = link_on()
    assert sample_delay(rule(delay=25.0), link) == 25.0
    assert sample_delay(rule(delay=0.0), link) == 0.0
    assert link.delay_rng is None  # no jitter, no draw, no stream


def test_uniform_jitter_bounds():
    r = rule(delay=25.0, jitter=JitterSpec("uniform", 2.0))
    link = link_on(stream(1, "t"))
    values = [sample_delay(r, link) for _ in range(10_000)]
    assert all(23.0 <= v <= 27.0 for v in values)
    assert min(values) < 23.5 and max(values) > 26.5  # actually spreads


def test_negative_samples_clamp_to_zero():
    r = rule(delay=1.0, jitter=JitterSpec("uniform", 5.0))
    link = link_on(stream(2, "t"))
    values = [sample_delay(r, link) for _ in range(10_000)]
    assert min(values) == 0.0
    assert all(v >= 0.0 for v in values)


def test_unknown_jitter_dist_rejected():
    with pytest.raises(ValueError):
        sample_delay(rule(jitter=JitterSpec("pareto", 1.0)), link_on(stream(0, "t")))


def test_uniform_jitter_moments():
    # U(-s, s) around the base: mean = delay, var = s^2 / 3
    scale = 2.0
    r = rule(delay=25.0, jitter=JitterSpec("uniform", scale))
    link = link_on(stream(3, "t"))
    values = [sample_delay(r, link) for _ in range(N_DRAWS)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert mean == pytest.approx(25.0, abs=4 * scale / math.sqrt(3 * N_DRAWS))
    assert var == pytest.approx(scale**2 / 3, rel=0.03)


def test_normal_jitter_moments():
    scale = 2.0
    r = rule(delay=25.0, jitter=JitterSpec("normal", scale))
    link = link_on(stream(4, "t"))
    values = [sample_delay(r, link) for _ in range(N_DRAWS)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert mean == pytest.approx(25.0, abs=4 * scale / math.sqrt(N_DRAWS))
    assert var == pytest.approx(scale**2, rel=0.05)


def _stdlib_delay(r, ref):
    """What sample_delay drew when it called random.Random's methods."""
    scale = r.jitter.scale_ms
    if r.jitter.dist == "normal":
        value = r.delay_ms + ref.gauss(0.0, scale)
    else:
        value = r.delay_ms + ref.uniform(-scale, scale)
    return value if value > 0.0 else 0.0


NORMAL = rule(delay=3.0, jitter=JitterSpec("normal", 2.5))
UNIFORM = rule(delay=3.0, jitter=JitterSpec("uniform", 1.5))


def test_jitter_draws_equal_the_stdlib_methods_on_a_fresh_stream():
    # uniform draws between normal ones, after an odd and an even count of
    # normals, leave the link's spare where gauss leaves the stream's
    link = netem.Link(NORMAL, (7, 1, 0))
    ref = stream(7, "delay", 1, 0)
    plan = [NORMAL] * 3 + [UNIFORM] * 2 + [NORMAL] * 4 + [UNIFORM] + [NORMAL] * 500
    for k, r in enumerate(plan):
        assert sample_delay(r, link) == _stdlib_delay(r, ref), k
        assert link.spare == ref.gauss_next, k
    assert link.delay_rng.getstate()[1] == ref.getstate()[1]
    assert link.delay_rng.gauss_next is None  # the link, not its stream, holds the spare


def test_the_spare_normal_of_a_link_crosses_each_set_link_as_the_streams_own_would():
    link = netem.Link(NORMAL, (7, 1, 0))
    engine = types.SimpleNamespace(table=types.SimpleNamespace(links=[[None, None], [link, None]]))
    ref = stream(7, "delay", 1, 0)
    for r, draws in ((NORMAL, 3), (UNIFORM, 2), (NORMAL, 1), (UNIFORM, 1), (NORMAL, 4)):
        faults.apply(engine, faults.ApplyRule(1, 0, r))
        assert link.spare == ref.gauss_next
        for _ in range(draws):
            assert sample_delay(link.rule, link) == _stdlib_delay(r, ref)


# -- loss sampling ---------------------------------------------------------


def test_zero_loss_never_drops_and_consumes_nothing():
    link = link_on(loss_rng=stream(5, "l"))
    before = link.loss_rng.getstate()
    assert not any(sample_loss(rule(loss=LossSpec(0.0)), link) for _ in range(100))
    assert link.loss_rng.getstate() == before


def test_full_loss_always_drops():
    link = link_on(loss_rng=stream(6, "l"))
    assert all(sample_loss(rule(loss=LossSpec(1.0)), link) for _ in range(100))


def test_iid_loss_rate():
    p = 0.1
    link = link_on(loss_rng=stream(7, "l"))
    r = rule(loss=LossSpec(p))
    losses = sum(sample_loss(r, link) for _ in range(N_DRAWS))
    sigma = math.sqrt(p * (1 - p) / N_DRAWS)
    assert losses / N_DRAWS == pytest.approx(p, abs=4 * sigma)


def test_composite_recurrence_exact():
    # scripted uniforms through u = c*u_prev + (1-c)*u_new, lost iff u < p
    class Scripted:
        def __init__(self, values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    link = link_on(loss_rng=Scripted([0.1, 0.9, 0.2]))
    r = rule(loss=LossSpec(p=0.3, correlation=0.5))
    assert sample_loss(r, link) is True  # u = 0.1
    assert sample_loss(r, link) is False  # u = 0.5*0.1 + 0.5*0.9 = 0.5
    assert sample_loss(r, link) is False  # u = 0.5*0.5 + 0.5*0.2 = 0.35
    assert link.prev_u == pytest.approx(0.35)


def test_correlated_loss_clusters():
    # frozen oracle for the composite-uniform scheme at p=0.2, c=0.25:
    # marginal sits near 0.10 (the recurrence reshapes the composite's
    # distribution) and losses cluster strongly
    r = rule(loss=LossSpec(p=0.2, correlation=0.25))
    link = link_on(loss_rng=stream(8, "l"))
    losses = [sample_loss(r, link) for _ in range(N_DRAWS)]
    marginal = sum(losses) / len(losses)
    after_loss = [b for a, b in zip(losses, losses[1:]) if a]
    conditional = sum(after_loss) / len(after_loss)
    assert 0.09 <= marginal <= 0.112
    assert conditional / marginal > 1.5


def test_per_link_streams_do_not_interact():
    # drawing on one link never shifts another link's sequence
    r = rule(loss=LossSpec(0.5))

    solo = link_on(loss_rng=stream(11, "loss", 0, 2))
    alone = [sample_loss(r, solo) for _ in range(200)]

    other = link_on(loss_rng=stream(11, "loss", 1, 2))
    mixed = link_on(loss_rng=stream(11, "loss", 0, 2))
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
    a_link = link_on(loss_rng=stream(12, "loss", 0, 2))
    b_link = link_on(loss_rng=stream(12, "loss", 1, 2))
    a = [sample_loss(r, a_link) for _ in range(N_DRAWS)]
    b = [sample_loss(r, b_link) for _ in range(N_DRAWS)]
    # chi-square independence, df=1: critical value 6.635 at alpha=0.01
    assert chi_square_2x2(a, b) < 6.635


# -- streams made on first draw ----------------------------------------------

# 16 clusters; traffic crosses only K00<->K01, K00<->K02 and K00<->K03. K03
# is dark from the start, so K00->K03 first draws while dark; K00->K02 is set
# before its first draw and, like K02->K00, has p = 0 and never goes dark.
WIDE_NAMES = [f"K{k:02d}" for k in range(16)]
WIDE = f"""
clusters:
{chr(10).join(f"  - {{name: {name}, nodes: 1, vcpus_per_node: 4}}" for name in WIDE_NAMES)}
links:
  base_delay_ms: 1.0
  jitter:
    - {{src: K00, dst: K01, dist: normal, scale_ms: 2.0}}
    - {{src: K01, dst: K00, dist: uniform, scale_ms: 3.0}}
    - {{src: K03, dst: K00, dist: uniform, scale_ms: 1.0}}
  loss:
    - {{src: K00, dst: K01, p: 0.2, correlation: 0.25}}
    - {{src: K01, dst: K00, p: 0.1}}
    - {{src: K00, dst: K03, p: 0.05}}
services:
  - {{name: fe, stage: frontend, replicas_per_cluster: {{K00: 1}}, demand: {{base_ms: 2.0, per_kb_ms: 0.0}}}}
  - name: be
    stage: backend
    replicas_per_cluster: {{K01: 1, K02: 1, K03: 1}}
    demand: {{base_ms: 5.0, per_kb_ms: 0.0}}
    backend_policy: round_robin
workload:
  payload: {{dist: constant, bytes: 1000}}
  phases: [{{rate: 20.0, duration_s: 20}}]
timeline:
  - {{action: blackout, at_s: 0, cluster: K03, end_s: 8}}
  - {{action: set_link, at_s: 0, src: K00, dst: K02, delay_ms: 4.0, jitter: {{dist: uniform, scale_ms: 2.0}}}}
seed: 13
duration_s: 25
"""
CARRYING = {(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)}


def wide_engine():
    return topology.build_runtime(topology.validate(topology.parse_scenario(WIDE)))


def cross_links(engine):
    return [(i, j, link) for i, row in enumerate(engine.table.links) for j, link in enumerate(row) if link is not None]


def test_a_built_engine_holds_no_link_stream():
    links = cross_links(wide_engine())
    assert len(links) == 16 * 15
    assert all(link.delay_rng is None and link.loss_rng is None for _, _, link in links)


def test_after_a_run_only_links_that_drew_hold_streams():
    engine = wide_engine()
    engine.run(until=25.0)
    assert engine.lost > 0 and engine.completed > 0
    made = {(i, j): (link.delay_rng is not None, link.loss_rng is not None) for i, j, link in cross_links(engine)}
    assert all(made[pair] == (False, False) for pair in made.keys() - CARRYING)
    # a p = 0 link makes no loss stream unless it carries a message while
    # dark, and a link without jitter makes no delay stream; K03->K00
    # carries none until K03's blackout has ended
    assert made[0, 2] == made[3, 0] == (True, False)
    assert made[0, 1] == made[1, 0] == (True, True)
    assert made[0, 3] == (False, True)
    assert made[2, 0] == (False, False)


def test_a_jitter_free_link_makes_its_delay_stream_when_a_set_link_gives_it_jitter():
    # K00->K03 has no jitter and carries traffic once K03's blackout ends at
    # 8 s; at 12 s a set_link gives it jitter
    doc = WIDE.replace(
        "timeline:\n",
        "timeline:\n  - {action: set_link, at_s: 12, src: K00, dst: K03, delay_ms: 1.0,"
        " jitter: {dist: normal, scale_ms: 2.0}, loss: {p: 0.05}}\n",
    )
    lazy, eager = (topology.build_runtime(topology.validate(topology.parse_scenario(doc))) for _ in range(2))
    seed = eager.spec.seed
    for i, j, link in cross_links(eager):
        link.delay_rng, link.loss_rng = stream(seed, "delay", i, j), stream(seed, "loss", i, j)
    lazy.run(until=12.0)
    link = lazy.table.classify(0, 3)
    assert link.loss_rng is not None and link.delay_rng is None
    lazy.run(until=25.0)
    eager.run(until=25.0)
    stamps = [[(t.ingress_in, t.be_start, t.response_out, t.outcome) for t in e.traces] for e in (lazy, eager)]
    assert stamps[0] == stamps[1]
    assert link.delay_rng.getstate() == eager.table.classify(0, 3).delay_rng.getstate()
    assert link.delay_rng.getstate() != stream(seed, "delay", 0, 3).getstate()


def test_every_stream_made_on_first_draw_draws_as_one_made_at_set_up():
    lazy, eager = wide_engine(), wide_engine()
    seed = eager.spec.seed
    for i, j, link in cross_links(eager):
        link.delay_rng, link.loss_rng = stream(seed, "delay", i, j), stream(seed, "loss", i, j)
    lazy.run(until=25.0)
    eager.run(until=25.0)
    stamps = [[(t.ingress_in, t.be_start, t.response_out, t.outcome) for t in e.traces] for e in (lazy, eager)]
    assert stamps[0] == stamps[1]
    for (i, j, made), (_, _, ref) in zip(cross_links(lazy), cross_links(eager)):
        # a stream never made is one never drawn: the eager one is still fresh
        delay = made.delay_rng or stream(seed, "delay", i, j)
        loss = made.loss_rng or stream(seed, "loss", i, j)
        assert delay.getstate() == ref.delay_rng.getstate(), (i, j)
        assert loss.getstate() == ref.loss_rng.getstate(), (i, j)
        assert (made.spare, made.prev_u) == (ref.spare, ref.prev_u)


def test_first_draws_while_dark_and_after_a_set_link_match_streams_made_at_set_up(poc_spec):
    seed = poc_spec.seed
    table = ClassifierTable(poc_spec.links, seed)
    lossy = rule(delay=5.0, jitter=JitterSpec("normal", 2.0), loss=LossSpec(0.3, 0.5))
    table.classify(1, 2).blackouts = 1
    table.classify(2, 1).rule = lossy
    for i, j in ((1, 2), (2, 1)):
        lazy = table.classify(i, j)
        ref = link_on(stream(seed, "delay", i, j), stream(seed, "loss", i, j), lazy.rule)
        ref.blackouts = lazy.blackouts
        draws = [(lazy.transit_ms(), ref.transit_ms()) for _ in range(40)]
        lazy.blackouts = ref.blackouts = 0
        draws += [(lazy.transit_ms(), ref.transit_ms()) for _ in range(200)]
        assert all(a == b for a, b in draws), (i, j)
        # (1, 2) has no jitter, so it makes no delay stream and its eager one stays fresh
        delay = lazy.delay_rng or stream(seed, "delay", i, j)
        assert delay.getstate() == ref.delay_rng.getstate()
        assert lazy.loss_rng.getstate() == ref.loss_rng.getstate()
