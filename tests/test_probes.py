"""RTT probing: pacing, exact matrices, jitter spread, loss accounting."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import probes, topology
from fedsim.probes import RttSums, format_rtt_table, group_rtts, probe_count, rtt_stats, run_ping
from tests.conftest import make_topology

HOT = {(0, 2), (1, 2), (2, 0), (2, 1)}


def probe_doc(links_block: str, duration: float = 600, extra: str = "") -> str:
    return f"""
clusters:
  - {{name: a, nodes: 1, vcpus_per_node: 1}}
  - {{name: b, nodes: 1, vcpus_per_node: 1}}
links:
{links_block}
duration_s: {duration}
{extra}
"""


def fresh_engine(doc: str):
    return topology.build_runtime(make_topology(doc))


class TestProbeCount:
    def test_reference_counts(self):
        assert probe_count(600, 0.2) == 3000
        assert probe_count(10, 0.2) == 50

    def test_exact_multiple_not_lost_to_float_division(self):
        # 0.6 / 0.2 is 2.9999... in floats; the epsilon keeps the third send
        assert probe_count(0.6, 0.2) == 3
        assert probe_count(1.2, 0.2) == 6

    def test_truncates_partial_interval(self):
        assert probe_count(0.5, 0.2) == 2
        assert probe_count(0.1, 0.2) == 0


@pytest.fixture(scope="module")
def stats(ping_spec):
    engine = topology.build_runtime(topology.validate(ping_spec))
    samples = run_ping(engine, duration_s=10.0)
    return rtt_stats(group_rtts(samples, 4))


class TestPingMatrix:
    def test_mean_rtts_exact(self, stats):
        for i in range(4):
            for j in range(4):
                if i == j:
                    expected = 0.0
                elif (i, j) in HOT:
                    expected = 51.46
                else:
                    expected = 1.46
                assert stats.mean_ms[i][j] == expected, (i, j)

    def test_no_jitter_means_zero_variance(self, stats):
        for i in range(4):
            for j in range(4):
                assert stats.variance_ms2[i][j] == 0.0

    def test_no_loss_and_full_counts(self, stats):
        for i in range(4):
            for j in range(4):
                assert stats.loss_fraction[i][j] == 0.0
                assert stats.count[i][j] == 50


class TestImpairedProbes:
    def test_jitter_shows_up_as_rtt_variance(self):
        links = (
            "  base_delay_ms: 1.0\n"
            "  one_way_delay_ms: [[0.0, 10.0], [10.0, 0.0]]\n"
            "  jitter:\n"
            "    - {src: a, dst: b, dist: uniform, scale_ms: 3.0}\n"
            "    - {src: b, dst: a, dist: uniform, scale_ms: 3.0}\n"
        )
        engine = fresh_engine(probe_doc(links))
        samples = run_ping(engine, pairs=[(0, 1)], interval_s=0.02, duration_s=200.0)
        stats = rtt_stats(group_rtts(samples, 2))
        assert stats.count[0][1] == 10_000
        assert stats.mean_ms[0][1] == pytest.approx(22.0, rel=0.01)
        # each leg contributes scale^2 / 3 of variance
        assert stats.variance_ms2[0][1] == pytest.approx(6.0, rel=0.05)

    def test_loss_fraction_combines_both_legs(self):
        links = (
            "  loss:\n"
            "    - {src: a, dst: b, p: 0.3}\n"
            "    - {src: b, dst: a, p: 0.3}\n"
        )
        engine = fresh_engine(probe_doc(links))
        samples = run_ping(engine, pairs=[(0, 1)], interval_s=0.02, duration_s=200.0)
        stats = rtt_stats(group_rtts(samples, 2))
        # lost iff either leg drops: 1 - 0.7^2
        assert stats.loss_fraction[0][1] == pytest.approx(0.51, abs=0.02)
        assert stats.count[0][1] == 10_000

    def test_blackout_window_drops_probes(self):
        extra = "timeline:\n  - {action: blackout, at_s: 4.0, cluster: b, end_s: 8.0}\n"
        engine = fresh_engine(probe_doc("  base_delay_ms: 0.5", duration=12, extra=extra))
        samples = run_ping(engine, pairs=[(0, 1)], interval_s=2.0, duration_s=12.0)
        assert [sent_at for _, _, sent_at, _ in samples] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert [sent_at for _, _, sent_at, rtt_ms in samples if rtt_ms is None] == [4.0, 6.0]
        stats = rtt_stats(group_rtts(samples, 2))
        assert stats.loss_fraction[0][1] == pytest.approx(2 / 6)

    def test_diagonal_uses_intra_cluster_base(self):
        links = "  base_delay_ms: 1.0\n  intra_base_delay_ms: 2.5"
        engine = fresh_engine(probe_doc(links))
        samples = run_ping(engine, pairs=[(0, 0), (0, 1)], interval_s=1.0, duration_s=5.0)
        stats = rtt_stats(group_rtts(samples, 2))
        assert stats.mean_ms[0][0] == 5.0
        assert stats.mean_ms[0][1] == 2.0


class TestDeterminism:
    def test_same_seed_identical_samples(self):
        links = (
            "  jitter: [{src: a, dst: b, dist: normal, scale_ms: 1.0}]\n"
            "  loss: [{src: a, dst: b, p: 0.1}]\n"
        )
        doc = probe_doc(links)
        first = run_ping(fresh_engine(doc), duration_s=30.0)
        second = run_ping(fresh_engine(doc), duration_s=30.0)
        assert first == second

    def test_samples_sorted_by_receive_time(self, ping_spec):
        engine = topology.build_runtime(topology.validate(ping_spec))
        samples = run_ping(engine, duration_s=5.0)
        received = [sent_at + (rtt_ms or 0.0) * 1e-3 for _, _, sent_at, rtt_ms in samples]
        assert received == sorted(received)


class TestFormatting:
    def test_table_layout(self):
        samples = [
            (0, 1, 0.0, None),
            (0, 1, 1.0, None),
            (1, 0, 0.0, 5.0),
        ]
        text = format_rtt_table(rtt_stats(group_rtts(samples, 2)), ("alpha", "beta"))
        lines = text.splitlines()
        assert lines[0] == "mean RTT (ms)"
        assert "alpha" in lines[1] and "beta" in lines[1]
        # unanswered pair renders as a dash; loss section is present
        assert "-" in lines[2]
        assert "5.00" in text
        assert "loss fraction" in text
        assert "1.000" in text

    def test_loss_section_omitted_when_clean(self):
        samples = [(0, 1, 0.0, 3.0), (1, 0, 0.0, 4.0)]
        text = format_rtt_table(rtt_stats(group_rtts(samples, 2)), ("a", "b"))
        assert "loss fraction" not in text


@st.composite
def rtt_lists(draw):
    """1-500 finite non-negative floats under 2**top, drawn from a small pool
    so values repeat; a pool of one gives a single or all-equal list."""
    top = draw(st.integers(-1074, 500))
    values = st.floats(min_value=0.0, max_value=math.ldexp(1.0, top), allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(values, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=500))


def _variance(values) -> float:
    """The variance of one ``RttSums`` fold of ``values``."""
    sums = RttSums()
    for value in values:
        sums.add(value)
    return sums.variance


@settings(max_examples=150, deadline=None)
@given(rtt_lists())
def test_pvariance_is_statistics_pvariance_bit_for_bit(values):
    assert _variance(values).hex() == statistics.pvariance(values).hex()


@pytest.mark.parametrize(
    "values",
    [
        [0.0],
        [7.25] * 3,
        [0.0, 5e-324, 1e-310, 2.5e-300],
        [1.46, 51.46, 51.46000000000001],
        [2.0**60, 3.0, 0.1],
        [5e-324, 2.0**60],  # 2.0**60 scaled by ldexp overflows
        [2.0**60, 5e-324],  # the sums are rescaled by 1126 bits
    ],
)
def test_pvariance_stays_in_integers(values):
    assert not hasattr(probes, "statistics")  # no fallback to the Fraction path
    assert _variance(values).hex() == statistics.pvariance(values).hex()


@settings(max_examples=150, deadline=None)
@given(rtt_lists(), st.data())
def test_a_fold_in_any_batches_is_fmean_and_pvariance_bit_for_bit(values, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=6)))
    groups = probes.group_rtts((), 1)
    for start, end in zip([0, *cuts], [*cuts, len(values)]):
        probes.group_rtts([(0, 0, 0.0, rtt) for rtt in values[start:end]], 1, groups)
    stats = rtt_stats(groups)
    assert stats.mean_ms[0][0].hex() == statistics.fmean(values).hex()
    assert stats.variance_ms2[0][0].hex() == statistics.pvariance(values).hex()
    assert stats.count[0][0] == len(values)


def test_lost_probes_count_but_do_not_enter_the_sums():
    stats = rtt_stats(group_rtts([(0, 0, 0.0, rtt) for rtt in (None, 2.0, None, 4.0)], 1))
    assert (stats.count[0][0], stats.loss_fraction[0][0]) == (4, 0.5)
    assert (stats.mean_ms[0][0], stats.variance_ms2[0][0]) == (3.0, 1.0)


@pytest.mark.parametrize("rtt", [math.inf, -math.inf, math.nan])
def test_a_value_that_is_not_finite_is_refused(rtt):
    sums = probes.RttSums()
    sums.add(1.0)
    with pytest.raises(ValueError, match="RTT not finite"):
        sums.add(rtt)
