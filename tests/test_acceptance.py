"""Acceptance gate: the bundled experiments reproduce the reference results.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS line. Run with ``pytest -v tests/test_acceptance.py`` to get the
per-criterion verdict lines.
"""

import math
from collections import Counter
from dataclasses import replace
from statistics import fmean, pvariance

import pytest

import fedsim
from fedsim import metrics, netem, probes, topology
from fedsim.netem import ImpairmentRule, JitterSpec, LossSpec

EPS = 1e-9
HOT = {(0, 2), (1, 2), (2, 0), (2, 1)}
DCS = ("C3", "C4")
EDGES = ("C1", "C2")


def run_bundled(name, until=None):
    spec = topology.load_scenario(fedsim.bundled_scenario(name))
    engine = topology.build_runtime(topology.validate(spec))
    return engine.run(until=spec.duration_s if until is None else until), engine


def cluster_rates(result, window_s=60.0):
    rates = metrics.cpu_rate(result.metrics, window_s, result.scrape_interval_s)
    return metrics.cluster_rates(result.metrics, rates)


def window_mean(series, lo, hi):
    values = [v for t, v in series if lo <= t <= hi]
    assert values, (lo, hi)
    return fmean(values)


def completions_by_dc(result):
    counts = Counter()
    for trace in result.traces:
        if trace.outcome == "completed":
            counts[result.cluster_names[trace.backend.cluster]] += 1
    return counts


@pytest.fixture(scope="module")
def poc_result():
    return run_bundled("poc")[0]


@pytest.fixture(scope="module")
def poc_rates(poc_result):
    return cluster_rates(poc_result)


@pytest.fixture(scope="module")
def blackout_result():
    return run_bundled("blackout")[0]


@pytest.fixture(scope="module")
def ping_stats():
    spec = topology.load_scenario(fedsim.bundled_scenario("ping"))
    engine = topology.build_runtime(topology.validate(spec))
    samples = probes.run_ping(engine)
    return probes.rtt_stats(probes.group_rtts(samples, 4))


@pytest.fixture(scope="module")
def lc_completions():
    spec = topology.load_scenario(fedsim.bundled_scenario("poc_lc"))
    n = len(spec.clusters)
    flat_links = replace(
        spec.links, one_way_delay_ms=tuple(tuple(0.0 for _ in range(n)) for _ in range(n))
    )

    def run(variant):
        engine = topology.build_runtime(topology.validate(variant))
        return completions_by_dc(engine.run(until=variant.duration_s))

    return run(spec), run(replace(spec, links=flat_links))


def test_criterion_1_rtt_matrix(ping_stats):
    # 600 s at 0.2 s interval: 3000 probes per ordered pair, exact means,
    # zero variance, zero loss
    for i in range(4):
        for j in range(4):
            if i == j:
                expected = 0.0
            elif (i, j) in HOT:
                expected = 51.46
            else:
                expected = 1.46
            assert ping_stats.count[i][j] == 3000, (i, j)
            assert abs(ping_stats.mean_ms[i][j] - expected) <= EPS, (i, j)
            assert ping_stats.variance_ms2[i][j] <= EPS, (i, j)
            assert ping_stats.loss_fraction[i][j] == 0.0, (i, j)
    print("ACCEPTANCE 1 (rtt matrix): PASS")


def test_criterion_2_backend_rate_doubles(poc_rates):
    # per-DC backend usage: 0.41 cores in phase 1, 0.82 in phase 2, 5% rel
    for dc in DCS:
        series = poc_rates[(dc, "backend")]
        phase1 = window_mean(series, 120.0, 600.0)
        phase2 = window_mean(series, 720.0, 1200.0)
        assert phase1 == pytest.approx(0.41, rel=0.05), dc
        assert phase2 == pytest.approx(0.82, rel=0.05), dc
        assert phase2 / phase1 == pytest.approx(2.0, rel=0.05), dc
    print("ACCEPTANCE 2 (backend rate doubles): PASS")


def test_criterion_3_frontend_cheaper_than_backend(poc_rates):
    for lo, hi in ((120.0, 600.0), (720.0, 1200.0)):
        fe_max = max(window_mean(poc_rates[(c, "frontend")], lo, hi) for c in EDGES)
        be_min = min(window_mean(poc_rates[(c, "backend")], lo, hi) for c in DCS)
        assert fe_max < be_min, (lo, hi)
    print("ACCEPTANCE 3 (frontend below backend): PASS")


def test_criterion_4_round_robin_balances_dcs(poc_result):
    assert poc_result.arrivals == 18_000
    assert poc_result.completed == 18_000
    assert poc_result.lost == 0 and poc_result.timed_out == 0
    counts = completions_by_dc(poc_result)
    assert abs(counts["C3"] - counts["C4"]) <= 1
    assert counts["C3"] + counts["C4"] == 18_000
    print("ACCEPTANCE 4 (round robin balance): PASS")


def test_criterion_5_least_connection_prefers_near_dc(lc_completions):
    delayed, flat = lc_completions
    # with 25 ms toward C3, least-connection shifts load to the near DC
    total = delayed["C3"] + delayed["C4"]
    assert delayed["C4"] > delayed["C3"]
    assert delayed["C4"] - delayed["C3"] > 2 * math.sqrt(total)
    # with the delay removed the same policy balances within 5%
    flat_total = flat["C3"] + flat["C4"]
    assert abs(flat["C4"] - flat["C3"]) <= 0.05 * flat_total
    print("ACCEPTANCE 5 (least connection drift): PASS")


def test_criterion_6_blackout_shifts_and_recovers(blackout_result):
    rates = cluster_rates(blackout_result)
    c3, c4 = rates[("C3", "backend")], rates[("C4", "backend")]
    # every replica is scraped on the full 5 s grid
    store = blackout_result.metrics
    assert len(store.times) == 240
    assert all(len(row) == len(store.labels) for row in store.busy)
    # C3 goes silent inside both outage windows
    for lo, hi in ((360.0, 595.0), (960.0, 1195.0)):
        assert max(v for t, v in c3 if lo <= t <= hi) < 0.01, (lo, hi)
    # C4 absorbs the full load: x2 versus the pre-outage window, 10% rel
    pre = window_mean(c4, 120.0, 300.0)
    during1 = window_mean(c4, 360.0, 595.0)
    during2 = window_mean(c4, 960.0, 1195.0)
    recovered = window_mean(c4, 720.0, 895.0)
    assert during1 / pre == pytest.approx(2.0, rel=0.10)
    assert during2 / pre == pytest.approx(2.0, rel=0.10)
    assert recovered / pre == pytest.approx(1.0, rel=0.10)
    # conservation under faults: nothing unaccounted
    assert blackout_result.arrivals == 24_000
    assert blackout_result.completed == 23_998
    assert blackout_result.lost == 0
    assert blackout_result.timed_out == 0
    assert blackout_result.in_flight == 2
    print("ACCEPTANCE 6 (blackout shift and recovery): PASS")


def test_criterion_7_byte_identical_reruns(tmp_path):
    dirs = []
    for tag in ("a", "b"):
        result, _ = run_bundled("poc", until=120.0)
        out = tmp_path / f"poc-{tag}"
        metrics.export_csv(result, out)
        dirs.append(out)
    for name in (
        "replica_busy_vcpu_seconds_total.csv",
        "replica_outstanding_requests.csv",
        "cpu_rate.csv",
        "probe_rtt.csv",
        "traces.csv",
    ):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    ping_dirs = []
    for tag in ("a", "b"):
        spec = topology.load_scenario(fedsim.bundled_scenario("ping"))
        engine = topology.build_runtime(topology.validate(spec))
        probes.run_ping(engine, duration_s=30.0)
        out = tmp_path / f"ping-{tag}"
        metrics.export_csv(engine, out)
        ping_dirs.append(out)
    assert (ping_dirs[0] / "probe_rtt.csv").read_bytes() == (ping_dirs[1] / "probe_rtt.csv").read_bytes()
    print("ACCEPTANCE 7 (byte-identical reruns): PASS")


def test_criterion_8_windowed_rates_track_offered_load(poc_result, poc_rates):
    # every full-window sample sits within one request's demand of the
    # offered per-cluster load
    be_tol = 0.082 / 60 + EPS
    fe_tol = 2 * 0.023 / 60 + EPS
    for dc in DCS:
        for t, v in poc_rates[(dc, "backend")]:
            if 120.0 <= t <= 600.0:
                assert abs(v - 0.41) <= be_tol, (dc, t, v)
            elif 720.0 <= t <= 1200.0:
                assert abs(v - 0.82) <= be_tol, (dc, t, v)
    for edge in EDGES:
        for t, v in poc_rates[(edge, "frontend")]:
            if 120.0 <= t <= 600.0:
                assert abs(v - 0.115) <= fe_tol, (edge, t, v)
            elif 720.0 <= t <= 1200.0:
                assert abs(v - 0.23) <= fe_tol, (edge, t, v)

    # Little's law on the backend leg over steady phase 1: time-averaged
    # occupancy equals arrival rate times mean sojourn, 10% rel
    lo, hi = 120.0, 600.0
    spans = [
        (t.be_dispatch, t.be_end)
        for t in poc_result.traces
        if t.be_dispatch is not None and t.be_end is not None
    ]
    entered = [(s, e) for s, e in spans if lo <= s < hi]
    lam = len(entered) / (hi - lo)
    sojourn = fmean(e - s for s, e in entered)
    occupancy = sum(max(0.0, min(e, hi) - max(s, lo)) for s, e in spans) / (hi - lo)
    assert occupancy == pytest.approx(lam * sojourn, rel=0.10)
    print("ACCEPTANCE 8 (rates track offered load): PASS")


def test_criterion_9_impairment_sampler_statistics():
    n = 100_000
    # uniform jitter: mean equals the configured delay, variance scale^2/3
    rule = ImpairmentRule(delay_ms=20.0, jitter=JitterSpec(dist="uniform", scale_ms=6.0))
    link = netem.Link(rule, (11, 0, 1))
    draws = [netem.sample_delay(rule, link) for _ in range(n)]
    assert fmean(draws) == pytest.approx(20.0, rel=0.01)
    assert pvariance(draws) == pytest.approx(36.0 / 3, rel=0.03)

    # normal jitter: variance scale^2
    rule = ImpairmentRule(delay_ms=20.0, jitter=JitterSpec(dist="normal", scale_ms=2.0))
    link = netem.Link(rule, (11, 1, 0))
    draws = [netem.sample_delay(rule, link) for _ in range(n)]
    assert fmean(draws) == pytest.approx(20.0, rel=0.01)
    assert pvariance(draws) == pytest.approx(4.0, rel=0.05)

    # independent loss: binomial count within 4 sigma of n * p
    rule = ImpairmentRule(loss=LossSpec(p=0.2))
    link = netem.Link(rule, (11, 0, 1))
    losses = sum(netem.sample_loss(rule, link) for _ in range(n))
    sigma = math.sqrt(n * 0.2 * 0.8)
    assert abs(losses - n * 0.2) <= 4 * sigma

    # correlated loss: the legacy composite-uniform scheme thins the
    # marginal below p and clusters consecutive losses
    rule = ImpairmentRule(loss=LossSpec(p=0.2, correlation=0.25))
    link = netem.Link(rule, (11, 1, 0))
    flags = [netem.sample_loss(rule, link) for _ in range(n)]
    marginal = sum(flags) / n
    assert 0.09 <= marginal <= 0.112
    after_loss = [b for a, b in zip(flags, flags[1:]) if a]
    clustering = (sum(after_loss) / len(after_loss)) / marginal
    assert clustering > 1.5
    print("ACCEPTANCE 9 (impairment sampler statistics): PASS")
