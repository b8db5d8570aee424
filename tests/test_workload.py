"""Arrival processes, payload distributions, and the demand model."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import workload
from fedsim.rng import stream
from fedsim.workload import (
    Phase,
    PayloadSampler,
    PayloadSpec,
    StageProfile,
    WorkloadSpec,
    next_arrival,
    phase_windows,
    service_demand,
)
from tests.conftest import make_topology, run_scenario_text, two_cluster_doc


def drain(spec, rng=None, limit=1_000_000):
    rng = rng or random.Random(0)
    times = []
    now = None
    while len(times) < limit:
        now = next_arrival(spec, now, rng)
        if now is None:
            break
        times.append(now)
    return times


class TestPhaseWindows:
    def test_consecutive_from_zero(self):
        spec = WorkloadSpec(phases=(Phase(10.0, 600.0), Phase(20.0, 600.0)))
        assert phase_windows(spec) == [(0.0, 600.0, 10.0), (600.0, 1200.0, 20.0)]

    def test_empty_plan(self):
        assert phase_windows(WorkloadSpec()) == []


class TestConstantArrivals:
    def test_counts_exact_per_phase(self):
        spec = WorkloadSpec(phases=(Phase(10.0, 600.0), Phase(20.0, 600.0)))
        times = drain(spec)
        assert len(times) == 18_000
        assert sum(1 for t in times if t < 600.0) == 6_000
        assert sum(1 for t in times if t >= 600.0) == 12_000

    def test_first_arrival_at_phase_start(self):
        spec = WorkloadSpec(phases=(Phase(5.0, 10.0),))
        assert next_arrival(spec, None, random.Random(0)) == 0.0

    def test_grid_is_exact(self):
        # k/rate reconstruction keeps every arrival on the grid, no drift
        spec = WorkloadSpec(phases=(Phase(10.0, 600.0),))
        times = drain(spec)
        assert times == [k / 10.0 for k in range(6_000)]

    def test_phase_boundary_spills_to_next_start(self):
        spec = WorkloadSpec(phases=(Phase(10.0, 600.0), Phase(20.0, 600.0)))
        times = drain(spec)
        before = [t for t in times if t < 600.0]
        after = [t for t in times if t >= 600.0]
        assert before[-1] == 599.9
        assert after[0] == 600.0
        assert after[1] == 600.05

    def test_zero_rate_phase_skipped(self):
        spec = WorkloadSpec(
            phases=(Phase(2.0, 10.0), Phase(0.0, 30.0), Phase(4.0, 10.0))
        )
        times = drain(spec)
        assert not [t for t in times if 10.0 <= t < 40.0]
        assert sum(1 for t in times if t < 10.0) == 20
        assert sum(1 for t in times if t >= 40.0) == 40
        # gap phase spills straight to the start of the next active one
        assert min(t for t in times if t >= 10.0) == 40.0

    def test_all_zero_rate_yields_nothing(self):
        spec = WorkloadSpec(phases=(Phase(0.0, 100.0),))
        assert next_arrival(spec, None, random.Random(0)) is None

    def test_exhausted_plan_returns_none(self):
        spec = WorkloadSpec(phases=(Phase(10.0, 1.0),))
        times = drain(spec)
        assert len(times) == 10
        assert next_arrival(spec, times[-1], random.Random(0)) is None

    def test_rng_not_consumed(self):
        spec = WorkloadSpec(phases=(Phase(10.0, 10.0),))
        rng = random.Random(42)
        state = rng.getstate()
        drain(spec, rng)
        assert rng.getstate() == state


class TestPoissonArrivals:
    def spec(self, rate=20.0, duration=600.0):
        return WorkloadSpec(phases=(Phase(rate, duration),), arrival="poisson")

    def test_strictly_increasing_inside_window(self):
        times = drain(self.spec(), stream(0, "arrival"))
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(0.0 < t < 600.0 for t in times)

    def test_count_near_rate_times_duration(self):
        # mean 12000, sd ~110; a 4-sigma band is essentially always green
        times = drain(self.spec(), stream(0, "arrival"))
        assert abs(len(times) - 12_000) < 440

    def test_interarrival_moments(self):
        times = drain(self.spec(rate=50.0, duration=2000.0), stream(0, "arrival"))
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert statistics.fmean(gaps) == pytest.approx(1 / 50.0, rel=0.02)
        # exponential: sd equals the mean
        assert statistics.stdev(gaps) == pytest.approx(1 / 50.0, rel=0.05)

    def test_memoryless_restart_at_phase_boundary(self):
        # the overshoot draw is discarded, so arrivals after the boundary
        # match a fresh process anchored there and consume the same stream
        two = WorkloadSpec(
            phases=(Phase(5.0, 100.0), Phase(5.0, 100.0)), arrival="poisson"
        )
        flat = WorkloadSpec(phases=(Phase(5.0, 200.0),), arrival="poisson")
        assert drain(two, random.Random(9)) != drain(flat, random.Random(9))

    def test_idle_phase_produces_nothing(self):
        spec = WorkloadSpec(
            phases=(Phase(0.0, 50.0), Phase(10.0, 50.0)), arrival="poisson"
        )
        times = drain(spec, random.Random(1))
        assert all(50.0 < t < 100.0 for t in times)

    def test_deterministic_given_stream(self):
        a = drain(self.spec(), stream(7, "arrival"))
        b = drain(self.spec(), stream(7, "arrival"))
        assert a == b


class TestPayloads:
    def test_constant(self):
        spec = PayloadSpec(dist="constant", bytes=300_000)
        assert PayloadSampler(spec, random.Random(0)).sample() == 300_000

    def test_lognormal_moments(self):
        mu, sigma = math.log(250_000), 0.35
        spec = PayloadSpec(dist="lognormal", mu=mu, sigma=sigma)
        sampler = PayloadSampler(spec, stream(0, "payload"))
        draws = [sampler.sample() for _ in range(100_000)]
        expected_mean = math.exp(mu + sigma**2 / 2)
        assert statistics.fmean(draws) == pytest.approx(expected_mean, rel=0.01)
        log_draws = [math.log(d) for d in draws]
        assert statistics.fmean(log_draws) == pytest.approx(mu, rel=0.01)
        assert statistics.stdev(log_draws) == pytest.approx(sigma, rel=0.02)
        assert all(d >= 1 for d in draws)

    def test_lognormal_floor_at_one_byte(self):
        spec = PayloadSpec(dist="lognormal", mu=-10.0, sigma=0.1)
        sampler = PayloadSampler(spec, random.Random(0))
        assert all(sampler.sample() == 1 for _ in range(100))

    def test_empirical_uniform_hits_all_values(self):
        values = (1000, 2000, 4000)
        spec = PayloadSpec(dist="empirical", values=values, mode="uniform")
        sampler = PayloadSampler(spec, stream(0, "payload"))
        draws = [sampler.sample() for _ in range(6_000)]
        assert set(draws) == set(values)
        for v in values:
            assert draws.count(v) == pytest.approx(2_000, abs=200)

    def test_empirical_cycle_preserves_order(self):
        values = (10, 20, 30)
        sampler = PayloadSampler(
            PayloadSpec(dist="empirical", values=values, mode="cycle"),
            random.Random(0),
        )
        assert [sampler.sample() for _ in range(7)] == [10, 20, 30, 10, 20, 30, 10]

    def test_cycle_consumes_no_randomness(self):
        rng = random.Random(3)
        state = rng.getstate()
        sampler = PayloadSampler(
            PayloadSpec(dist="empirical", values=(5, 6), mode="cycle"), rng
        )
        for _ in range(4):
            sampler.sample()
        assert rng.getstate() == state


class TestServiceDemand:
    def test_frontend_reference_point(self):
        # 20 ms base + 0.01 ms/kB over 300 kB = 23 ms
        profile = StageProfile("frontend", 0.020, 0.01e-6, 1 / 3)
        assert service_demand(profile, 300_000) == pytest.approx(0.023, abs=1e-12)

    def test_backend_reference_point(self):
        # backend input is the reduced payload: 100 kB at 0.02 ms/kB on 80 ms
        profile = StageProfile("backend", 0.080, 0.02e-6)
        assert service_demand(profile, 100_000) == pytest.approx(0.082, abs=1e-12)

    def test_zero_input_gives_base(self):
        profile = StageProfile("frontend", 0.020, 0.01e-6)
        assert service_demand(profile, 0) == 0.020

    @settings(max_examples=200, deadline=None)
    @given(payload=st.integers(1, 5_000_000))
    def test_backend_demand_dominates_frontend(self, payload):
        # with the default profiles the backend stage always costs more,
        # despite seeing only a third of the bytes
        fe = StageProfile("frontend", 0.020, 0.01e-6, 1 / 3)
        be = StageProfile("backend", 0.080, 0.02e-6)
        assert service_demand(be, payload / 3) > service_demand(fe, payload)


def test_open_loop_arrivals_ignore_service_times():
    # inflating backend demand 100x must not move a single arrival stamp
    doc_fast = two_cluster_doc(phase_s=20, duration_s=60)
    doc_slow = doc_fast.replace("base_ms: 20.0", "base_ms: 2000.0")
    fast, _ = run_scenario_text(doc_fast)
    slow, _ = run_scenario_text(doc_slow)
    fast_arrivals = sorted(t.ingress_in for t in fast.traces)
    slow_arrivals = sorted(t.ingress_in for t in slow.traces)
    assert fast_arrivals == slow_arrivals
    assert len(fast_arrivals) == 100
