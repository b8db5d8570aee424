"""Scrape store, windowed rates, aggregation, and CSV export."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import probes, topology
from fedsim.metrics import (
    _EPS,
    BUSY_COUNTER,
    CPU_RATE,
    OUTSTANDING_GAUGE,
    Scrapes,
    cluster_rates,
    cpu_rate,
    export_csv,
    left_sum,
)
from tests.conftest import MINI_DOC, QUOTED, make_topology, run_scenario_text


def store_of(times, *columns, labels=None):
    """A store with one busy column per replica, all on ``times``."""
    labels = labels or [("a", "s", str(r)) for r in range(len(columns))]
    return Scrapes(labels, [], list(times), [list(row) for row in zip(*columns)])


def column(store, rows, label):
    r = store.labels.index(label)
    return [row[r] for row in rows]


class TestScrapeGrid:
    def test_mini_run_grid_and_monotone_counter(self):
        result, _ = run_scenario_text(MINI_DOC)
        store = result.metrics
        assert store.labels == [("solo", "be", "0"), ("solo", "fe", "0")]  # one fe and one be replica
        assert store.times == [5.0 * k for k in range(24)]
        for label in store.labels:
            values = column(store, store.busy, label)
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[0] == 0.0
            assert values[-1] > 0.0

    def test_outstanding_gauge_sees_queue(self):
        # one replica with 1 vCPU serving 50 ms demands at 40/s: queue builds
        doc = MINI_DOC.replace("rate: 2.0", "rate: 40.0").replace(
            "base_ms: 30.0", "base_ms: 50.0"
        )
        result, _ = run_scenario_text(doc, until=60.0)
        store = result.metrics
        assert max(column(store, store.outstanding, ("solo", "be", "0"))) > 1.0

    def test_scrapes_sit_on_exact_multiples_of_the_interval(self):
        # summing 0.1 ten times gives 0.9999999999999999 < 1.0, an 11th scrape
        doc = "clusters: [{name: only}]\nduration_s: 1.0\nscrape_interval_s: 0.1\n"
        result, _ = run_scenario_text(doc)
        assert result.metrics.times == [k * 0.1 for k in range(10)]


class TestCpuRate:
    def test_handcrafted_rate(self):
        store = store_of([0.0, 5.0, 10.0], [0.0, 1.0, 3.0])
        assert cpu_rate(store, 5.0, 5.0) == [(5.0, [pytest.approx(0.2)]), (10.0, [pytest.approx(0.4)])]

    def test_window_spanning_multiple_scrapes(self):
        store = store_of([0.0, 5.0, 10.0], [0.0, 1.0, 3.0])
        assert cpu_rate(store, 10.0, 5.0) == [(10.0, [pytest.approx(0.3)])]

    def test_window_boundary_inclusive_under_epsilon(self):
        # t - window lands exactly on a scrape; that scrape anchors the rate
        store = store_of([0.0, 60.0, 120.0], [0.0, 30.0, 90.0])
        assert cpu_rate(store, 60.0, 60.0) == [(60.0, [pytest.approx(0.5)]), (120.0, [pytest.approx(1.0)])]

    def test_single_sample_gives_no_rows(self):
        assert cpu_rate(store_of([0.0], [0.0]), 60.0, 5.0) == []

    def test_window_longer_than_series_gives_no_rows(self):
        assert cpu_rate(store_of([0.0, 5.0], [0.0, 1.0]), 60.0, 5.0) == []

    def test_window_over_interval_that_overflows_gives_no_rows(self):
        assert cpu_rate(store_of([0.0, 1e-10], [0.0, 1.0]), 1e308, 1e-10) == []

    def test_window_below_epsilon_writes_header_only(self, tmp_path):
        result, _ = run_scenario_text(MINI_DOC + "rate_window_s: 1.0e-10\n")
        assert cpu_rate(result.metrics, 1e-10, 5.0) == []
        with open(export_csv(result, tmp_path)[CPU_RATE], newline="") as handle:
            assert list(csv.reader(handle)) == [["time_s", "cluster", "service", "replica", "value"]]


def anchored_rates(times, busy, window_s):
    """Brute-force rates: scrape k is anchored on the last scrape at or before
    ``t_k - window + eps``, and has no rate without an earlier anchor."""
    rows = []
    for k, t in enumerate(times):
        cutoff = t - window_s
        if cutoff < times[0] - _EPS:
            continue
        anchors = [j for j, s in enumerate(times) if s <= cutoff + _EPS]
        if not anchors or anchors[-1] >= k:
            continue
        j = anchors[-1]
        rows.append((t, [(now - then) / (t - times[j]) for now, then in zip(busy[k], busy[j])]))
    return rows


@st.composite
def grids_and_windows(draw):
    interval = draw(
        st.one_of(
            st.sampled_from([0.0625, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0, 7.0]),
            st.floats(1e-3, 100.0, allow_nan=False, allow_infinity=False),
        )
    )
    lag = draw(st.integers(0, 25))
    window = draw(
        st.one_of(
            st.just(lag * interval),  # an exact multiple of the interval
            # beside m * interval + eps, where both rules are exact only to
            # rounding: (0.0625, 1.000000001) has lag 16 and a rate at t = 1.0,
            # but 1.0 - 1.000000001 + eps rounds below 0
            st.sampled_from([-2, -0.5, 0.5, 2]).map(lambda d: max(1e-10, lag * interval + d * _EPS)),
            st.floats(1e-10, 30 * interval, allow_nan=False, allow_infinity=False),
            st.just(1e-10),
        ).filter(lambda w: w > 0)
    )
    return interval, window, draw(st.integers(1, 60))


@settings(max_examples=400, deadline=None)
@given(case=grids_and_windows())
def test_lag_rule_picks_the_brute_force_anchor(case):
    interval, window, count = case
    times = [k * interval for k in range(count)]
    busy = [[float(k * k), 0.5 * k] for k in range(count)]
    store = Scrapes([("a", "s", "0"), ("a", "s", "1")], [], times, busy)
    assert cpu_rate(store, window, interval) == anchored_rates(times, busy, window)


class TestAggregate:
    def test_sums_replicas_within_cluster(self):
        labels = [("a", "s", "0"), ("a", "s", "1"), ("b", "s", "0")]
        store = store_of([0.0, 5.0, 10.0], [0.0] * 3, [0.0] * 3, [0.0] * 3, labels=labels)
        rates = [(5.0, [0.1, 0.3, 1.0]), (10.0, [0.2, 0.4, 1.0])]
        agg = cluster_rates(store, rates)
        assert list(agg) == [("a", "s"), ("b", "s")]
        assert agg[("a", "s")] == [(5.0, pytest.approx(0.4)), (10.0, pytest.approx(0.6))]
        assert agg[("b", "s")] == [(5.0, 1.0), (10.0, 1.0)]


class TestExport:
    def read(self, path):
        with open(path, newline="") as handle:
            return list(csv.reader(handle))

    def test_artifact_set_complete_and_sorted(self, tmp_path):
        result, _ = run_scenario_text(MINI_DOC)
        paths = export_csv(result, tmp_path)
        assert set(paths) == {BUSY_COUNTER, OUTSTANDING_GAUGE, CPU_RATE, "probe_rtt", "traces"}
        busy_rows = self.read(paths[BUSY_COUNTER])
        assert busy_rows[0] == ["time_s", "cluster", "service", "replica", "value"]
        body = busy_rows[1:]
        assert len(body) == 24 * 2
        keys = [(float(r[0]), r[1], r[2], int(r[3])) for r in body]
        assert keys == sorted(keys)
        # floats round-trip through repr
        for row in body:
            assert float(row[4]) >= 0.0

    def test_rows_sorted_by_cluster_name_not_declaration_order(self, tmp_path):
        # c2 is declared before c10, services backend-first by name, and c10
        # has replicas 0..10: rows go by (time, cluster, service, replica)
        doc = """
clusters:
  - {name: c2, nodes: 1, vcpus_per_node: 4}
  - {name: c10, nodes: 2, vcpus_per_node: 4}
services:
  - {name: web, stage: frontend, replicas_per_cluster: {c2: 2}, demand: {base_ms: 5.0, per_kb_ms: 0.0}}
  - {name: api, stage: backend, replicas_per_cluster: {c2: 1, c10: 11}, demand: {base_ms: 20.0, per_kb_ms: 0.0}}
workload:
  arrival: constant
  payload: {dist: constant, bytes: 1000}
  phases:
    - {rate: 5.0, duration_s: 20}
duration_s: 20
rate_window_s: 10.0
"""
        result, _ = run_scenario_text(doc)
        labels = [["c10", "api", str(r)] for r in range(11)]
        labels += [["c2", "api", "0"], ["c2", "web", "0"], ["c2", "web", "1"]]
        grid = [0.0, 5.0, 10.0, 15.0]
        paths = export_csv(result, tmp_path)
        for name, times in ((BUSY_COUNTER, grid), (OUTSTANDING_GAUGE, grid), (CPU_RATE, grid[2:])):
            body = self.read(paths[name])[1:]
            assert [row[:4] for row in body] == [[repr(t), *label] for t in times for label in labels], name
        rates = self.read(paths[CPU_RATE])[1:]
        assert sum(float(row[4]) for row in rates if row[1] == "c10") > 0.0

    def test_rate_file_covers_full_windows_only(self, tmp_path):
        # 120 s run, 60 s window: rates defined at 60..115
        result, _ = run_scenario_text(MINI_DOC)
        paths = export_csv(result, tmp_path)
        rows = self.read(paths[CPU_RATE])[1:]
        times = sorted({float(r[0]) for r in rows})
        assert times == [60.0 + 5.0 * k for k in range(12)]

    def test_empty_run_writes_headers_only(self, tmp_path):
        doc = "clusters: [{name: only}]\nduration_s: 4\n"
        result, _ = run_scenario_text(doc)
        paths = export_csv(result, tmp_path)
        for name, path in paths.items():
            rows = self.read(path)
            assert len(rows) == 1, name

    def test_traces_file_reference_row(self, tmp_path):
        result, _ = run_scenario_text(MINI_DOC)
        paths = export_csv(result, tmp_path)
        rows = self.read(paths["traces"])
        header = rows[0]
        assert header[:4] == ["id", "outcome", "payload_bytes", "reduced_bytes"]
        assert len(header) == 17
        first = dict(zip(header, rows[1]))
        assert first["id"] == "0"
        assert first["outcome"] == "completed"
        assert first["fe_cluster"] == "solo"
        assert first["be_cluster"] == "solo"
        assert float(first["response_out"]) > float(first["ingress_in"])

    def test_in_flight_trace_has_blank_stamps(self, tmp_path):
        # cut the run mid-request: service events past the horizon never ran
        doc = MINI_DOC.replace("rate: 2.0", "rate: 1.0")
        result, _ = run_scenario_text(doc, until=10.012)
        open_traces = [t for t in result.traces if t.outcome is None]
        assert open_traces
        paths = export_csv(result, tmp_path)
        rows = self.read(paths["traces"])
        header, body = rows[0], rows[1:]
        by_id = {row[0]: dict(zip(header, row)) for row in body}
        probe = by_id[str(open_traces[0].id)]
        assert probe["outcome"] == "in_flight"
        assert probe["response_out"] == ""

    def test_byte_identical_across_runs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        result_a, _ = run_scenario_text(MINI_DOC)
        result_b, _ = run_scenario_text(MINI_DOC)
        paths_a = export_csv(result_a, a_dir)
        paths_b = export_csv(result_b, b_dir)
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes(), name


def reference_export(engine, out):
    """traces.csv, probe_rtt.csv and the three scrape CSVs written cell by
    cell with a plain csv.writer, floats with repr."""
    out.mkdir()
    names = engine.cluster_names

    def endpoint(replica):
        return ["", "", ""] if replica is None else [replica.service, names[replica.cluster], replica.replica]

    def stamp(value):
        return "" if value is None else repr(value)

    with (out / "traces.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            "id outcome payload_bytes reduced_bytes fe_service fe_cluster fe_replica be_service be_cluster "
            "be_replica ingress_in fe_start fe_end be_dispatch be_start be_end response_out".split()
        )
        for t in engine.traces:
            stamps = (t.ingress_in, t.fe_start, t.fe_end, t.be_dispatch, t.be_start, t.be_end, t.response_out)
            writer.writerow(
                [t.id, t.outcome or "in_flight", t.payload_bytes, repr(t.reduced_bytes)]
                + endpoint(t.frontend)
                + endpoint(t.backend)
                + [stamp(value) for value in stamps]
            )
    with (out / "probe_rtt.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "dst", "sent_at_s", "rtt_ms", "lost"])
        for src, dst, sent_at, rtt_ms in engine.probes:
            writer.writerow([names[src], names[dst], repr(sent_at), stamp(rtt_ms), str(rtt_ms is None).lower()])
    store = engine.metrics
    for name, rows in (
        (BUSY_COUNTER, zip(store.times, store.busy)),
        (OUTSTANDING_GAUGE, zip(store.times, store.outstanding)),
        (CPU_RATE, cpu_rate(store, engine.spec.rate_window_s, engine.scrape_interval_s)),
    ):
        with (out / f"{name}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_s", "cluster", "service", "replica", "value"])
            for t, row in rows:
                for label, value in zip(store.labels, row):
                    writer.writerow([repr(t), *label, repr(value)])


def test_quoted_names_and_every_outcome_match_a_plain_csv_writer(tmp_path):
    engine = topology.build_runtime(make_topology(QUOTED))
    probes.run_ping(engine, interval_s=0.5, duration_s=25.0)
    assert {trace.outcome for trace in engine.traces} == {"completed", "lost", "timed_out", None}
    assert {rtt_ms is None for *_, rtt_ms in engine.probes} == {True, False}

    export_csv(engine, tmp_path / "export")
    reference_export(engine, tmp_path / "reference")
    for name in ("traces.csv", "probe_rtt.csv", *(f"{n}.csv" for n in (BUSY_COUNTER, OUTSTANDING_GAUGE, CPU_RATE))):
        exported = (tmp_path / "export" / name).read_bytes()
        assert exported == (tmp_path / "reference" / name).read_bytes(), name
        assert b'"edge, ""west""",' in exported and b", dc1," in exported and b'"dc ""2"""' in exported
        if name != "probe_rtt.csv":
            assert b'"fe, ""front""",' in exported and b", be," in exported


def test_equal_send_times_keep_their_own_repr(tmp_path):
    # equal but differently written send times, alternating object by object
    engine = topology.build_runtime(make_topology(QUOTED))
    sent = [0.0, -0.0, -0.0, 0.0, 1, 1.0, 1.0, 1, 2.5, 2.5]
    engine.probes = [(k % 3, (k + 1) % 3, t, None if k % 4 else 1.5) for k, t in enumerate(sent)]
    export_csv(engine, tmp_path / "export")
    reference_export(engine, tmp_path / "reference")
    exported = (tmp_path / "export" / "probe_rtt.csv").read_bytes()
    assert exported == (tmp_path / "reference" / "probe_rtt.csv").read_bytes()
    assert [row.split(b",")[-3] for row in exported.splitlines()[1:]] == [repr(t).encode() for t in sent]


def test_left_sum_rounds_each_addition_on_every_python():
    # sum() gives 0.0 here up to 3.11 and 2.0 from 3.12 (compensated floats)
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert repr(left_sum([-0.0])) == "0.0"
    store = store_of([0.0], *[[0.0]] * 4)  # four replicas of one (cluster, service)
    assert cluster_rates(store, [(1.0, [1.0, 1e100, 1.0, -1e100])]) == {("a", "s"): [(1.0, 0.0)]}
