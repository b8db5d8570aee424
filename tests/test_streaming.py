"""Rows streamed during a run are the rows an in-memory export writes.

``fedsim run`` and ``fedsim ping`` hand finished requests and received
probes to their CSV writers while the run goes. Each test here compares
that output, byte for byte, with ``metrics.export_csv`` of an engine that
has no writers and so holds every row until the end. ``FLUSH_BATCH`` is
patched to 1, so rows go out at every arrival and every receipt: the small
scenarios never reach a real batch, and a row written one event too early
would show.
"""

import gc
import os
import tracemalloc

import pytest
import yaml

import fedsim
from fedsim import cli, engine, metrics, probes, topology, workload
from tests.conftest import MINI_DOC, OVERLOAD, make_topology
from tests.test_golden import CSVS, OVERLOAD_RUNS, TIE_PING

BLACKOUT = fedsim.bundled_scenario("blackout").read_text()

RUNS = {
    "overload": (OVERLOAD, None),
    "overload_cut": (OVERLOAD, 25.0),
    "overload_fine_scrape": (OVERLOAD_RUNS["fine_scrape"][0], None),
    "poc": (fedsim.bundled_scenario("poc").read_text(), None),
    # the first blackout of C3 lasts from 300 to 600 s
    "blackout_cut": (BLACKOUT, 320.0),
}

PINGS = {
    "tie": (TIE_PING, 0.5, None),
    "blackout": (BLACKOUT, 0.1, 310.0),
}


@pytest.fixture(autouse=True)
def flush_every_row(monkeypatch):
    monkeypatch.setattr(engine, "FLUSH_BATCH", 1)


def _in_memory(text, out, run):
    state = topology.build_runtime(make_topology(text))
    run(state)
    assert state.streams is None
    metrics.export_csv(state, out)
    return state


def _files(out) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in CSVS}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_streamed_run_matches_the_in_memory_export(name, tmp_path, capsys):
    text, until = RUNS[name]
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text)
    options = [] if until is None else ["--until", repr(until)]
    assert cli.main(["run", str(scenario), "--out-dir", str(tmp_path / "cli"), *options]) == 0
    capsys.readouterr()
    whole = _in_memory(text, tmp_path / "api", lambda state: state.run(until or state.duration_s))
    assert _files(tmp_path / "cli") == _files(tmp_path / "api")
    results = yaml.safe_load((tmp_path / "cli" / "summary.yaml").read_text())["results"]
    assert (results["arrivals"], results["in_flight"]) == (whole.arrivals, whole.in_flight)


def test_overload_times_out_requests_during_backend_service():
    # the case that keeps a row with an outcome held: these requests get
    # their be_end after they time out, so their rows may not go out earlier
    whole = topology.build_runtime(make_topology(OVERLOAD))
    whole.run(whole.duration_s)
    late = [t for t in whole.traces if t.outcome == "timed_out" and t.be_end is not None]
    assert late and all(t.be_start < t.be_dispatch + whole.timeout_s <= t.be_end for t in late)


@pytest.mark.parametrize("name", sorted(PINGS))
def test_streamed_ping_matches_the_in_memory_export(name, tmp_path, capsys):
    text, interval, duration = PINGS[name]
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text)
    options = ["--interval", repr(interval)] + ([] if duration is None else ["--duration", repr(duration)])
    assert cli.main(["ping", str(scenario), "--out-dir", str(tmp_path / "cli"), *options]) == 0
    capsys.readouterr()

    def ping(state):
        probes.run_ping(state, interval_s=interval, duration_s=duration)

    whole = _in_memory(text, tmp_path / "api", ping)
    assert _files(tmp_path / "cli") == _files(tmp_path / "api")
    names = whole.cluster_names
    stats = probes.rtt_stats(probes.group_rtts(whole.probes, len(names)))
    matrix = yaml.safe_load((tmp_path / "cli" / "rtt_matrix.yaml").read_text())
    assert matrix["mean_rtt_ms"] == cli._matrix_doc(stats.mean_ms, names)
    assert matrix["variance_rtt_ms2"] == cli._matrix_doc(stats.variance_ms2, names)
    assert matrix["loss_fraction"] == cli._matrix_doc(stats.loss_fraction, names)


@pytest.mark.parametrize("fork", [True, False])
def test_a_streamed_ping_counts_its_probes_at_every_step(fork, tmp_path, monkeypatch):
    # the streams fold the RTT sums where they write the rows, in the writer
    # process if there is one, so the count comes from the samples handed on
    # one CPU keeps the rows in-process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2 if fork else 1)), raising=False)
    text = fedsim.bundled_scenario("ping").read_text()
    streamed, whole = (topology.build_runtime(make_topology(text)) for _ in range(2))
    metrics.stream_csv(streamed, tmp_path)
    assert (streamed.streams._pipe is not None) == fork
    n = len(whole.cluster_names)
    plan = probes.ProbePlan(tuple((i, j) for i in range(n) for j in range(n)), 0.2, probes.probe_count(40.0, 0.2))
    for state in (streamed, whole):
        state.probe_plans.append(plan)
        state.schedule(0.0, probes.PROBE_SEND, (0, 0))
    for step in range(1, 9):
        for state in (streamed, whole):
            state.run(5.0 * step)
        assert not streamed.probes  # every sample was handed on
        assert streamed.probes_received == whole.probes_received == len(whole.probes) > 0, step
    metrics.export_csv(streamed, tmp_path)
    assert streamed.probes_received == whole.probes_received == 40 * 5 * n * n
    assert probes.rtt_stats(streamed.rtt_sums) == probes.rtt_stats(probes.group_rtts(whole.probes, n))


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("opened_at", [0.0, 5.0], ids=["before", "mid-run"])
def test_a_run_stepped_over_several_calls_streams_the_files_of_one_call(opened_at, fork, tmp_path, monkeypatch):
    # every scrape hands its rows to the streams as it is recorded, whatever
    # the run call it falls in; streams opened after some scrapes start with
    # those; cuts fall on scrape instants, between them, and run nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2 if fork else 1)), raising=False)
    text = OVERLOAD_RUNS["fine_scrape"][0]
    stepped = topology.build_runtime(make_topology(text))
    stepped.run(opened_at)
    metrics.stream_csv(stepped, tmp_path / "stepped")
    assert (stepped.streams._pipe is not None) == fork
    for cut in (5.0, 5.0625, 5.1, 5.1, 12.5, 20.0):
        stepped.run(cut)
    stepped.run(stepped.duration_s)
    metrics.export_csv(stepped, tmp_path / "stepped")
    _in_memory(text, tmp_path / "whole", lambda state: state.run(state.duration_s))
    files = _files(tmp_path / "stepped")
    assert files == _files(tmp_path / "whole")
    assert all(len(files[name].splitlines()) > 1 for name in CSVS if name != "probe_rtt.csv")


def test_streamed_run_holds_a_batch_beyond_the_requests_in_flight(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "FLUSH_BATCH", 1024)
    state = topology.build_runtime(make_topology(fedsim.bundled_scenario("poc_lc").read_text()))
    metrics.stream_csv(state, tmp_path)
    most = 0
    for step in range(1, 13):
        state.run(10.0 * step)
        most = max(most, len(state.traces) - state.in_flight)
        assert len(state.traces) <= engine.FLUSH_BATCH + state.in_flight, state.clock
    assert most > 0  # rows are held between batches
    metrics.export_csv(state, tmp_path)
    rows = (tmp_path / "traces.csv").read_text().splitlines()[1:]
    assert [int(row.split(",", 1)[0]) for row in rows] == list(range(state.arrivals))


def test_one_request_in_backend_service_past_the_run_holds_every_later_row(tmp_path, monkeypatch):
    # the known limit of the reorder buffer: rows go out in id order, so the
    # rows behind one request still in backend service are held, beyond the
    # bound of test_streamed_run_holds_a_batch_beyond_the_requests_in_flight
    monkeypatch.setattr(engine, "FLUSH_BATCH", 1024)
    text = MINI_DOC.replace("base_ms: 30.0", "base_ms: 1.0")
    text = text.replace("{rate: 2.0, duration_s: 100}", "{rate: 200.0, duration_s: 10}")  # 2,000 requests
    state = topology.build_runtime(make_topology(text))
    demand, long = workload.service_demand, []

    def one_long_backend_demand(profile, input_bytes):
        if profile is state.backend.profile and not long:
            long.append(1)
            return 1e6  # seconds, far beyond the run
        return demand(profile, input_bytes)

    monkeypatch.setattr(workload, "service_demand", one_long_backend_demand)
    metrics.stream_csv(state, tmp_path)
    state.run(state.duration_s)
    assert len(state.traces) - state.in_flight > engine.FLUSH_BATCH
    metrics.export_csv(state, tmp_path)
    rows = (tmp_path / "traces.csv").read_text().splitlines()[1:]
    assert [int(row.split(",", 1)[0]) for row in rows] == list(range(state.arrivals))


def test_a_streamed_ping_holds_flat_memory_however_long_it_probes(tmp_path, monkeypatch, capsys):
    # each pair keeps running sums, not an RTT per probe, so 10 times the
    # probes (32,000 against 3,200) leave the traced peak where it was; what
    # still grows is the scrape grid, one time and two empty rows per 5 s
    monkeypatch.setattr(engine, "FLUSH_BATCH", 1024)
    scenario = str(fedsim.bundled_scenario("ping"))

    def peak(duration: str, out: str) -> int:
        gc.collect()  # so garbage of an earlier call does not move the peak
        tracemalloc.start()
        try:
            argv = ["ping", scenario, "--interval", "0.2", "--duration", duration, "--out-dir", str(tmp_path / out)]
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak("40", "warm-up")  # fills the lazy caches of the first call
    short, long = peak("40", "short"), peak("400", "long")
    assert long <= short + 64 * 1024, (short, long)
