"""CLI subcommands, exit codes, and exported artifacts."""

import concurrent.futures
import errno
import os
import resource
import subprocess
import sys
from pathlib import Path

import yaml
import pytest

import fedsim
from fedsim import cli, metrics, topology, workload
from fedsim.engine import EngineError, EngineState
from tests.conftest import DEEP, MINI_DOC, OVERLOAD, QUOTED, make_topology, two_cluster_doc


def _env() -> dict:
    """This environment with the tested ``src`` first on PYTHONPATH."""
    src = str(Path(fedsim.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fedsim(*argv: str, **options) -> subprocess.CompletedProcess:
    """``python -m fedsim.cli`` with ``argv`` in a process of its own."""
    command = [sys.executable, "-m", "fedsim.cli", *argv]
    return subprocess.run(command, env=_env(), capture_output=True, text=True, timeout=120, **options)


def _assert_same_artifacts(one: Path, two: Path) -> None:
    """The same file names in both, with the same bytes; ``summary.yaml`` is
    compared by its ``results``, as its ``meta`` holds the wall time."""
    names = sorted(path.name for path in one.iterdir())
    assert names == sorted(path.name for path in two.iterdir())
    for name in names:
        first, second = ((tree / name).read_bytes() for tree in (one, two))
        if name == "summary.yaml":
            first, second = (yaml.safe_load(doc)["results"] for doc in (first, second))
        assert first == second, (one, name)


SCRAPE_FILES = (metrics.BUSY_COUNTER, metrics.OUTSTANDING_GAUGE, metrics.CPU_RATE)


@pytest.fixture()
def mini_scenario(tmp_path):
    path = tmp_path / "mini.scenario"
    path.write_text(MINI_DOC)
    return str(path)


@pytest.fixture()
def two_cluster_scenario(tmp_path):
    path = tmp_path / "pair.scenario"
    path.write_text(two_cluster_doc(links="  base_delay_ms: 1.0"))
    return str(path)


class TestValidate:
    def test_valid_scenario(self, mini_scenario, capsys):
        assert cli.main(["validate", mini_scenario]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "absent.scenario")]) == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_nesting_too_deep_is_invalid_on_any_loader(self, tmp_path, monkeypatch, capsys, shallow_recursion):
        path = tmp_path / "deep.scenario"
        path.write_text("clusters: " + "[" * DEEP + "]" * DEEP + "\nduration_s: 5\n")
        for loader in {yaml.SafeLoader, topology._LOADER}:
            monkeypatch.setattr(topology, "_LOADER", loader)
            assert cli.main(["validate", str(path)]) == 1
            # PyYAML's pure-Python composer recurses once per level; libyaml's composes any depth
            if issubclass(loader, yaml.SafeLoader):
                assert capsys.readouterr().err == "error: document: nested too deeply\n"
            else:
                assert capsys.readouterr().err == "error: clusters[0]: expected a mapping\n"

    def test_a_duplicate_sparse_entry_is_one_error(self, tmp_path, capsys):
        path = tmp_path / "twice.scenario"
        path.write_text(two_cluster_doc(links="  loss: [{src: west, dst: east, p: 0.5}, {src: west, dst: east, p: 0.0}]"))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: links.loss[1]: duplicate entry for src 'west', dst 'east' (first at links.loss[0])\n"
        )

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text(MINI_DOC + "surprise: 1\n")
        assert cli.main(["validate", str(path)]) == 1
        assert "unknown field 'surprise'" in capsys.readouterr().err

    def test_all_violations_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text(
            "clusters: [{name: a, nodes: 0}, {name: a}]\nduration_s: 0\n"
        )
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "clusters[0].nodes < 1" in err
        assert "clusters[1].name: duplicate 'a'" in err
        assert "duration_s <= 0" in err

    @pytest.mark.parametrize(
        "doc, error",
        [
            (
                "clusters: [{name: only}]\nduration_s: 120\nscrape_interval_s: 1.0e-06\n",
                "error: scrape_interval_s: 1e-06 gives more than 100000 scrapes",
            ),
            (
                MINI_DOC.replace("{dist: constant, bytes: 1000}", "{dist: lognormal, mu: 800, sigma: 1}"),
                "error: workload.payload: mu + 10 * sigma = 810.0 exceeds",
            ),
            (
                MINI_DOC.replace("bytes: 1000", f"bytes: {10**400}"),
                "error: workload.payload.bytes: must be at most the largest float",
            ),
            (
                # 1e308 bytes at 1e7 ms per kB: a frontend demand that overflows to inf
                MINI_DOC.replace("bytes: 1000", f"bytes: {10**308}").replace(
                    "demand: {base_ms: 10.0, per_kb_ms: 0.0}", "demand: {base_ms: 10.0, per_kb_ms: 1.0e+7}"
                ),
                "error: services[0].demand: base_ms + per_kb_ms * 1e+305 kB, the largest payload, overflows a float",
            ),
        ],
        ids=["scrape_grid", "lognormal_overflow", "payload_overflow", "demand_overflow"],
    )
    def test_scenario_past_a_run_limit_is_invalid(self, doc, error, tmp_path, capsys):
        path = tmp_path / "limit.scenario"
        path.write_text(doc)
        assert cli.main(["validate", str(path)]) == 1
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, old, new, error",
        [
            (
                "poc_lc",
                "rate: 120,",
                "rate: 1.0e+12,",
                "error: workload.phases: their rates give about 6e+14 arrivals, more than 10000000\n",
            ),
            (
                "poc",
                "{C3: 3, C4: 3}",
                "{C3: 100000000}",
                "error: services: replicas_per_cluster places 100000004 replicas, more than 10000\n",
            ),
        ],
        ids=["arrivals", "replicas"],
    )
    def test_a_scenario_past_a_work_limit_exits_1_before_it_runs(self, name, old, new, error, tmp_path):
        # in a child under an address-space limit and a timeout, so that a
        # scenario that does run fails fast instead of filling the machine
        text = fedsim.bundled_scenario(name).read_text(encoding="utf-8")
        assert old in text
        path = tmp_path / "big.scenario"
        path.write_text(text.replace(old, new), encoding="utf-8")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = [sys.executable, "-m", "fedsim.cli", "run", str(path), "--until", "1", "--out-dir", str(tmp_path)]
        proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=20, preexec_fn=limit_memory)
        assert (proc.returncode, proc.stderr) == (1, error)

    def test_bundled_scenarios_validate(self, capsys):
        for name in ("poc", "poc_lc", "ping", "blackout"):
            assert cli.main(["validate", str(fedsim.bundled_scenario(name))]) == 0


NON_FINITE = {
    "constant_rate": (
        MINI_DOC.replace("rate: 2.0", "rate: .inf"),
        "workload.phases[0].rate",
    ),
    "poisson_rate": (
        MINI_DOC.replace("rate: 2.0", "rate: .inf").replace("arrival: constant", "arrival: poisson"),
        "workload.phases[0].rate",
    ),
    "timeout": (MINI_DOC + "timeout_s: .nan\n", "timeout_s"),
    "delay_cell": (
        two_cluster_doc(links="  one_way_delay_ms: [[0, .nan], [1, 0]]"),
        "links.one_way_delay_ms[0][1]",
    ),
    "duration": (MINI_DOC.replace("duration_s: 120", "duration_s: .inf"), "duration_s"),
    "timeline_at": (
        MINI_DOC + "timeline:\n  - {action: set_health, at_s: -.inf, service: be, cluster: solo, healthy: false}\n",
        "timeline[0].at_s",
    ),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_numbers_rejected(case, command, tmp_path, capsys):
    doc, field_path = NON_FINITE[case]
    path = tmp_path / "bad.scenario"
    path.write_text(doc)
    argv = [command, str(path)] + (["--out-dir", str(tmp_path / "out")] if command == "run" else [])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {field_path}: expected a finite number"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("spelling", ["1.0e12", "1e12", "1e+12"])
def test_an_exponent_that_yaml_reads_as_text_says_how_to_write_it(spelling, command, tmp_path, capsys):
    # YAML 1.1 floats need a dot and a signed exponent; these three are strings
    path = tmp_path / "exponent.scenario"
    path.write_text(MINI_DOC.replace("{rate: 2.0, duration_s: 100}", f"{{rate: {spelling}, duration_s: 100}}"))
    argv = [command, str(path)] + (["--out-dir", str(tmp_path / "out")] if command == "run" else [])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: workload.phases[0].rate: expected a number; YAML reads '{spelling}' as text: "
        "write it with a dot and a signed exponent, such as 1.0e+12"
    ]
    assert not (tmp_path / "out").exists()


def test_loss_correlation_warns(tmp_path, capsys):
    path = tmp_path / "corr.scenario"
    path.write_text(
        two_cluster_doc(
            links="  loss: [{src: east, dst: west, p: 0.01, correlation: 0.25}, {src: west, dst: east, p: 0.01}]",
            extra="timeline:\n  - {action: set_link, at_s: 1, src: west, dst: east, loss: {p: 0.1, correlation: 0.5}}",
        )
    )
    assert cli.main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "ok"
    assert captured.err.splitlines() == [
        "warning: loss[1][0]: loss correlation > 0 thins the marginal loss rate far below p",
        "warning: timeline[0].loss: loss correlation > 0 thins the marginal loss rate far below p",
    ]


def _subcommand_argv(command: str, scenario: str, tmp_path) -> list[str]:
    argv = [command, scenario]
    if command == "sweep":
        argv += ["--param", "duration_s", "--values", "1"]
    if command != "validate":
        argv += ["--out-dir", str(tmp_path / command)]
    return argv


class TestSingleLoader:
    COMMANDS = ("validate", "run", "ping", "sweep")

    def test_invalid_scenario_same_errors_everywhere(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text("clusters: [{name: a, nodes: 0}, {name: a}]\nduration_s: 0\n")
        reports = {}
        for command in self.COMMANDS:
            assert cli.main(_subcommand_argv(command, str(path), tmp_path)) == 1, command
            reports[command] = capsys.readouterr().err.splitlines()
        assert reports["validate"] == [
            "error: clusters[0].nodes < 1",
            "error: duration_s <= 0",
            "error: clusters[1].name: duplicate 'a'",
        ]
        for command in self.COMMANDS:
            assert reports[command] == reports["validate"], command

    def test_a_date_the_safe_constructor_cannot_build_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "date.scenario"
        path.write_text(MINI_DOC.replace("duration_s: 120", "duration_s: 2001-13-01"))
        for command in self.COMMANDS:
            assert cli.main(_subcommand_argv(command, str(path), tmp_path)) == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error: syntax error: month must be in 1..12") and err.count("\n") == 1, command

    @pytest.mark.parametrize("value", ["!!float ''", "!!int ''", "!!bool 'maybe'", "!!timestamp 'x'"])
    def test_a_typed_scalar_the_safe_constructor_cannot_build_is_one_error_line(self, value, tmp_path, capsys):
        path = tmp_path / "typed.scenario"
        path.write_text(MINI_DOC.replace("duration_s: 120", f"duration_s: {value}"))
        for command in self.COMMANDS:
            assert cli.main(_subcommand_argv(command, str(path), tmp_path)) == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error: syntax error: ") and err.count("\n") == 1, command

    def test_missing_file_is_io_error_everywhere(self, tmp_path, capsys):
        for command in self.COMMANDS:
            assert cli.main(_subcommand_argv(command, str(tmp_path / "absent.scenario"), tmp_path)) == 2, command
            assert "cannot read scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options",
    [["run"], ["ping", "--duration", "5"], ["sweep", "--param", "seed", "--values", "1,2", "--jobs", "2"]],
    ids=["run", "ping", "sweep"],
)
def test_an_output_directory_that_cannot_be_written_is_bad_usage(options, mini_scenario, tmp_path, capfd):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "x"
    assert cli.main([options[0], mini_scenario, *options[1:], "--out-dir", str(out)]) == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert f"error: cannot write to {out}" in err and ": Not a directory\n" in err
    assert blocker.read_text() == ""


class TestRun:
    def test_run_exports_artifacts(self, mini_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", mini_scenario, "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "200 arrivals, 200 completed, 0 lost, 0 timed out" in stdout
        for artifact in (
            "replica_busy_vcpu_seconds_total.csv",
            "replica_outstanding_requests.csv",
            "cpu_rate.csv",
            "probe_rtt.csv",
            "traces.csv",
            "summary.yaml",
        ):
            assert (out / artifact).is_file(), artifact

    def test_summary_layout(self, mini_scenario, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", mini_scenario, "--out-dir", str(out)])
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert set(summary) == {"results", "meta"}
        results = summary["results"]
        assert results["seed"] == 7
        assert results["arrivals"] == 200
        assert results["completed"] == 200
        assert results["until_s"] == 120.0
        assert results["mean_cpu_rate_cores"]["solo"]["be"] > 0.0
        assert set(summary["meta"]) == {"tool_version", "wall_time_s"}

    def test_until_cuts_run_short(self, mini_scenario, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", mini_scenario, "--out-dir", str(out), "--until", "10"])
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["results"]["until_s"] == 10.0
        assert summary["results"]["arrivals"] == 20

    def test_seed_override_changes_poisson_run(self, tmp_path):
        doc = MINI_DOC.replace("arrival: constant", "arrival: poisson")
        path = tmp_path / "p.scenario"
        path.write_text(doc)
        for seed, name in ((1, "a"), (2, "b")):
            assert cli.main(["run", str(path), "--out-dir", str(tmp_path / name), "--seed", str(seed)]) == 0
        a = yaml.safe_load((tmp_path / "a" / "summary.yaml").read_text())["results"]
        b = yaml.safe_load((tmp_path / "b" / "summary.yaml").read_text())["results"]
        assert a["seed"] == 1 and b["seed"] == 2
        assert a["arrivals"] != b["arrivals"]

    def test_results_deterministic_across_runs(self, two_cluster_scenario, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for out in dirs:
            assert cli.main(["run", two_cluster_scenario, "--out-dir", str(out)]) == 0
        for artifact in ("traces.csv", "replica_busy_vcpu_seconds_total.csv", "cpu_rate.csv"):
            assert (dirs[0] / artifact).read_bytes() == (dirs[1] / artifact).read_bytes()
        summaries = [yaml.safe_load((out / "summary.yaml").read_text()) for out in dirs]
        # everything under results is reproducible; meta holds the wall time
        assert summaries[0]["results"] == summaries[1]["results"]

    def test_debug_events_export(self, mini_scenario, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", mini_scenario, "--out-dir", str(out), "--debug-events", "--until", "20"])
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "time_s,seq,kind,detail"
        assert any(",arrival," in line for line in lines[1:])
        assert any(",scrape," in line for line in lines[1:])

    def test_debug_events_identical_across_runs_and_one_row_per_event(self, tmp_path):
        # service starts carry the replica in their detail column; the
        # overload scenario also skips requests abandoned in a queue
        scenario = tmp_path / "overload.scenario"
        scenario.write_text(OVERLOAD)
        logs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["run", str(scenario), "--out-dir", str(out), "--debug-events", "--until", "25"]) == 0
            logs.append((out / "events.csv").read_bytes())
            events = yaml.safe_load((out / "summary.yaml").read_text())["results"]["events"]
        assert logs[0] == logs[1]
        rows = logs[0].decode().splitlines()[1:]
        assert len(rows) == events
        assert any(row.startswith("1.0625,,service_start,\"Endpoint(be@c1#0,up),") for row in rows)

    def test_engine_error_dumps_event_tail(self, mini_scenario, tmp_path, monkeypatch, capsys):
        def boom(self, until):
            if self.debug_log is not None:  # the replay that dumps the tail records
                self.debug_log.append((1.0, 0, "arrival", ""))
            raise EngineError("synthetic failure")

        monkeypatch.setattr(EngineState, "run", boom)
        out = tmp_path / "out"
        assert cli.main(["run", mini_scenario, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "engine error: synthetic failure" in err
        tail = (out / "event_log_tail.csv").read_text().splitlines()
        assert tail[0] == "time_s,seq,kind"
        assert tail[1] == "1.0,0,arrival"


def _demand_once_built(monkeypatch, demand) -> None:
    """``workload.service_demand`` is ``demand`` from the first engine build
    on, past ``validate``, which computes the demands with it too."""
    build = topology.build_runtime

    def build_with_demand(topo):
        monkeypatch.setattr(workload, "service_demand", demand)
        return build(topo)

    monkeypatch.setattr(topology, "build_runtime", build_with_demand)


@pytest.mark.parametrize("command", ["run", "ping"])
def test_exception_inside_a_run_exits_3_with_the_event_tail(command, mini_scenario, tmp_path, monkeypatch, capsys):
    # a valid scenario whose demand comes out infinite, so the first start
    # schedules its completion at inf
    assert cli.main(["validate", mini_scenario]) == 0
    _demand_once_built(monkeypatch, lambda profile, input_bytes: float("inf"))
    out = tmp_path / "out"
    assert cli.main([command, mini_scenario, "--out-dir", str(out)]) == 3
    assert "engine error: event time before the clock or not finite: service_complete at inf" in capsys.readouterr().err
    tail = (out / "event_log_tail.csv").read_text().splitlines()
    assert tail[0] == "time_s,seq,kind"
    assert tail[-1].endswith(",service_start")
    # the streamed traces.csv and probe_rtt.csv were removed
    assert [path.name for path in out.iterdir()] == ["event_log_tail.csv"]


def test_broken_bookkeeping_exits_3(mini_scenario, tmp_path, monkeypatch, capsys):
    finalize = EngineState._finalize

    def counted_twice(self, request, outcome):
        if request.outcome is None and outcome == "completed":
            self.completed += 1
        finalize(self, request, outcome)

    monkeypatch.setattr(EngineState, "_finalize", counted_twice)
    out = tmp_path / "out"
    assert cli.main(["run", mini_scenario, "--out-dir", str(out)]) == 3
    assert "requests in flight but" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["event_log_tail.csv"]


def test_a_balancer_count_never_released_exits_3(two_cluster_scenario, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(EngineState, "_release_lc", lambda self, request: None)
    out = tmp_path / "out"
    assert cli.main(["run", two_cluster_scenario, "--out-dir", str(out)]) == 3
    assert "but pending timeouts hold" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["event_log_tail.csv"]


def test_exception_of_any_type_names_where_it_was_raised(mini_scenario, tmp_path, monkeypatch, capsys):
    def broken(profile, input_bytes):
        raise ZeroDivisionError("synthetic")

    _demand_once_built(monkeypatch, broken)
    out = tmp_path / "out"
    assert cli.main(["run", mini_scenario, "--out-dir", str(out)]) == 3
    assert "engine error: ZeroDivisionError at test_cli.py:" in capsys.readouterr().err
    assert (out / "event_log_tail.csv").read_text().splitlines()[-1].endswith(",link_deliver")


def test_the_dumped_tail_is_the_tail_of_the_failing_run(tmp_path, monkeypatch, capsys):
    # a failure that follows from the scenario: the first scrape at 30 s or
    # later raises, thousands of events in, in the run and in its replay alike
    scrape = metrics.scrape

    def failing_scrape(engine, t):
        if t >= 30.0:
            raise EngineError("synthetic failure at 30 s")
        scrape(engine, t)

    monkeypatch.setattr(metrics, "scrape", failing_scrape)
    text = fedsim.bundled_scenario("poc").read_text()
    scenario = tmp_path / "poc.yaml"
    scenario.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out-dir", str(out)]) == 3
    assert "engine error: synthetic failure at 30 s" in capsys.readouterr().err
    recorded = topology.build_runtime(make_topology(text))
    recorded.debug_log = []
    with pytest.raises(EngineError):
        recorded.run(until=recorded.duration_s)
    assert len(recorded.debug_log) > 1000
    expected = ["time_s,seq,kind"] + [
        f"{time!r},{'' if seq is None else seq},{kind}" for time, seq, kind, _ in recorded.debug_log[-1000:]
    ]
    assert (out / "event_log_tail.csv").read_text().splitlines() == expected


def _counted_builds(monkeypatch) -> list:
    build, builds = topology.build_runtime, []

    def counted_build(topo):
        builds.append(1)
        return build(topo)

    monkeypatch.setattr(topology, "build_runtime", counted_build)
    return builds


def test_a_recorded_run_dumps_its_own_tail_without_a_replay(tmp_path, monkeypatch, capsys):
    # with --debug-events the run holds its events, so it is not run again
    scrape = metrics.scrape

    def failing_scrape(engine, t):
        if t >= 30.0:
            raise EngineError("synthetic failure at 30 s")
        scrape(engine, t)

    monkeypatch.setattr(metrics, "scrape", failing_scrape)
    builds = _counted_builds(monkeypatch)
    text = fedsim.bundled_scenario("poc").read_text()
    scenario = tmp_path / "poc.yaml"
    scenario.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out-dir", str(out), "--debug-events"]) == 3
    assert "engine error: synthetic failure at 30 s" in capsys.readouterr().err
    assert builds == [1]
    recorded = topology.build_runtime(make_topology(text))
    recorded.debug_log = []
    with pytest.raises(EngineError):
        recorded.run(until=recorded.duration_s)
    expected = ["time_s,seq,kind"] + [
        f"{time!r},{'' if seq is None else seq},{kind}" for time, seq, kind, _ in recorded.debug_log[-1000:]
    ]
    assert (out / "event_log_tail.csv").read_text().splitlines() == expected


def test_a_failure_after_the_run_is_not_replayed(mini_scenario, tmp_path, monkeypatch, capsys):
    # on one CPU the run's own process writes the scrape CSVs, and the export
    # finishes them when it closes the streams: closing one fails as a full
    # disk makes it fail, once its buffered rows cannot be written
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    builds = _counted_builds(monkeypatch)
    for failing in (metrics.BUSY_COUNTER, metrics.OUTSTANDING_GAUGE):  # the first or the second scrape CSV
        closes = []

        class FailingClose(type(Path())):
            def open(self, *args, **kwargs):
                handle = super().open(*args, **kwargs)
                if self.name == f"{failing}.csv":
                    close = handle.close

                    def failing_close():
                        closes.append(self.name)
                        close()
                        raise OSError(errno.ENOSPC, "synthetic export failure")

                    handle.close = failing_close
                return handle

        monkeypatch.setattr(metrics, "Path", FailingClose)
        builds.clear()
        out = tmp_path / f"out-{failing}"
        assert cli.main(["run", mini_scenario, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert closes and set(closes) == {f"{failing}.csv"}
        assert "engine error: OSError at test_cli.py:" in err
        assert "the failure came from the writers or the export, not the run" in err
        assert builds == [1]
        # a scrape CSV written before the failure was removed with the rest
        assert [path.name for path in out.iterdir()] == ["event_log_tail.csv"]
        assert (out / "event_log_tail.csv").read_text().splitlines() == ["time_s,seq,kind"]


@pytest.mark.parametrize(
    "command, options, blocked, code",
    [
        ("run", [], ["summary.yaml"], 3),
        ("ping", ["--duration", "5"], ["rtt_matrix.yaml"], 3),
        ("run", ["--debug-events"], ["events.csv"], 3),
        ("run", [], ["probe_rtt.csv"], 2),
        ("run", [], ["summary.yaml", "event_log_tail.csv"], 3),
    ],
    ids=["summary", "rtt_matrix", "events", "probe_rtt", "tail"],
)
def test_a_failed_command_leaves_no_artifact_but_the_tail(command, options, blocked, code, tmp_path, capfd):
    # a directory stands at each blocked name; every other artifact name
    # holds a file an earlier command left there
    scenario = tmp_path / "poc.yaml"
    scenario.write_text(fedsim.bundled_scenario("poc").read_text())
    out = tmp_path / "out"
    for name in cli._ARTIFACTS:
        if name in blocked:
            (out / name).mkdir(parents=True)
        else:
            out.mkdir(exist_ok=True)
            (out / name).write_text("stale\n")
    argv = [command, str(scenario), "--out-dir", str(out), *options]
    assert cli.main(argv if command == "ping" else [*argv, "--until", "20"]) == code
    err = capfd.readouterr().err
    assert "Traceback" not in err
    files = [name for name in cli._ARTIFACTS if (out / name).is_file()]
    tail = out / "event_log_tail.csv"
    if code == 2:
        assert err == f"error: cannot write to {out / blocked[0]}: Is a directory\n"
        assert files == []
    elif tail.is_dir():
        assert err.endswith(f"error: cannot write the event log tail to {tail}: Is a directory\n")
        assert files == []
    else:
        assert "engine error: IsADirectoryError at " in err and err.endswith(f"event log tail written to {tail}\n")
        assert files == ["event_log_tail.csv"]


@pytest.mark.parametrize(
    "first, second, stale",
    [
        (["run", "--until", "20", "--debug-events"], ["run", "--until", "20"], "events.csv"),
        (["run", "--until", "20"], ["run", "--until", "20"], "event_log_tail.csv"),  # the first run fails
        (["run", "--until", "20"], ["ping", "--duration", "5"], "summary.yaml"),
    ],
    ids=["events", "tail", "summary"],
)
def test_a_command_leaves_no_artifact_of_an_earlier_one(first, second, stale, mini_scenario, tmp_path, monkeypatch):
    def failing(self, until):
        raise EngineError("synthetic failure")

    if stale == "event_log_tail.csv":
        monkeypatch.setattr(EngineState, "run", failing)
    out = tmp_path / "out"
    cli.main([first[0], mini_scenario, "--out-dir", str(out), *first[1:]])
    assert (out / stale).is_file()
    monkeypatch.undo()
    fresh = tmp_path / "fresh"
    for target in (out, fresh):
        assert cli.main([second[0], mini_scenario, "--out-dir", str(target), *second[1:]]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(path.name for path in fresh.iterdir())
    assert not (out / stale).exists()


def test_the_replay_holds_only_what_the_run_held(tmp_path, monkeypatch, capsys):
    # the replay writes no files, but still hands its rows on, so a late
    # failure does not hold every request of the run until it recurs
    held = []

    def failing_scrape(engine, t):
        if t >= 200.0:
            held.append((len(engine.traces), engine.in_flight))
            raise EngineError("synthetic failure at 200 s")
        scrape(engine, t)

    scrape = metrics.scrape
    monkeypatch.setattr(metrics, "scrape", failing_scrape)
    out = tmp_path / "out"
    assert cli.main(["run", str(fedsim.bundled_scenario("poc_lc")), "--out-dir", str(out)]) == 3
    capsys.readouterr()
    (run, in_flight), replay = held
    assert replay == (run, in_flight) and run <= 1024 + in_flight


@pytest.mark.parametrize("command", ["run", "ping"])
def test_a_one_off_failure_dumps_a_tail_of_the_header_only(command, mini_scenario, tmp_path, monkeypatch, capsys):
    run, calls = EngineState.run, []

    def fails_once(self, until):
        calls.append(until)
        if len(calls) == 1:
            raise EngineError("synthetic one-off failure")
        return run(self, until)

    monkeypatch.setattr(EngineState, "run", fails_once)
    out = tmp_path / "out"
    assert cli.main([command, mini_scenario, "--out-dir", str(out)]) == 3
    assert len(calls) == 2  # the run and its replay
    err = capsys.readouterr().err
    assert "engine error: synthetic one-off failure" in err
    assert "the failure did not recur when the run was replayed" in err
    assert [path.name for path in out.iterdir()] == ["event_log_tail.csv"]
    assert (out / "event_log_tail.csv").read_text().splitlines() == ["time_s,seq,kind"]


def test_yaml_artifacts_match_the_pure_python_dumper(tmp_path):
    # comma, quotes and a leading space from QUOTED, plus non-ASCII and a 120-character name
    long_name = "ñ-" + "x" * 118
    scenario = tmp_path / "quoted.yaml"
    scenario.write_text(QUOTED.replace("' dc1'", repr(long_name)), encoding="utf-8")
    assert cli.main(["run", str(scenario), "--out-dir", str(tmp_path / "run"), "--until", "5"]) == 0
    assert cli.main(["ping", str(scenario), "--out-dir", str(tmp_path / "ping"), "--duration", "5"]) == 0
    for path in (tmp_path / "run" / "summary.yaml", tmp_path / "ping" / "rtt_matrix.yaml"):
        text = path.read_text(encoding="utf-8")
        assert long_name in str(yaml.safe_load(text)), path.name
        assert yaml.dump(yaml.safe_load(text), Dumper=yaml.SafeDumper, sort_keys=False) == text, path.name


# an ASCII locale that Python neither coerces nor overrides with UTF-8 mode
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0"}


def test_artifacts_are_utf8_whatever_the_locale(tmp_path):
    scenario = tmp_path / "zurich.scenario"
    text = fedsim.bundled_scenario("poc").read_text(encoding="utf-8")
    scenario.write_text(text.replace("C1", "Zürich"), encoding="utf-8")
    src = str(Path(fedsim.__file__).parents[1])
    base = {key: value for key, value in os.environ.items() if key not in {"PYTHONIOENCODING", *ASCII_LOCALE}}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = {"run": ["--until", "20", "--debug-events"], "ping": ["--duration", "5"]}
    for locale, extra in (("ascii", ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        for command, options in commands.items():
            out = tmp_path / locale / command
            argv = [sys.executable, "-m", "fedsim.cli", command, str(scenario), "--out-dir", str(out), *options]
            proc = subprocess.run(argv, env={**base, **extra}, capture_output=True, timeout=120)
            assert proc.returncode == 0 and b"Traceback" not in proc.stderr, (locale, command, proc.stderr)
    for command in commands:
        ascii_dir, utf8_dir = tmp_path / "ascii" / command, tmp_path / "utf8" / command
        assert any(path.suffix == ".csv" for path in ascii_dir.iterdir())
        _assert_same_artifacts(ascii_dir, utf8_dir)
    for command, name in (("run", "traces.csv"), ("ping", "probe_rtt.csv")):
        assert "Zürich" in (tmp_path / "ascii" / command / name).read_text(encoding="utf-8")


def test_a_ping_pinned_to_one_cpu_writes_what_a_writer_process_writes(tmp_path):
    # the real one-CPU choice, which the other tests reach only by patching
    # os.sched_getaffinity: pinned to one CPU, a ping formats its probe rows
    # and folds their RTT sums in-process, and a run formats its trace and
    # scrape rows in-process; unpinned, a writer process does
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs os.sched_setaffinity and two CPUs")
    cpu = min(os.sched_getaffinity(0))
    commands = {
        "ping": ["ping", str(fedsim.bundled_scenario("blackout")), "--interval", "0.1", "--duration", "310"],
        "run": ["run", str(fedsim.bundled_scenario("poc_lc")), "--until", "200"],
    }
    for command, argv in commands.items():
        any_cpu, one_cpu = tmp_path / command / "any-cpu", tmp_path / command / "one-cpu"
        unpinned = _fedsim(*argv, "--out-dir", str(any_cpu))
        pinned = _fedsim(*argv, "--out-dir", str(one_cpu), preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        assert unpinned.returncode == pinned.returncode == 0, (unpinned.stderr, pinned.stderr)
        assert unpinned.stdout.replace(str(any_cpu), "<out>") == pinned.stdout.replace(str(one_cpu), "<out>")
        _assert_same_artifacts(any_cpu, one_cpu)
        # every CSV has rows, so every one of its formatters ran both ways
        csvs = ("traces.csv", *(f"{name}.csv" for name in SCRAPE_FILES)) if command == "run" else ("probe_rtt.csv",)
        for name in csvs:
            assert len((one_cpu / name).read_bytes().splitlines()) > 1, (command, name)


@pytest.mark.parametrize(
    "command, scenario, options",
    [("run", "poc", ["--until", "20", "--out-dir"]), ("ping", "ping", ["--duration", "5", "--out-dir"]), ("validate", "poc", [])],
    ids=["run", "ping", "validate"],
)
def test_a_closed_stdout_exits_141_and_keeps_every_artifact(command, scenario, options, tmp_path):
    # as in `fedsim run ... | true` once `true` has exited: the read end of
    # the pipe is closed before the command prints
    def argv(out: str) -> list[str]:
        return [command, str(fedsim.bundled_scenario(scenario)), *options, *([str(tmp_path / out)] if options else [])]

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", *argv("closed")],
            env=_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert closed.returncode == 141 and closed.stderr == "", closed.stderr
    if options:
        proc = _fedsim(*argv("open"))
        assert proc.returncode == 0 and proc.stdout, proc.stderr
        _assert_same_artifacts(tmp_path / "open", tmp_path / "closed")


# two runs of the bundled poc scenario, swept in real pool workers
SWEEP = ("sweep", str(fedsim.bundled_scenario("poc")), "--param", "seed", "--values", "1,2", "--until", "60")


@pytest.fixture(scope="module")
def one_job_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "jobs-1"
    proc = _fedsim(*SWEEP, "--jobs", "1", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


def test_a_parallel_sweep_writes_what_one_job_writes(one_job_sweep, tmp_path):
    # the runs see that they run in a pool worker and format their rows
    # in-process; with one job each run has a writer process
    out = tmp_path / "jobs-2"
    proc = _fedsim(*SWEEP, "--jobs", "2", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in out.iterdir()) == ["seed=1", "seed=2"]
    for variant in ("seed=1", "seed=2"):
        _assert_same_artifacts(one_job_sweep / variant, out / variant)


def test_a_run_that_fails_in_a_pool_worker_leaves_only_its_tail(one_job_sweep, tmp_path):
    # a directory at one variant's summary.yaml fails that run through the
    # worker's exit path; the other variant is written as with one job
    out = tmp_path / "blocked"
    (out / "seed=1" / "summary.yaml").mkdir(parents=True)
    proc = _fedsim(*SWEEP, "--jobs", "2", "--out-dir", str(out))
    assert proc.returncode == 3 and "Traceback" not in proc.stderr, proc.stderr
    assert [path.name for path in (out / "seed=1").iterdir() if path.is_file()] == ["event_log_tail.csv"]
    _assert_same_artifacts(one_job_sweep / "seed=2", out / "seed=2")


class TestPing:
    def test_ping_prints_matrix_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            [
                "ping",
                str(fedsim.bundled_scenario("ping")),
                "--out-dir",
                str(out),
                "--duration",
                "10",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mean RTT (ms)" in stdout
        assert "51.46" in stdout
        assert "1.46" in stdout
        matrix = yaml.safe_load((out / "rtt_matrix.yaml").read_text())
        assert matrix["mean_rtt_ms"]["C1"]["C3"] == 51.46
        assert matrix["mean_rtt_ms"]["C1"]["C2"] == 1.46
        assert matrix["mean_rtt_ms"]["C1"]["C1"] == 0.0
        assert matrix["loss_fraction"]["C1"]["C3"] == 0.0
        rows = (out / "probe_rtt.csv").read_text().splitlines()
        assert rows[0] == "src,dst,sent_at_s,rtt_ms,lost"
        assert len(rows) == 1 + 16 * 50

    def test_interval_controls_sample_count(self, tmp_path):
        out = tmp_path / "out"
        cli.main(
            [
                "ping",
                str(fedsim.bundled_scenario("ping")),
                "--out-dir",
                str(out),
                "--duration",
                "10",
                "--interval",
                "1.0",
            ]
        )
        rows = (out / "probe_rtt.csv").read_text().splitlines()
        assert len(rows) == 1 + 16 * 10

    @pytest.mark.parametrize("options", [["--interval", "5e-324"], ["--duration", "1e300", "--interval", "1e-10"]])
    def test_probe_count_that_overflows_is_bad_usage(self, options, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["ping", str(fedsim.bundled_scenario("ping")), "--out-dir", str(out), *options])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: duration / interval is not finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, detail",
        # 5 / 1e-300 is finite, and would probe without end; 6,250,001 steps
        # of the bundled ping's 16 pairs is the first grid past the bound
        [
            (["--interval", "1e-300", "--duration", "5"], "5.0 / 1e-300"),
            (["--interval", "1", "--duration", "6250001"], "6250001.0 / 1.0"),
        ],
    )
    def test_a_grid_of_more_than_max_probes_is_bad_usage(self, options, detail, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "probe_rtt.csv").write_text("kept\n")
        assert cli.main(["ping", str(fedsim.bundled_scenario("ping")), "--out-dir", str(out), *options]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: duration / interval gives more than 100000000 probes over 16 pairs: {detail}"
        ]
        assert [path.name for path in out.iterdir()] == ["probe_rtt.csv"]  # touched nothing


class TestSweep:
    def test_each_warning_is_printed_once_per_sweep(self, tmp_path, capsys):
        path = tmp_path / "corr.scenario"
        path.write_text(two_cluster_doc(links="  loss: [{src: east, dst: west, p: 0.01, correlation: 0.25}]"))
        argv = ["sweep", str(path), "--param", "seed", "--values", "1,2,3", "--until", "1", "--jobs", "1"]
        assert cli.main([*argv, "--out-dir", str(tmp_path / "sweep")]) == 0
        assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")] == [
            "warning: loss[1][0]: loss correlation > 0 thins the marginal loss rate far below p"
        ]

    def test_sweep_runs_each_value(self, two_cluster_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                two_cluster_scenario,
                "--param",
                "workload.phases[0].rate",
                "--values",
                "2.0,10.0",
                "--out-dir",
                str(out),
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        slow = yaml.safe_load((out / "workload.phases[0].rate=2.0" / "summary.yaml").read_text())
        fast = yaml.safe_load((out / "workload.phases[0].rate=10.0" / "summary.yaml").read_text())
        assert slow["results"]["arrivals"] == 40
        assert fast["results"]["arrivals"] == 200

    def test_sweep_defaulted_field_is_reachable(self, two_cluster_scenario, tmp_path):
        # timeout_s never appears in the source document; the sweep sees the
        # canonical form, so the path still resolves
        out = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                two_cluster_scenario,
                "--param",
                "timeout_s",
                "--values",
                "1.0",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "timeout_s=1.0" / "summary.yaml").is_file()

    @pytest.mark.parametrize(
        "param, value",
        [
            ("timeline", "[{action: blackout, cluster: east, at_s: 1, end_s: 2}]"),
            ("links.loss", "[{src: east, dst: west, p: 1.0}]"),
            ("links.jitter", "[{src: west, dst: east, dist: uniform, scale_ms: 1.0}]"),
        ],
        ids=["timeline", "links.loss", "links.jitter"],
    )
    def test_a_field_the_scenario_leaves_empty_is_sweepable(self, two_cluster_scenario, tmp_path, param, value):
        # the scenario has no timeline and no jitter or loss entries; the
        # canonical document writes each as [], so the path resolves
        out = tmp_path / "sweep"
        code = cli.main(["sweep", two_cluster_scenario, "--param", param, "--values", value, "--out-dir", str(out)])
        assert code == 0
        [variant] = out.iterdir()
        results = yaml.safe_load((variant / "summary.yaml").read_text())["results"]
        assert results["arrivals"] == 100
        assert (results["lost"] > 0) == (param != "links.jitter")

    def test_unknown_param_path(self, two_cluster_scenario, tmp_path, capsys):
        code = cli.main(
            [
                "sweep",
                two_cluster_scenario,
                "--param",
                "workload.nope",
                "--values",
                "1",
                "--out-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == 1
        assert "no field 'nope'" in capsys.readouterr().err

    def test_value_producing_invalid_scenario(self, two_cluster_scenario, tmp_path, capsys):
        code = cli.main(
            [
                "sweep",
                two_cluster_scenario,
                "--param",
                "duration_s",
                "--values",
                "-5",
                "--out-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "duration_s=-5 produces an invalid scenario" in err
        assert "duration_s <= 0" in err

    def test_empty_values_rejected(self, two_cluster_scenario, tmp_path, capsys):
        code = cli.main(
            [
                "sweep",
                two_cluster_scenario,
                "--param",
                "duration_s",
                "--values",
                "",
                "--out-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == 1
        assert "no values given" in capsys.readouterr().err

    def test_a_value_that_is_not_yaml_is_one_error_line(self, two_cluster_scenario, tmp_path):
        # the position is one in what was typed, or just past it, whichever
        # loader reads it and however its messages are worded
        out = tmp_path / "s"
        cases = {
            "1,[1": "syntax error at line 1, column 5: ",  # an unclosed list, found at the end of the text
            "1,,2": "syntax error at line 1, column 3: ",  # an empty item
            "1,\n2,,3": "syntax error at line 2, column 3: ",  # one on the second line typed
            "2001-13-01": "syntax error: month must be in 1..12",  # a bad date
        }
        for values, message in cases.items():
            proc = _fedsim("sweep", two_cluster_scenario, "--param", "seed", "--values", values, "--out-dir", str(out))
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith(f"error: --values [{values}] is not a YAML flow sequence: ")
            assert proc.stderr.count("\n") == 1 + values.count("\n")
            assert proc.stderr.split(" is not a YAML flow sequence: ", 1)[1].startswith(message), proc.stderr
            assert not out.exists()

    def test_values_are_one_flow_sequence_so_lists_can_be_swept(self, two_cluster_scenario, tmp_path, monkeypatch):
        tasks = []
        monkeypatch.setattr(cli, "_sweep_worker", lambda task: tasks.append(task) or (task[1], 0))
        param = "links.one_way_delay_ms[0]"
        argv = ["sweep", two_cluster_scenario, "--param", param, "--values", "[0,5],[0,10]"]
        assert cli.main([*argv, "--out-dir", str(tmp_path), "--jobs", "1"]) == 0
        assert [task[0].spec.links.one_way_delay_ms[0] for task in tasks] == [(0.0, 5.0), (0.0, 10.0)]
        assert [Path(task[1]).name for task in tasks] == [f"{param}=[0, 5]", f"{param}=[0, 10]"]

    @pytest.mark.parametrize(
        "param, values, subdir",
        [("seed", "1,0x1", "seed=1"), ("services[1].name", "b/e,b_e", "services[1].name=b_e")],
    )
    def test_values_that_share_a_variant_directory_are_invalid(
        self, param, values, subdir, two_cluster_scenario, tmp_path, capsys
    ):
        out = tmp_path / "s"
        argv = ["sweep", two_cluster_scenario, "--param", param, "--values", values, "--out-dir", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: two --values share the variant directory {out / subdir}\n"
        assert not out.exists()

    def test_variants_equal_those_of_pyyaml_safe_load_and_dump(self, tmp_path, monkeypatch):
        scenario = str(fedsim.bundled_scenario("blackout"))
        tasks = []
        monkeypatch.setattr(cli, "_sweep_worker", lambda task: tasks.append(task) or (task[1], 0))
        values = "0.5,2,1.0e+3,7"
        argv = ["sweep", scenario, "--param", "links.base_delay_ms", "--values", values, "--out-dir", str(tmp_path)]
        assert cli.main([*argv, "--jobs", "1"]) == 0
        canonical = topology.render_scenario(topology.load_scenario(scenario))
        expected = []
        for token in values.split(","):
            variant = yaml.safe_load(canonical)
            variant["links"]["base_delay_ms"] = yaml.safe_load(token)
            expected.append(cli._load(yaml.safe_dump(variant, sort_keys=False)))
        assert [task[0] for task in tasks] == expected
        assert [task[0].spec.links.base_delay_ms for task in tasks] == [0.5, 2, 1000.0, 7]


    @pytest.mark.parametrize(
        ("jobs", "values", "workers"),
        [
            (["--jobs", "100000"], "1,2", 2),
            ([], "1,2,3", 3),
            ([], "1,2,3,4,5", 4),
            (["--jobs", "2"], "1,2,3", 2),
            (["--jobs", "1"], "1,2", None),  # None: run in this process, no pool
            (["--jobs", "5"], "1", None),
        ],
    )
    def test_workers_never_outnumber_the_runs(self, jobs, values, workers, two_cluster_scenario, tmp_path, monkeypatch):
        started = []

        class RecordingPool:  # records the pool size and runs the tasks here, starting no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        argv = ["sweep", two_cluster_scenario, "--param", "seed", "--values", values, "--until", "1"]
        assert cli.main([*argv, "--out-dir", str(tmp_path / "s"), *jobs]) == 0
        assert started == ([] if workers is None else [workers])
        assert len(list((tmp_path / "s").iterdir())) == len(values.split(","))

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_bad_usage(self, jobs, two_cluster_scenario, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", two_cluster_scenario, "--param", "seed", "--values", "1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs: expected a whole number >= 1" in capsys.readouterr().err


def test_importing_the_cli_loads_no_unused_module():
    # OpenSSL (_hashlib) alone costs a few MB; statistics pulls in fractions
    # and decimal; concurrent.futures is needed only by a sweep's pool
    script = "import sys; bare = set(sys.modules); import fedsim.cli; print(*sorted(set(sys.modules) - bare))"
    loaded = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True, text=True, check=True)
    added = set(loaded.stdout.split())
    assert "fedsim.cli" in added
    assert not added & {"_hashlib", "statistics", "concurrent.futures"}


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert fedsim.__version__ in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--until", "nan"],
            ["run", "--until", "-5"],
            ["run", "--until", "inf"],
            ["sweep", "--param", "seed", "--values", "1", "--until", "nan"],
            ["ping", "--interval", "0"],
            ["ping", "--interval", "-0.2"],
            ["ping", "--duration", "inf"],
            ["ping", "--duration", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_time_flags_need_finite_positive_numbers(self, argv, mini_scenario, tmp_path, capsys):
        command, *options = argv
        with pytest.raises(SystemExit) as exc:
            cli.main([command, mini_scenario, "--out-dir", str(tmp_path / "out"), *options])
        assert exc.value.code == 2
        assert f"argument {options[-2]}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_until_zero_runs_nothing(self, mini_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", mini_scenario, "--out-dir", str(out), "--until", "0"]) == 0
        results = yaml.safe_load((out / "summary.yaml").read_text())["results"]
        assert (results["until_s"], results["events"]) == (0.0, 0)

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
