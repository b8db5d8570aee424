"""CLI subcommands, exit codes, and exported artifacts."""

import yaml
import pytest

import fedsim
from fedsim import cli
from fedsim.engine import EngineError, EngineState
from tests.conftest import MINI_DOC, OVERLOAD, two_cluster_doc


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

    def test_missing_file_is_io_error_everywhere(self, tmp_path, capsys):
        for command in self.COMMANDS:
            assert cli.main(_subcommand_argv(command, str(tmp_path / "absent.scenario"), tmp_path)) == 2, command
            assert "cannot read scenario" in capsys.readouterr().err


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
        assert any(row.startswith("1.0625,,service_start,\"ReplicaState(be@c1#0),") for row in rows)

    def test_engine_error_dumps_event_tail(self, mini_scenario, tmp_path, monkeypatch, capsys):
        def boom(self, until):
            self.event_tail.append((1.0, 0, "arrival"))
            raise EngineError("synthetic failure")

        monkeypatch.setattr(EngineState, "run", boom)
        out = tmp_path / "out"
        assert cli.main(["run", mini_scenario, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "engine error: synthetic failure" in err
        tail = (out / "event_log_tail.csv").read_text().splitlines()
        assert tail[0] == "time_s,seq,kind"
        assert tail[1] == "1.0,0,arrival"


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


class TestSweep:
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
