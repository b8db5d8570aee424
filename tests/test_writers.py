"""The writer process of a run's five CSVs.

``metrics.Streams`` owns the files and forks one writer process for them
when the process can fork, runs no other thread, is not a
``multiprocessing`` worker and may use two CPUs, else the rows are
formatted in-process by the same formatters. These tests pin
the process lifecycle: one ``close`` ends it with every file complete and
reads back the RTT sums it folded, it never outlives the command, a writer
that fails makes the run exit 3, and both paths write the same bytes and
the same RTT matrix. Where a test needs the forked path it says
the process may use two CPUs, so it runs on any machine.
"""

import concurrent.futures
import errno
import multiprocessing
import os
import subprocess
import sys
import textwrap
import unittest.mock
from pathlib import Path

import pytest

import fedsim
from fedsim import cli, metrics, probes, topology
from tests.conftest import QUOTED, make_topology
from tests.test_golden import CSVS

ROOT = Path(__file__).resolve().parent.parent
TWO_CPUS = "os.sched_getaffinity = lambda pid: {0, 1}  # so that stream_csv forks"


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _counted_forks(monkeypatch) -> list:
    """The pids of the processes forked from here on."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _python(script: str, tmp_path, *options: str, timeout: float = 60) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *options, "-c", textwrap.dedent(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("first", ["traces", "probes"])
def test_one_close_ends_the_writer_process_with_both_files_complete(first, tmp_path):
    # both files share one writer process: rows of either file may come first,
    # and the one close must end the process only after every row is written
    script = f"""
        import os
        {TWO_CPUS}
        import fedsim
        from fedsim import metrics, probes, topology

        engine = topology.build_runtime(topology.validate(topology.load_scenario(fedsim.bundled_scenario("poc"))))
        metrics.stream_csv(engine, "out")
        probes.run_ping(engine, interval_s=1.0, duration_s=60.0)
        streams = engine.streams
        assert streams._pipe is not None
        hand = [lambda: streams.traces(engine.traces), lambda: streams.probes(engine.probes)]
        for each in hand if {first!r} == "traces" else hand[::-1]:
            each()
        streams.close()
        try:
            os.waitpid(-1, os.WNOHANG)
            raise SystemExit("the writer process outlived close")
        except ChildProcessError:
            pass
        print(engine.arrivals, sum(1 for _ in open("out/traces.csv")), sum(1 for _ in open("out/probe_rtt.csv")))
    """
    proc = _python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    arrivals, traces, probe_rows = map(int, proc.stdout.split())
    assert arrivals > 1 and traces == 1 + arrivals  # headers, and one row per request
    assert probe_rows == 1 + 60 * 16  # 16 pairs probed every second


def test_no_writer_outlives_the_command(tmp_path):
    scenario = fedsim.bundled_scenario("poc")
    script = f"""
        import os
        {TWO_CPUS}
        from fedsim import cli, topology, workload

        def no_child_left():
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return True
            return False

        assert cli.main(["run", {str(scenario)!r}, "--out-dir", "run", "--until", "60"]) == 0
        assert no_child_left(), "after run"
        assert cli.main(["ping", {str(scenario)!r}, "--out-dir", "ping", "--duration", "20"]) == 0
        assert no_child_left(), "after ping"
        build = topology.build_runtime

        def build_with_infinite_demand(topo):  # past validate, which would reject it
            workload.service_demand = lambda profile, input_bytes: float("inf")
            return build(topo)

        topology.build_runtime = build_with_infinite_demand
        assert cli.main(["run", {str(scenario)!r}, "--out-dir", "failed"]) == 3
        assert no_child_left(), "after exit 3"
        print("ok")
    """
    proc = _python(script, tmp_path)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "ok", proc.stderr


def test_a_second_close_after_a_failed_first_one_has_reaped_the_writer(tmp_path, monkeypatch):
    # Linux frees a descriptor even when close(2) fails, so the writer sees
    # the end of its pipe; the sums pipe and the writer must not be left
    _cpus(monkeypatch, 2)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    engine = topology.build_runtime(make_topology(fedsim.bundled_scenario("poc").read_text()))
    metrics.stream_csv(engine, tmp_path)
    engine.run(until=60.0)
    streams = engine.streams
    pipe, pid = streams._pipe, streams._pid
    assert pipe is not None
    close, failed = os.close, []

    def close_failing_once(fd):
        close(fd)
        if fd == pipe and not failed:
            failed.append(fd)
            raise OSError(errno.EIO, "synthetic")

    monkeypatch.setattr(metrics.os, "close", close_failing_once)
    with pytest.raises(OSError, match="synthetic"):
        streams.close()
    streams.close()  # what the CLI's failure path does
    assert failed == [pipe]
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


def test_two_streams_open_at_once_each_close_alone(tmp_path):
    # the second writer process must not hold the first one's pipe open, or
    # the first writer never sees the end of its input and its close hangs
    script = f"""
        import os
        {TWO_CPUS}
        import fedsim
        from fedsim import metrics, topology

        scenario = topology.validate(topology.load_scenario(fedsim.bundled_scenario("poc")))
        engines = [topology.build_runtime(scenario) for _ in range(2)]
        for index, engine in enumerate(engines):
            metrics.stream_csv(engine, f"out{{index}}")
            assert engine.streams._pipe is not None
        for engine in engines:
            engine.run(until=10.0)
        for index, engine in enumerate(engines):
            metrics.export_csv(engine, f"out{{index}}")
        try:
            os.waitpid(-1, os.WNOHANG)
            raise SystemExit("a writer process outlived its close")
        except ChildProcessError:
            pass
        print("ok")
    """
    proc = _python(script, tmp_path, timeout=20)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "ok", proc.stderr
    for name in CSVS:
        assert (tmp_path / "out0" / name).read_bytes() == (tmp_path / "out1" / name).read_bytes(), name


SCRAPE_CSVS = {
    "busy": f"{metrics.BUSY_COUNTER}.csv",
    "outstanding": f"{metrics.OUTSTANDING_GAUGE}.csv",
    "rate": f"{metrics.CPU_RATE}.csv",
}


@pytest.mark.parametrize(
    "cpus, command, failed",
    [
        (2, "run", "traces.csv"),
        (1, "run", "traces.csv"),
        (2, "ping", "probe_rtt.csv"),
        (1, "ping", "probe_rtt.csv"),
        *((cpus, "run", name) for name in SCRAPE_CSVS.values() for cpus in (2, 1)),
    ],
    ids=["2", "1", "ping-2", "ping-1", *(f"{tag}-{cpus}" for tag in SCRAPE_CSVS for cpus in (2, 1))],
)
def test_a_formatter_that_raises_exits_3_without_a_traceback(cpus, command, failed, tmp_path, monkeypatch, capfd):
    # a run breaks the trace row formatter or that of one scrape file, a ping
    # the fold of the probe rows
    def broken(*args):
        raise ZeroDivisionError("synthetic")

    format_scrapes = metrics._format_scrapes

    def broken_for_one_file(names, write, rows):
        # the formatter of all three scrape files, told apart by the file they write
        if write.__self__.name.endswith(failed):
            broken()
        format_scrapes(names, write, rows)

    _cpus(monkeypatch, cpus)
    pids = _counted_forks(monkeypatch)
    if failed in SCRAPE_CSVS.values():
        monkeypatch.setattr(metrics, "_format_scrapes", broken_for_one_file)
    else:
        monkeypatch.setattr(metrics, "_format_traces" if command == "run" else "group_rtts", broken)
    build, builds = topology.build_runtime, []

    def counted_build(topo):
        builds.append(1)
        return build(topo)

    monkeypatch.setattr(topology, "build_runtime", counted_build)
    scenario = tmp_path / "poc.yaml"
    scenario.write_text(fedsim.bundled_scenario("poc").read_text())
    out = tmp_path / "out"
    options = ["--until", "120"] if command == "run" else ["--duration", "120"]
    assert cli.main([command, str(scenario), "--out-dir", str(out), *options]) == 3
    err = capfd.readouterr().err
    assert "Traceback" not in err
    if cpus == 2:  # the writer process reports its error, the run its status
        assert f"writer of {failed}: ZeroDivisionError: synthetic" in err
        assert "engine error: WriterError at metrics.py:" in err
        assert (
            "writer of traces.csv, probe_rtt.csv, replica_busy_vcpu_seconds_total.csv, "
            "replica_outstanding_requests.csv, cpu_rate.csv exited with status 1"
        ) in err
        # the failure is the writer's, so the run is not replayed
        assert "the failure came from the writers or the export, not the run" in err
        assert builds == [1]
    else:
        assert "engine error: ZeroDivisionError at test_writers.py:" in err
        # the replay has no writers, so the failure does not recur there
        assert "the failure did not recur when the run was replayed" in err
        assert builds == [1, 1]
    # no rtt_matrix.yaml either, and the writer process was waited for
    assert [path.name for path in out.iterdir()] == ["event_log_tail.csv"]
    assert (out / "event_log_tail.csv").read_text().splitlines() == ["time_s,seq,kind"]
    assert len(pids) == (1 if cpus == 2 else 0)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(fedsim.bundled_scenario("poc_lc")), "--until", "200"],
        ["run", str(fedsim.bundled_scenario("blackout")), "--until", "320"],
        ["ping", str(fedsim.bundled_scenario("blackout")), "--interval", "0.1", "--duration", "310"],
    ],
    ids=["poc_lc", "blackout", "ping"],
)
def test_the_in_process_fallback_writes_the_bytes_of_the_writer_process(argv, tmp_path, monkeypatch, capsys):
    # a ping's matrix comes from the sums the writer process sends back, or
    # from the in-process formatter's own
    forks = _counted_forks(monkeypatch)
    files = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        assert cli.main([*argv, "--out-dir", str(out)]) == 0
        names = (*CSVS, "rtt_matrix.yaml") if argv[0] == "ping" else CSVS
        files[cpus] = {name: (out / name).read_bytes() for name in names}
        files[cpus]["stdout"] = capsys.readouterr().out.replace(str(out), "<out>")
    assert len(forks) == 1  # one writer process for both files, and only with two CPUs
    assert files[2] == files[1]
    assert len(files[1]["traces.csv"].splitlines()) > 1 + 2 * metrics.FRAME_ROWS or argv[0] == "ping"


@pytest.mark.parametrize("cpus", [2, 1])
def test_an_export_without_streams_leaves_the_rtt_sums_on_the_engine(cpus, tmp_path, monkeypatch):
    # the export writes the held rows through in-process streams of its own,
    # on any number of CPUs, and keeps the sums their formatter folded
    _cpus(monkeypatch, cpus)
    forks = _counted_forks(monkeypatch)
    engine = topology.build_runtime(make_topology(QUOTED))
    probes.run_ping(engine, interval_s=0.5, duration_s=25.0)
    metrics.export_csv(engine, tmp_path)
    assert not forks
    assert engine.probes  # and the engine keeps its rows
    stats = probes.rtt_stats(probes.group_rtts(engine.probes, len(engine.cluster_names)))
    assert stats.count[0][1] > 0 and probes.rtt_stats(engine.rtt_sums) == stats


def test_an_export_that_fits_in_one_frame_per_file_forks_no_writer(tmp_path, monkeypatch):
    # a one-shot export has no run to overlap, so it forks no writer process
    # whether its rows fit in one frame per file or not; a streamed run's
    # writer process writes the bytes to compare with
    _cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    text = fedsim.bundled_scenario("poc").read_text()
    for until, fits in ((5.0, True), (60.0, False)):
        held = topology.build_runtime(make_topology(text))
        held.run(until=until)
        assert (len(held.traces) <= metrics.FRAME_ROWS) == fits
        forks.clear()
        metrics.export_csv(held, tmp_path / f"held-{until}")
        assert not forks
        streamed = topology.build_runtime(make_topology(text))
        metrics.stream_csv(streamed, tmp_path / f"streamed-{until}")
        assert len(forks) == 1
        streamed.run(until=until)
        metrics.export_csv(streamed, tmp_path / f"streamed-{until}")
        for name in CSVS:
            assert (tmp_path / f"held-{until}" / name).read_bytes() == (tmp_path / f"streamed-{until}" / name).read_bytes()


def test_writers_fall_back_where_fork_is_missing(tmp_path, monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    engine = topology.build_runtime(make_topology(QUOTED))
    metrics.stream_csv(engine, tmp_path)
    assert engine.streams._pipe is None
    metrics.export_csv(engine, tmp_path)


@pytest.mark.parametrize("call, failing", [("pipe", 1), ("fork", 1), ("pipe", 2)], ids=["pipe", "fork", "sums_pipe"])
def test_writers_fall_back_where_the_writer_process_cannot_start(call, failing, tmp_path, monkeypatch, capsys):
    # the failing call is the first pipe (the rows), the fork, or the second
    # pipe (the RTT sums sent back)
    real, calls = getattr(os, call), []

    def fails():
        calls.append(call)
        if len(calls) == failing:
            raise OSError(errno.EAGAIN, "synthetic")
        return real()

    scenario = str(fedsim.bundled_scenario("poc_lc"))
    _cpus(monkeypatch, 1)
    assert cli.main(["run", scenario, "--until", "200", "--out-dir", str(tmp_path / "1")]) == 0
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, call, fails)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    assert cli.main(["run", scenario, "--until", "200", "--out-dir", str(tmp_path / "2")]) == 0
    capsys.readouterr()
    assert len(calls) == failing
    if fds is not None:  # no end of a pipe was left open
        assert len(os.listdir("/proc/self/fd")) == len(fds)
    for name in CSVS:
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_a_process_with_another_thread_does_not_fork(tmp_path):
    # from Python 3.12 a fork with other threads running warns, and the child
    # could be left holding a lock that another thread held at the fork
    scenario = fedsim.bundled_scenario("poc")
    script = f"""
        import os, threading
        {TWO_CPUS}
        from fedsim import cli

        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        assert cli.main(["run", {str(scenario)!r}, "--out-dir", "threaded", "--until", "60"]) == 0
        stop.set()
        other.join(10)
        assert not other.is_alive() and forks == [], forks
        assert cli.main(["run", {str(scenario)!r}, "--out-dir", "alone", "--until", "60"]) == 0
        assert forks == [1], forks
        for name in ("traces.csv", "probe_rtt.csv"):
            assert open(f"threaded/{{name}}", "rb").read() == open(f"alone/{{name}}", "rb").read()
        print("ok")
    """
    proc = _python(script, tmp_path, "-W", "error::DeprecationWarning")
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "ok", proc.stderr


class _InlineExecutor:
    """A process pool that runs its tasks in this process, so that the
    test sees every fork a sweep worker makes."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, function, tasks):
        # as in a pool worker, whatever its start method
        with unittest.mock.patch.object(multiprocessing, "parent_process", lambda: object()):
            return list(map(function, tasks))


@pytest.mark.parametrize("jobs, forks_per_run", [("1", 1), ("2", 0)])
def test_only_a_sweep_run_alone_forks_a_writer_process(jobs, forks_per_run, tmp_path, monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    argv = ["sweep", str(fedsim.bundled_scenario("poc")), "--param", "seed", "--values", "1,2,3"]
    assert cli.main([*argv, "--until", "30", "--jobs", jobs, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(forks) == 3 * forks_per_run


@pytest.mark.parametrize("context", ["fork", "spawn"])
def test_a_pool_worker_forks_no_writer_process(context, monkeypatch):
    _cpus(monkeypatch, 2)  # a forked worker inherits this
    assert metrics._forks()
    with concurrent.futures.ProcessPoolExecutor(1, multiprocessing.get_context(context)) as pool:
        assert pool.submit(metrics._forks).result(timeout=60) is False


@pytest.mark.parametrize("fork", [True, False])
def test_equal_send_times_keep_their_own_repr_in_either_writer(fork, tmp_path, monkeypatch):
    # a send time's repr is reused only for an equal value of the same type other than zero
    _cpus(monkeypatch, 2 if fork else 1)  # one CPU keeps the rows in-process
    engine = topology.build_runtime(make_topology(QUOTED))
    sent = [0.0, -0.0, -0.0, 0.0, 1, 1.0, 1.0, 1, 2.5, 2.5] * 30  # crosses frames
    samples = [(k % 3, (k + 1) % 3, t, None if k % 4 else 1.5) for k, t in enumerate(sent)]
    metrics.stream_csv(engine, tmp_path)
    streams = engine.streams
    assert (streams._pipe is not None) == fork
    streams.probes(samples[:7])
    streams.probes(samples[7:])
    streams.close()
    streams.close()  # a second close does nothing
    rows = (tmp_path / "probe_rtt.csv").read_bytes().splitlines()
    assert [row.split(b",")[-3] for row in rows[1:]] == [repr(t).encode() for t in sent]
