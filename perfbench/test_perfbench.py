"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They show that every output check rejects a corrupted copy of a small run's
artifacts, that the scenario generators are pure functions of their seed,
that the tracer and the runner's result mark a missing entry point absent,
that the runner counts rejected and non-deterministic outputs as failed
operations, that the speed gauge's samples and the scaling by them behave,
and that it refuses to report without a source tree.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402
from fedsim import cli, metrics, netem  # noqa: E402

SEED = 7
SMALL = {"pipeline_lc": 0.1, "wide_rr_faults": 0.2, "ping_wide": 0.2}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """One small run per workload: {workload: (doc, artifact dir)}."""
    runs = {}
    for workload, scale in SMALL.items():
        base = tmp_path_factory.mktemp(workload)
        doc = scenarios.GENERATORS[workload](SEED, scale)
        scenario = base / "scenario.yaml"
        scenario.write_text(scenarios.render(doc))
        out = base / "out"
        assert cli.main(scenarios.cli_args(workload, doc, str(scenario), str(out))) == 0
        runs[workload] = (doc, out)
    return runs


@pytest.fixture
def corrupt(small_runs, tmp_path):
    """Copy a small run's artifacts, apply ``mutate(doc, out)``, check them."""

    def apply(workload, mutate):
        doc, out = small_runs[workload]
        copy = tmp_path / "artifacts"
        shutil.copytree(out, copy)
        mutate(doc, copy)
        return checks.check(workload, doc, copy)

    return apply


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def write_rows(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def edit_rows(path: Path, edit) -> None:
    rows = read_rows(path)
    write_rows(path, edit(rows) or rows)


def edit_summary(out: Path, **changes) -> None:
    doc = yaml.safe_load((out / "summary.yaml").read_text())
    for key, delta in changes.items():
        doc["results"][key] += delta
    (out / "summary.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))


def first(rows, predicate):
    return next(row for row in rows if predicate(row))


def blackout(doc):
    return next(e for e in doc["timeline"] if e["action"] == "blackout")


def set_link(doc):
    return next(e for e in doc["timeline"] if e["action"] == "set_link")


# -- a clean run passes ---------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_clean_small_run_passes(small_runs, workload):
    doc, out = small_runs[workload]
    assert checks.check(workload, doc, out) == []


# -- every check can fail -------------------------------------------------------


def _swap_fe_stamps(rows):
    row = first(rows, lambda r: r["outcome"] == "completed")
    row["fe_start"], row["fe_end"] = row["fe_end"], row["fe_start"]


def _drop_traces(share):
    def mutate(doc, out):
        rows = read_rows(out / "traces.csv")
        kept = rows[: int(len(rows) * (1 - share))]
        write_rows(out / "traces.csv", kept)
        edit_summary(out, arrivals=len(kept) - len(rows), completed=len(kept) - len(rows))

    return mutate


def _bump_payload(rows):
    rows[0]["payload_bytes"] = str(int(rows[0]["payload_bytes"]) + 1000)


def _bump_last_busy_sample(rows):
    rows[-1]["value"] = repr(float(rows[-1]["value"]) + 0.5)


def _pick_inside_blackout(doc, out):
    event = blackout(doc)

    def edit(rows):
        row = first(rows, lambda r: r["be_dispatch"] and event["at_s"] <= float(r["be_dispatch"]) < event["end_s"])
        row["be_cluster"] = event["cluster"]

    edit_rows(out / "traces.csv", edit)


def _no_pick_after_blackout(doc, out):
    dc, end = blackout(doc)["cluster"], blackout(doc)["end_s"]
    other = next(d for d in scenarios.DCS if d != dc)

    def edit(rows):
        for row in rows:
            if row["be_cluster"] == dc and end <= float(row["be_dispatch"]) < end + checks.RESUME_WINDOW_S:
                row["be_cluster"] = other

    edit_rows(out / "traces.csv", edit)


def _unbalance_round_robin(doc, out):
    # move one pick of one frontend, before the first outage, from its least
    # to its most picked backend: the spread becomes at least two
    first_outage = min(e["at_s"] for e in doc["timeline"] if e["action"] == "blackout")

    def edit(rows):
        early = [r for r in rows if r["be_dispatch"] and float(r["be_dispatch"]) < first_outage]
        frontend = (early[0]["fe_cluster"], early[0]["fe_replica"])
        mine = [r for r in early if (r["fe_cluster"], r["fe_replica"]) == frontend]
        counts: dict = {}
        for r in mine:
            counts[(r["be_cluster"], r["be_replica"])] = counts.get((r["be_cluster"], r["be_replica"]), 0) + 1
        least, most = min(counts, key=counts.get), max(counts, key=counts.get)
        moved = first(mine, lambda r: (r["be_cluster"], r["be_replica"]) == least)
        moved["be_cluster"], moved["be_replica"] = most

    edit_rows(out / "traces.csv", edit)


def _shortcut_changed_link(doc, out):
    event = set_link(doc)

    def edit(rows):
        row = first(
            rows,
            lambda r: r["fe_cluster"] == event["src"]
            and r["be_cluster"] == event["dst"]
            and r["be_start"]
            and float(r["be_dispatch"]) >= event["at_s"],
        )
        row["be_start"] = row["be_dispatch"]

    edit_rows(out / "traces.csv", edit)


def _zero_loss_pair(doc):
    lossy = {(e["src"], e["dst"]) for e in doc["links"]["loss"]}
    names = [c["name"] for c in doc["clusters"]]
    return next((a, b) for a in names for b in names if a != b and (a, b) not in lossy and (b, a) not in lossy)


def _lose_probes(doc, out):
    src, dst = _zero_loss_pair(doc)

    def edit(rows):
        pair = [r for r in rows if (r["src"], r["dst"]) == (src, dst)]
        for row in pair[: len(pair) // 5]:
            row["rtt_ms"], row["lost"] = "", "true"

    edit_rows(out / "probe_rtt.csv", edit)


def _slow_pair(rows):
    pair = (rows[1]["src"], rows[1]["dst"])
    for row in rows:
        if (row["src"], row["dst"]) == pair and row["rtt_ms"]:
            row["rtt_ms"] = repr(float(row["rtt_ms"]) + 20.0)


def _add_trace_row(doc, out):
    with (out / "traces.csv").open("a") as handle:
        handle.write("0,completed" + "," * 15 + "\n")


def _edit_matrix(doc, out):
    matrix = yaml.safe_load((out / "rtt_matrix.yaml").read_text())
    names = [c["name"] for c in doc["clusters"]]
    matrix["mean_rtt_ms"][names[0]][names[1]] += 1.0
    (out / "rtt_matrix.yaml").write_text(yaml.safe_dump(matrix, sort_keys=False))


CORRUPTIONS = {
    ("pipeline_lc", "conservation"): lambda doc, out: edit_summary(out, in_flight=1),
    ("wide_rr_faults", "conservation"): lambda doc, out: edit_summary(out, arrivals=1),
    ("ping_wide", "conservation"): _add_trace_row,
    ("pipeline_lc", "trace_counts"): lambda doc, out: edit_rows(out / "traces.csv", lambda rows: rows[:-1]),
    ("wide_rr_faults", "trace_counts"): lambda doc, out: edit_summary(out, lost=1, completed=-1),
    ("pipeline_lc", "trace_order"): lambda doc, out: edit_rows(out / "traces.csv", _swap_fe_stamps),
    ("wide_rr_faults", "trace_order"): lambda doc, out: edit_rows(out / "traces.csv", _swap_fe_stamps),
    ("pipeline_lc", "no_loss"): lambda doc, out: edit_summary(out, lost=1, completed=-1),
    ("pipeline_lc", "arrival_count"): _drop_traces(0.3),
    ("pipeline_lc", "demand"): lambda doc, out: edit_rows(out / "traces.csv", _bump_payload),
    ("pipeline_lc", "busy_counter"): lambda doc, out: edit_rows(
        out / "replica_busy_vcpu_seconds_total.csv", _bump_last_busy_sample
    ),
    ("wide_rr_faults", "blackout"): _pick_inside_blackout,
    ("wide_rr_faults", "blackout_resume"): _no_pick_after_blackout,
    ("wide_rr_faults", "rr_balance"): _unbalance_round_robin,
    ("wide_rr_faults", "set_link"): _shortcut_changed_link,
    ("ping_wide", "probe_count"): lambda doc, out: edit_rows(out / "probe_rtt.csv", lambda rows: rows[:-1]),
    ("ping_wide", "rtt_mean"): lambda doc, out: edit_rows(out / "probe_rtt.csv", _slow_pair),
    ("ping_wide", "loss"): _lose_probes,
    ("ping_wide", "diagonal"): lambda doc, out: edit_rows(
        out / "probe_rtt.csv", lambda rows: first(rows, lambda r: r["src"] == r["dst"]).update(rtt_ms="0.2")
    ),
    ("ping_wide", "rtt_matrix"): _edit_matrix,
}


@pytest.mark.parametrize("workload,check", sorted(CORRUPTIONS), ids=lambda v: v)
def test_check_rejects_corruption(corrupt, workload, check):
    failures = corrupt(workload, CORRUPTIONS[(workload, check)])
    name = check.split("_resume")[0]
    assert any(failure.startswith(f"{name}:") for failure in failures), failures
    if check == "blackout_resume":
        assert any("after its outage" in failure for failure in failures), failures


def test_loss_interval_is_exact_binomial():
    # the mean is 3 losses: 13 is rare but possible, 20 is not
    assert checks.binomial_plausible(13, 400, 0.0075)
    assert not checks.binomial_plausible(20, 400, 0.0075)
    assert not checks.binomial_plausible(0, 400, 0.0975)
    assert checks.binomial_plausible(0, 400, 0.0) and not checks.binomial_plausible(1, 400, 0.0)


def test_unreadable_artifacts_are_rejected(corrupt):
    failures = corrupt("pipeline_lc", lambda doc, out: (out / "summary.yaml").unlink())
    assert failures and failures[0].startswith("artifacts:")


# -- generators -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(scenarios.GENERATORS))
def test_generator_is_a_pure_function_of_its_seed(workload):
    generate = scenarios.GENERATORS[workload]
    doc = generate(SEED)
    random.seed(12345)
    random.random()
    assert generate(SEED) == doc
    assert scenarios.render(generate(SEED)) == scenarios.render(doc)
    assert generate(SEED + 1) != doc


def test_generator_output_does_not_depend_on_the_process():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scenarios; "
        "print(''.join(scenarios.render(g(5)) for _, g in sorted(scenarios.GENERATORS.items())), end='')"
    )
    texts = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        texts.add(subprocess.run([sys.executable, "-c", code, str(HERE)], env=env, capture_output=True, text=True, check=True).stdout)
    texts.add("".join(scenarios.render(g(5)) for _, g in sorted(scenarios.GENERATORS.items())))
    assert len(texts) == 1


def test_generated_jitter_leaves_headroom_for_unbiased_means():
    for workload, generate in scenarios.GENERATORS.items():
        doc = generate(SEED)
        names = [c["name"] for c in doc["clusters"]]
        delay = doc["links"]["one_way_delay_ms"]
        for entry in doc["links"]["jitter"]:
            d = delay[names.index(entry["src"])][names.index(entry["dst"])]
            assert d >= scenarios.JITTER_HEADROOM * entry["scale_ms"], (workload, entry)


# -- tracer and runner --------------------------------------------------------------


@pytest.mark.parametrize(
    "owner,attribute,expected",
    [
        (netem.ClassifierTable, "classify", {"netem.classify_calls", "netem.classify_s"}),
        # cli.other_s is the CLI's time less its stages, so it is absent with any of them
        (metrics, "export_csv", {"metrics.export_s", "cli.other_s"}),
    ],
    ids=["classify", "export_csv"],
)
def test_tracer_reports_a_missing_entry_point_as_absent(monkeypatch, owner, attribute, expected):
    monkeypatch.delattr(owner, attribute)
    original_loss = netem.sample_loss
    t = tracer.Tracer()
    t.install()
    try:
        assert netem.sample_loss is not original_loss
    finally:
        t.uninstall()
    assert netem.sample_loss is original_loss
    values, absent = t.layers()
    assert set(absent) == expected
    assert all(values[name] == 0 for name in absent)


def test_traced_command_counts_every_scheduled_event(small_runs, tmp_path):
    doc, _ = small_runs["wide_rr_faults"]
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(scenarios.render(doc))
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(scenarios.cli_args("wide_rr_faults", doc, str(scenario), str(tmp_path / "out"))) == 0
    finally:
        t.uninstall()
    values, absent = t.layers()
    assert absent == []
    summary = yaml.safe_load((tmp_path / "out" / "summary.yaml").read_text())["results"]
    assert values["engine.events"] == summary["events"]
    assert values["engine.events.arrival"] == summary["arrivals"]
    # a blackout compiles to a start and an end action, every other event to one
    actions = sum(2 if e["action"] == "blackout" else 1 for e in doc["timeline"])
    assert values["faults.apply_calls"] == values["engine.events.timeline_apply"] == actions
    assert values["mesh.pick_calls"] > 0 and values["netem.drops"] > 0


@pytest.fixture
def small_workload(monkeypatch, tmp_path):
    """The runner's Workload over a small pipeline_lc scenario, with its
    output directory under ``tmp_path`` instead of the source tree."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    generate = scenarios.GENERATORS["pipeline_lc"]
    monkeypatch.setitem(scenarios.GENERATORS, "pipeline_lc", lambda seed: generate(seed, SMALL["pipeline_lc"]))
    return run.Workload("pipeline_lc", SEED)


def test_runner_checks_the_first_output_and_skips_identical_ones(small_workload, monkeypatch):
    checked = []
    check = checks.check
    monkeypatch.setattr(checks, "check", lambda *args: checked.append(args) or check(*args))
    assert small_workload.operation("plain") is not None
    assert small_workload.operation("plain") is not None
    assert len(checked) == 1
    assert (small_workload.attempted, small_workload.failed, small_workload.correct) == (2, 0, True)


def test_runner_rejects_output_that_differs_from_an_earlier_run(small_workload, monkeypatch, capsys):
    digests = iter(["first", "second"])
    monkeypatch.setattr(checks, "digest", lambda out: next(digests))
    assert small_workload.operation("plain") is not None
    assert small_workload.operation("plain") is None
    assert (small_workload.attempted, small_workload.failed, small_workload.correct) == (2, 1, False)
    assert "determinism:" in capsys.readouterr().err


def test_runner_counts_rejected_outputs_as_failed(small_workload, monkeypatch, capsys):
    monkeypatch.setattr(checks, "check", lambda *args: ["demand: corrupted"])
    with pytest.raises(SystemExit, match="no operation succeeded"):
        run.measure(small_workload, 0, traced=False)
    assert (small_workload.attempted, small_workload.failed, small_workload.correct) == (1, 1, False)
    assert "demand: corrupted" in capsys.readouterr().err


def test_speed_gauge_samples_through_the_wrapped_code_and_leaves_its_time_out():
    with child.SpeedGauge() as gauge:
        start = perf_counter()
        while perf_counter() - start < 3.5 * child.GAUGE_PERIOD_S:
            pass
        end = perf_counter()
    # one sample on entry, before the interval, then one per period inside it
    inside = [e - s for s, e in gauge.ticks if start <= s and e <= end]
    assert len(gauge.samples()) >= 4 and len(inside) >= 3
    assert gauge.net(start, end) == pytest.approx(end - start - sum(inside))
    assert gauge.net(end + 1.0, end + 2.0) == 1.0


def test_scaling_takes_out_the_machine_speed():
    assert run.scaled(1.5, [run.REFERENCE_S] * 3) == pytest.approx(1.5)
    # half speed throughout: the loop takes twice as long, so did the work
    assert run.scaled(3.0, [2 * run.REFERENCE_S] * 3) == pytest.approx(1.5)
    # half the time at each speed: the work done goes as 1 / the loop's time
    assert run.scaled(2.0, [run.REFERENCE_S, 2 * run.REFERENCE_S]) == pytest.approx(1.5)


def _copy_tree(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


def test_runner_marks_a_missing_entry_point_absent(tmp_path):
    # a refactor that renames ClassifierTable.classify: the program still
    # runs, and the result marks the classify metrics absent instead of 0
    _copy_tree(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for path in (tmp_path / "src" / "fedsim").glob("*.py"):
        text = path.read_text()
        path.write_text(text.replace("def classify(self", "def lookup(self").replace("table.classify(", "table.lookup("))
    assert "def lookup(self" in (tmp_path / "src" / "fedsim" / "netem.py").read_text()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_lc", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    reported = result["metrics"]
    assert {name for name, metric in reported.items() if metric.get("absent")} == {"netem.classify_calls", "netem.classify_s"}
    assert reported["netem.delay_calls"]["value"] > 0


def test_runner_fails_without_a_source_tree(tmp_path):
    _copy_tree(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ping_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t = tracer.Tracer()
    values, _ = t.layers()
    per_layer = set(values) | {f"metrics.bytes.{a}" for a in run.ARTIFACTS} | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(scenarios.GENERATORS)
