"""Self-tests of the benchmark: the correctness gate, the seed plumbing and
the layer shares of the traced run.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The traced runs take about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from common import ROOT, SRC, WORKLOADS, load_workload, summary_digest  # noqa: E402
from tracing import self_times  # noqa: E402
from trial import sim_metrics  # noqa: E402

sys.path.insert(0, str(SRC))

import repro.api as api  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traces():
    """Workload -> (result line, trace file) of one traced run at seed 7."""
    runs = {}
    for workload in WORKLOADS:
        process = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert process.returncode == 0, process.stderr
        trace_file = ROOT / ".perfbench" / f"trace-{workload}-seed7.json"
        runs[workload] = (result_of(process), json.loads(trace_file.read_text()))
    return runs


def share_of_run(trace: dict, layers) -> float:
    """Self time of the given layers' spans over the inclusive ``Simulator.run`` time."""
    own = self_times(trace["spans"])
    run = sum(end - start for name, _, _, _, start, end in trace["spans"] if name == "noc.run")
    layer = sum(
        own[span_id]
        for name, _, span_id, _, _, _ in trace["spans"]
        if name.split(".")[0] in layers
    )
    return layer / run


def generation_share(metrics: dict) -> float:
    phases = ("arrival", "generation", "injection", "fabric", "allocation")
    total = sum(metrics[f"noc.{phase}_s"]["value"] for phase in phases)
    return metrics["noc.generation_s"]["value"] / total


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_reaches_every_task(workload):
    first = api.compile_scenario(load_workload(workload, 3)["scenario"])
    second = api.compile_scenario(load_workload(workload, 11)["scenario"])
    assert {task.seed for task in first} == {3}
    assert {task.seed for task in second} == {11}
    assert [task.with_seed(11) for task in first] == second


def test_wrong_digest_counts_as_failure(monkeypatch, capsys):
    monkeypatch.setattr(run, "pinned_digests", lambda: {"app-traffic": {"7": ["0" * 20] * 6}})
    code = run.main(["--workload", "app-traffic", "--seed", "7", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_no_program_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = bench("--workload", "uniform-sweep", "--seed", "7", "--seconds", "1", cwd=tmp_path)
    assert process.returncode not in (0, 1)
    assert process.stdout.strip() == ""


def test_results_identical_across_job_counts(tmp_path):
    tasks = api.compile_scenario(load_workload("mac-fanout", 7)["scenario"])[:6]
    inline = api.sweep(tasks, jobs=1)
    pooled = api.sweep(tasks, jobs=2, cache_dir=str(tmp_path))
    assert [summary_digest(inline[t].as_dict()) for t in tasks] == [
        summary_digest(pooled[t].as_dict()) for t in tasks
    ]
    assert sim_metrics(tasks, inline) == sim_metrics(tasks, pooled)


def test_traced_run_reports_every_per_layer_metric(traces):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in declared["per_layer"]}
    for result, _ in traces.values():
        assert result["correct"] is True
        assert result["failed"] == 0
        assert set(result["metrics"]) == names


def test_self_times_are_not_negative(traces):
    for _, trace in traces.values():
        assert trace["spans"]
        assert all(end >= start for *_, start, end in trace["spans"])
        assert min(self_times(trace["spans"]).values()) >= 0.0


def test_faults_and_routing_dominate_only_fault_recovery(traces):
    layers = ("faults", "routing")
    assert share_of_run(traces["fault-recovery"][1], layers) > 0.5
    # Routes are still computed at first use on a pristine fabric: 5-6% of
    # Simulator.run on the reference machine.
    assert share_of_run(traces["uniform-sweep"][1], layers) < 0.10


def test_generation_share_is_higher_under_application_traffic(traces):
    app = generation_share(traces["app-traffic"][0]["metrics"])
    uniform = generation_share(traces["uniform-sweep"][0]["metrics"])
    assert app > uniform


def test_only_the_pooled_workload_dispatches(traces):
    # Dispatch share of the sweep: parallel.dispatch_s over sweep wall time,
    # which is one minus the workers' busy ratio.
    share = {
        workload: 1.0 - result["metrics"]["parallel.worker_busy_ratio"]["value"]
        for workload, (result, _) in traces.items()
    }
    pooled = share.pop("mac-fanout")
    for workload, inline in share.items():
        assert 0.0 <= inline < 0.01, workload
        assert pooled > inline, workload
