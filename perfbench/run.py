"""Repository benchmark: time the scenario-to-numbers path of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uniform-sweep --seed 7 --seconds 25 --trace 0

Every trial runs in a fresh interpreter (``trial.py``), so import, set-up
and memory are paid per trial as a user pays them per command.  With
``--trace 0`` the run repeats full trials for ``--seconds`` and reports the
end-to-end metrics as medians; with ``--trace 1`` it alternates untraced
and traced trials and reports the per-layer metrics, writing the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
task passed, 1 when any failed, and 2 (with no result) when the program
cannot be built or started.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import HERE, ROOT, SRC, WORKLOADS, load_workload, pinned_digests

#: Full trials a timed run makes even when they overrun ``--seconds``; two
#: keeps a ``mac-fanout`` run (15–19 s a trial) near ``--seconds``.
MIN_TRIALS = 2
#: No trial starts once this much of the run has gone, and a trial still
#: running then is stopped, so the run ends within 180 s [s].  A traced
#: ``mac-fanout`` pair takes about 90 s.
HARD_LIMIT_S = 165.0


class TrialError(RuntimeError):
    """A trial ended without a record: the program could not run at all."""


def run_trial(workload: str, seed: int, mode: str, work: Path, index: int, budget: float) -> dict:
    """Run one trial in a fresh interpreter and return its record."""
    trial_dir = work / f"trial-{index}"
    trial_dir.mkdir()
    out = work / f"trial-{index}.json"
    command = [
        sys.executable,
        str(HERE / "trial.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--work-dir", str(trial_dir),
        "--out", str(out),
    ]
    # A session of its own, so a trial that overruns is stopped together
    # with any pool worker it started.
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise TrialError(f"{mode} trial of {workload} did not finish in {budget:.0f} s") from None
    if process.returncode != 0 or not out.exists():
        raise TrialError(f"{mode} trial of {workload} failed:\n{stderr.strip()}")
    shutil.rmtree(trial_dir)
    return json.loads(out.read_text(encoding="utf-8"))


def check_tasks(trials: List[dict], pinned: Optional[List[str]]) -> Dict[str, int]:
    """Count attempted and failed tasks over all trials.

    A task fails when it raised or stalled, when its summary is implausible,
    when its digest differs from the pinned one for this seed, or when
    trials of the same seed disagree on it.
    """
    attempted = failed = 0
    reference = [task["digest"] for task in trials[0]["tasks"]]
    if pinned is None:
        pinned = reference
    elif len(pinned) != len(reference):
        pinned = [None] * len(reference)  # another task list matches no pinned digest
    for trial in trials:
        for task, first, expected in zip(trial["tasks"], reference, pinned):
            attempted += 1
            digest = task["digest"]
            bad_digest = digest is None or digest != first or digest != expected
            if task["problem"] is not None or bad_digest:
                failed += 1
                print(f"[perfbench] task failed: {task['label']}: "
                      f"{task['problem'] or f'digest {digest}'}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed}


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> tuple:
    """Full trials for ``seconds``; returns (trials, end-to-end metrics)."""
    started = time.perf_counter()
    trials: List[dict] = []
    durations: List[float] = []
    while True:
        began = time.perf_counter()
        budget = HARD_LIMIT_S - (began - started)
        trials.append(run_trial(workload, seed, "full", work, len(trials), budget))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - started
        estimate = statistics.median(durations)
        if len(trials) >= MIN_TRIALS and elapsed + estimate > seconds:
            break
        if elapsed + estimate > HARD_LIMIT_S:
            break
    metrics = {
        "setup_s": statistics.median(trial["setup_s"] for trial in trials),
        "sweep_s": statistics.median(trial["sweep_s"] for trial in trials),
        "peak_rss_mb": statistics.median(trial["peak_rss_mb"] for trial in trials),
    }
    # The modelled numbers are deterministic; check_tasks holds every
    # trial to the first one's digests.
    metrics.update(trials[0]["sim"])
    return trials, metrics


def traced_run(workload: str, seed: int, seconds: float, work: Path, trace_file: Path) -> tuple:
    """Pairs of untraced and traced trials; returns (trials, per-layer metrics)."""
    started = time.perf_counter()
    plain: List[dict] = []
    traced: List[dict] = []
    durations: List[float] = []
    while True:
        began = time.perf_counter()
        budget = HARD_LIMIT_S - (began - started)
        plain.append(run_trial(workload, seed, "full", work, 2 * len(plain), budget))
        budget = HARD_LIMIT_S - (time.perf_counter() - started)
        traced.append(run_trial(workload, seed, "trace", work, 2 * len(traced) + 1, budget))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(durations) > min(seconds, HARD_LIMIT_S):
            break
    metrics = {
        name: statistics.median(trial["layers"][name] for trial in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        trial["sweep_s"] for trial in traced
    ) / statistics.median(trial["sweep_s"] for trial in plain)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "jobs": traced[0]["jobs"],
                "spans": traced[0]["spans"],
                "counts": traced[0]["counts"],
                "metrics": metrics,
            }
        ),
        encoding="utf-8",
    )
    return plain + traced, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_workload(args.workload, args.seed)  # fails early on a broken workload file

    if not (SRC / "repro" / "api.py").is_file():
        print(f"[perfbench] no program to measure: {SRC / 'repro' / 'api.py'} is missing",
              file=sys.stderr)
        return 2
    # Build: byte-compile the sources so no trial pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("[perfbench] the sources do not compile", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=scratch))
    try:
        if args.trace:
            trace_file = scratch / f"trace-{args.workload}-seed{args.seed}.json"
            trials, metrics = traced_run(args.workload, args.seed, args.seconds, work, trace_file)
        else:
            trials, metrics = timed_run(args.workload, args.seed, args.seconds, work)
    except TrialError as error:
        print(f"[perfbench] {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pinned = pinned_digests().get(args.workload, {}).get(str(args.seed))
    counts = check_tasks(trials, pinned)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"[perfbench] metrics not measured: {', '.join(missing)}", file=sys.stderr)
    correct = counts["failed"] == 0 and not missing
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
