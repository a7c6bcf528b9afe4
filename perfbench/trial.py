"""One benchmark trial, run by ``run.py`` in a fresh interpreter.

Modes:

* ``full`` times the set-up (``import repro.api``, compiling the workload's
  scenario and building the first task's simulator), then sweeps the whole
  task list through ``repro.api.sweep`` (a workload with a cache starts
  from an empty one and then re-sweeps warm), checks every task and
  measures peak memory.
* ``trace`` is ``full`` with a span around every layer's public call,
  followed by a profiled pass (``build_simulator(task, profile=True)``)
  that gives the kernel phase seconds and the network counters.

The trial writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from common import SRC, load_workload, summary_digest
from tracing import Tracer, install, self_times

#: Kernel phases of a fault-free run, as ``SimulationResult.phase_seconds`` names them.
NOC_PHASES = ("arrival", "generation", "injection", "fabric", "allocation")


def run_sweep(sweep, tasks: list, runner):
    """``(results, errors)``; a failing task is retried alone to find which failed."""
    try:
        return sweep(tasks, runner=runner), {}
    except Exception:
        results, errors = {}, {}
        for task in tasks:
            try:
                results.update(sweep([task], runner=runner))
            except Exception as error:
                errors[task] = f"{type(error).__name__}: {error}"
        return results, errors


def summary_problem(summary) -> Optional[str]:
    """Why a task summary is not a plausible result, or ``None``."""
    for key, value in summary.as_dict().items():
        if isinstance(value, float) and not math.isfinite(value):
            return f"{key} is not finite"
    if summary.packets_delivered <= 0:
        return "no packet delivered"
    if not 0.0 < summary.delivery_ratio <= 1.0:
        return f"delivery ratio {summary.delivery_ratio} outside (0, 1]"
    for key in ("system_packet_energy_nj", "average_latency_cycles", "bandwidth_gbps_per_core"):
        if getattr(summary, key) <= 0:
            return f"{key} is not positive"
    return None


def sim_metrics(tasks: list, results: dict) -> Dict[str, float]:
    """The modelled fault-free systems of the workload: delivered-packet-weighted
    energy and latency, and the peak accepted bandwidth per core."""
    points = [results[task] for task in tasks if task in results and task.faults == "none"]
    delivered = sum(point.packets_delivered for point in points)
    if not delivered:
        return {}
    return {
        "sim_packet_energy_nj": sum(
            p.packets_delivered * p.system_packet_energy_nj for p in points
        ) / delivered,
        "sim_latency_cycles": sum(
            p.packets_delivered * p.average_latency_cycles for p in points
        ) / delivered,
        "sim_bandwidth_gbps_per_core": max(p.bandwidth_gbps_per_core for p in points),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child [MB]."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def sweep_record(api, workload: dict, tasks: list, work: Path, sweep) -> dict:
    """Sweep the tasks (cold, then warm for a cached workload) and check them."""
    jobs = int(workload["jobs"])
    cache_dir = str(work / "cache") if workload["cache"] else None
    started = time.perf_counter()
    results, errors = run_sweep(sweep, tasks, api.make_runner(jobs=jobs, cache_dir=cache_dir))
    sweep_s = time.perf_counter() - started

    warm_s = 0.0
    warm: dict = {}
    if cache_dir is not None:
        runner = api.make_runner(jobs=jobs, cache_dir=cache_dir)
        started = time.perf_counter()
        warm, _ = run_sweep(api.sweep, tasks, runner)
        warm_s = time.perf_counter() - started

    checks: List[dict] = []
    for task in tasks:
        summary = results.get(task)
        if summary is None:
            checks.append({"label": task.label, "digest": None, "problem": errors.get(task)})
            continue
        digest = summary_digest(summary.as_dict())
        problem = summary_problem(summary)
        if cache_dir is not None and problem is None:
            cached = warm.get(task)
            if cached is None or summary_digest(cached.as_dict()) != digest:
                problem = "warm re-sweep does not return the cold result"
        checks.append({"label": task.label, "digest": digest, "problem": problem})
    return {
        "jobs": jobs,
        "sweep_s": sweep_s,
        "warm_sweep_s": warm_s,
        "tasks": checks,
        "sim": sim_metrics(tasks, results),
    }


def profiled_pass(api, tasks: list) -> Dict[str, float]:
    """Kernel phase seconds and network counters from profiled runs."""
    totals: Counter = Counter()
    for task in tasks:
        result = api.build_simulator(task, profile=True).run()
        for phase, seconds in result.phase_seconds.items():
            totals[f"phase.{phase}"] += seconds
        totals["flit_hops"] += result.flit_hops
        totals["wireless_flit_hops"] += result.wireless_flit_hops
        for stats in result.mac_statistics.values():
            totals["mac_grants"] += stats["grants"]
            totals["control_packets"] += stats["control_packets"]
            totals["idle_grant_cycles"] += stats["idle_grant_cycles"]
    return dict(totals)


def layer_metrics(spans: list, counts: dict, profile: dict, record: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced trial; every ``_s`` span metric is self time."""
    own = self_times(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    busy = 0.0
    for name, _, span_id, _, start, end in spans:
        self_s[name] += own[span_id]
        calls[name] += 1
        if name == "parallel.execute":
            busy += end - start
    jobs = record["jobs"]
    wall = record["sweep_s"]
    phase_s = {phase: profile.get(f"phase.{phase}", 0.0) for phase in NOC_PHASES}
    flit_hops = profile.get("flit_hops", 0)
    route_calls = counts.get("routing.route_calls", 0)
    metrics = {
        "scenario.compile_s": self_s["scenario.compile"],
        "core.build_s": self_s["core.build"],
        "core.builds": calls["core.build"],
        "noc.network_build_s": self_s["noc.network_build"],
        "noc.kernel_s": self_s["noc.run"],
        "noc.flit_hops": flit_hops,
        "noc.ns_per_flit_hop": 1e9 * sum(phase_s.values()) / flit_hops if flit_hops else 0.0,
        "routing.route_calls": route_calls,
        "routing.routes_computed": counts.get("routing.routes_computed", 0),
        "routing.route_hit_ratio": (
            1.0 - counts.get("routing.routes_computed", 0) / route_calls if route_calls else 0.0
        ),
        "routing.dijkstra_runs": calls["routing.dijkstra"],
        "routing.dijkstra_s": self_s["routing.dijkstra"],
        "routing.rebuild_s": self_s["routing.rebuild"],
        "routing.cdg_check_s": self_s["routing.cdg_check"],
        "faults.faults_s": profile.get("phase.faults", 0.0),
        "faults.recoveries": calls["faults.recover"],
        "faults.recover_s": self_s["faults.recover"],
        "wireless.flit_hops": profile.get("wireless_flit_hops", 0),
        "wireless.mac_grants": profile.get("mac_grants", 0),
        "wireless.control_packets": profile.get("control_packets", 0),
        "wireless.idle_grant_cycles": profile.get("idle_grant_cycles", 0),
        "metrics.summary_s": self_s["metrics.summary"],
        # Sweep time the batches' busy time, shared over the jobs, does not cover.
        "parallel.dispatch_s": wall - busy / jobs,
        "parallel.worker_busy_ratio": busy / (jobs * wall) if wall > 0 else 0.0,
        "parallel.cache_put_s": self_s["parallel.cache_put"],
        "parallel.cache_get_s": self_s["parallel.cache_get"],
        "parallel.hash_s": self_s["parallel.hash"],
        "parallel.warm_sweep_s": record["warm_sweep_s"],
    }
    metrics.update({f"noc.{phase}_s": seconds for phase, seconds in phase_s.items()})
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "trace"), required=True)
    parser.add_argument("--work-dir", required=True, help="empty directory owned by this trial")
    parser.add_argument("--out", required=True, help="file the JSON record is written to")
    args = parser.parse_args(argv)

    workload = load_workload(args.workload, args.seed)
    work = Path(args.work_dir)
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import repro.api as api

    tracer = None
    compile_call, sweep_call = api.compile_scenario, api.sweep
    with contextlib.ExitStack() as patches:
        if args.mode == "trace":
            tracer = Tracer(work)
            install(tracer, patches)
            compile_call = tracer.span("scenario.compile", api.compile_scenario)
            sweep_call = tracer.span("parallel.sweep", api.sweep)
        tasks = compile_call(workload["scenario"])
        api.build_simulator(tasks[0])
        record = {"setup_s": time.perf_counter() - started}

        tasks = list(dict.fromkeys(tasks))  # duplicates run once, as in the runner
        record.update(sweep_record(api, workload, tasks, work, sweep_call))
        record["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.collect()
        profile = profiled_pass(api, tasks)
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
        record["layers"] = layer_metrics(tracer.spans, record["counts"], profile, record)

    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
