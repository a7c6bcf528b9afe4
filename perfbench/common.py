"""Workload documents, task digests and paths shared by the benchmark files."""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_DIR = HERE / "workloads"
DIGESTS = HERE / "digests.json"

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ["uniform-sweep", "app-traffic", "fault-recovery", "mac-fanout"]


def load_workload(name: str, seed: int) -> Dict[str, object]:
    """One workload file with the seed written into its scenario document.

    The seed reaches the program only as the document's ``fidelity.seed``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    workload = json.loads((WORKLOAD_DIR / f"{name}.json").read_text(encoding="utf-8"))
    scenario = copy.deepcopy(workload["scenario"])
    scenario["fidelity"]["seed"] = seed
    workload["scenario"] = scenario
    return workload


def summary_digest(payload: Mapping[str, object]) -> str:
    """Digest of one task's summary payload, without the engine provenance."""
    fields = {key: value for key, value in payload.items() if key != "engine_used"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def pinned_digests() -> Dict[str, Dict[str, List[str]]]:
    """Workload -> seed (as text) -> per-task digests, in task order."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))
