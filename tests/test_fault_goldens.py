"""Golden digests of faulted runs: a bit-identity gate for routing recovery.

Each case is one short fig7-style task (the fig7 systems, fast fidelity's
seed, a reduced cycle budget) under a fault scenario that exercises a
different recovery path: ``cascading`` walks a failure front that may
partition the fabric, ``random-links`` makes many connectivity-preserving
failures and ``hub-transceiver-loss`` kills wireless transceivers (a no-op
on the wired systems).  The digest covers every field of the task's
:class:`~repro.metrics.saturation.LoadPointSummary` except the engine
provenance, so any change to a recovered route, a reroute decision or the
fallback choice shows up here.

Re-pin only after a change that is meant to alter simulation results::

    PYTHONPATH=src python tests/test_fault_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.experiments.common import get_fidelity
from repro.experiments.fig7_resilience import fig7_systems
from repro.parallel.runner import execute_task, uniform_task

#: Fast fidelity's seed with a cycle budget short enough for tier-1.
FIDELITY = SimpleNamespace(cycles=400, warmup_cycles=100, seed=get_fidelity("fast").seed)

#: Offered load of every case [packets/core/cycle].
LOAD = 0.002

FAULTS = (("cascading", 0.1), ("random-links", 0.15), ("hub-transceiver-loss", 0.5))

#: (system, scenario@rate) -> digest of the summary payload.
GOLDEN = {
    "mesh cascading@0.1": "3c968eb4d8948b6eb224",
    "mesh random-links@0.15": "9d4393e8ee19f058dabb",
    "mesh hub-transceiver-loss@0.5": "e25f7031e82d91e181cd",
    "interposer cascading@0.1": "85d0534ae32658f0700b",
    "interposer random-links@0.15": "7a62b954bd56845a87bf",
    "interposer hub-transceiver-loss@0.5": "f6af696bfc7ae91b21c6",
    "wireless cascading@0.1": "8fdef7728c01a67dd9fa",
    "wireless random-links@0.15": "c74d373ec62f973e94f3",
    "wireless hub-transceiver-loss@0.5": "5aa66fc1a75664d2e527",
}


def summary_digest(payload) -> str:
    """Digest of one summary payload, without the engine provenance."""
    fields = {key: value for key, value in payload.items() if key != "engine_used"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def case_digest(system: str, faults: str, rate: float) -> str:
    task = uniform_task(
        fig7_systems()[system], FIDELITY, load=LOAD, faults=faults, fault_rate=rate
    )
    return summary_digest(execute_task(task))


CASES = [(system, faults, rate) for system in fig7_systems() for faults, rate in FAULTS]


@pytest.mark.parametrize(
    "system,faults,rate", CASES, ids=[f"{s}-{f}@{r}" for s, f, r in CASES]
)
def test_faulted_summary_digest_is_pinned(system, faults, rate):
    assert case_digest(system, faults, rate) == GOLDEN[f"{system} {faults}@{rate}"]


if __name__ == "__main__":
    for system, faults, rate in CASES:
        print(f'    "{system} {faults}@{rate}": "{case_digest(system, faults, rate)}",')
