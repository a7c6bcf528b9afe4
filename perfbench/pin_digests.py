"""Re-pin the per-task summary digests that ``run.py`` checks results against.

Run only after a change that is meant to alter simulation results::

    python3 perfbench/pin_digests.py

It runs one full trial of every workload at each pinned seed and rewrites
``digests.json``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

from common import DIGESTS, ROOT, WORKLOADS
from run import run_trial

#: The fidelity levels' default seed and one seed held out from tuning.
PINNED_SEEDS = (7, 101)


def main() -> int:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
    pinned = {}
    try:
        for index, (workload, seed) in enumerate(itertools.product(WORKLOADS, PINNED_SEEDS)):
            trial = run_trial(workload, seed, "full", work, index, 600.0)
            problems = [task for task in trial["tasks"] if task["problem"]]
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            pinned.setdefault(workload, {})[str(seed)] = [task["digest"] for task in trial["tasks"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
