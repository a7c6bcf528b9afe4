"""Checkpoint/restore for the simulation kernel.

A checkpoint is a :class:`KernelCheckpoint`: the complete mutable state of
one mid-run :class:`~repro.noc.kernel.SimulationKernel`, captured as a
pickle of the kernel object graph at a cycle boundary.  Everything a cycle
can mutate — the :class:`~repro.noc.pool.PacketPool` arrays, VC rings and
port round-robin state, scheduler wake sets, traffic-model RNGs, the
energy accountant, the fault injector's event cursor — is reachable from
the kernel, and pickling the graph preserves the aliasing between them
(e.g. the kernel state's hot array caches stay views of the pool's lists),
so a restored kernel continues the run *bit-identically* to one that was
never interrupted.  ``tests/test_checkpoint.py`` pins that guarantee on
the golden-fingerprint matrix.

Checkpoints are taken at cycle boundaries only (after the cycle's phases
and watchdog ran), so no phase-internal scratch state exists at capture
time.  The engine that produced a checkpoint is recorded: a scalar
checkpoint can be resumed under either engine request (a ``"vector"``
request simply continues the scalar kernel, which is bit-identical by
construction), but a vector checkpoint resumed under an explicit
``"scalar"`` request raises :class:`CheckpointEngineMismatchError` — the
scalar phases never maintained the VC object state the snapshot lacks.

On-disk format: a single pickle of the :class:`KernelCheckpoint`
dataclass, written atomically (tempfile + ``os.replace``) so a crash
mid-write can never leave a truncated checkpoint that parses.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointEngineMismatchError",
    "KernelCheckpoint",
    "graph_pickling_limit",
    "load_checkpoint",
    "save_checkpoint",
]

#: Bumped whenever the pickled kernel graph changes shape incompatibly.
#: A version mismatch is a :class:`CheckpointError` at load time, never a
#: silent misresume.  v2: the vector state's owner/rev dicts became flat
#: claim-index lists and the arrivals dict became a calendar-wheel of
#: preallocated arrays (PR 10) — v1 vector checkpoints cannot resume.
#: v3: input ports carry the parked-switch ``waiters`` sets and the
#: active-set scheduler its pass list (event-driven allocation); v2 graphs
#: lack both, so they cannot resume.
CHECKPOINT_SCHEMA_VERSION = 3


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, validated, or resumed."""


@contextmanager
def graph_pickling_limit(num_switches: int) -> Iterator[None]:
    """Temporarily widen the recursion limit for pickling a kernel graph.

    Pickling recurses the fabric's switch-port-VC chain hop by hop (the
    pickler enters each ``Switch → InputPort → VirtualChannel →
    OutputPort → Switch`` link before memoising it), costing roughly 20
    interpreter frames per switch on the longest unmemoised path.  The
    budget below is ~3x that, plus generous headroom for the caller's own
    stack — scaled to the topology so any architecture size snapshots
    without touching the process-wide default.  *Un*pickling builds
    iteratively off the memo and needs no widening.
    """
    limit = sys.getrecursionlimit()
    needed = 2000 + 64 * max(0, num_switches)
    if needed > limit:
        sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class CheckpointEngineMismatchError(CheckpointError):
    """A checkpoint was resumed under an engine that cannot continue it.

    Raised when a vector-engine snapshot is restored by an explicit
    ``engine="scalar"`` request: the scalar phases read per-VC object state
    that the vector engine never maintained, so continuing would not be
    bit-identical.  The converse direction is fine — a ``"vector"`` request
    resumes a scalar checkpoint with the scalar phases, exactly like the
    vector engine's transparent fallback on wireless or faulted runs.
    """


@dataclass(frozen=True)
class KernelCheckpoint:
    """One resumable kernel snapshot.

    ``engine`` is the engine that was *actually driving* the run
    (``"scalar"`` or ``"vector"``) — after fallback, not as configured.
    ``cycle`` is the last fully executed cycle; resuming continues at
    ``cycle + 1``.  ``payload`` is the pickled kernel object graph.
    """

    engine: str
    cycle: int
    payload: bytes
    version: int = CHECKPOINT_SCHEMA_VERSION


def save_checkpoint(checkpoint: KernelCheckpoint, path: Union[str, Path]) -> None:
    """Write ``checkpoint`` to ``path`` atomically."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            pickle.dump(checkpoint, stream, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path: Union[str, Path]) -> KernelCheckpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as stream:
            checkpoint = pickle.load(stream)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as error:
        raise CheckpointError(f"corrupt checkpoint {path}: {error}") from error
    if not isinstance(checkpoint, KernelCheckpoint):
        raise CheckpointError(
            f"checkpoint {path} holds a {type(checkpoint).__name__}, "
            "expected KernelCheckpoint"
        )
    if checkpoint.version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema v{checkpoint.version}, "
            f"this build reads v{CHECKPOINT_SCHEMA_VERSION}"
        )
    return checkpoint
