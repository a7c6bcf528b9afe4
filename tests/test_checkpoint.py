"""Checkpoint/restore: bit-identical resume, engine policy, the store.

The PR-8 contracts:

* **Golden resume matrix** — for ≥ 2 architectures × {uniform, faulted},
  a run checkpointed every N cycles and resumed from *any* of its
  checkpoints produces a result payload bit-identical to the
  uninterrupted run.  The faulted runs place checkpoints after fault
  events fired, while affected packets are still draining, so the
  injector's event cursor and the recovery routing state round-trip too.
* **Pool growth** — the packet pool grows between checkpoints and the
  later (larger-capacity) snapshots still resume bit-identically.
* **Engine policy** — a scalar checkpoint resumes under either engine
  request; a vector checkpoint under an explicit scalar request raises
  :class:`CheckpointEngineMismatchError`, as does restoring a snapshot
  through the wrong ``KernelState`` class.
* **Store semantics** — atomic save/load round-trip, corrupt and
  version-mismatched files fail loudly via :func:`load_checkpoint` but
  read as "no checkpoint" through :class:`CheckpointStore`, and
  :func:`execute_task` resumes from a planted checkpoint and deletes it
  on completion.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace

import pytest

from repro.core.config import Architecture
from repro.faults import create_fault_plan
from repro.metrics.saturation import LoadPointSummary
from repro.noc.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointEngineMismatchError,
    CheckpointError,
    KernelCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.noc.kernel import KernelState
from repro.noc.vector import VectorKernelState
from repro.parallel.checkpoints import CheckpointStore
from repro.parallel.runner import execute_task, task_simulator, uniform_task
from repro.testing import small_system_config


@dataclass(frozen=True)
class _Fidelity:
    cycles: int = 400
    warmup_cycles: int = 100
    seed: int = 11


def _task(architecture, faults="none", cycles=400, load=0.05, seed=11):
    return uniform_task(
        small_system_config(architecture),
        _Fidelity(cycles=cycles, seed=seed),
        load=load,
        faults=faults,
        fault_rate=0.4 if faults != "none" else 0.0,
    )


def _payload(task, result):
    """Exactly the fingerprint :func:`execute_task` caches and serves."""
    return LoadPointSummary.from_result(task.load, result).as_dict()


def _checkpointed_run(task, every, engine="scalar"):
    """Run ``task`` once, collecting a checkpoint every ``every`` cycles."""
    checkpoints = []
    simulator = task_simulator(task, engine=engine)
    simulator.simulation_config = replace(
        simulator.simulation_config, checkpoint_every_cycles=every
    )
    simulator.checkpoint_sink = checkpoints.append
    result = simulator.run()
    return checkpoints, _payload(task, result)


def _resume(task, checkpoint, engine="scalar"):
    return _payload(task, task_simulator(task, engine=engine).run(resume_from=checkpoint))


# ----------------------------------------------------------------------
# Golden resume matrix: every checkpoint of every run resumes
# bit-identically, across architectures and fault modes.
# ----------------------------------------------------------------------


class TestGoldenResumeMatrix:
    @pytest.mark.parametrize(
        "architecture", (Architecture.SUBSTRATE, Architecture.WIRELESS)
    )
    @pytest.mark.parametrize("faults", ("none", "random-links"))
    def test_resume_from_every_checkpoint(self, architecture, faults):
        task = _task(architecture, faults=faults)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, checkpointed = _checkpointed_run(task, every=100)
        # Checkpointing itself must not perturb the run...
        assert checkpointed == baseline
        # ...and the final cycle is never checkpointed (the run is done).
        assert [c.cycle for c in checkpoints] == [99, 199, 299]
        for checkpoint in checkpoints:
            assert checkpoint.engine == "scalar"
            assert _resume(task, checkpoint) == baseline

    def test_faulted_checkpoints_land_mid_drain(self):
        """The faulted matrix rows really do snapshot during fault events.

        ``random-links`` schedules its failures mid-run; with checkpoints
        every 100 cycles, at least one checkpoint must fall at or after
        the first fault event — i.e. while recovery routing is active and
        committed packets are still draining over the failed links.
        """
        task = _task(Architecture.SUBSTRATE, faults="random-links")
        simulator = task_simulator(task)
        plan = create_fault_plan(
            task.faults,
            simulator.topology,
            fault_rate=task.fault_rate,
            seed=task.fault_plan_seed(),
            cycles=task.cycles,
        )
        assert plan.events, "fault_rate=0.4 must schedule at least one failure"
        first_event = min(event.at_cycle for event in plan.events)
        checkpoints, _ = _checkpointed_run(task, every=100)
        assert any(c.cycle >= first_event for c in checkpoints)

    def test_pool_grows_between_checkpoints(self, monkeypatch):
        """Later snapshots carry a grown pool and still resume exactly.

        The production growth chunk (256 records) exceeds what this tiny
        system ever holds live, so the chunk is shrunk to force several
        amortised-doubling growths mid-run; results are independent of
        pool capacity, so the baseline stays comparable.
        """
        monkeypatch.setattr("repro.noc.pool._GROWTH_CHUNK", 8)
        task = _task(Architecture.SUBSTRATE, load=0.15)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, _ = _checkpointed_run(task, every=100)
        capacities = [
            pickle.loads(c.payload).state.pool.capacity for c in checkpoints
        ]
        assert capacities[-1] > capacities[0]
        grown = next(
            c
            for c, capacity in zip(checkpoints, capacities)
            if capacity > capacities[0]
        )
        assert _resume(task, grown) == baseline


class TestParkedResume:
    """Snapshots taken while switches are parked resume exactly (schema v3).

    At saturation most occupied switches are parked on downstream input
    ports: out of the scheduler's allocation set, registered in the ports'
    ``waiters`` sets.  Both pieces of state ride in the pickled kernel
    graph, so a resumed run must wake the same switches in the same
    cycles as the uninterrupted one.
    """

    @staticmethod
    def _parked(checkpoint):
        kernel = pickle.loads(checkpoint.payload)
        candidates = {s.switch_id for s in kernel.scheduler.allocation_candidates()}
        switches = kernel.state.network.switches.values()
        waiting = set().union(*(port.waiters for s in switches for port in s.input_port_list))
        return {
            s.switch_id
            for s in switches
            if s.occupied and s.switch_id not in candidates and s.switch_id in waiting
        }

    @pytest.mark.parametrize("architecture", (Architecture.SUBSTRATE, Architecture.WIRELESS))
    def test_checkpoint_with_parked_switches_resumes_exactly(self, architecture):
        assert CHECKPOINT_SCHEMA_VERSION == 3
        task = _task(architecture, load=0.3)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, checkpointed = _checkpointed_run(task, every=100)
        assert checkpointed == baseline
        parked = [c for c in checkpoints if self._parked(c)]
        assert parked, "no checkpoint caught a parked switch"
        for checkpoint in parked:
            assert _resume(task, checkpoint) == baseline


class TestWheelRoundTrip:
    """The vector engine's calendar wheel (PR 10) pickles mid-flight.

    A checkpoint lands at a cycle boundary, but flits already launched
    onto multi-cycle links are still in the wheel — pending deliveries
    spread over future slots.  Those snapshots must resume exactly: the
    wheel slot arrays, counts and the pending total all round-trip.
    """

    @staticmethod
    def _occupied_slots(checkpoint):
        state = pickle.loads(checkpoint.payload).state
        counts = [int(count) for count in state.wheel_count]
        assert sum(counts) == state.wheel_pending
        return [slot for slot, count in enumerate(counts) if count]

    def test_mid_flight_wheel_checkpoint_resumes_exactly(self):
        task = _task(Architecture.SUBSTRATE, load=0.08)
        baseline = _payload(task, task_simulator(task).run())
        baseline.pop("engine_used")
        checkpoints, _ = _checkpointed_run(task, every=100, engine="vector")
        in_flight = [c for c in checkpoints if len(self._occupied_slots(c)) >= 2]
        # The substrate's inter-chip links take several cycles, so under
        # this load some boundary must catch deliveries pending in at
        # least two distinct future slots — otherwise this test would
        # only cover an empty wheel and pass vacuously.
        assert in_flight, "no checkpoint caught the wheel mid-flight"
        for checkpoint in in_flight:
            resumed = _resume(task, checkpoint, engine="vector")
            assert resumed.pop("engine_used") == "vector"
            assert resumed == baseline


# ----------------------------------------------------------------------
# Engine policy.
# ----------------------------------------------------------------------


class TestEnginePolicy:
    def test_scalar_checkpoint_resumes_under_vector_request(self):
        task = _task(Architecture.SUBSTRATE)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, _ = _checkpointed_run(task, every=150)
        assert _resume(task, checkpoints[0], engine="vector") == baseline

    def test_vector_checkpoint_resumes_under_vector_request(self):
        task = _task(Architecture.SUBSTRATE)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, checkpointed = _checkpointed_run(task, every=150, engine="vector")
        # The engine_used stamp records which path actually ran; every
        # simulated quantity must still match the scalar baseline exactly.
        assert checkpointed.pop("engine_used") == "vector"
        assert baseline.pop("engine_used") == "scalar"
        assert checkpointed == baseline
        assert checkpoints[0].engine == "vector"
        resumed = _resume(task, checkpoints[0], engine="vector")
        assert resumed.pop("engine_used") == "vector"
        assert resumed == baseline

    def test_vector_checkpoint_rejected_by_scalar_request(self):
        task = _task(Architecture.SUBSTRATE)
        checkpoints, _ = _checkpointed_run(task, every=150, engine="vector")
        with pytest.raises(CheckpointEngineMismatchError):
            _resume(task, checkpoints[0], engine="scalar")

    def test_state_restore_rejects_wrong_class(self):
        task = _task(Architecture.SUBSTRATE, cycles=200)
        scalar_kernel = pickle.loads(_checkpointed_run(task, every=100)[0][0].payload)
        vector_kernel = pickle.loads(
            _checkpointed_run(task, every=100, engine="vector")[0][0].payload
        )
        scalar_bytes = scalar_kernel.state.snapshot()
        vector_bytes = vector_kernel.state.snapshot()
        assert isinstance(KernelState.restore(scalar_bytes), KernelState)
        assert isinstance(VectorKernelState.restore(vector_bytes), VectorKernelState)
        with pytest.raises(CheckpointEngineMismatchError):
            KernelState.restore(vector_bytes)
        with pytest.raises(CheckpointEngineMismatchError):
            VectorKernelState.restore(scalar_bytes)


# ----------------------------------------------------------------------
# On-disk format and the store.
# ----------------------------------------------------------------------


class TestCheckpointFiles:
    def _checkpoint(self):
        task = _task(Architecture.SUBSTRATE, cycles=200)
        return _checkpointed_run(task, every=100)[0][0]

    def test_save_load_round_trip(self, tmp_path):
        checkpoint = self._checkpoint()
        path = tmp_path / "run.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded == checkpoint

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_payload_type_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(pickle.dumps({"surprise": True}))
        with pytest.raises(CheckpointError, match="dict"):
            load_checkpoint(path)

    def test_version_mismatch_raises(self, tmp_path):
        stale = replace(self._checkpoint(), version=CHECKPOINT_SCHEMA_VERSION + 1)
        path = tmp_path / "run.ckpt"
        save_checkpoint(stale, path)
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_store_reads_damage_as_cold_start(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("missing") is None
        store.path_for("broken").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("broken").write_bytes(b"truncated")
        assert store.load("broken") is None
        checkpoint = self._checkpoint()
        store.save("good", checkpoint)
        assert store.load("good") == checkpoint
        assert store.keys() == ["broken", "good"]
        store.discard("good")
        store.discard("good")  # idempotent
        assert store.keys() == ["broken"]


class TestExecuteTaskResume:
    def test_resumes_planted_checkpoint_and_discards_it(self, tmp_path):
        task = _task(Architecture.WIRELESS, cycles=300)
        baseline = execute_task(task)
        checkpoints, _ = _checkpointed_run(task, every=100)
        store = CheckpointStore(tmp_path)
        key = task.cache_key()
        store.save(key, checkpoints[-1])
        payload = execute_task(
            task, checkpoint_every=100, checkpoint_dir=str(tmp_path)
        )
        assert payload == baseline
        assert not store.path_for(key).exists()

    def test_cold_starts_over_corrupt_checkpoint(self, tmp_path):
        task = _task(Architecture.WIRELESS, cycles=300)
        baseline = execute_task(task)
        store = CheckpointStore(tmp_path)
        key = task.cache_key()
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"damaged by a previous crash")
        payload = execute_task(
            task, checkpoint_every=100, checkpoint_dir=str(tmp_path)
        )
        assert payload == baseline
        assert not store.path_for(key).exists()
