"""Parity and scheduling tests for the phase-structured simulation kernel.

The central guarantee of the kernel refactor: the active-set scheduler
(which skips idle switches and parks credit-blocked ones) reproduces the
dense reference scheduler (the original engine's visit-everything loop)
*bit for bit* — same counters, same per-packet latency samples, same
energy breakdown, same MAC statistics — on every architecture, under both
synthetic and application traffic, for every registered MAC and under
faults.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.architectures import build_system
from repro.core.config import Architecture, SystemConfig
from repro.core.framework import MultichipSimulation
from repro.energy import EnergyAccountant
from repro.faults.injector import FaultInjector
from repro.noc.config import NetworkConfig
from repro.noc.engine import SCHEDULERS, SimulationConfig, Simulator
from repro.noc.kernel import (
    ActiveSetScheduler,
    DenseScheduler,
    SimulationKernel,
    SimulationStallError,
    make_scheduler,
)
from repro.noc.network import Network
from repro.noc.stats import SimulationResult
from repro.routing import ShortestPathRouter
from repro.testing import small_network_config, small_system_config
from repro.topology.graph import (
    EndpointKind,
    LinkKind,
    RegionKind,
    SwitchKind,
    TopologyGraph,
)
from repro.traffic.base import TrafficModel, TrafficRequest
from repro.traffic.registry import create_pattern
from repro.traffic.synfull import SynfullApplicationTraffic
from repro.wireless.mac import available_macs

#: The four comparison systems: a single-chip mesh baseline plus the
#: paper's three multichip interconnect architectures.
ARCHITECTURES = {
    "mesh": lambda: SystemConfig(
        architecture=Architecture.SUBSTRATE,
        num_chips=1,
        cores_per_chip=8,
        num_memory_stacks=2,
        vaults_per_stack=2,
        cores_per_wi=4,
        total_processing_area_mm2=100.0,
        network=small_network_config(),
    ),
    "substrate": lambda: small_system_config(Architecture.SUBSTRATE),
    "interposer": lambda: small_system_config(Architecture.INTERPOSER),
    "wireless": lambda: small_system_config(Architecture.WIRELESS),
}


def result_fingerprint(result):
    """Everything that must be identical between the two schedulers."""
    return {
        "packets_offered": result.packets_offered,
        "packets_generated": result.packets_generated,
        "packets_delivered": result.packets_delivered,
        "packets_delivered_measured": result.packets_delivered_measured,
        "flits_injected": result.flits_injected,
        "flits_ejected_measured": result.flits_ejected_measured,
        "flit_hops": result.flit_hops,
        "wireless_flit_hops": result.wireless_flit_hops,
        "latencies": tuple(result.latencies_cycles),
        "network_latencies": tuple(result.network_latencies_cycles),
        "packet_energies": tuple(result.packet_energies_pj),
        "packet_hops": tuple(result.packet_hops),
        "energy": result.energy.as_dict(),
        "mac_statistics": result.mac_statistics,
        "sleep_fraction": result.transceiver_sleep_fraction,
        "stalled": result.stalled,
        "offered_load": result.offered_load_packets_per_core_per_cycle,
    }


def run_with_scheduler(config, traffic_factory, scheduler, cycles=500):
    system = build_system(config)
    traffic = traffic_factory(system)
    simulator = Simulator(
        topology=system.topology,
        router=system.router,
        traffic=traffic,
        network_config=config.network,
        simulation_config=SimulationConfig(
            cycles=cycles, warmup_cycles=cycles // 4, scheduler=scheduler
        ),
    )
    return simulator.run()


def uniform_factory(rate=0.03, seed=11):
    def make(system):
        return create_pattern(
            "uniform",
            system.topology,
            injection_rate=rate,
            memory_access_fraction=0.25,
            seed=seed,
        )

    return make


def synfull_factory(application="canneal", seed=5):
    def make(system):
        return SynfullApplicationTraffic.from_name(
            system.topology, application, rate_scale=0.4, seed=seed
        )

    return make


class TestKernelParity:
    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_uniform_parity_across_architectures(self, name):
        config = ARCHITECTURES[name]()
        dense = run_with_scheduler(config, uniform_factory(), "dense")
        active = run_with_scheduler(config, uniform_factory(), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_synfull_parity_across_architectures(self, name):
        config = ARCHITECTURES[name]()
        dense = run_with_scheduler(config, synfull_factory(), "dense")
        active = run_with_scheduler(config, synfull_factory(), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    def test_parity_with_memory_replies(self):
        """Reply traffic (delivery callbacks re-queue packets) stays identical."""

        def factory(system):
            from repro.traffic.uniform import UniformRandomTraffic

            return UniformRandomTraffic(
                system.topology,
                injection_rate=0.03,
                memory_access_fraction=0.3,
                memory_replies=True,
                seed=3,
            )

        config = small_system_config(Architecture.WIRELESS)
        dense = run_with_scheduler(config, factory, "dense")
        active = run_with_scheduler(config, factory, "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    def test_parity_at_saturating_load(self):
        """Wake sets must also match when the network is congested."""
        config = small_system_config(Architecture.INTERPOSER)
        dense = run_with_scheduler(config, uniform_factory(rate=0.3), "dense")
        active = run_with_scheduler(config, uniform_factory(rate=0.3), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    def test_parity_under_token_mac(self):
        config = small_system_config(Architecture.WIRELESS, mac="token")
        dense = run_with_scheduler(config, uniform_factory(), "dense")
        active = run_with_scheduler(config, uniform_factory(), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)


def scenario_task(system, load, cycles=500, **extra):
    """The single task of a one-system scenario document (production path)."""
    document = {
        "name": "parity",
        "fidelity": {"level": "fast", "cycles": cycles, "warmup_cycles": cycles // 4, "seed": 3},
        "systems": [system],
        "traffic": {
            "kind": "synthetic",
            "pattern": "uniform",
            "memory_fractions": [0.2],
            "loads": [load],
        },
        **extra,
    }
    (task,) = api.compile_scenario(document)
    return task


def run_task_with_scheduler(task, scheduler):
    simulator = api.build_simulator(task)
    simulator.simulation_config = replace(simulator.simulation_config, scheduler=scheduler)
    return simulator.run()


@pytest.fixture
def park_counter(monkeypatch):
    """Counts active-set visits that parked their switch."""
    parks = []
    original = ActiveSetScheduler.after_allocation

    def counted(self, switch, blocked):
        if blocked is not None:
            parks.append(switch.switch_id)
        original(self, switch, blocked)

    monkeypatch.setattr(ActiveSetScheduler, "after_allocation", counted)
    return parks


class TestEventDrivenParity:
    """Parking, waking and the MAC-turn gate stay bit-identical to dense.

    Saturating load keeps most switches credit-blocked, so the active-set
    scheduler parks them constantly; every run asserts that parking really
    happened, so no case can pass vacuously.
    """

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mac", available_macs())
    @pytest.mark.parametrize("preset", ("4C4M", "8C4M"))
    def test_every_mac_and_channel_count_at_saturation(
        self, preset, mac, channels, park_counter
    ):
        task = scenario_task(
            {"preset": preset, "architecture": "wireless"},
            load=0.01,
            macs=[mac],
            channels=[channels],
        )
        assert task.mac == mac
        assert task.config.network.wireless.num_channels == channels
        dense = run_task_with_scheduler(task, "dense")
        assert not park_counter  # the dense oracle never parks
        active = run_task_with_scheduler(task, "active")
        assert park_counter
        assert active.wireless_flit_hops > 0
        assert result_fingerprint(dense) == result_fingerprint(active)

    def test_cascading_faults_at_saturation(self, park_counter):
        task = scenario_task(
            {"preset": "4C4M", "architecture": "wireless", "cores_per_wi": 8},
            load=0.01,
            cycles=800,
            faults={"scenario": "cascading", "rates": [0.1]},
        )
        assert task.faults == "cascading"
        dense = run_task_with_scheduler(task, "dense")
        active = run_task_with_scheduler(task, "active")
        assert active.fault_events_applied > 0
        assert park_counter
        assert result_fingerprint(dense) == result_fingerprint(active)
        assert active.packets_rerouted == dense.packets_rerouted
        assert active.packets_dropped_unroutable == dense.packets_dropped_unroutable

    def test_fault_cycles_wake_every_parked_switch(self, monkeypatch):
        """Recovery fires no wake event, so a fault cycle visits every occupied switch.

        A purge can free a VC that a parked switch waits on without any
        flit leaving it; the kernel therefore returns every parked switch
        to the allocation pass of each cycle with due fault events.
        """
        due_states = []
        advance = FaultInjector.advance

        def recording_advance(injector, cycle, state):
            due = advance(injector, cycle, state)
            if due:
                due_states.append(state)
            return due

        parked = set()
        after_allocation = ActiveSetScheduler.after_allocation

        def recording_after_allocation(scheduler, switch, blocked):
            if blocked is not None:
                parked.add(switch.switch_id)
            else:
                parked.discard(switch.switch_id)
            after_allocation(scheduler, switch, blocked)

        woken = []
        candidates = ActiveSetScheduler.allocation_candidates

        def checked_candidates(scheduler):
            state = due_states.pop() if due_states else None
            occupied = set()
            if state is not None:
                occupied = {
                    sid for sid, switch in state.network.switches.items() if switch.occupied
                }
                woken.extend(occupied & parked)
            visited = set()
            for switch in candidates(scheduler):
                visited.add(switch.switch_id)
                yield switch
            assert occupied <= visited

        monkeypatch.setattr(FaultInjector, "advance", recording_advance)
        monkeypatch.setattr(ActiveSetScheduler, "after_allocation", recording_after_allocation)
        monkeypatch.setattr(ActiveSetScheduler, "allocation_candidates", checked_candidates)
        task = scenario_task(
            {"preset": "4C4M", "architecture": "wireless", "cores_per_wi": 8},
            load=0.01,
            cycles=800,
            faults={"scenario": "cascading", "rates": [0.1]},
        )
        result = run_task_with_scheduler(task, "active")
        assert result.fault_events_applied > 0
        assert woken, "no fault cycle found a parked switch"


class _RecordingScheduler:
    """Scheduler mixin logging moving visits and park/wake/buffer events."""

    def attach(self, state):
        self._state = state
        self.moves = []
        self.events = []

    def _progress(self):
        result = self._state.result
        return result.flit_hops + result.flits_ejected_total

    def allocation_candidates(self):
        for switch in super().allocation_candidates():
            self._before = self._progress()
            yield switch

    def after_allocation(self, switch, blocked):
        cycle = self._state.cycle
        if self._progress() != self._before:
            self.moves.append((cycle, switch.switch_id))
        if blocked is not None:
            self.events.append(("park", cycle, switch.switch_id))
        super().after_allocation(switch, blocked)

    def on_flit_buffered(self, switch):
        self.events.append(("buffered", self._state.cycle, switch.switch_id))
        super().on_flit_buffered(switch)

    def wake_waiters(self, waiters, visiting):
        cycle = self._state.cycle
        self.events.extend(("wake", cycle, sid) for sid in waiters)
        super().wake_waiters(waiters, visiting)


class _RecordingDense(_RecordingScheduler, DenseScheduler):
    pass


class _RecordingActive(_RecordingScheduler, ActiveSetScheduler):
    pass


class TestSameCycleWake:
    """A pop at switch 0 wakes parked switch 1 into the *current* pass.

    Two switches joined by one link; the core at switch 1 streams packets
    to the core at switch 0 through one 2-flit VC per port, so switch 1
    spends most cycles credit-blocked on switch 0's input buffer.  Dense
    visits switch 0 first in every cycle, so the space its ejection frees
    is used by switch 1 in the same cycle.  The active-set scheduler must
    reproduce that: a parked switch with a higher id than the popping one
    joins the pass in progress.
    """

    @staticmethod
    def _graph():
        graph = TopologyGraph()
        region = graph.add_region(
            kind=RegionKind.PROCESSOR_CHIP,
            name="chip0",
            mesh_cols=2,
            mesh_rows=1,
            origin_mm=(0.0, 0.0),
            edge_mm=2.0,
        )
        ids = []
        for x in range(2):
            switch = graph.add_switch(
                kind=SwitchKind.CORE,
                region_id=region.region_id,
                grid_x=x,
                grid_y=0,
                position_mm=(float(x), 0.0),
            )
            graph.add_endpoint(EndpointKind.CORE, switch.switch_id)
            ids.append(switch.switch_id)
        graph.add_link(ids[0], ids[1], LinkKind.MESH, 1.0)
        return graph

    @staticmethod
    def _run(scheduler, cycles=300):
        class Stream(TrafficModel):
            def generate(self, cycle):
                yield TrafficRequest(self._cores[1], self._cores[0])

        graph = TestSameCycleWake._graph()
        net_config = NetworkConfig(
            virtual_channels=1, buffer_depth_flits=2, packet_length_flits=4
        )
        network = Network(graph, net_config)
        accountant = EnergyAccountant(technology=net_config.technology)
        result = SimulationResult(cycles=cycles, warmup_cycles=0, num_cores=2)
        kernel = SimulationKernel(
            network=network,
            router=ShortestPathRouter(graph),
            traffic=Stream(graph),
            accountant=accountant,
            result=result,
            config=SimulationConfig(cycles=cycles, warmup_cycles=0),
            net_config=net_config,
            scheduler=scheduler,
        )
        scheduler.attach(kernel.state)
        kernel.run()
        return result

    def test_parked_upstream_switch_is_served_in_the_waking_cycle(self):
        dense_scheduler = _RecordingDense()
        active_scheduler = _RecordingActive()
        dense = self._run(dense_scheduler)
        active = self._run(active_scheduler)
        assert dense.packets_delivered > 10
        assert result_fingerprint(dense) == result_fingerprint(active)
        # Every flit-moving visit happens at the same switch in the same
        # cycle under both schedulers...
        assert active_scheduler.moves == dense_scheduler.moves
        # ...including visits of switch 1 that only a same-cycle wake can
        # explain: parked in cycle c - 1, nothing buffered into it in
        # cycle c, woken by switch 0's pop in cycle c and moving a flit.
        events = set(active_scheduler.events)
        same_cycle = [
            cycle
            for cycle, sid in active_scheduler.moves
            if sid == 1
            and ("park", cycle - 1, 1) in events
            and ("wake", cycle, 1) in events
            and ("buffered", cycle, 1) not in events
        ]
        assert same_cycle, "no same-cycle wake was exercised"
        # The dense oracle ignores parkable visits, so no port ever holds
        # a waiter and nothing is ever woken under it.
        assert ("park", 2, 1) in dense_scheduler.events
        assert not [event for event in dense_scheduler.events if event[0] == "wake"]


class TestMacGrantContract:
    """``MacProtocol.grants`` implies the WI holds the channel, side-effect free.

    The allocator skips a WI's grant scan whenever ``current_transmitter()``
    names another WI, which is exact only under this contract.  The probe
    asks every member WI about every pending packet (and a dummy one)
    after each MAC update — far more often than the allocator does — and
    the probed run must still equal the unprobed one.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        mac=st.sampled_from(available_macs()),
        channels=st.sampled_from([1, 2]),
        rate=st.sampled_from([0.02, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_grant_implies_current_transmitter(self, mac, channels, rate, seed):
        def simulator():
            config = small_system_config(Architecture.WIRELESS, mac=mac).with_wireless(
                num_channels=channels
            )
            system = build_system(config)
            return Simulator(
                topology=system.topology,
                router=system.router,
                traffic=uniform_factory(rate=rate, seed=seed)(system),
                network_config=config.network,
                simulation_config=SimulationConfig(cycles=300, warmup_cycles=75),
            )

        granted = []

        def probe_macs(network):
            fabric = network.wireless_fabric
            for protocol in fabric.macs:
                protocol.update = _probed_update(fabric, protocol, granted)

        probed = simulator()
        probed.instrument = probe_macs
        assert result_fingerprint(probed.run()) == result_fingerprint(simulator().run())
        if rate >= 0.1:
            assert granted, "expected some granted transmissions at this load"


def _probed_update(fabric, protocol, granted):
    original = protocol.update

    def update(cycle):
        original(cycle)
        for wi in protocol.wi_switch_ids:
            count = fabric.scan_pending(wi)
            rows = [
                (fabric.pend_pid[row], fabric.pend_dst[row], bool(fabric.pend_head[row]))
                for row in range(count)
            ]
            rows += [(-1, wi, True), (-1, wi, False)]
            for pid, dst, is_head in rows:
                if protocol.grants(wi, pid, dst, is_head):
                    assert protocol.current_transmitter() == wi, (cycle, wi, pid)
                    granted.append(cycle)

    return update


class TestSchedulerSelection:
    def test_known_schedulers(self):
        assert isinstance(make_scheduler("dense"), DenseScheduler)
        assert isinstance(make_scheduler("active"), ActiveSetScheduler)
        assert set(SCHEDULERS) == {"active", "dense"}

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("bogus")
        with pytest.raises(ValueError, match="unknown scheduler"):
            SimulationConfig(cycles=100, warmup_cycles=10, scheduler="bogus")

    def test_default_is_active(self):
        assert SimulationConfig().scheduler == "active"


class TestActiveSetBookkeeping:
    def test_idle_network_visits_no_switches(self):
        """At zero load the wake sets stay empty for the whole run."""
        config = small_system_config(Architecture.WIRELESS)
        system = build_system(config)
        traffic = uniform_factory(rate=0.0)(system)
        scheduler = ActiveSetScheduler()
        simulator = Simulator(
            topology=system.topology,
            router=system.router,
            traffic=traffic,
            network_config=config.network,
            simulation_config=SimulationConfig(cycles=200, warmup_cycles=50),
        )
        # Run through the kernel directly so we can inspect the scheduler.
        from repro.energy import EnergyAccountant
        from repro.noc.kernel import SimulationKernel
        from repro.noc.network import Network
        from repro.noc.stats import SimulationResult

        network = Network(system.topology, config.network)
        accountant = EnergyAccountant(technology=config.network.technology)
        for fabric in network.fabrics:
            fabric.bind_accountant(accountant)
        result = SimulationResult(cycles=200, warmup_cycles=50, num_cores=8)
        kernel = SimulationKernel(
            network=network,
            router=system.router,
            traffic=traffic,
            accountant=accountant,
            result=result,
            config=simulator.simulation_config,
            net_config=config.network,
            scheduler=scheduler,
        )
        traffic.reset()
        kernel.run()
        assert not list(scheduler.allocation_candidates())
        assert not list(scheduler.injection_candidates())

    def test_wake_sets_drain_after_traffic_stops(self):
        """Once all packets deliver, every switch goes back to sleep."""

        class OneShotTraffic(TrafficModel):
            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

        config = small_system_config(Architecture.INTERPOSER)
        system = build_system(config)
        traffic = OneShotTraffic(system.topology)
        scheduler = ActiveSetScheduler()

        from repro.energy import EnergyAccountant
        from repro.noc.kernel import SimulationKernel
        from repro.noc.network import Network
        from repro.noc.stats import SimulationResult

        network = Network(system.topology, config.network)
        accountant = EnergyAccountant(technology=config.network.technology)
        for fabric in network.fabrics:
            fabric.bind_accountant(accountant)
        result = SimulationResult(cycles=400, warmup_cycles=0, num_cores=8)
        kernel = SimulationKernel(
            network=network,
            router=system.router,
            traffic=traffic,
            accountant=accountant,
            result=result,
            config=SimulationConfig(cycles=400, warmup_cycles=0),
            net_config=config.network,
            scheduler=scheduler,
        )
        kernel.run()
        assert result.packets_delivered == 1
        assert not list(scheduler.allocation_candidates())
        assert not list(scheduler.injection_candidates())


class TestWatchdog:
    def _kernel(self, traffic, config, sim_config):
        from repro.energy import EnergyAccountant
        from repro.noc.kernel import SimulationKernel
        from repro.noc.network import Network
        from repro.noc.stats import SimulationResult

        system = build_system(config)
        network = Network(system.topology, config.network)
        accountant = EnergyAccountant(technology=config.network.technology)
        for fabric in network.fabrics:
            fabric.bind_accountant(accountant)
        result = SimulationResult(
            cycles=sim_config.cycles,
            warmup_cycles=sim_config.warmup_cycles,
            num_cores=8,
        )
        traffic_model = traffic(system)
        return (
            SimulationKernel(
                network=network,
                router=system.router,
                traffic=traffic_model,
                accountant=accountant,
                result=result,
                config=sim_config,
                net_config=config.network,
            ),
            result,
        )

    def test_watchdog_still_catches_real_stalls(self):
        """A packet parked forever in a source queue must still trip it."""

        class StuckTraffic(TrafficModel):
            """Queues one packet, then the test blocks all injection."""

            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=300, warmup_cycles=0, watchdog_cycles=50
        )
        kernel, _ = self._kernel(lambda s: StuckTraffic(s.topology), config, sim_config)
        # Fill every local VC of every switch with a fake owner so the
        # queued packet can never be injected: no progress, traffic in
        # flight -> the watchdog must fire.
        for switch in kernel.state.network.switches.values():
            for vc in switch.local_input.vcs:
                vc.allocated_packet_id = 10_000 + vc.ordinal
        with pytest.raises(SimulationStallError):
            kernel.run()

    def test_warmup_boundary_reanchors_watchdog(self):
        """Cold-start cycles before warm-up no longer feed the watchdog.

        A packet sits undeliverable in a source queue from cycle 0 (all
        local VCs pre-claimed).  Without the warm-up re-anchor the
        watchdog would fire at ``watchdog_cycles`` (300 < 500); with it,
        the countdown restarts at the warm-up boundary (cycle 250) and the
        run completes.
        """

        class StuckTraffic(TrafficModel):
            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=500, warmup_cycles=250, watchdog_cycles=300
        )
        kernel, result = self._kernel(
            lambda s: StuckTraffic(s.topology), config, sim_config
        )
        for switch in kernel.state.network.switches.values():
            for vc in switch.local_input.vcs:
                vc.allocated_packet_id = 10_000 + vc.ordinal
        kernel.run()  # must not raise: the anchor moved to cycle 250
        assert result.packets_delivered == 0

    def test_phase_change_reanchors_watchdog_after_progress(self):
        """A quiet phase following a productive one extends the countdown.

        Packet A (deliverable) makes real progress early; packet B is
        parked undeliverable in a source queue on the other chip (its
        source switch's local VCs are pre-claimed).  The phase token
        changes once, at cycle 100 — after the progress — which re-anchors
        the watchdog there.  The stall therefore fires at exactly cycle
        100 + watchdog_cycles instead of ~A's-delivery + watchdog_cycles,
        proving the anchor moved.
        """

        class PhasedTraffic(TrafficModel):
            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[1])
                    yield TrafficRequest(self._cores[-1], self._cores[0])

            def phase_token(self):
                return 1 if getattr(self, "_past", False) else 0

            def on_past(self):
                self._past = True

        traffic_holder = {}

        def factory(system):
            traffic_holder["traffic"] = PhasedTraffic(system.topology)
            return traffic_holder["traffic"]

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=400, warmup_cycles=0, watchdog_cycles=100
        )
        kernel, result = self._kernel(factory, config, sim_config)

        # Flip the phase token at cycle 100 by piggybacking on generate.
        traffic = traffic_holder["traffic"]
        original_generate = traffic.generate

        def generate(cycle):
            if cycle == 100:
                traffic.on_past()
            return original_generate(cycle)

        traffic.generate = generate

        # Park packet B forever: claim its source switch's local VCs.
        stuck_source = traffic.cores[-1]
        switch = kernel.state.network.switch_for_endpoint(stuck_source)
        for vc in switch.local_input.vcs:
            vc.allocated_packet_id = 10_000 + vc.ordinal

        with pytest.raises(SimulationStallError, match="at cycle 200"):
            kernel.run()
        assert result.packets_delivered == 1  # A's progress happened first

    def test_fast_cycling_phases_cannot_mask_a_deadlock(self):
        """Phase changes without progress must not suppress the watchdog.

        One undeliverable packet sits in a source queue (all local VCs
        pre-claimed) while the phase token changes every 40 cycles — far
        faster than ``watchdog_cycles``.  Re-anchoring is gated on
        progress, so only the first change (progress level 0 is not above
        the anchor mark) is ignored and the stall still raises.
        """

        class PhasedTraffic(TrafficModel):
            def __init__(self, topology):
                super().__init__(topology)
                self._window = 0

            def generate(self, cycle):
                self._window = cycle // 40
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

            def phase_token(self):
                return self._window

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=300, warmup_cycles=0, watchdog_cycles=50
        )
        kernel, _ = self._kernel(
            lambda s: PhasedTraffic(s.topology), config, sim_config
        )
        for switch in kernel.state.network.switches.values():
            for vc in switch.local_input.vcs:
                vc.allocated_packet_id = 10_000 + vc.ordinal
        with pytest.raises(SimulationStallError):
            kernel.run()


class TestSelfThroughput:
    def test_result_records_wall_clock_and_rates(self):
        config = small_system_config(Architecture.WIRELESS)
        result = run_with_scheduler(config, uniform_factory(), "active", cycles=300)
        assert result.wall_clock_seconds > 0
        assert result.simulated_cycles_per_second() > 0
        assert result.simulated_flits_per_second() > 0
        summary = result.summary()
        assert summary["sim_cycles_per_second"] == pytest.approx(
            result.simulated_cycles_per_second()
        )

    def test_facade_still_works_through_framework(self):
        simulation = MultichipSimulation.from_config(
            small_system_config(Architecture.WIRELESS),
            SimulationConfig(cycles=300, warmup_cycles=50),
        )
        result = simulation.run_pattern("transpose", injection_rate=0.05, seed=2)
        assert result.packets_delivered > 0
