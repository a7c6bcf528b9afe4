"""The phase-structured simulation kernel.

Mirrors the simulator described in Section IV of the paper: it
"characterizes the multichip architecture and models the progress of the
flits over the switches and links per cycle accounting for those flits that
reach the destination as well as those that are stalled".

Each simulated cycle executes five explicit phases, in order:

1. :class:`ArrivalPhase` — flits whose fabric traversal completes this
   cycle are appended to their reserved downstream VC buffers.
2. :class:`GenerationPhase` — the traffic model emits new packets into the
   per-endpoint source queues; routes are assigned from the pre-computed
   shortest paths.
3. :class:`InjectionPhase` — source queues feed flits into free local-port
   VCs (one flit per cycle per switch, more for multi-endpoint memory dies).
4. :class:`FabricPhase` — every fabric with time-dependent state advances
   (the wireless fabric's channel arbitration and transceiver power states).
5. :class:`AllocationPhase` — switches arbitrate their output ports among
   the VCs requesting them (round-robin), move the winning flits onto their
   fabric or the ejection port, perform credit-equivalent space reservation
   downstream, and charge energy.

Runs carrying a non-empty fault plan prepend a :class:`FaultPhase` that
applies due fault events and triggers routing recovery (see
:mod:`repro.faults.injector`) before anything else moves in the cycle;
fault-free runs execute exactly the five phases above.

The data plane is array-backed (see :mod:`repro.noc.pool`): packets live in
a :class:`~repro.noc.pool.PacketPool` of parallel arrays addressed by
integer handles, flits are packed ``(handle, index)`` integers, VC buffers
are fixed-capacity rings of those integers, and per-packet routes are
compiled once into dense per-hop output-port tables.  The hot phase bodies
below inline the ring and pool arithmetic — no flit or packet object is
created, hashed, or attribute-chased anywhere on the per-flit path.  The
legacy object API remains at the boundary: traffic delivery callbacks
receive a :class:`~repro.noc.pool.PacketView`.

The injection and allocation phases take their per-cycle work lists from a
:class:`Scheduler`.  The :class:`DenseScheduler` visits every switch every
cycle — a faithful transliteration of the original monolithic engine loop,
kept as the parity oracle — while the :class:`ActiveSetScheduler` is
event-driven: it maintains *wake sets* of switches that can possibly make
progress (buffered flits for allocation, queued or partially serialised
packets for injection), *parks* switches whose requests are all blocked on
downstream buffer space until a flit leaves the port they wait on, and
skips everything else.  Skipped switches are exactly those for which the
dense pass would be a no-op, so the two schedulers are bit-identical (the
parity tests in ``tests/test_kernel.py`` prove it); the active-set
scheduler is simply several times faster at the low and mid loads that
dominate every figure sweep, and skips credit-blocked switches under
congestion.

A watchdog aborts the run if no flit makes progress for a configurable
number of cycles while traffic is still in flight, so routing or protocol
bugs surface as loud errors instead of silent hangs.  The watchdog is
re-anchored at the warm-up boundary and on traffic phase changes (see
:meth:`repro.traffic.base.TrafficModel.phase_token`), so long cold starts
and bursty phase-structured workloads cannot trip it spuriously; a phase
change only re-anchors when some flit has progressed since the previous
anchor, so fast-cycling phases can never mask a genuine deadlock.
"""

from __future__ import annotations

import pickle
from bisect import insort
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..energy import EnergyAccountant
from ..routing.base import BaseRouter, RoutingError
from ..traffic.base import TrafficModel, TrafficRequest
from .checkpoint import (
    CheckpointEngineMismatchError,
    KernelCheckpoint,
    graph_pickling_limit,
)
from .config import NetworkConfig
from .network import Network
from .pool import FLIT_INDEX_BITS, FLIT_INDEX_MASK, PacketPool, PacketView
from .port import InputPort
from .stats import SimulationResult
from .switch import Switch
from .virtual_channel import VirtualChannel

#: The scheduler names accepted by :class:`SimulationConfig`.
SCHEDULERS = ("active", "dense")

#: The execution-engine names accepted by :class:`SimulationConfig`.
ENGINES = ("scalar", "vector")

#: The per-packet metrics storage modes accepted by :class:`SimulationConfig`.
METRICS_MODES = ("sampled", "streaming")


class SimulationStallError(RuntimeError):
    """Raised when no flit has moved for ``watchdog_cycles`` cycles."""


@dataclass(frozen=True)
class SimulationConfig:
    """Run-length and robustness parameters of one simulation."""

    cycles: int = 3000
    warmup_cycles: int = 300
    watchdog_cycles: int = 4000
    max_source_queue_packets: int = 16
    raise_on_stall: bool = True
    #: Per-cycle work-list strategy: ``"active"`` (wake sets, the default)
    #: or ``"dense"`` (visit every switch every cycle, the reference
    #: behaviour of the original engine).  Results are bit-identical.
    scheduler: str = "active"
    #: Execution engine: ``"scalar"`` (the per-switch Python loops, the
    #: bit-identical reference) or ``"vector"`` (the NumPy SoA fast path of
    #: :mod:`repro.noc.vector`).  The vector engine applies to wired,
    #: fault-free runs; wireless or faulted configurations transparently
    #: fall back to the scalar phases, so results are bit-identical either
    #: way (the ``scheduler`` knob is inert while the fast path is active).
    engine: str = "scalar"
    #: Per-packet sample storage: ``"sampled"`` (exact per-packet lists,
    #: the default) or ``"streaming"`` (constant-memory accumulators, see
    #: :mod:`repro.metrics.streaming`).
    metrics: str = "sampled"
    #: When set, the kernel times each phase per cycle and publishes the
    #: accumulated per-phase wall clock as ``SimulationResult.phase_seconds``
    #: (see the experiment CLI's ``--profile``).  Off by default: the timed
    #: loop costs two clock reads per phase per cycle.
    profile_phases: bool = False
    #: Take a resumable :class:`~repro.noc.checkpoint.KernelCheckpoint`
    #: every N executed cycles (0, the default, disables checkpointing).
    #: The knob never changes simulation results — checkpoints are captured
    #: at cycle boundaries and delivered to the caller's hook (see
    #: ``Simulator.checkpoint_sink``); it is deliberately not part of the
    #: task cache key.
    checkpoint_every_cycles: int = 0

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if not 0 <= self.warmup_cycles < self.cycles:
            raise ValueError("warmup_cycles must be in [0, cycles)")
        if self.watchdog_cycles <= 0:
            raise ValueError("watchdog_cycles must be positive")
        if self.max_source_queue_packets <= 0:
            raise ValueError("max_source_queue_packets must be positive")
        if self.scheduler not in SCHEDULERS:
            known = ", ".join(SCHEDULERS)
            raise ValueError(f"unknown scheduler {self.scheduler!r}; known: {known}")
        if self.engine not in ENGINES:
            known = ", ".join(ENGINES)
            raise ValueError(f"unknown engine {self.engine!r}; known: {known}")
        if self.metrics not in METRICS_MODES:
            known = ", ".join(METRICS_MODES)
            raise ValueError(f"unknown metrics mode {self.metrics!r}; known: {known}")
        if self.checkpoint_every_cycles < 0:
            raise ValueError("checkpoint_every_cycles must be >= 0")


# ----------------------------------------------------------------------
# Schedulers.
# ----------------------------------------------------------------------


_switch_id = attrgetter("switch_id")


class Scheduler:
    """Decides which switches each phase visits in a given cycle.

    The kernel notifies the scheduler of every event that can wake a
    switch (a flit buffered into one of its VCs, a packet queued at one of
    its endpoints, a flit popped from a port a parked switch waits on) and
    of every opportunity to let one sleep again (a visited switch that
    drained or parked, an injector with nothing left to serialise).
    Candidates are always produced in ascending switch-id order, matching
    the dense iteration order, so arbitration outcomes are identical under
    both schedulers.
    """

    name = "scheduler"

    def bind(self, switches: List[Switch], injecting: List[Switch]) -> None:
        """Attach the (sorted) switch lists of the network being run."""
        raise NotImplementedError

    def allocation_candidates(self) -> Iterable[Switch]:
        """Switches the allocation phase must visit this cycle."""
        raise NotImplementedError

    def injection_candidates(self) -> Iterable[Switch]:
        """Switches the injection phase must visit this cycle."""
        raise NotImplementedError

    def on_flit_buffered(self, switch: Switch) -> None:
        """A flit entered one of ``switch``'s VC buffers.

        There is no per-flit drain notification: buffer occupancy is read
        from the switch's ``occupied`` VC set (maintained by the kernel's
        ring operations) when the visit finishes (:meth:`after_allocation`),
        so draining costs the schedulers nothing per flit.
        """

    def on_packet_queued(self, switch: Switch) -> None:
        """A packet joined a source queue of one of ``switch``'s endpoints."""

    def after_allocation(self, switch: Switch, blocked: Optional[List[InputPort]]) -> None:
        """The allocation phase finished visiting ``switch`` this cycle.

        ``blocked`` is ``None`` unless the visit qualifies for parking (see
        :class:`ActiveSetScheduler`); then it lists the downstream input
        ports whose buffer space the switch is waiting for.
        """

    def wake_waiters(self, waiters: Set[int], visiting: int) -> None:
        """A flit left a port that the switches in ``waiters`` are parked on.

        Called by the kernel while it visits switch ``visiting`` in the
        allocation pass; the set is cleared.
        """

    def wake_all(self) -> None:
        """Return every parked switch to the allocation set (fault cycles)."""

    def after_injection(self, switch: Switch, has_work: bool) -> None:
        """The injection phase finished visiting ``switch`` this cycle."""

    def on_fault(self, switch: Switch) -> None:
        """A fault-recovery pass touched ``switch`` (topology changed).

        Schedulers that skip idle switches must re-examine it: a head flit
        that was blocked on a failed component may have been rerouted onto a
        sendable output, or a purge may have cancelled a packet it was
        serialising, so the switch needs a fresh visit even though no
        buffer or queue event fired.  (The allocation side is covered by
        :meth:`wake_all`, which the fault phase calls after every cycle
        with due events.)
        """


class DenseScheduler(Scheduler):
    """Visit every switch every cycle (the original engine's behaviour).

    Kept as the parity oracle of :class:`ActiveSetScheduler`: it never
    parks a switch, so no port ever holds a waiter under it.
    """

    name = "dense"

    def bind(self, switches: List[Switch], injecting: List[Switch]) -> None:
        self._switches = switches
        self._injecting = injecting

    def allocation_candidates(self) -> Iterable[Switch]:
        return self._switches

    def injection_candidates(self) -> Iterable[Switch]:
        return self._injecting


class ActiveSetScheduler(Scheduler):
    """Visit only switches that can possibly make progress.

    A switch is *injection-active* while any attached endpoint has queued
    packets or a local VC is mid-serialisation.  It is *allocation-active*
    while any of its VC buffers holds a flit, unless it is **parked**:

    * **Park.** A visit that moves no flit, has no ejection request, and
      finds every requesting output non-busy on an ``always_grants``
      fabric is blocked only on downstream buffer space (a full target VC,
      or no free VC for a head flit).  The switch leaves the allocation
      set and registers on each downstream input port it is blocked on
      (:attr:`~repro.noc.port.InputPort.waiters`).
    * **Wake.** Downstream space only ever grows when a flit leaves one of
      that port's VCs — a send, an eject, or the tail release that rides
      on either — so every such pop wakes the port's waiters.  A flit
      buffered into one of the switch's own VCs (a new request) wakes it
      too, and so does any cycle with due fault events (recovery can purge
      buffers, reroute heads and flip a fabric's ``always_grants``).
    * **Gate.** The kernel's allocator skips a wireless output's per-VC
      grant scan while its MAC's ``current_transmitter()`` is another WI
      (see :meth:`~repro.wireless.mac.MacProtocol.grants`).

    Every condition a parked visit reads — the switch's own front flits,
    output busy state, the fabric flag, downstream occupancy and
    ownership — stays fixed until one of the wake events fires, so each
    skipped visit is one the dense pass would have found blocked too.

    **Same-cycle order.** Dense visits switches in ascending id, so a pop
    at switch *d* frees space that an upstream switch *u > d* sees in the
    *same* cycle, and that *u < d* (already visited) sees in the next.
    The pass list is sorted by id and iterated in place: a woken switch
    with an id above the one being visited is inserted into the current
    pass; one below rejoins the allocation set for the next cycle.  Both
    schedulers thus visit every switch that can move a flit at the same
    point of the same cycle, and results are bit-identical — skipping
    parked and idle switches only changes the wall-clock cost of reaching
    them.
    """

    name = "active"

    def bind(self, switches: List[Switch], injecting: List[Switch]) -> None:
        self._switch_of = {s.switch_id: s for s in switches}
        self._alloc_active: set = set()
        self._inject_active: set = set()
        #: The candidate list of the latest allocation pass.  The phase
        #: iterates it by index, so a switch inserted behind the current
        #: position is visited in the same pass.
        self._pass: List[Switch] = []

    def allocation_candidates(self) -> Iterable[Switch]:
        switch_of = self._switch_of
        self._pass = [switch_of[sid] for sid in sorted(self._alloc_active)]
        return self._pass

    def injection_candidates(self) -> Iterable[Switch]:
        switch_of = self._switch_of
        return [switch_of[sid] for sid in sorted(self._inject_active)]

    def on_flit_buffered(self, switch: Switch) -> None:
        self._alloc_active.add(switch.switch_id)

    def on_packet_queued(self, switch: Switch) -> None:
        self._inject_active.add(switch.switch_id)

    def after_allocation(self, switch: Switch, blocked: Optional[List[InputPort]]) -> None:
        if blocked is not None:
            sid = switch.switch_id
            self._alloc_active.discard(sid)
            for port in blocked:
                port.waiters.add(sid)
        # The switch's occupied-VC set is authoritative: empty means the
        # dense pass would find nothing here either, so the switch sleeps.
        elif not switch.occupied:
            self._alloc_active.discard(switch.switch_id)

    def wake_waiters(self, waiters: Set[int], visiting: int) -> None:
        # Registrations are cleared lazily: a switch woken through another
        # port may still sit in this set, and waking an active switch (or
        # a drained one, whose visit is a no-op) changes nothing.
        active = self._alloc_active
        for sid in waiters:
            if sid not in active:
                active.add(sid)
                if sid > visiting:
                    # Ids above the visited one lie ahead in the sorted
                    # pass, so the insertion lands after the iterator.
                    insort(self._pass, self._switch_of[sid], key=_switch_id)
        waiters.clear()

    def wake_all(self) -> None:
        self._alloc_active.update(sid for sid, s in self._switch_of.items() if s.occupied)

    def after_injection(self, switch: Switch, has_work: bool) -> None:
        if not has_work:
            self._inject_active.discard(switch.switch_id)

    def on_fault(self, switch: Switch) -> None:
        # Allocation needs nothing here: the fault phase calls wake_all.
        # Let the next injection pass re-derive whether the switch has
        # source work; an extra visit self-corrects via after_injection.
        self._inject_active.add(switch.switch_id)


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by its :class:`SimulationConfig` name."""
    if name == "dense":
        return DenseScheduler()
    if name == "active":
        return ActiveSetScheduler()
    known = ", ".join(SCHEDULERS)
    raise ValueError(f"unknown scheduler {name!r}; known: {known}")


# ----------------------------------------------------------------------
# Kernel state: everything the phases mutate.
# ----------------------------------------------------------------------


class KernelState:
    """Mutable per-run state shared by the kernel's phases.

    Owns the run's :class:`~repro.noc.pool.PacketPool`; source queues hold
    packet handles, arrival events hold ``(target VC, flit integer)``
    pairs, and the phase bodies below manipulate the VC rings and pool
    arrays directly.
    """

    #: Which engine's phases read this state class.  The vector engine's
    #: :class:`~repro.noc.vector.VectorKernelState` overrides this; the
    #: checkpoint layer records it so a snapshot can refuse an engine that
    #: cannot continue it.
    engine_name = "scalar"

    def __init__(
        self,
        network: Network,
        router: BaseRouter,
        traffic: TrafficModel,
        accountant: EnergyAccountant,
        result: SimulationResult,
        config: SimulationConfig,
        net_config: NetworkConfig,
        scheduler: Scheduler,
        pool_backend: str = "list",
    ) -> None:
        self.network = network
        self.router = router
        self.traffic = traffic
        self.accountant = accountant
        self.result = result
        self.config = config
        self.net_config = net_config
        self.scheduler = scheduler
        self.pool = PacketPool(backend=pool_backend)
        self.cycle = 0
        self.stalled = False
        self.last_progress_cycle = 0
        #: Progress level at the last traffic-phase-change watchdog anchor.
        #: Lives on the state (not as a run-loop local) so a checkpointed
        #: run resumes with the same anchoring decisions as an
        #: uninterrupted one.
        self.anchored_progress = 0
        self.next_packet_id = 0
        #: Whether this run carries a fault plan (set by the kernel).  Only
        #: then may traffic generation encounter unreachable destinations,
        #: which are dropped with explicit accounting instead of raising.
        self.faults_active = False
        self.source_queues: Dict[int, Deque[int]] = {
            endpoint_id: deque() for endpoint_id in network.endpoint_switch
        }
        self.arrivals: Dict[int, List[Tuple[VirtualChannel, int]]] = {}
        self.switch_energy_pj = network.switch_dynamic_energy_pj_per_flit
        # Hot-loop caches.  The pooled arrays are stable list objects (the
        # pool grows them in place with ``extend``) and the breakdown is a
        # run-constant object behind an accountant property, so caching the
        # references here keeps the per-visit preludes to one attribute
        # load each.  Only valid for the list pool backend: NumPy growth
        # reallocates, so the vector engine (the sole numpy-pool user)
        # never touches these caches and re-reads ``self.pool`` instead.
        pool = self.pool
        self._pid = pool.pid
        self._length_flits = pool.length_flits
        self._head_hop = pool.head_hop
        self._energy = pool.energy_pj
        self.breakdown = accountant.breakdown

    # ------------------------------------------------------------------
    # Phase 1: arrivals.
    # ------------------------------------------------------------------

    def process_arrivals(self, cycle: int) -> None:
        due = self.arrivals.pop(cycle, None)
        if not due:
            return
        scheduler = self.scheduler
        for vc, flit in due:
            # Inline VirtualChannel.deliver on the ring.
            if vc.in_flight <= 0:
                raise RuntimeError("deliver() without a matching reserve()")
            vc.in_flight -= 1
            count = vc.count
            vc.buf[(vc.head + count) % vc.capacity] = flit
            vc.count = count + 1
            switch = vc.port.switch
            if not count:
                switch.occupied.add(vc.ordinal)
            scheduler.on_flit_buffered(switch)
        self.last_progress_cycle = cycle

    # ------------------------------------------------------------------
    # Phase 2: traffic generation.
    # ------------------------------------------------------------------

    def generate_traffic(self, cycle: int) -> None:
        for request in self.traffic.generate(cycle):
            self.enqueue_request(request, cycle)

    def enqueue_request(self, request: TrafficRequest, cycle: int) -> None:
        """Turn a traffic request into a routed, pooled packet record."""
        self.result.packets_offered += 1
        queue = self.source_queues.get(request.src_endpoint)
        if queue is None:
            raise ValueError(f"unknown source endpoint {request.src_endpoint}")
        if len(queue) >= self.config.max_source_queue_packets:
            return  # finite source queue: the request is dropped at the source
        src_switch = self.network.switch_for_endpoint(request.src_endpoint)
        dst_switch = self.network.switch_for_endpoint(request.dst_endpoint)
        if src_switch.switch_id == dst_switch.switch_id:
            route = [src_switch.switch_id]
        else:
            try:
                route = self.router.route(src_switch.switch_id, dst_switch.switch_id)
            except RoutingError:
                if not self.faults_active:
                    raise
                # Fault-induced partition: the destination island is
                # unreachable, so the request is dropped *with accounting*.
                # It counts as generated so delivery_ratio weighs this loss
                # path the same as a packet purged after queueing.
                self.result.packets_generated += 1
                self.result.packets_dropped_unroutable += 1
                return
        length = request.length_flits or self.net_config.packet_length_flits
        handle = self.pool.alloc(
            pid=self.next_packet_id,
            src_endpoint=request.src_endpoint,
            dst_endpoint=request.dst_endpoint,
            src_switch=src_switch.switch_id,
            dst_switch=dst_switch.switch_id,
            length_flits=length,
            generation_cycle=cycle,
            route=route,
            is_memory_access=request.is_memory_access,
            is_reply=request.is_reply,
            measured=cycle >= self.config.warmup_cycles,
            traffic_class=request.traffic_class,
        )
        self.next_packet_id += 1
        self.compile_route_ports(handle)
        queue.append(handle)
        self.result.packets_generated += 1
        self.scheduler.on_packet_queued(src_switch)

    def compile_route_ports(self, handle: int) -> None:
        """Compile a pooled packet's route into its per-hop output ports.

        ``route_ports[i]`` is the output port at switch ``route[i]`` towards
        ``route[i + 1]``, so the allocation inner loop indexes a dense list
        instead of resolving the neighbour dictionary per head flit.  Fault
        recovery re-calls this after splicing a packet's route.
        """
        route = self.pool.route[handle]
        switches = self.network.switches
        self.pool.route_ports[handle] = [
            switches[route[i]].output_towards(route[i + 1])
            for i in range(len(route) - 1)
        ]

    def recompile_route_ports(self) -> None:
        """Rebuild the compiled per-hop output-port tables of every live packet.

        A :meth:`~repro.noc.pool.PacketPool.restore` drops the
        ``route_ports`` column (it holds object references into one network
        instance); this pass re-derives it from the restored routes, the
        same way fault recovery does after splicing a route.
        """
        route_ports = self.pool.route_ports
        for handle in self.pool.live_handles():
            if route_ports[handle] is None and self.pool.route[handle] is not None:
                self.compile_route_ports(handle)

    # ------------------------------------------------------------------
    # Phase 3: injection.
    # ------------------------------------------------------------------

    def inject(self, switch: Switch, cycle: int) -> None:
        pool = self.pool
        pool_length = pool.length_flits
        scheduler = self.scheduler
        result = self.result
        budget = switch.injection_width
        local = switch.local_input
        # Continue serialising packets already owning a local VC.
        for vc in local.vcs:
            if budget == 0:
                return
            handle = vc.source_packet
            if handle is None:
                continue
            count = vc.count
            if count + vc.in_flight >= vc.capacity:
                continue
            index = vc.source_flits_emitted
            vc.buf[(vc.head + count) % vc.capacity] = (handle << FLIT_INDEX_BITS) | index
            vc.count = count + 1
            if not count:
                switch.occupied.add(vc.ordinal)
            scheduler.on_flit_buffered(switch)
            vc.source_flits_emitted = index + 1
            result.flits_injected += 1
            budget -= 1
            self.last_progress_cycle = cycle
            if index + 1 >= pool_length[handle]:
                vc.source_packet = None
                vc.source_flits_emitted = 0
        if budget == 0:
            return
        # Start injecting new packets from the attached endpoints.
        source_queues = self.source_queues
        for endpoint_id in switch.endpoints:
            if budget == 0:
                return
            queue = source_queues.get(endpoint_id)
            if not queue:
                continue
            vc = local.find_free_vc()
            if vc is None:
                return
            handle = queue.popleft()
            pool.injection_cycle[handle] = cycle
            vc.allocated_packet_id = pool.pid[handle]
            vc.source_packet = handle
            # A free VC is empty by definition, so this is a 0 -> 1 flit
            # transition: the VC joins the occupied set.
            vc.buf[vc.head] = handle << FLIT_INDEX_BITS
            vc.count = 1
            switch.occupied.add(vc.ordinal)
            scheduler.on_flit_buffered(switch)
            vc.source_flits_emitted = 1
            result.flits_injected += 1
            budget -= 1
            self.last_progress_cycle = cycle
            if pool_length[handle] <= 1:
                vc.source_packet = None
                vc.source_flits_emitted = 0

    def has_injection_work(self, switch: Switch) -> bool:
        """Whether the switch still has anything for the injection phase."""
        for vc in switch.local_input.vcs:
            if vc.source_packet is not None:
                return True
        source_queues = self.source_queues
        for endpoint_id in switch.endpoints:
            if source_queues.get(endpoint_id):
                return True
        return False

    # ------------------------------------------------------------------
    # Phase 5: switch allocation and traversal.
    # ------------------------------------------------------------------

    def allocate(self, switch: Switch, cycle: int) -> Optional[List[InputPort]]:
        """Arbitrate this switch's output ports and move the winning flits.

        One inlined pass over the compiled VC table: request collection
        (per-output scratch lists instead of a hashed dict), downstream VC
        lookup, flow-control and fabric admission, round-robin winner
        selection, and the send itself (ring pop, downstream reservation,
        arrival scheduling, energy attribution) all happen here on packed
        flit integers and pool arrays.  The structure and ordering mirror
        the historical ``_can_send``/``_send`` helpers exactly — the
        per-output processing order is first-request order, eligibility is
        evaluated in VC-table order, and every float is accumulated in the
        same sequence — so results are bit-identical to the object-based
        engine, several times faster.

        Returns the downstream input ports the visit was blocked on when it
        qualifies for parking — it moved no flit, had no ejection request,
        and every requesting output was non-busy on an ``always_grants``
        fabric, so only a flit leaving one of those ports can unblock it —
        and ``None`` otherwise (see :class:`ActiveSetScheduler`).  Every
        pop from a VC here wakes the switches parked on that VC's port.
        """
        occupied = switch.occupied
        if not occupied:
            return None
        req_outputs = None
        assign = self._assign_output
        vc_by_ordinal = switch.vc_by_ordinal
        for ordinal in sorted(occupied):
            vc = vc_by_ordinal[ordinal]
            output = vc.current_output
            if output is None:
                output = assign(switch, vc)
            scratch = output.request_scratch
            if not scratch:
                if req_outputs is None:
                    req_outputs = [output]
                else:
                    req_outputs.append(output)
            scratch.append(vc)
        if req_outputs is None:
            return None
        pool_pid = self._pid
        pool_length = self._length_flits
        pool_head_hop = self._head_hop
        pool_energy = self._energy
        breakdown = self.breakdown
        arrivals = self.arrivals
        switch_energy = self.switch_energy_pj
        result = self.result
        rr_modulus = switch.rr_modulus
        switch_id = switch.switch_id
        blocked = []
        parkable = True
        try:
            for output in req_outputs:
                vcs = output.request_scratch
                if output.is_ejection:
                    parkable = False
                    self._serve_ejection(switch, output, vcs, cycle)
                    continue
                if output.busy_until > cycle:
                    parkable = False
                    continue
                fabric = output.fabric
                check_grant = not fabric.always_grants
                if check_grant:
                    parkable = False
                    mac = output.mac
                    if mac is not None and mac.current_transmitter() != switch_id:
                        continue  # another WI holds the channel: no grant
                eligible = None
                for vc in vcs:
                    downstream = vc.downstream_port
                    if downstream is None:
                        parkable = False
                        continue
                    flit = vc.buf[vc.head]
                    handle = flit >> FLIT_INDEX_BITS
                    pid = pool_pid[handle]
                    target = None
                    for tvc in downstream.vcs:
                        if tvc.allocated_packet_id == pid:
                            target = tvc
                            break
                    if target is None:
                        if flit & FLIT_INDEX_MASK:
                            parkable = False
                            continue  # body flit without an owned VC downstream
                        for tvc in downstream.vcs:
                            if (
                                tvc.allocated_packet_id is None
                                and tvc.count == 0
                                and tvc.in_flight == 0
                            ):
                                target = tvc
                                break
                        if target is None:
                            blocked.append(downstream)
                            continue
                    if target.count + target.in_flight >= target.capacity:
                        blocked.append(downstream)
                        continue
                    if check_grant and not fabric.grants(
                        switch_id,
                        pid,
                        vc.downstream_switch,
                        not flit & FLIT_INDEX_MASK,
                    ):
                        continue
                    vc.send_target = target
                    if eligible is None:
                        eligible = [vc]
                    else:
                        eligible.append(vc)
                if eligible is None:
                    continue
                parkable = False
                # Round-robin winner (inline Switch.select_round_robin).
                if len(eligible) == 1:
                    winner = eligible[0]
                else:
                    pointer = output.rr_pointer
                    winner = None
                    best_rank = rr_modulus
                    for vc in eligible:
                        rank = (vc.ordinal - pointer) % rr_modulus
                        if rank < best_rank:
                            winner = vc
                            best_rank = rank
                output.rr_pointer = (winner.ordinal + 1) % rr_modulus
                # Send the winner's front flit (inline ring pop + reserve).
                target = winner.send_target
                downstream_switch = winner.downstream_switch
                head = winner.head
                flit = winner.buf[head]
                winner.head = (head + 1) % winner.capacity
                winner.count -= 1
                if not winner.count:
                    occupied.discard(winner.ordinal)
                waiters = winner.port.waiters
                if waiters:
                    self.scheduler.wake_waiters(waiters, switch_id)
                handle = flit >> FLIT_INDEX_BITS
                index = flit & FLIT_INDEX_MASK
                is_head = index == 0
                is_tail = index == pool_length[handle] - 1
                if is_tail:
                    winner.allocated_packet_id = None
                    winner.current_output = None
                    winner.downstream_port = None
                    winner.downstream_switch = None
                pid = pool_pid[handle]
                owner = target.allocated_packet_id
                if is_head:
                    if owner is not None and owner != pid:
                        raise RuntimeError(
                            f"VC already allocated to packet {owner}, cannot "
                            f"accept head of packet {pid}"
                        )
                    target.allocated_packet_id = pid
                elif owner != pid:
                    raise RuntimeError(f"body flit of packet {pid} sent to VC owned by {owner}")
                target.in_flight += 1
                link = output.link
                arrival_cycle = cycle + link.latency_cycles
                entry = arrivals.get(arrival_cycle)
                if entry is None:
                    arrivals[arrival_cycle] = [(target, flit)]
                else:
                    entry.append((target, flit))
                output.busy_until = cycle + link.cycles_per_flit
                breakdown.switch_dynamic_pj += switch_energy
                pool_energy[handle] += switch_energy
                link_energy = link.energy_pj_per_flit
                if fabric.is_wireless:
                    breakdown.wireless_pj += link_energy
                else:
                    breakdown.link_pj += link_energy
                pool_energy[handle] += link_energy
                result.flit_hops += 1
                if fabric.tracks_sends:
                    fabric.notify_sent(switch_id, pid, downstream_switch, is_tail, cycle)
                if is_head:
                    pool_head_hop[handle] += 1
                self.last_progress_cycle = cycle
        finally:
            for output in req_outputs:
                output.request_scratch.clear()
        return blocked if parkable else None

    def _assign_output(self, switch: Switch, vc: VirtualChannel):
        """Route the head flit at the front of ``vc`` (first visit only)."""
        pool = self.pool
        flit = vc.buf[vc.head]
        handle = flit >> FLIT_INDEX_BITS
        if flit & FLIT_INDEX_MASK:
            raise RuntimeError(f"VC {vc!r} has no routing state but its front flit is not a head")
        if switch.switch_id == pool.dst_switch[handle]:
            output = switch.ejection_port
            vc.current_output = output
            vc.downstream_port = None
            vc.downstream_switch = None
            return output
        hop = pool.head_hop[handle]
        route = pool.route[handle]
        expected = route[hop]
        if expected != switch.switch_id:
            raise RuntimeError(
                f"packet {pool.pid[handle]} head expected at switch {expected} "
                f"but found at {switch.switch_id}"
            )
        output = pool.route_ports[handle][hop]
        next_switch = route[hop + 1]
        vc.current_output = output
        vc.downstream_switch = next_switch
        downstream = output.downstream_port
        if downstream is None:
            downstream = output.fabric.resolve_downstream(output, next_switch)
        vc.downstream_port = downstream
        return output

    def _serve_ejection(self, switch: Switch, output, vcs, cycle: int) -> None:
        budget = output.width
        candidates = [vc for vc in vcs if vc.count]
        while budget > 0 and candidates:
            winner = switch.select_round_robin(output, candidates)
            self._eject(switch, winner, cycle)
            candidates.remove(winner)
            budget -= 1

    def _eject(self, switch: Switch, vc: VirtualChannel, cycle: int) -> None:
        pool = self.pool
        head = vc.head
        flit = vc.buf[head]
        vc.head = (head + 1) % vc.capacity
        vc.count -= 1
        if not vc.count:
            switch.occupied.discard(vc.ordinal)
        waiters = vc.port.waiters
        if waiters:
            self.scheduler.wake_waiters(waiters, switch.switch_id)
        handle = flit >> FLIT_INDEX_BITS
        index = flit & FLIT_INDEX_MASK
        is_tail = index == pool.length_flits[handle] - 1
        if is_tail:
            vc.release()
        switch_energy = self.switch_energy_pj
        self.breakdown.switch_dynamic_pj += switch_energy
        pool.energy_pj[handle] += switch_energy
        pool.flits_ejected[handle] += 1
        result = self.result
        result.flits_ejected_total += 1
        if cycle >= self.config.warmup_cycles:
            result.flits_ejected_measured += 1
        self.last_progress_cycle = cycle
        if not is_tail:
            return
        pool.ejection_cycle[handle] = cycle
        result.packets_delivered += 1
        if pool.measured[handle]:
            result.packets_delivered_measured += 1
            injection = pool.injection_cycle[handle]
            result.record_delivery(
                cycle - pool.generation_cycle[handle],
                None if injection is None else cycle - injection,
                pool.energy_pj[handle],
                len(pool.route[handle]) - 1,
            )
        for reply in self.traffic.on_packet_delivered(PacketView(pool, handle), cycle):
            self.enqueue_request(reply, cycle)
        pool.free(handle)

    # ------------------------------------------------------------------
    # Watchdog / accounting helpers.
    # ------------------------------------------------------------------

    def residual_flits(self) -> int:
        """Flits still buffered or mid-traversal (end-of-run conservation)."""
        return self.network.total_buffered_flits() + sum(
            len(entries) for entries in self.arrivals.values()
        )

    def anchor_watchdog(self, cycle: int) -> None:
        """Restart the stall countdown (warm-up boundary, phase change)."""
        if cycle > self.last_progress_cycle:
            self.last_progress_cycle = cycle

    def check_watchdog(self, cycle: int) -> None:
        if cycle - self.last_progress_cycle < self.config.watchdog_cycles:
            return
        in_flight = (
            self.network.total_buffered_flits() > 0
            or any(self.arrivals.values())
            or any(self.source_queues.values())
        )
        if not in_flight:
            self.last_progress_cycle = cycle
            return
        message = (
            f"no flit progress for {self.config.watchdog_cycles} cycles at cycle "
            f"{cycle} with traffic still in flight (possible deadlock)"
        )
        if self.config.raise_on_stall:
            raise SimulationStallError(message)
        self.stalled = True

    # ------------------------------------------------------------------
    # Checkpoint/restore.
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise the complete mutable state graph of this run.

        Everything a cycle mutates is reachable from the state — the pool
        arrays, VC rings, port arbitration state, scheduler wake sets,
        traffic RNGs, the accountant and the result — and pickle's memo
        preserves the aliasing between them (the hot caches stay views of
        the pool's columns), so :meth:`restore` yields a state that
        continues bit-identically.  Only valid at a cycle boundary: phase
        scratch lists must be empty, which the kernel guarantees between
        cycles.
        """
        with graph_pickling_limit(len(self.network.switches)):
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, payload: bytes) -> "KernelState":
        """Deserialise a :meth:`snapshot` taken by exactly this state class.

        Restoring a vector-engine snapshot through the scalar class (or
        vice versa) raises
        :class:`~repro.noc.checkpoint.CheckpointEngineMismatchError`: the
        two engines maintain different run state, so the other engine's
        phases could not continue it bit-identically.
        """
        state = pickle.loads(payload)
        if type(state) is not cls:
            raise CheckpointEngineMismatchError(
                f"snapshot holds a {type(state).__name__} "
                f"({getattr(state, 'engine_name', '?')} engine), "
                f"cannot restore it as {cls.__name__}"
            )
        return state


# ----------------------------------------------------------------------
# Phases.
# ----------------------------------------------------------------------


class Phase:
    """One step of the per-cycle pipeline."""

    name = "phase"

    def __init__(self, state: KernelState) -> None:
        self.state = state

    def run(self, cycle: int) -> None:
        raise NotImplementedError


class FaultPhase(Phase):
    """Apply due fault events and recover routing around them.

    Present only when the run carries a non-empty fault plan, so fault-free
    simulations execute exactly the same five-phase pipeline (and produce
    bit-identical results) as before the fault subsystem existed.  Runs
    first in the cycle: a component that dies at cycle *c* is gone before
    any flit moves in cycle *c*.
    """

    name = "faults"

    def __init__(self, state: KernelState, injector) -> None:
        super().__init__(state)
        self.injector = injector

    def run(self, cycle: int) -> None:
        state = self.state
        if self.injector.advance(cycle, state):
            # Recovery can purge buffers, reroute heads and flip a fabric's
            # ``always_grants``, none of which fires a wake event.
            state.scheduler.wake_all()


class ArrivalPhase(Phase):
    """Deliver flits whose fabric traversal completes this cycle."""

    name = "arrival"

    def run(self, cycle: int) -> None:
        self.state.process_arrivals(cycle)


class GenerationPhase(Phase):
    """Let the traffic model emit new packets into the source queues."""

    name = "generation"

    def run(self, cycle: int) -> None:
        self.state.generate_traffic(cycle)


class InjectionPhase(Phase):
    """Serialise queued packets into free local-port VCs."""

    name = "injection"

    def run(self, cycle: int) -> None:
        state = self.state
        scheduler = state.scheduler
        for switch in scheduler.injection_candidates():
            state.inject(switch, cycle)
            scheduler.after_injection(switch, state.has_injection_work(switch))


class FabricPhase(Phase):
    """Advance every fabric with time-dependent state (MAC, transceivers)."""

    name = "fabric"

    def __init__(self, state: KernelState) -> None:
        super().__init__(state)
        self._fabrics = [f for f in state.network.fabrics if f.needs_update]

    def run(self, cycle: int) -> None:
        for fabric in self._fabrics:
            fabric.update(cycle)


class AllocationPhase(Phase):
    """Arbitrate output ports and move winning flits onto their fabric."""

    name = "allocation"

    def run(self, cycle: int) -> None:
        state = self.state
        scheduler = state.scheduler
        for switch in scheduler.allocation_candidates():
            scheduler.after_allocation(switch, state.allocate(switch, cycle))


# ----------------------------------------------------------------------
# The kernel.
# ----------------------------------------------------------------------


class SimulationKernel:
    """Drives the five per-cycle phases over one network instance."""

    def __init__(
        self,
        network: Network,
        router: BaseRouter,
        traffic: TrafficModel,
        accountant: EnergyAccountant,
        result: SimulationResult,
        config: SimulationConfig,
        net_config: NetworkConfig,
        scheduler: Optional[Scheduler] = None,
        fault_injector=None,
    ) -> None:
        #: Whether the NumPy fast path actually drives this run.  The
        #: vector engine covers wired fault-free configurations; wireless
        #: fabrics and fault plans fall back to the scalar phases (which
        #: are bit-identical by construction, so the fallback is purely a
        #: performance decision).
        self.vector_active = (
            config.engine == "vector"
            and fault_injector is None
            and scheduler is None
            and all(
                not fabric.is_wireless and fabric.always_grants
                for fabric in network.fabrics
            )
        )
        #: The run's fault injector (``None`` on fault-free runs).  Kept as
        #: an attribute so a restored kernel's caller can reach it for the
        #: end-of-run topology restore, exactly like a fresh run's.
        self.fault_injector = fault_injector
        switches = [network.switches[sid] for sid in sorted(network.switches)]
        injecting = [s for s in switches if s.endpoints]
        if self.vector_active:
            from .vector import InjectionTracker, VectorKernelState, vector_phases

            self.scheduler = InjectionTracker()
            self.scheduler.bind(switches, injecting)
            self.state = VectorKernelState(
                network=network,
                router=router,
                traffic=traffic,
                accountant=accountant,
                result=result,
                config=config,
                net_config=net_config,
                scheduler=self.scheduler,
            )
            for fabric in network.fabrics:
                fabric.bind_pool(self.state.pool)
            self.phases: List[Phase] = vector_phases(self.state)
            return
        self.scheduler = scheduler or make_scheduler(config.scheduler)
        self.scheduler.bind(switches, injecting)
        self.state = KernelState(
            network=network,
            router=router,
            traffic=traffic,
            accountant=accountant,
            result=result,
            config=config,
            net_config=net_config,
            scheduler=self.scheduler,
        )
        for fabric in network.fabrics:
            fabric.bind_pool(self.state.pool)
        self.phases = [
            ArrivalPhase(self.state),
            GenerationPhase(self.state),
            InjectionPhase(self.state),
            FabricPhase(self.state),
            AllocationPhase(self.state),
        ]
        if fault_injector is not None:
            self.state.faults_active = True
            self.phases.insert(0, FaultPhase(self.state, fault_injector))

    @property
    def engine_name(self) -> str:
        """The engine actually driving this run (after any fallback)."""
        return "vector" if self.vector_active else "scalar"

    def snapshot(self) -> KernelCheckpoint:
        """Capture a resumable checkpoint of the whole run at this cycle.

        The payload is the pickled kernel graph (phases, scheduler, state
        and — through the state — the network, pool, traffic, accountant
        and result), so nothing outside the checkpoint is needed to
        continue; see :mod:`repro.noc.checkpoint` for the guarantees.
        """
        with graph_pickling_limit(len(self.state.network.switches)):
            payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        return KernelCheckpoint(
            engine=self.engine_name,
            cycle=self.state.cycle,
            payload=payload,
        )

    @classmethod
    def resume(cls, checkpoint: KernelCheckpoint, engine: str = "scalar") -> "SimulationKernel":
        """Reconstruct a kernel from a checkpoint, validating the engine.

        ``engine`` is the caller's configured engine request.  A scalar
        checkpoint is acceptable under either request (the vector engine
        falls back to the scalar phases transparently, bit-identically);
        a vector checkpoint under an explicit scalar request raises
        :class:`~repro.noc.checkpoint.CheckpointEngineMismatchError`.
        Continue with :meth:`run` at ``checkpoint.cycle + 1``.
        """
        if checkpoint.engine == "vector" and engine != "vector":
            raise CheckpointEngineMismatchError(
                "checkpoint was taken by the vector engine; the scalar "
                "phases cannot continue it bit-identically (request "
                'engine="vector" to resume it)'
            )
        return pickle.loads(checkpoint.payload)

    def run(
        self,
        start_cycle: int = 0,
        checkpoint_hook: Optional[Callable[[KernelCheckpoint], None]] = None,
    ) -> KernelState:
        """Execute cycles ``start_cycle .. cycles-1`` and return the state.

        ``start_cycle`` is 0 for a fresh run and ``checkpoint.cycle + 1``
        when continuing a restored kernel.  When ``checkpoint_hook`` is
        given and ``config.checkpoint_every_cycles`` is set, the hook
        receives a fresh :meth:`snapshot` after every N executed cycles
        (at the cycle boundary, after the watchdog ran); the final cycle
        is not checkpointed — the run is already done.
        """
        state = self.state
        config = state.config
        phases = self.phases
        profile = config.profile_phases
        phase_seconds = state.result.phase_seconds
        if profile:
            for phase in phases:
                phase_seconds.setdefault(phase.name, 0.0)
        phase_runs = [phase.run for phase in phases]
        phase_token = state.traffic.phase_token()
        every = config.checkpoint_every_cycles if checkpoint_hook is not None else 0
        for cycle in range(start_cycle, config.cycles):
            state.cycle = cycle
            if cycle == config.warmup_cycles:
                state.anchor_watchdog(cycle)
            if profile:
                for phase in phases:
                    started = perf_counter()
                    phase.run(cycle)
                    phase_seconds[phase.name] += perf_counter() - started
            else:
                for run in phase_runs:
                    run(cycle)
            token = state.traffic.phase_token()
            if token != phase_token:
                phase_token = token
                # A phase change only re-anchors the watchdog when some
                # flit made progress since the previous anchor: a workload
                # whose phases are shorter than ``watchdog_cycles`` must
                # not be able to mask a genuine deadlock by re-anchoring
                # forever while nothing moves.
                if state.last_progress_cycle > state.anchored_progress:
                    state.anchor_watchdog(cycle)
                    state.anchored_progress = state.last_progress_cycle
            state.check_watchdog(cycle)
            if state.stalled:
                break
            if every and (cycle + 1) % every == 0 and cycle + 1 < config.cycles:
                checkpoint_hook(self.snapshot())
        return state
