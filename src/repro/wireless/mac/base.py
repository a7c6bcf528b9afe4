"""Medium access control (MAC) protocol interface.

Multiple WIs share each wireless channel; the MAC serialises their access so
communication stays contention-free (Section III-D).  The simulator asks the
MAC two questions every cycle: *may this WI put a flit for that destination
on the air right now?* (:meth:`MacProtocol.grants`) and *who is transmitting
/ listening?* (for the sleepy-transceiver power model).  The MAC in turn
observes the traffic waiting at each WI through a *data plane* interface so
the protocol logic stays independent of the simulator's internals.

The boundary is the **hot** handle-based interface, mirroring the fabric
layer: a scan (:meth:`MacDataPlane.scan_pending`) fills preallocated
parallel scratch arrays (``pend_dst`` / ``pend_pid`` / ``pend_buffered``
/ ``pend_length`` / ``pend_remaining`` / ``pend_head``) straight from the
packet pool and the per-WI occupied-VC ordinal sets, and returns the
entry count.  No dataclass, tuple or list is created per cycle; MACs
index the scratch arrays.  :class:`~repro.noc.fabric.WirelessFabric` is
the production implementation.  Likewise, the per-flit admission methods
are hot (:meth:`MacProtocol.grants` / :meth:`MacProtocol.notify_sent`,
plain-int arguments).

The historical object-era spellings — ``PendingTransmission``
dataclasses, the ``MacAdapter`` protocol and its bridge, the
``may_send`` / ``on_flit_sent`` wrappers — live in
:mod:`repro.testing.legacy` (deprecated; unit tests and external callers
only).  A legacy adapter handed to :class:`MacProtocol` is still bridged
automatically, so scripted test adapters keep working.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Set


class MacDataPlane(abc.ABC):
    """The handle-based hot interface a MAC protocol arbitrates over.

    Implementations own the reusable pending-scan scratch arrays; a call to
    :meth:`scan_pending` overwrites rows ``[0, count)`` and the previous
    scan's contents become invalid.  MACs must therefore consume one scan
    before requesting the next (every shipped protocol does — plans are
    built from a single scan).
    """

    #: Parallel scratch arrays of the most recent :meth:`scan_pending`.
    #: Row ``i`` describes one VC's pending traffic: destination switch,
    #: globally unique packet id, flits buffered at the WI, total packet
    #: length, flits still to cross the wireless hop, and whether the front
    #: flit is the packet's head (1/0).
    pend_dst: List[int]
    pend_pid: List[int]
    pend_buffered: List[int]
    pend_length: List[int]
    pend_remaining: List[int]
    pend_head: List[int]

    @abc.abstractmethod
    def scan_pending(self, wi_switch_id: int) -> int:
        """Fill the scratch arrays with one WI's pending traffic; return the count."""

    @abc.abstractmethod
    def acceptable_flits(self, dst_switch: int, packet_id: int, is_head: bool) -> int:
        """How many flits of a packet the destination WI can buffer right now.

        The control packet of the previous transmission towards the same
        destination carries enough information for the transmitting WI to
        know the destination VC occupancy, so MAC protocols plan only bursts
        the receiver can actually accept.
        """

    @abc.abstractmethod
    def record_control_energy(self, energy_pj: float, channel_id: int = -1) -> None:
        """Charge the energy of a MAC control packet / token broadcast.

        ``channel_id`` attributes the overhead to one wireless channel for
        the per-channel energy breakdown; ``-1`` leaves it unattributed
        (legacy callers).
        """


class MacStatistics:
    """Counters every MAC implementation maintains."""

    def __init__(self) -> None:
        self.grants = 0
        self.control_packets = 0
        self.token_passes = 0
        self.flits_transmitted = 0
        self.idle_grant_cycles = 0
        self.forced_releases = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports and tests."""
        return {
            "grants": self.grants,
            "control_packets": self.control_packets,
            "token_passes": self.token_passes,
            "flits_transmitted": self.flits_transmitted,
            "idle_grant_cycles": self.idle_grant_cycles,
            "forced_releases": self.forced_releases,
        }


class MacProtocol(abc.ABC):
    """Base class of the channel-access protocols.

    Parameters
    ----------
    channel_id:
        Index of the wireless channel this protocol instance arbitrates.
    wi_switch_ids:
        The WIs sharing the channel, in their fixed sequence order ("the WIs
        are numbered in a sequence", Section III-D).
    adapter:
        View into the simulator (pending traffic, energy accounting): a
        :class:`MacDataPlane` (production, hot) or a legacy
        :class:`repro.testing.legacy.MacAdapter` (tests; bridged
        automatically).
    """

    def __init__(
        self,
        channel_id: int,
        wi_switch_ids: Sequence[int],
        adapter,
    ) -> None:
        if not wi_switch_ids:
            raise ValueError("a wireless channel needs at least one WI")
        self.channel_id = channel_id
        self.wi_switch_ids = list(wi_switch_ids)
        self.adapter = adapter
        #: The hot data plane the protocol logic reads.
        if isinstance(adapter, MacDataPlane):
            self.plane: MacDataPlane = adapter
        else:
            from ...testing.legacy import LegacyAdapterBridge

            self.plane = LegacyAdapterBridge(adapter)
        self.stats = MacStatistics()

    # ------------------------------------------------------------------
    # Protocol interface used by the simulator (hot spellings).
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def update(self, cycle: int) -> None:
        """Advance protocol state at the beginning of a cycle."""

    @abc.abstractmethod
    def grants(
        self, wi_switch_id: int, packet_id: int, dst_switch: int, is_head: bool
    ) -> bool:
        """Whether the WI may put this flit on the channel this cycle.

        Contract every protocol must keep: a grant implies
        ``current_transmitter() == wi_switch_id``, and the call has no side
        effects.  The kernel's allocator relies on both — it skips a WI's
        per-VC grant scan outright while another WI (or nobody) holds the
        channel, which must not change any simulation outcome.
        """

    def notify_sent(
        self,
        wi_switch_id: int,
        packet_id: int,
        dst_switch: int,
        is_tail: bool,
        cycle: int,
    ) -> None:
        """Notification that a flit was transmitted (default: count it)."""
        self.stats.flits_transmitted += 1

    @abc.abstractmethod
    def current_transmitter(self) -> Optional[int]:
        """WI currently holding the channel, if any."""

    def finalize_stats(self) -> None:
        """Settle any statistics still accumulating when the run ends.

        Called once by the wireless fabric's end-of-run ``finalize``.
        Protocols whose counters settle on internal boundaries (the TDMA
        slot rollover) close out the in-progress window here; the default
        is a no-op, keeping every pre-existing protocol bit-identical.
        """

    def is_intended_receiver(self, wi_switch_id: int) -> bool:
        """Whether a WI must listen to the current transmission (hot path).

        Allocation-free membership test the fabric's per-cycle transceiver
        update uses instead of materialising :meth:`intended_receivers`.
        The default says "everyone listens", which models a MAC without
        receiver power gating.
        """
        return True

    def intended_receivers(self) -> Set[int]:
        """Destination WIs of the current transmission (diagnostic view).

        Materialises :meth:`is_intended_receiver` over the channel members;
        kept for tests and reports — the fabric's per-cycle loop uses the
        hot membership test directly.
        """
        return {wi for wi in self.wi_switch_ids if self.is_intended_receiver(wi)}

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------

    def next_wi_index(self, index: int) -> int:
        """Index of the WI after ``index`` in the fixed sequence."""
        return (index + 1) % len(self.wi_switch_ids)

    def member_index(self, wi_switch_id: int) -> int:
        """Position of a WI in the channel's sequence."""
        try:
            return self.wi_switch_ids.index(wi_switch_id)
        except ValueError:
            raise ValueError(
                f"WI {wi_switch_id} is not a member of channel {self.channel_id}"
            ) from None
