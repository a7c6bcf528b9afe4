"""Routing recovery after fabric faults.

When links die the pre-computed shortest-path routes must be rebuilt around
them.  This module owns the *analysis* half of that job: connectivity
(partition detection via BFS over the in-service links), route rebuilding
(dropping every cached route so Dijkstra recomputes on the degraded graph),
and — on request — a deadlock-freedom audit of the recovered route set
using the channel-dependency-graph test from
:mod:`repro.routing.validation`.

The deadlock argument of the default router rests on XY-ordered intra-chip
segments; a failed mesh link forces recovered routes off the XY form, and
the audit regularly finds real dependency cycles in the shortest-path
recovery set.  :func:`recover_routing` therefore implements the full
contract: shortest-path recovery is audited, and when a cycle is found the
route provider falls back to the paper's own spanning-tree scheme
(Section III-C: deadlock is avoided "along the shortest path routing tree
... as it is inherently free of cyclic dependencies") built over the
in-service links — provably cycle-free, at the cost of concentrating
traffic on tree links.  The outcome is always one of: verified
deadlock-free shortest paths, verified tree fallback, or a reported
partition.

The audit is failure-first and stops as soon as its verdict is decided.
Sources are enumerated by hop distance from the failed links (the routes
bent off their XY form start near the hole, so that is where cycles form),
each source's routes join a growing channel-dependency map, and the map is
searched for a cycle after each of the first few sources and then at
doubling points.  The dependency graph of a subset of routes is a subgraph
of the full one, so a cycle found early is a cycle of the full route set,
and an invalid route decides the verdict on its own: stopping there gives
the same verdict — and the same provider, partition report and fallback —
as enumerating every pair.  Only a deadlock-free verdict needs every route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..routing.base import BaseRouter, RoutingError
from ..routing.tree import SpanningTreeRouter
from ..routing.validation import (
    DependencyMap,
    add_channel_dependencies,
    find_channel_dependency_cycle,
    validate_route,
)
from ..topology.graph import TopologyGraph

#: Systems at or below this many switches re-audit even the (provably
#: deadlock-free) spanning-tree fallback, as defence in depth; larger
#: systems trust the construction to keep recovery passes affordable.
AUDIT_SWITCH_LIMIT = 40

#: The audit searches the dependency map for a cycle after each of this
#: many first sources, then each time the source count doubles.
EARLY_CHECKS = 8


@dataclass
class RecoveryReport:
    """Outcome of one routing-recovery pass."""

    #: Connected components of the in-service topology, each a sorted list
    #: of switch ids, ordered by their smallest member.
    components: List[List[int]] = field(default_factory=list)
    #: Whether the deadlock-freedom audit ran (intra-component routes).
    verified: bool = False
    #: Result of the audit (``None`` when it did not run).
    deadlock_free: Optional[bool] = None
    #: The first channel-dependency cycle the audit found, if any (which
    #: cycle depends on how far the audit got before it stopped).
    dependency_cycle: Optional[List[Tuple[int, int]]] = None
    #: The route the audit rejected as invalid, if any (it stops there, so
    #: this holds at most one pair and should stay empty).
    invalid_routes: List[Tuple[int, int]] = field(default_factory=list)
    #: Whether recovery switched to the spanning-tree route provider
    #: because the shortest-path recovery set had a dependency cycle.
    used_tree_fallback: bool = False
    #: Switch id -> its component, built on first use.
    _component_index: Optional[Dict[int, List[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def partitioned(self) -> bool:
        """Whether the in-service topology is split into several islands."""
        return len(self.components) > 1

    def component_of(self, switch_id: int) -> Optional[List[int]]:
        """The component containing a switch (``None`` for an unknown id)."""
        if self._component_index is None:
            self._component_index = {
                member: component for component in self.components for member in component
            }
        return self._component_index.get(switch_id)

    def same_component(self, a: int, b: int) -> bool:
        """Whether two switches can still reach each other."""
        component = self.component_of(a)
        return component is not None and component is self.component_of(b)


def connected_components(topology: TopologyGraph) -> List[List[int]]:
    """Connected components over the in-service links, smallest-id first."""
    remaining = {s.switch_id for s in topology.switches}
    components: List[List[int]] = []
    while remaining:
        start = min(remaining)
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor, _ in topology.neighbors(current):
                if neighbor in remaining and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        components.append(sorted(seen))
        remaining -= seen
    return components


def failure_first_order(topology: TopologyGraph) -> List[int]:
    """Every switch, nearest to a failed link first.

    Hop distance over the in-service links from the endpoints of the
    disabled links, ties broken by switch id; switches no failure reaches
    (or every switch, when no link is disabled) follow in id order.
    """
    distance: Dict[int, int] = {}
    frontier: List[int] = []
    for link_id in topology.disabled_links:
        for switch_id in topology.link(link_id).endpoints():
            if switch_id not in distance:
                distance[switch_id] = 0
                frontier.append(switch_id)
    hops = 0
    while frontier:
        hops += 1
        reached = []
        for current in frontier:
            for neighbor, _ in topology.neighbors(current):
                if neighbor not in distance:
                    distance[neighbor] = hops
                    reached.append(neighbor)
        frontier = reached
    beyond = topology.num_switches  # farther than any hop distance
    return sorted(
        (s.switch_id for s in topology.switches),
        key=lambda switch_id: (distance.get(switch_id, beyond), switch_id),
    )


def rebuild_routes(
    topology: TopologyGraph,
    router: BaseRouter,
    verify_deadlock_freedom: bool = False,
) -> RecoveryReport:
    """Rebuild forwarding state around the currently disabled links.

    Drops every cached route (so the router recomputes on the degraded
    graph) and detects partitions.  With ``verify_deadlock_freedom`` set it
    audits the intra-component routes: sources in :func:`failure_first_order`,
    each routed to every other switch of its component in id order; every
    route is validated against the in-service topology and added to a
    channel-dependency map, which is searched for a cycle after each of the
    first :data:`EARLY_CHECKS` sources, then whenever the source count
    doubles, and after the last source.  The audit stops at the first
    invalid route or the first cycle (``deadlock_free=False``): a cycle
    among a subset of the routes is a cycle of the whole set, so the
    verdict is the one a full enumeration would give.  The returned report
    always states one of the three outcomes: connected and verified
    deadlock-free, connected with a reported dependency cycle, or
    partitioned (with the component list).
    """
    router.clear_cache()
    report = RecoveryReport(components=connected_components(topology))
    if not verify_deadlock_freedom:
        return report
    report.verified = True
    dependencies: DependencyMap = {}
    sources = failure_first_order(topology)
    next_check = 1
    for audited, src in enumerate(sources, start=1):
        for dst in report.component_of(src):
            if dst == src:
                continue
            try:
                route = router.route(src, dst)
                validate_route(topology, route)
            except RoutingError:
                report.invalid_routes.append((src, dst))
                report.deadlock_free = False
                return report
            add_channel_dependencies(dependencies, route)
        if audited == next_check or audited == len(sources):
            report.dependency_cycle = find_channel_dependency_cycle(dependencies=dependencies)
            if report.dependency_cycle is not None:
                report.deadlock_free = False
                return report
            next_check = audited + 1 if audited < EARLY_CHECKS else 2 * audited
    report.deadlock_free = True
    return report


def recover_routing(
    topology: TopologyGraph,
    router: BaseRouter,
) -> Tuple[BaseRouter, RecoveryReport]:
    """Recover routing around disabled links; returns (route provider, report).

    The shortest-path recovery is audited for deadlock freedom; when the
    audit finds a channel-dependency cycle (the usual case once a mesh link
    is gone — the XY argument no longer applies), the returned provider is
    a :class:`~repro.routing.SpanningTreeRouter` built over the in-service
    links, whose up-then-down routes are inherently cycle-free.  On a
    partition no fallback is attempted (per-island traffic keeps its
    shortest paths; the partition itself is the reported outcome).
    """
    report = rebuild_routes(topology, router, verify_deadlock_freedom=True)
    if report.partitioned or report.deadlock_free:
        return router, report
    tree = SpanningTreeRouter(topology)
    tree_report = rebuild_routes(
        topology,
        tree,
        verify_deadlock_freedom=topology.num_switches <= AUDIT_SWITCH_LIMIT,
    )
    tree_report.used_tree_fallback = True
    if tree_report.deadlock_free is None:
        # Above the audit limit the tree is trusted by construction.
        tree_report.deadlock_free = True
    return tree, tree_report
