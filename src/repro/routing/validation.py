"""Route validation helpers shared by tests and the simulator."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..topology.graph import LinkKind, TopologyGraph
from .base import RoutingError


def validate_route(graph: TopologyGraph, route: Sequence[int]) -> None:
    """Check that a switch sequence is a usable route.

    A valid route visits existing switches, uses an existing link for every
    consecutive pair, and never visits the same switch twice (wormhole
    source routing cannot express revisits).

    Raises
    ------
    RoutingError
        If any property is violated.
    """
    if not route:
        raise RoutingError("route is empty")
    live = graph.live_links
    seen = set()
    for switch_id in route:
        if switch_id not in live:
            graph.switch(switch_id)  # raises TopologyError for unknown switches
        if switch_id in seen:
            raise RoutingError(f"route visits switch {switch_id} twice: {list(route)}")
        seen.add(switch_id)
    for a, b in zip(route, route[1:]):
        if b not in live[a]:
            raise RoutingError(f"route uses missing link ({a}, {b})")


def wireless_hop_count(graph: TopologyGraph, route: Sequence[int]) -> int:
    """Number of wireless hops on a route."""
    count = 0
    for a, b in zip(route, route[1:]):
        link = graph.find_link(a, b)
        if link is not None and link.kind == LinkKind.WIRELESS:
            count += 1
    return count


def link_kinds_on_route(graph: TopologyGraph, route: Sequence[int]) -> List[LinkKind]:
    """Ordered list of link kinds traversed by a route."""
    kinds = []
    for a, b in zip(route, route[1:]):
        link = graph.find_link(a, b)
        if link is None:
            raise RoutingError(f"route uses missing link ({a}, {b})")
        kinds.append(link.kind)
    return kinds


#: A directed channel: the (src switch, dst switch) direction of one link.
Channel = Tuple[int, int]


#: Channel -> the channels some route enters straight after it.
DependencyMap = Dict[Channel, Set[Channel]]


def add_channel_dependencies(dependencies: DependencyMap, route: Sequence[int]) -> None:
    """Add one route's consecutive-hop channel pairs to a dependency map."""
    for i in range(len(route) - 2):
        upstream: Channel = (route[i], route[i + 1])
        downstream: Channel = (route[i + 1], route[i + 2])
        dependencies.setdefault(upstream, set()).add(downstream)
        dependencies.setdefault(downstream, set())


def find_channel_dependency_cycle(
    routes: Iterable[Sequence[int]] = (),
    dependencies: Optional[DependencyMap] = None,
) -> Optional[List[Channel]]:
    """A cyclic channel dependency among the given routes, or ``None``.

    Wormhole routing deadlocks exactly when the *channel dependency graph* —
    one node per directed link, one edge per consecutive hop pair some route
    uses — contains a cycle (Dally & Seitz).  This builds that graph from
    the route set (on top of ``dependencies``, a map grown with
    :func:`add_channel_dependencies`, when one is given — the map is
    extended in place) and searches it with an iterative DFS; the returned
    value is the offending channel sequence (closed: first == last), so
    recovery code and tests can report precisely which dependency loop
    would deadlock.
    """
    if dependencies is None:
        dependencies = {}
    for route in routes:
        add_channel_dependencies(dependencies, route)
    # Iterative DFS with colouring: 0 unvisited, 1 on stack, 2 done.
    colour: Dict[Channel, int] = {channel: 0 for channel in dependencies}
    for start in sorted(dependencies):
        if colour[start] != 0:
            continue
        stack: List[Tuple[Channel, Iterable[Channel]]] = [
            (start, iter(sorted(dependencies[start])))
        ]
        colour[start] = 1
        path = [start]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = colour.get(child, 0)
                if state == 1:
                    cycle_start = path.index(child)
                    return path[cycle_start:] + [child]
                if state == 0:
                    colour[child] = 1
                    path.append(child)
                    stack.append((child, iter(sorted(dependencies[child]))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = 2
                path.pop()
                stack.pop()
    return None


def routes_are_deadlock_free(routes: Iterable[Sequence[int]]) -> bool:
    """Whether the route set has an acyclic channel dependency graph."""
    return find_channel_dependency_cycle(routes) is None
