"""Dijkstra shortest paths with deterministic, diverse tie-breaking.

The paper pre-computes shortest paths with Dijkstra's algorithm and notes
that when several equal-length trees exist one is "chosen randomly".  To keep
simulations reproducible while still spreading traffic over equal-cost
alternatives (important when several parallel interposer links cross the same
chip boundary), path reconstruction breaks ties with a deterministic hash of
(source, destination, switch) rather than a random draw.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..topology.graph import LinkSpec, TopologyGraph
from .base import RoutingError


def _stable_hash(*values: int) -> int:
    """Deterministic small hash of a tuple of ints (independent of PYTHONHASHSEED)."""
    result = 2166136261
    for value in values:
        result ^= (value + 0x9E3779B9) & 0xFFFFFFFF
        result = (result * 16777619) & 0xFFFFFFFF
    return result


class ShortestPathForest:
    """Single-source shortest paths with *all* equal-cost predecessors kept."""

    def __init__(
        self,
        graph: TopologyGraph,
        source: int,
        weight: Callable[[LinkSpec], float],
    ) -> None:
        self._graph = graph
        self._source = source
        self._distance: Dict[int, float] = {source: 0.0}
        self._predecessors: Dict[int, List[int]] = {source: []}
        self._run(weight)
        # Sorted once here so every path_to tie-break indexes a ready list.
        for options in self._predecessors.values():
            options.sort()

    @property
    def source(self) -> int:
        """Source switch the forest is rooted at."""
        return self._source

    def _run(self, weight: Callable[[LinkSpec], float]) -> None:
        graph = self._graph
        distance = self._distance
        predecessors = self._predecessors
        visited = set()
        heap: List[Tuple[float, int]] = [(0.0, self._source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbor, link in graph.neighbors(node):
                cost = weight(link)
                if cost < 0:
                    raise RoutingError(f"negative link weight on link {link.link_id}")
                candidate = dist + cost
                best = distance.get(neighbor)
                if best is None or candidate < best - 1e-12:
                    distance[neighbor] = candidate
                    predecessors[neighbor] = [node]
                    heapq.heappush(heap, (candidate, neighbor))
                elif abs(candidate - best) <= 1e-12 and node not in predecessors[neighbor]:
                    predecessors[neighbor].append(node)

    def distance_to(self, destination: int) -> float:
        """Weighted distance from the source to ``destination``."""
        try:
            return self._distance[destination]
        except KeyError:
            raise RoutingError(
                f"switch {destination} unreachable from {self._source}"
            ) from None

    def reachable(self, destination: int) -> bool:
        """Whether the destination is reachable from the source."""
        return destination in self._distance

    def path_to(self, destination: int, selector: Optional[int] = None) -> List[int]:
        """A shortest path from the source to ``destination``.

        ``selector`` seeds the tie-break among equal-cost predecessors so
        different (source, destination) pairs spread over different
        equal-cost alternatives while remaining deterministic.
        """
        if destination not in self._distance:
            raise RoutingError(
                f"switch {destination} unreachable from {self._source}"
            )
        seed = selector if selector is not None else destination
        path = [destination]
        node = destination
        while node != self._source:
            options = self._predecessors[node]
            if not options:
                raise RoutingError(
                    f"broken predecessor chain at switch {node} from {self._source}"
                )
            choice = options[_stable_hash(self._source, seed, node) % len(options)]
            path.append(choice)
            node = choice
            if len(path) > self._graph.num_switches + 1:
                raise RoutingError("predecessor chain contains a cycle")
        path.reverse()
        return path


def all_pairs_distance(
    graph: TopologyGraph, weight: Callable[[LinkSpec], float]
) -> Dict[int, Dict[int, float]]:
    """Weighted distance between every ordered pair of switches.

    Convenience helper for analysis (average distance, WI placement studies)
    and tests; O(V * (E log V)).
    """
    result: Dict[int, Dict[int, float]] = {}
    for switch in graph.switches:
        forest = ShortestPathForest(graph, switch.switch_id, weight)
        result[switch.switch_id] = {
            other.switch_id: forest.distance_to(other.switch_id)
            for other in graph.switches
            if forest.reachable(other.switch_id)
        }
    return result
