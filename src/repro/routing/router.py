"""Default shortest-path router of the reproduction.

``ShortestPathRouter`` reproduces the routing scheme of Section III-C:
switch-level shortest paths are pre-computed with Dijkstra's algorithm over
the whole multichip topology (wired and wireless links together, weighted by
their per-hop cost), and packets are forwarded along those pre-computed
paths.  Two refinements keep the simulation well behaved:

* equal-cost alternatives (e.g. parallel interposer links between two chips)
  are chosen by a deterministic per-pair hash, spreading load without
  sacrificing reproducibility, and
* every maximal intra-region mesh segment of a path is rewritten into its
  canonical X-then-Y form of identical length, which makes the intra-chip
  portion dimension-ordered and hence free of cyclic channel dependencies.
"""

from __future__ import annotations

from typing import Dict, List

from ..topology.graph import LinkKind, TopologyGraph
from .base import BaseRouter, RoutingError
from .dijkstra import ShortestPathForest
from .xy import RegionGridIndex, xy_path


class ShortestPathRouter(BaseRouter):
    """Dijkstra shortest paths + XY canonicalisation of mesh segments."""

    def __init__(self, graph: TopologyGraph, link_weights=None, canonicalize_xy: bool = True) -> None:
        super().__init__(graph, link_weights)
        self._canonicalize_xy = canonicalize_xy
        self._forests: Dict[int, ShortestPathForest] = {}
        self._grid_index = RegionGridIndex(graph)
        #: Ids of the mesh links inside one region: the hops XY
        #: canonicalisation may rewrite (whether in service or not).
        self._intra_region_mesh = {
            link.link_id
            for link in graph.links_of_kind(LinkKind.MESH)
            if graph.switch(link.src).region_id == graph.switch(link.dst).region_id
        }

    @property
    def canonicalize_xy(self) -> bool:
        """Whether intra-region mesh segments are rewritten to XY order."""
        return self._canonicalize_xy

    def _forest(self, source: int) -> ShortestPathForest:
        forest = self._forests.get(source)
        if forest is None:
            forest = ShortestPathForest(self._graph, source, self.link_weight)
            self._forests[source] = forest
        return forest

    def _compute_route(self, src_switch: int, dst_switch: int) -> List[int]:
        if src_switch == dst_switch:
            return [src_switch]
        forest = self._forest(src_switch)
        path = forest.path_to(dst_switch, selector=dst_switch)
        if self._canonicalize_xy:
            path = self._canonicalize(path)
        return path

    def clear_cache(self) -> None:
        """Drop cached routes and shortest-path forests."""
        super().clear_cache()
        self._forests.clear()

    # ------------------------------------------------------------------
    # XY canonicalisation.
    # ------------------------------------------------------------------

    def _canonicalize(self, path: List[int]) -> List[int]:
        """Rewrite maximal same-region mesh runs into X-then-Y order."""
        live = self._graph.live_links
        intra_region_mesh = self._intra_region_mesh
        result: List[int] = [path[0]]
        run_start = 0
        for index in range(1, len(path)):
            prev = path[index - 1]
            here = path[index]
            link = live[prev].get(here)
            if link is None:
                raise RoutingError(f"route uses missing link ({prev}, {here})")
            if link.link_id in intra_region_mesh:
                continue
            # The mesh run path[run_start .. index-1] ends here; canonicalise
            # it, then emit the non-mesh hop verbatim.
            self._extend_with_run(result, path, run_start, index - 1)
            result.append(here)
            run_start = index
        self._extend_with_run(result, path, run_start, len(path) - 1)
        return result

    def _extend_with_run(
        self, result: List[int], path: List[int], start: int, end: int
    ) -> None:
        """Append the canonical form of ``path[start..end]`` (skipping its head).

        The canonical X-then-Y rewrite is only applied when every link it
        would use is in service; when fault injection has disabled a mesh
        link on the XY path, the Dijkstra-computed run — which already avoids
        disabled links — is kept verbatim.  On a healthy topology the rewrite
        always applies, so fault-free routes are unchanged.
        """
        if end <= start:
            return
        try:
            canonical = xy_path(self._graph, self._grid_index, path[start], path[end])
        except RoutingError:
            canonical = None
        live = self._graph.live_links
        if canonical is not None and all(b in live[a] for a, b in zip(canonical, canonical[1:])):
            result.extend(canonical[1:])
        else:
            result.extend(path[start + 1 : end + 1])


class MinimalHopRouter(ShortestPathRouter):
    """Shortest paths counted in hops, ignoring per-link costs.

    Used by analyses that need the pure topological distance (e.g. the
    minimum-average-distance WI placement study) rather than the latency-
    weighted routes the simulator uses.
    """

    def __init__(self, graph: TopologyGraph, canonicalize_xy: bool = True) -> None:
        uniform = {kind: 1.0 for kind in LinkKind}
        super().__init__(graph, link_weights=uniform, canonicalize_xy=canonicalize_xy)
