"""Step 1 of JUMPS: shortest paths over basic blocks.

The paper finds the replacement for an unconditional jump by following the
*shortest path* in the control-flow graph, where the length of a path is the
number of RTLs in the traversed blocks.  The paper computes all-pairs
shortest paths with the Floyd/Warshall algorithm ([Wa62], [Fl62]) "once per
invocation" — :class:`ShortestPathMatrix` keeps that dense implementation
as the differential oracle.  The optimizer's hot path, however, only ever
asks about a handful of sources (the actual jump targets of one sweep), so
the replicator builds the demand-driven
:class:`repro.core.sssp.LazyShortestPaths` instead (per-source Dijkstra,
memoized across the sweep).  The parity tests swap the dense matrix in at
that one construction site.

Conventions (shared by both engines):

* ``dist(u, v)`` is the minimum total number of RTLs over all paths from
  ``u`` to ``v``, counting the RTLs of *both* endpoints and of every block
  in between.  ``dist(u, u)`` is not defined (the relation is kept
  non-reflexive, as in the paper).
* Self edges are excluded; blocks ending in an indirect jump contribute no
  outgoing edges ("the replication of indirect jumps has not yet been
  implemented", §4) — and they also cannot appear in the middle of a
  replication sequence because they never fall through.

Canonical paths
---------------

Ties between equally short paths are broken *canonically*, from distance
values alone, so every engine reconstructs the identical block sequence:
among all minimum-weight paths the hop-minimal one is chosen, and within a
hop layer the smallest-index predecessor wins.  This is what makes the lazy
engine and the dense oracle produce byte-identical replication decisions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cfg.block import BasicBlock, Function

__all__ = ["ShortestPathMatrix", "ShortestPathBase"]

_INF = float("inf")


class ShortestPathBase:
    """Queries shared by every shortest-path engine.

    A concrete engine snapshots the function at construction (the engine
    stays valid across replacements within one sweep: replication only
    adds blocks, so recorded shortest paths remain intact) and provides:

    * ``blocks`` / ``index`` — the block snapshot and its ``id`` index;
    * ``_sizes`` — per-block RTL counts, indexable by block index;
    * ``_succ_idx`` / ``_pred_idx`` — the snapshot adjacency with the
      paper's exclusions applied (no self edges, no edges out of blocks
      ending in indirect jumps);
    * ``_return_idx`` — indices of blocks ending in a return;
    * :meth:`_distances_from` — the distance row of one source;
    * :meth:`_best_return_from` — nearest return block for one source.
    """

    func: Function
    blocks: List[BasicBlock]
    index: Dict[int, int]

    # --- engine hooks ---------------------------------------------------------

    def _distances_from(self, i: int):
        """Distances from source ``i`` to every block index (indexable).

        Entry ``[i]`` itself is unspecified — the relation is
        non-reflexive and every query path treats the source specially.
        """
        raise NotImplementedError

    def _best_return_from(self, i: int) -> Optional[int]:
        """Index of the nearest return block (smallest index on ties)."""
        raise NotImplementedError

    # --- snapshot helpers -----------------------------------------------------

    def _snapshot(self, func: Function) -> None:
        """Capture blocks, sizes, filtered adjacency and return blocks."""
        self.func = func
        self.blocks = list(func.blocks)
        self.index = {id(block): i for i, block in enumerate(self.blocks)}
        self._sizes = [block.size() for block in self.blocks]
        succ_idx: List[List[int]] = []
        for i, block in enumerate(self.blocks):
            row: List[int] = []
            if not block.ends_in_indirect_jump():  # excluded (paper, step 1)
                for succ in block.succs:
                    j = self.index.get(id(succ))
                    # Self-reflexive transitions are excluded; duplicate
                    # edges (a conditional branch whose target is also its
                    # fall-through) collapse to one.
                    if j is not None and j != i and j not in row:
                        row.append(j)
            succ_idx.append(row)
        pred_idx: List[List[int]] = [[] for _ in self.blocks]
        for i, row in enumerate(succ_idx):
            for j in row:
                pred_idx[j].append(i)
        self._succ_idx = succ_idx
        self._pred_idx = pred_idx
        self._return_idx = [
            i for i, block in enumerate(self.blocks) if block.ends_in_return()
        ]

    # --- canonical path reconstruction ----------------------------------------

    def _canonical_path_idx(self, i: int, j: int) -> Optional[List[int]]:
        """The canonical shortest path ``i .. j`` as block indices.

        Built purely from distance values, so every engine agrees: BFS
        over the shortest-path subgraph (edges that settle the distance
        equation) finds minimal hop counts, then a backward walk picks
        the smallest-index predecessor in the previous hop layer.  All
        block sizes are non-negative integers, so the float comparisons
        below are exact.
        """
        d = self._distances_from(i)
        if i == j or not d[j] < _INF:
            return None
        sizes = self._sizes
        hops: Dict[int, int] = {i: 0}
        frontier = [i]
        depth = 0
        while frontier and j not in hops:
            depth += 1
            next_frontier: List[int] = []
            for u in frontier:
                du = sizes[i] if u == i else d[u]
                for v in self._succ_idx[u]:
                    if v == i or v in hops:
                        continue
                    if du + sizes[v] == d[v]:
                        hops[v] = depth
                        next_frontier.append(v)
            frontier = next_frontier
        if j not in hops:  # pragma: no cover - distances imply reachability
            return None
        path = [j]
        v = j
        while v != i:
            layer = hops[v] - 1
            best = -1
            for u in self._pred_idx[v]:
                if hops.get(u, -1) != layer or (best >= 0 and u >= best):
                    continue
                du = sizes[i] if u == i else d[u]
                if du + sizes[v] == d[v]:
                    best = u
            assert best >= 0, "canonical walk lost the BFS parent"
            path.append(best)
            v = best
        path.reverse()
        return path

    # --- queries --------------------------------------------------------------

    def dist(self, src: BasicBlock, dst: BasicBlock) -> float:
        """Total RTLs on the shortest path from ``src`` to ``dst`` (inclusive)."""
        i = self.index.get(id(src))
        j = self.index.get(id(dst))
        if i is None or j is None or i == j:
            return _INF
        return float(self._distances_from(i)[j])

    def path(self, src: BasicBlock, dst: BasicBlock) -> Optional[List[BasicBlock]]:
        """The blocks of the shortest path ``src .. dst`` inclusive, or None."""
        i = self.index.get(id(src))
        j = self.index.get(id(dst))
        if i is None or j is None or i == j:
            return None
        idxs = self._canonical_path_idx(i, j)
        if idxs is None:
            return None
        return [self.blocks[k] for k in idxs]

    def shortest_sequence_to_return(
        self, start: BasicBlock
    ) -> Optional[List[BasicBlock]]:
        """Option A of step 2: cheapest block sequence from ``start`` ending
        in a return from the routine ("favoring returns")."""
        if start.ends_in_return():
            return [start]
        i = self.index.get(id(start))
        if i is None:
            return None
        best_j = self._best_return_from(i)
        if best_j is None:
            return None
        idxs = self._canonical_path_idx(i, best_j)
        if idxs is None:
            return None
        return [self.blocks[k] for k in idxs]

    def shortest_sequence_to_fallthrough(
        self, start: BasicBlock, follow: BasicBlock
    ) -> Optional[List[BasicBlock]]:
        """Option B of step 2: cheapest sequence from ``start`` whose last
        block has an edge to ``follow`` ("favoring loops").  ``follow`` itself
        is *not* part of the sequence — the copy will fall through into it."""
        if any(succ is follow for succ in start.succs) and not (
            start.ends_in_indirect_jump() or start is follow
        ):
            direct: Optional[List[BasicBlock]] = [start]
        else:
            direct = None
        path = self.path(start, follow)
        via_engine = path[:-1] if path is not None and len(path) > 1 else None
        candidates = [c for c in (direct, via_engine) if c is not None]
        if not candidates:
            return None
        return min(candidates, key=lambda seq: sum(b.size() for b in seq))

    @staticmethod
    def sequence_cost(sequence: Sequence[BasicBlock]) -> int:
        return sum(block.size() for block in sequence)


class ShortestPathMatrix(ShortestPathBase):
    """All-pairs shortest paths, computed densely with Floyd/Warshall.

    This is the paper's step-1 algorithm, kept as the differential
    oracle of :class:`repro.core.sssp.LazyShortestPaths`.
    """

    def __init__(self, func: Function) -> None:
        self._snapshot(func)
        n = len(self.blocks)
        sizes = np.array(self._sizes, dtype=np.float64)
        dist = np.full((n, n), _INF, dtype=np.float64)
        for i, row in enumerate(self._succ_idx):
            for j in row:
                weight = sizes[i] + sizes[j]
                if weight < dist[i, j]:
                    dist[i, j] = weight
        # Floyd/Warshall, vectorized over the (i, j) plane for each pivot k.
        # Intermediate block k is counted once: dist[i,k] + dist[k,j] counts
        # it twice, so subtract its size.
        for k in range(n):
            through_k = dist[:, k, None] + dist[None, k, :] - sizes[k]
            np.minimum(dist, through_k, out=dist)
        self._dist = dist
        # Nearest-return vector, filled on first use (the satellite fix:
        # one vectorized argmin instead of an all-blocks scan per query).
        self._ret_best: Optional[np.ndarray] = None

    def _distances_from(self, i: int):
        return self._dist[i]

    def _best_return_from(self, i: int) -> Optional[int]:
        if self._ret_best is None:
            n = len(self.blocks)
            ridx = self._return_idx
            if not ridx:
                self._ret_best = np.full(n, -1, dtype=np.int64)
            else:
                sub = self._dist[:, ridx].copy()
                for pos, j in enumerate(ridx):
                    sub[j, pos] = _INF  # non-reflexive: skip dist(j, j)
                best_pos = np.argmin(sub, axis=1)  # first minimum wins ties
                best = np.array(ridx, dtype=np.int64)[best_pos]
                best[sub[np.arange(n), best_pos] == _INF] = -1
                self._ret_best = best
        j = int(self._ret_best[i])
        return None if j < 0 else j
