"""Acoustic conflict graph and greedy TDMA group coloring.

Two AUVs conflict when at least one ASV can hear both of them, so their
simultaneous uplink pings could collide at that ASV.  A proper greedy
coloring of the conflict graph partitions the fleet into ping groups that
share uplink slots safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass
class Coloring:
    color: list[int]
    k: int

    @cached_property
    def groups(self) -> list[list[int]]:
        """Vertex indices per color class, ascending within each group."""
        out = [[] for _ in range(self.k)]
        for v, c in enumerate(self.color):
            out[c].append(v)
        return out


def audibility_masks(auv_positions, anchors, r_hf: float) -> list[int]:
    """Per-AUV bitmask of the ASVs within r_hf (horizontal) of it.

    Bit j of entry i is set when ASV j hears AUV i.  ``anchors`` are the
    ASVs' (x, y) positions.  The range is sqrt(dx*dx + dy*dy), what numpy's
    norm computes for a 2-vector.
    """
    masks = []
    for p in auv_positions:
        px, py = p[0], p[1]
        mask = 0
        bit = 1
        for a in anchors:
            dx, dy = px - a[0], py - a[1]
            if math.sqrt(dx * dx + dy * dy) <= r_hf:
                mask |= bit
            bit <<= 1
        masks.append(mask)
    return masks


def build_conflict_graph(masks: list[int]) -> list[set[int]]:
    """Conflict graph over the whole fleet from its ``audibility_masks``, as
    its adjacency list: entry i is the set of AUVs that conflict with AUV i.

    Two AUVs conflict when their masks share an ASV.  AUVs out of range of
    every ASV become isolated vertices; they still get a color and ping in
    their slot, their pings are simply unheard.  The graph depends on the
    masks alone.
    """
    n = len(masks)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if masks[i] & masks[j]:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def greedy_color(adj: list[set[int]]) -> Coloring:
    """Greedy coloring in ascending vertex order (deterministic)."""
    color = [-1] * len(adj)
    for v, nbrs in enumerate(adj):
        used = {color[u] for u in nbrs if color[u] != -1}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    k = max(color) + 1 if color else 0
    return Coloring(color, k)
