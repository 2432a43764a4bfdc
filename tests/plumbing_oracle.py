"""The general-tree plumbing layout and its stack walk, kept as test
oracles.

The package's ``PlumbingGraph`` is a star, the centre weight and its
linear branches, and ``propagate_rotations`` makes one pass per branch.
Before that it was a tree of node weights and an edge list that checked
it was a tree, and the markup walked an adjacency map with a stack,
refusing a branch point away from the centre.  That layout (``star``
builds it from a centre and branches) and that walk are kept here, so
tests can compare the package's ``weights``, ``edges``, intersection
matrix and markup with them, and so ``lattice_oracle.graph_signature``
and the elimination tests can take trees of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from brieskorn.plumbing import (EquivariantMarkup, PropagationError,
                                canonical_pair)
from brieskorn.seifert import check_order


@dataclass(frozen=True)
class PlumbingGraph:
    """A tree on nodes 0..n-1 with integer weights; the centre is node 0."""

    weights: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.weights)
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i},{j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add(key)
        if len(self.edges) != n - 1 or not self._connected():
            raise ValueError("graph is not a tree")

    def _connected(self) -> bool:
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.weights)

    def adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {i: [] for i in range(len(self.weights))}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {i: sorted(nbrs) for i, nbrs in adj.items()}


def star(center_weight: int,
         branches: Sequence[Sequence[int]]) -> PlumbingGraph:
    """Star-shaped tree: a center and linear branches walked outward."""
    weights = [center_weight]
    edges = []
    for branch in branches:
        prev = 0
        for w in branch:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return PlumbingGraph(tuple(weights), tuple(edges))


def propagate_rotations(g: PlumbingGraph, p: int) -> EquivariantMarkup:
    """The package's markup by a stack walk over the adjacency map, from
    the centre outward; a node with two children raises PropagationError.
    """
    check_order(p)
    n = len(g.weights)
    adj = g.adjacency()
    # The fixed spheres, node -> normal rotation c_F; the center, node 0, is one.
    c_f: Dict[int, int] = {0: 1}
    isolated: List[Tuple[int, int]] = []
    # (node, parent, north pair); the center hands (fibre, 0) to each branch.
    stack = [(u, 0, (1, 0)) for u in reversed(adj[0])]
    while stack:
        v, parent, (a, b) = stack.pop()
        w = g.weights[v]
        south = ((-a) % p, (b - w * a) % p)
        children = [u for u in adj[v] if u != parent]
        if len(children) > 1:
            raise PropagationError(
                f"node {v} has {len(children) + 1} junctions; only the "
                "center of the tree can be a branch point")
        if a == 0:
            c_f[v] = b
        else:
            if parent not in c_f:
                # Junction point between two rotated spheres.
                isolated.append(canonical_pair(a, b, p))
            if not children:
                if south[1] == 0:
                    raise PropagationError(
                        f"fixed normal disk at the free pole of node {v}: "
                        "the boundary action is not free")
                isolated.append(canonical_pair(south[0], south[1], p))
        for u in children:
            stack.append((u, v, (south[1], south[0])))

    fixed = tuple((v, g.weights[v], c_f[v] % p)  # normal rotations as 1..p-1
                  for v in sorted(c_f))
    return EquivariantMarkup(
        p=p,
        fixed_spheres=fixed,
        isolated_points=tuple(sorted(isolated)),
        node_kinds=tuple("fixed" if v in c_f else "invariant"
                         for v in range(n)),
    )
