"""Plumbing trees: canonical resolutions, intersection matrices and
signatures, and equivariant rotation-number propagation.

Signatures, definiteness and determinants are read off the one
congruence elimination, ``matrices.eliminate``.

Node convention: nodes are 0..n-1 with integer weights; edges are
unordered index pairs; the designated center is node 0 for the graphs
built here.  Canonical node order is center first, then the branches in
input order, each walked outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .arith import hj_expand, is_prime
from .matrices import eliminate
from .seifert import SeifertData


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed (a Lefschetz-type count, a
    diagonalization identity, rotation propagation, or a markup that does
    not match its diagonalization); the CLI exits with code 2."""


class PropagationError(InternalInvariantError):
    """Rotation propagation met data inconsistent with a free boundary
    action (zero rotation pair) or with circle-equivariant plumbing."""


@dataclass(frozen=True)
class PlumbingGraph:
    weights: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    center: int = 0

    def __post_init__(self):
        n = len(self.weights)
        if not 0 <= self.center < n:
            raise ValueError(f"center {self.center} out of range")
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

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {i: [] for i in range(len(self.weights))}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {i: sorted(nbrs) for i, nbrs in adj.items()}


def star(center_weight: int, branches: Sequence[Sequence[int]]) -> PlumbingGraph:
    """Star-shaped tree: a center and linear branches walked outward."""
    weights = [center_weight]
    edges = []
    for branch in branches:
        prev = 0
        for w in branch:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return PlumbingGraph(tuple(weights), tuple(edges), center=0)


def canonical_resolution(sd: SeifertData) -> PlumbingGraph:
    """The minimal negative definite resolution tree of the triple.

    Central weight delta; branch i carries the continued-fraction weights
    of a_i / b_i, walked outward from the center.
    """
    branches = [hj_expand(ai, bi).terms
                for ai, bi in zip(sd.triple.entries, sd.b)]
    return star(sd.delta, branches)


def intersection_matrix(g: PlumbingGraph) -> Tuple[Tuple[int, ...], ...]:
    """Diagonal = node weights; entry 1 for each edge, 0 otherwise."""
    n = g.node_count
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(g.weights):
        m[i][i] = w
    for i, j in g.edges:
        m[i][j] = 1
        m[j][i] = 1
    return tuple(tuple(row) for row in m)


def graph_signature(g: PlumbingGraph) -> Tuple[int, str]:
    """(signature, definiteness) of the intersection form, from one exact
    congruence elimination (matrices.eliminate; leaf-first on a tree).

    Definiteness is one of "negative-definite", "indefinite", "other".
    """
    e = eliminate(intersection_matrix(g))
    return e.signature, e.definiteness


# ---------------------------------------------------------------------------
# Equivariant markup
# ---------------------------------------------------------------------------

def centered_residue(x: int, p: int) -> int:
    """Residue of x in (-p/2, p/2]."""
    r = x % p
    return r - p if r > p // 2 else r


def canonical_pair(a: int, b: int, p: int) -> Tuple[int, int]:
    """Canonical form of a rotation pair mod p.

    Pairs are unordered and defined up to simultaneous negation (these are
    the orientation-preserving equivalences of the tangential
    representation, and the moves that leave the eta defect unchanged).
    The representative has entries in (-p/2, p/2] and positive first entry.
    """
    if a % p == 0 or b % p == 0:
        raise ValueError(f"degenerate rotation pair ({a},{b}) mod {p}")
    variants = []
    for x, y in ((a, b), (b, a), (-a, -b), (-b, -a)):
        cx, cy = centered_residue(x, p), centered_residue(y, p)
        if cx > 0:
            variants.append((cx, cy))
    return min(variants)


@dataclass(frozen=True)
class EquivariantMarkup:
    """Z/p fixed-set data of a plumbing tree.

    fixed_spheres: (node, self-intersection, normal rotation c_F) for each
    pointwise-fixed node sphere; isolated_points: canonical rotation pairs;
    node_kinds: per-node "fixed"/"invariant" aligned with the graph order.
    """

    p: int
    fixed_spheres: Tuple[Tuple[int, int, int], ...]
    invariant_nodes: Tuple[int, ...]
    isolated_points: Tuple[Tuple[int, int], ...]
    node_kinds: Tuple[str, ...]

    def __post_init__(self):
        points = len(self.isolated_points)
        nodes = len(self.node_kinds)
        if points + 2 * len(self.fixed_spheres) != 1 + nodes:
            raise InternalInvariantError(
                f"fixed-set Euler characteristic mismatch: {points} points + "
                f"2*{len(self.fixed_spheres)} spheres != 1 + {nodes} nodes")


def propagate_rotations(g: PlumbingGraph, p: int) -> EquivariantMarkup:
    """Propagate circle-action rotation weights over the tree, mod p.

    Each node sphere carries a (base, fibre) weight pair at its inward
    pole.  Over a sphere of self-intersection w the pair (a, b) becomes
    (-a, b - w*a) at the opposite pole, and plumbing onto the next sphere
    interchanges base and fibre coordinates.  The central node is
    pointwise fixed (base weight 0; a nontrivially rotated sphere has only
    two fixed points and cannot host three junctions), with fibre weight 1
    for the standard Seifert action.

    A node is a fixed sphere iff its base weight vanishes mod p (normal
    rotation c_F = fibre weight); junctions between two invariant spheres
    and free poles of invariant leaves are the isolated fixed points.
    """
    if not is_prime(p):
        raise ValueError(f"group order must be prime, got {p}")
    n = g.node_count
    adj = g.adjacency()
    kinds: Dict[int, str] = {}
    c_f: Dict[int, int] = {}
    isolated: List[Tuple[int, int]] = []

    kinds[g.center] = "fixed"
    c_f[g.center] = 1
    # (node, parent, north pair); the center hands (fibre, 0) to each branch.
    stack = [(u, g.center, (1, 0)) for u in reversed(adj[g.center])]
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
            if b == 0:
                raise PropagationError(f"zero rotation pair at node {v}")
            kinds[v] = "fixed"
            c_f[v] = b
        else:
            kinds[v] = "invariant"
            if kinds[parent] == "invariant":
                # Junction point between two rotated spheres.
                if b == 0:
                    raise PropagationError(f"zero rotation pair at node {v}")
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
    invariant = tuple(v for v in range(n) if kinds[v] == "invariant")
    return EquivariantMarkup(
        p=p,
        fixed_spheres=fixed,
        invariant_nodes=invariant,
        isolated_points=tuple(sorted(isolated)),
        node_kinds=tuple(kinds[v] for v in range(n)),
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def to_tgf(g: PlumbingGraph) -> str:
    """Trivial Graph Format: 'id weight' lines, '#', then 'id id' edges."""
    lines = [f"{i} {w}" for i, w in enumerate(g.weights)]
    lines.append("#")
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def to_dot(g: PlumbingGraph) -> str:
    lines = ["graph plumbing {"]
    for i, w in enumerate(g.weights):
        marker = " (center)" if i == g.center else ""
        lines.append(f'  n{i} [label="{i}: {w}{marker}"];')
    for i, j in sorted(g.edges):
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
