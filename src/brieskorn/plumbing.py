"""Plumbing trees: canonical resolutions, intersection matrices and
signatures, and equivariant rotation-number propagation.

Signatures, definiteness and determinants are read off the one
congruence elimination, ``matrices.eliminate``.

Node convention: nodes are 0..n-1 with integer weights; edges are
unordered index pairs; the center is node 0, so ``PlumbingGraph`` has
no field for it.  Canonical node order is center first, then the
branches in input order, each walked outward.
"""

from __future__ import annotations

from .arith import NODE_MAX, hj_expand
from .matrices import eliminate
from .records import InputError, InternalInvariantError, record
from .seifert import SeifertData, check_order


class PropagationError(InternalInvariantError):
    """Rotation propagation met a tree that is no circle-equivariant
    plumbing (a branch point away from the centre) or a boundary action
    that is not free (a fixed normal disk at a free pole)."""


@record
class PlumbingGraph:
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

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

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.weights))}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {i: sorted(nbrs) for i, nbrs in adj.items()}


# Annotations are never evaluated (PEP 563), so `Sequence`
# (collections.abc) needs no import.
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
    return PlumbingGraph(tuple(weights), tuple(edges))


def canonical_resolution(sd: SeifertData) -> PlumbingGraph:
    """The minimal negative definite resolution tree of the triple.

    Central weight delta; branch i carries the continued-fraction weights
    of a_i / b_i, walked outward from the center.  A tree of more than
    NODE_MAX nodes is refused before it is built.
    """
    branches = [hj_expand(ai, bi).terms
                for ai, bi in zip(sd.triple.entries, sd.b)]
    n = 1 + sum(map(len, branches))
    if n > NODE_MAX:
        raise InputError(f"the resolution tree has {n} nodes, more than "
                         f"NODE_MAX = {NODE_MAX}")
    return star(sd.delta, branches)


def intersection_matrix(g: PlumbingGraph) -> tuple[tuple[int, ...], ...]:
    """Diagonal = node weights; entry 1 for each edge, 0 otherwise."""
    n = len(g.weights)
    m = [[0] * n for _ in range(n)]
    for i, w in enumerate(g.weights):
        m[i][i] = w
    for i, j in g.edges:
        m[i][j] = 1
        m[j][i] = 1
    return tuple(tuple(row) for row in m)


def graph_signature(g: PlumbingGraph) -> tuple[int, str]:
    """(signature, definiteness) of the intersection form, from one exact
    congruence elimination (matrices.eliminate; leaf-first on a tree).

    Definiteness is one of "negative-definite", "indefinite", "other"
    (positive definite).  A form whose elimination meets a zero pivot
    raises ValueError; no resolution does, since each is negative
    definite.
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


def canonical_pair(a: int, b: int, p: int) -> tuple[int, int]:
    """Canonical form of a rotation pair mod p.

    Pairs are unordered and defined up to simultaneous negation (these are
    the orientation-preserving equivalences of the tangential
    representation, and the moves that leave the eta defect unchanged).
    The representative has entries in (-p/2, p/2] and positive first entry.
    p is odd, so negation maps (-p/2, p/2] to itself and misses 0: each
    ordering has exactly one sign with a positive first entry.
    """
    x, y = centered_residue(a, p), centered_residue(b, p)
    if x == 0 or y == 0:
        raise ValueError(f"degenerate rotation pair ({a},{b}) mod {p}")
    return min((abs(x), y if x > 0 else -y), (abs(y), x if y > 0 else -x))


@record
class EquivariantMarkup:
    """Z/p fixed-set data of a plumbing tree.

    fixed_spheres: (node, self-intersection, normal rotation c_F) for each
    pointwise-fixed node sphere; isolated_points: canonical rotation pairs;
    node_kinds: per-node "fixed"/"invariant" aligned with the graph order.
    """

    p: int
    fixed_spheres: tuple[tuple[int, int, int], ...]
    isolated_points: tuple[tuple[int, int], ...]
    node_kinds: tuple[str, ...]

    def __post_init__(self):
        points = len(self.isolated_points)
        nodes = len(self.node_kinds)
        if points + 2 * len(self.fixed_spheres) != 1 + nodes:
            raise InternalInvariantError(
                f"fixed-set Euler characteristic mismatch: {points} points + "
                f"2*{len(self.fixed_spheres)} spheres != 1 + {nodes} nodes")

    @property
    def invariant_nodes(self) -> tuple[int, ...]:
        return tuple(v for v, kind in enumerate(self.node_kinds)
                     if kind == "invariant")


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

    No node gets the pair (0, 0): a child's pair (b - w*a, -a) is a
    determinant-1 linear map of its parent's (a, b), and each branch
    starts at (1, 0) with p >= 3, so every pair is nonzero mod p.  In
    particular a node below an invariant parent has fibre weight
    -a_parent, which is not 0 mod p.
    """
    check_order(p)
    n = len(g.weights)
    adj = g.adjacency()
    # The fixed spheres, node -> normal rotation c_F; the center, node 0, is one.
    c_f: dict[int, int] = {0: 1}
    isolated: list[tuple[int, int]] = []
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
        marker = " (center)" if i == 0 else ""
        lines.append(f'  n{i} [label="{i}: {w}{marker}"];')
    for i, j in sorted(g.edges):
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
