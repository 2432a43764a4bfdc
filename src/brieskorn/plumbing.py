"""Plumbing trees: canonical resolutions, intersection matrices and
signatures, and equivariant rotation-number propagation.

Signatures, definiteness and determinants are read off the one
congruence elimination, ``matrices.eliminate``.

The resolution of a Brieskorn sphere is a star: a central node and
linear branches (the continued fractions of a_i / b_i), so
``PlumbingGraph`` holds the centre weight and the branches' weights and
nothing else.  Its ``weights`` and ``edges`` number the nodes 0..n-1:
the center is node 0, then each branch in input order, walked outward.
Rotation data is propagated outward along each branch (W. Neumann, "A
calculus for plumbing...", Trans. AMS 268 (1981)), so the markup comes
out in node order.
"""

from __future__ import annotations

from .arith import NODE_MAX, hj_expand
from .matrices import eliminate
from .records import InputError, InternalInvariantError, record
from .rules import check_order
from .seifert import SeifertData


class PropagationError(InternalInvariantError):
    """Rotation propagation met a boundary action that is not free: a
    fixed normal disk at the free pole of a leaf."""


@record
class PlumbingGraph:
    """A star: the centre weight and its linear branches, each walked
    outward from the centre."""

    center: int
    branches: tuple[tuple[int, ...], ...]

    @property
    def weights(self) -> tuple[int, ...]:
        """Node weights in node order: the centre, then each branch."""
        return (self.center, *(w for branch in self.branches for w in branch))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(inner, outer) node pairs; node k > 0 is the end of edge k - 1."""
        edges = []
        for branch in self.branches:
            inner = 0
            for _ in branch:
                edges.append((inner, len(edges) + 1))
                inner = len(edges)
        return tuple(edges)


def canonical_resolution(sd: SeifertData) -> PlumbingGraph:
    """The minimal negative definite resolution tree of the triple.

    Central weight delta; branch i carries the continued-fraction weights
    of a_i / b_i, walked outward from the center.  A tree of more than
    NODE_MAX nodes is refused before it is built.
    """
    branches = tuple(hj_expand(ai, bi).terms
                     for ai, bi in zip(sd.triple.entries, sd.b))
    n = 1 + sum(map(len, branches))
    if n > NODE_MAX:
        raise InputError(f"the resolution tree has {n} nodes, more than "
                         f"NODE_MAX = {NODE_MAX}")
    return PlumbingGraph(sd.delta, branches)


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
    """Propagate circle-action rotation weights outward along each branch,
    mod p, in one pass per branch; the nodes are met in node order, so
    the fixed spheres and node kinds come out in that order.

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
    fixed = [(0, g.center, 1)]
    kinds = ["fixed"]
    isolated: list[tuple[int, int]] = []
    v = 0
    for branch in g.branches:
        # (a, b) is the pair at the inward pole of node v; the center
        # hands (fibre, 0) to each branch.
        a, b, inner_fixed = 1, 0, True
        for w in branch:
            v += 1
            if a == 0:
                fixed.append((v, w, b))
            elif not inner_fixed:
                # Junction point between two rotated spheres.
                isolated.append(canonical_pair(a, b, p))
            kinds.append("fixed" if a == 0 else "invariant")
            inner_fixed = a == 0
            # (-a, b - w*a) at the outward pole, swapped onto the next node.
            a, b = (b - w * a) % p, (-a) % p
        if not inner_fixed:
            # The free pole of an invariant leaf, its pair (b, a).
            if a == 0:
                raise PropagationError(
                    f"fixed normal disk at the free pole of node {v}: "
                    "the boundary action is not free")
            isolated.append(canonical_pair(b, a, p))
    return EquivariantMarkup(
        p=p,
        fixed_spheres=tuple(fixed),
        isolated_points=tuple(sorted(isolated)),
        node_kinds=tuple(kinds),
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
