"""The smooth-extension sign obstruction.

Setting: a diagonalized negative definite plumbing with an equivariant
markup.  If the action extended smoothly over an acyclic 4-manifold, the
node spheres would sit inside a closed smooth homologically trivial
action, where (in a standard diagonal basis, suitably oriented)

  * every fixed sphere has coefficients in {0, 1},
  * every invariant sphere has coefficients all >= 0,
  * an invariant sphere F meeting a fixed (-1)-sphere S in one point has
    standard orientation exactly when [F].[S] = -1.

The unknowns are one orientation sign per node sphere and one sign per
diagonal basis vector.  Every nonzero coefficient then pins the product
of two signs, so the whole system is a parity (2-coloring) problem; the
solver 2-colors it in linear time, seeding each connected component once
and propagating, with no backtracking.  An infeasible system gets one of
three certificates: a fixed sphere with a coefficient of size >= 2, the
configuration of a fixed (-1)-sphere with two disjoint invariant
neighbours when there is one, and otherwise the negative cycle that the
2-coloring closed: the conflicting equation plus the two paths of the
search forest to their first common variable.  Sphere i is read from its
sparse coordinates (Diagonalization.coordinates), the nonzero (j, x) of
column i of C^-1; a sphere of square w has at most |w|.  Every
intersection number the system needs is an entry of Q: Diagonalization
checks X^t X = -Q for X = C^-1 when it is built, so [F_i].[F_k] =
Q[i][k], and the squares and couplings are read off Q's diagonal and the
nonzeros of its rows.  Only Certificate.verify takes its own sparse dot
products and reads a cycle's signs from the columns and couplings, so it
re-checks a certificate independently of Q and of the solver.  The tests
check the solver against an exhaustive assignment oracle for small
ranks, and the assembly against a dense one
(tests/obstruction_oracle.py).
"""

from __future__ import annotations

from itertools import combinations, compress
from math import prod
from typing import Dict, List, Optional, Tuple

from .lattice import Diagonalization
from .plumbing import EquivariantMarkup
from .records import InternalInvariantError, record


class ConstraintError(InternalInvariantError):
    """Markup and diagonalization do not describe the same configuration."""


@record
class ConstraintSystem:
    """Sign constraints on node-sphere orientations o_i and diagonal-basis
    signs s_j.

    columns[i] lists the nonzero e_j-coefficients (j, x) of node sphere i
    by increasing j; kinds[i] is "fixed" or "invariant"; couplings are
    (i, k, sign) meaning o_i * o_k = sign.
    """

    n: int
    columns: Tuple[Tuple[Tuple[int, int], ...], ...]
    kinds: Tuple[str, ...]
    couplings: Tuple[Tuple[int, int, int], ...]

    def intersection(self, i: int, k: int) -> int:
        """[F_i].[F_k], from the diagonal coordinates (e_j.e_j = -1)."""
        return -sum(x * y for j, x in self.columns[i]
                    for l, y in self.columns[k] if j == l)


def build_constraints(markup: EquivariantMarkup,
                      d: Diagonalization) -> ConstraintSystem:
    """Assemble the sign-constraint system for a marked diagonalized form.

    The intersection numbers come from Q by the Gram identity X^t X = -Q
    that d checked when it was built: a fixed sphere's square is Q[i][i],
    and an invariant k couples to a fixed (-1)-sphere i when Q[i][k] is
    +-1, with sign -Q[k][i].  No dot product is taken.  Rejects
    inconsistent input: a markup of the wrong size, or a fixed sphere
    whose square in Q disagrees with the recorded self-intersection.  A
    fixed sphere with a coefficient of absolute value >= 2 is valid
    input; decide reports it as infeasible.
    """
    n, q = d.form.n, d.form.q
    kinds = markup.node_kinds
    if len(kinds) != n:
        raise ConstraintError(
            f"markup covers {len(kinds)} nodes, form has rank {n}")
    self_int = {node: w for node, w, _ in markup.fixed_spheres}
    couplings = []
    for i in range(n):
        if kinds[i] != "fixed":
            continue
        if q[i][i] != self_int.get(i):
            raise ConstraintError(
                f"fixed sphere {i}: square {q[i][i]} in the form != "
                f"recorded self-intersection {self_int.get(i)}")
        if q[i][i] == -1:
            # standardly oriented classes must satisfy [F].[S] = -1
            couplings.extend((k, i, -q[k][i]) for k in compress(range(n), q[i])
                             if kinds[k] == "invariant" and abs(q[k][i]) == 1)
    return ConstraintSystem(n, d.coordinates, kinds, tuple(couplings))


# ---------------------------------------------------------------------------
# Verdicts and certificates
# ---------------------------------------------------------------------------

@record
class Certificate:
    """Witness of infeasibility.

    kind "fixed-coefficient" names a fixed sphere with a coefficient of
    absolute value >= 2, which no choice of signs puts in {0, 1}.  kind
    "adjacent-branches" is the configuration of a fixed (-1)-sphere with
    two disjoint invariant neighbours: orientation coupling forces both
    neighbours to have coefficient 1 on the sphere's basis vector while
    all their coefficients are >= 0, so 0 = [F].[G] = -(1 + sum of
    products of nonnegative coefficients) < 0.  kind "negative-cycle"
    lists the variables (o_i = i, s_j = m + j, as in decide) of a cycle
    of sign equations whose signs multiply to -1, which exists exactly
    when the 2-coloring has no solution (Harary, Michigan Math. J. 2,
    1953).  verify re-checks every kind from the system alone and returns
    False on a certificate of the wrong arity or with an index out of
    range.
    """

    kind: str
    spheres: Tuple[int, ...]
    detail: str

    def render(self) -> str:
        return f"infeasible ({self.kind}): {self.detail}"

    def verify(self, cs: ConstraintSystem) -> bool:
        """Re-check the integer identities the certificate rests on."""
        m = len(cs.columns)
        size, bound = {"adjacent-branches": (3, m), "fixed-coefficient": (1, m),
                       "negative-cycle": (len(self.spheres), m + cs.n),
                       }.get(self.kind, (0, 0))
        if not 0 < len(self.spheres) == size or not all(
                0 <= i < bound for i in self.spheres):
            return False
        if self.kind == "adjacent-branches":
            s, f, g = self.spheres
            return (cs.kinds[s] == "fixed"
                    and cs.kinds[f] == "invariant"
                    and cs.kinds[g] == "invariant"
                    and cs.intersection(s, s) == -1
                    and abs(cs.intersection(f, s)) == 1
                    and abs(cs.intersection(g, s)) == 1
                    and cs.intersection(f, g) == 0)
        if self.kind == "fixed-coefficient":
            (s,) = self.spheres
            return (cs.kinds[s] == "fixed"
                    and any(abs(x) >= 2 for _, x in cs.columns[s]))
        # The signs of the equations on each pair of consecutive
        # variables: a sphere-basis pair is read from cs.columns, a
        # sphere-sphere pair from cs.couplings.  sum(s) is the pair's
        # sign, or 0 for a pair carrying both signs, which is a
        # contradiction on its own.
        cycle = self.spheres
        signs = [{1 if x > 0 else -1 for j, x in cs.columns[a] if m + j == b}
                 if a < m <= b else {c for i, k, c in cs.couplings
                                     if sorted((i, k)) == [a, b]}
                 for a, b in map(sorted, zip(cycle, cycle[1:] + cycle[:1]))]
        return all(signs) and prod(map(sum, signs)) < 1


@record
class ObstructionVerdict:
    assignment: Optional[Dict[str, Tuple[int, ...]]]
    certificate: Optional[Certificate]

    @property
    def status(self) -> str:
        return "feasible" if self.certificate is None else "infeasible"


def decide(cs: ConstraintSystem) -> ObstructionVerdict:
    """Admissible signs, or a certificate on infeasibility.

    A linear-time parity 2-coloring over the integer variables o_i = i
    and s_j = m + j (m node spheres).  A nonzero coefficient c of an
    invariant sphere needs o*s*c > 0 and of a fixed sphere o*s*c in
    {0, 1}, both of which force o_i * s_j = sign(c); a coupling relates
    two o's.  Each connected component is seeded once with +1, and each
    equation with one endpoint assigned pins the other.  Flipping a
    component's seed flips every sign in it and keeps every equation, so
    one seed decides the component and nothing is ever undone.  Each
    variable's parent (the variable that pinned it) is recorded, so an
    equation that contradicts the assignment closes a negative cycle
    through the spanning forest.
    """
    for i, col in enumerate(cs.columns):
        if cs.kinds[i] == "fixed" and any(abs(x) >= 2 for _, x in col):
            return ObstructionVerdict(None, Certificate(
                kind="fixed-coefficient", spheres=(i,),
                detail=(f"fixed sphere {i} has a coefficient of absolute "
                        "value >= 2; no signs put its class in {0,1} "
                        "coordinates")))

    m = len(cs.columns)
    adjacent: List[List[Tuple[int, int]]] = [[] for _ in range(m + cs.n)]
    for i, col in enumerate(cs.columns):
        for j, x in col:
            sign = 1 if x > 0 else -1
            adjacent[i].append((m + j, sign))
            adjacent[m + j].append((i, sign))
    for i, k, sign in cs.couplings:
        adjacent[i].append((k, sign))
        adjacent[k].append((i, sign))
    # value 0: not yet assigned; parent None: a seed
    value, parent = [0] * (m + cs.n), [None] * (m + cs.n)
    for seed in range(m + cs.n):
        if value[seed]:
            continue
        value[seed] = 1
        stack = [seed]
        while stack:
            u = stack.pop()
            for v, sign in adjacent[u]:
                if not value[v]:
                    value[v] = value[u] * sign
                    parent[v] = u
                    stack.append(v)
                elif value[v] != value[u] * sign:
                    return ObstructionVerdict(None, _certificate(cs, parent, u, v))
    return ObstructionVerdict({"orientations": tuple(value[:m]),
                               "basis_signs": tuple(value[m:])}, None)


def _certificate(cs: ConstraintSystem, parent: List[Optional[int]],
                 u: int, v: int) -> Certificate:
    # Preferred witness: fixed (-1)-sphere with two disjoint invariant
    # neighbours (always present for a central node of a resolution tree
    # with at least two branches).  A fixed (-1)-sphere's invariant
    # neighbours are exactly the spheres coupled to it.
    neighbours: Dict[int, List[int]] = {}
    for f, s, _ in cs.couplings:
        neighbours.setdefault(s, []).append(f)
    for s in sorted(neighbours):
        for f, g in combinations(neighbours[s], 2):
            cert = Certificate("adjacent-branches", (s, f, g), "")
            if cert.verify(cs):
                (j0, _), = cs.columns[s]    # a (-1)-sphere is +-e_j0
                return Certificate(cert.kind, cert.spheres, detail=(
                    f"fixed sphere {s} of square -1 reduces to a diagonal "
                    f"basis vector e{j0}; orientation coupling then forces "
                    f"coefficient 1 on e{j0} in the standardly oriented "
                    f"invariant neighbours {f} and {g}, whose coefficients "
                    f"are all >= 0, so 0 = [F{f}].[F{g}] = -1 - (sum of "
                    "products of nonnegative coefficients): impossible"))
    # Fallback: the conflicting equation u-v closes a cycle with the
    # forest paths from u and from v up to their first common variable.
    up, down = [u], [v]
    while parent[up[-1]] is not None:
        up.append(parent[up[-1]])
    depth = {x: t for t, x in enumerate(up)}
    while down[-1] not in depth:
        down.append(parent[down[-1]])
    cycle = up[:depth[down[-1]]] + down[::-1]
    names = [f"F{x}" if x < len(cs.columns) else f"e{x - len(cs.columns)}"
             for x in cycle + cycle[:1]]
    return Certificate("negative-cycle", tuple(cycle), detail=(
        f"the sign equations around {' - '.join(names)} multiply to -1"))
