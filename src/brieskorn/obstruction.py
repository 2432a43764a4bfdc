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
and propagating, with no backtracking.  Sphere i is read
from its sparse coordinates (Diagonalization.coordinates), the nonzero
(j, x) of column i of C^-1; a sphere of square w has at most |w|, and
every loop runs over those pairs.  The tests check the solver against an
exhaustive assignment oracle for small ranks, and the sparse assembly
against a dense one (tests/obstruction_oracle.py).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .lattice import Diagonalization
from .plumbing import EquivariantMarkup, InternalInvariantError


class ConstraintError(InternalInvariantError):
    """Markup and diagonalization do not describe the same configuration."""


@dataclass(frozen=True)
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

    Rejects inconsistent input: a markup of the wrong size, or a fixed
    sphere whose column square disagrees with the recorded
    self-intersection.  A fixed sphere with a coefficient of absolute
    value >= 2 is valid input; decide reports it as infeasible.
    """
    n = d.form.n
    if len(markup.node_kinds) != n:
        raise ConstraintError(
            f"markup covers {len(markup.node_kinds)} nodes, form has rank {n}")
    columns = d.coordinates     # node class i is column i of C^-1
    kinds = markup.node_kinds
    self_int = {node: w for node, w, _ in markup.fixed_spheres}
    for i, col in enumerate(columns):
        if kinds[i] != "fixed":
            continue
        square = -sum(x * x for _, x in col)
        if square != self_int[i]:
            raise ConstraintError(
                f"fixed sphere {i}: column square {square} != recorded "
                f"self-intersection {self_int[i]}")
    couplings = []
    for i, col in enumerate(columns):
        if kinds[i] != "fixed" or -sum(x * x for _, x in col) != -1:
            continue
        for k in range(n):
            if kinds[k] != "invariant":
                continue
            dot = -sum(x * y for j, x in columns[k] for l, y in col if j == l)
            if abs(dot) == 1:
                # standardly oriented classes must satisfy [F].[S] = -1
                couplings.append((k, i, -dot))
    return ConstraintSystem(n, columns, kinds, tuple(couplings))


# ---------------------------------------------------------------------------
# Verdicts and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Witness of infeasibility.

    kind "adjacent-branches" is the configuration of a fixed (-1)-sphere
    with two disjoint invariant neighbours: orientation coupling forces
    both neighbours to have coefficient 1 on the sphere's basis vector
    while all their coefficients are >= 0, so 0 = [F].[G] = -(1 + sum of
    products of nonnegative coefficients) < 0.  kind "parity-conflict"
    names two spheres whose shared diagonal indices pin their relative
    orientation in contradictory ways.  kind "fixed-coefficient" names a
    fixed sphere with a coefficient of absolute value >= 2, which no
    choice of signs puts in {0, 1}.
    """

    kind: str
    spheres: Tuple[int, ...]
    detail: str

    def render(self) -> str:
        return f"infeasible ({self.kind}): {self.detail}"

    def verify(self, cs: ConstraintSystem) -> bool:
        """Re-check the integer identities the certificate rests on."""
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
        if self.kind == "parity-conflict":
            f, g = self.spheres
            products = {x * y for j, x in cs.columns[f]
                        for l, y in cs.columns[g] if j == l}
            return any(x > 0 for x in products) and any(x < 0 for x in products)
        return False


@dataclass(frozen=True)
class ObstructionVerdict:
    status: str  # "feasible" | "infeasible"
    assignment: Optional[Dict[str, Tuple[int, ...]]]
    certificate: Optional[Certificate]

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _parity_equations(cs: ConstraintSystem):
    """All constraints as parity equations var_a * var_b = sign.

    Variables are ("o", i) and ("s", j).  A nonzero coefficient c of an
    invariant sphere needs o*s*c > 0 and of a fixed sphere o*s*c in {0,1},
    both of which force o*s = sign(c); couplings relate two o's.
    """
    equations = []
    for i, col in enumerate(cs.columns):
        for j, c in col:
            equations.append((("o", i), ("s", j), 1 if c > 0 else -1))
    for i, k, sign in cs.couplings:
        equations.append((("o", i), ("o", k), sign))
    return equations


def decide(cs: ConstraintSystem) -> ObstructionVerdict:
    """Admissible signs, or a certificate on infeasibility.

    A linear-time parity 2-coloring: each connected component of the
    parity equations is seeded once with +1, and each equation with one
    endpoint assigned pins the other.  Flipping a component's seed flips
    every sign in it and keeps every equation, so one seed decides the
    component and nothing is ever undone.
    """
    equations = _parity_equations(cs)
    incident: Dict[Tuple[str, int], List[Tuple[Tuple[str, int], int]]] = {}
    for u, v, sign in equations:
        incident.setdefault(u, []).append((v, sign))
        incident.setdefault(v, []).append((u, sign))
    variables = [("o", i) for i in range(len(cs.columns))]
    variables += [("s", j) for j in range(cs.n)]
    assignment: Dict[Tuple[str, int], int] = {}

    def propagate(start) -> Optional[Tuple]:
        queue = [start]
        while queue:
            u = queue.pop()
            for v, sign in incident.get(u, ()):
                want = assignment[u] * sign
                seen = assignment.get(v)
                if seen is None:
                    assignment[v] = want
                    queue.append(v)
                elif seen != want:
                    return (u, v)
        return None

    for i, col in enumerate(cs.columns):
        if cs.kinds[i] == "fixed" and any(abs(x) >= 2 for _, x in col):
            return ObstructionVerdict("infeasible", None, Certificate(
                kind="fixed-coefficient", spheres=(i,),
                detail=(f"fixed sphere {i} has a coefficient of absolute "
                        "value >= 2; no signs put its class in {0,1} "
                        "coordinates")))

    conflict = None
    for var in variables:
        if var in assignment:
            continue
        assignment[var] = 1  # component seed; parity consistency is
        conflict = propagate(var)  # independent of the seed's sign
        if conflict:
            break

    if conflict is None:
        o = tuple(assignment[("o", i)] for i in range(len(cs.columns)))
        s = tuple(assignment[("s", j)] for j in range(cs.n))
        return ObstructionVerdict("feasible", {"orientations": o, "basis_signs": s}, None)
    return ObstructionVerdict("infeasible", None, _certificate(cs))


def _certificate(cs: ConstraintSystem) -> Certificate:
    # Preferred witness: fixed (-1)-sphere with two disjoint invariant
    # neighbours (always present for a central node of a resolution tree
    # with at least two branches).
    for s in range(len(cs.columns)):
        if cs.kinds[s] != "fixed" or cs.intersection(s, s) != -1:
            continue
        neighbours = [f for f in range(len(cs.columns))
                      if cs.kinds[f] == "invariant"
                      and abs(cs.intersection(f, s)) == 1]
        for f, g in itertools.combinations(neighbours, 2):
            if cs.intersection(f, g) != 0:
                continue
            j0 = cs.columns[s][0][0]
            cert = Certificate(
                kind="adjacent-branches",
                spheres=(s, f, g),
                detail=(
                    f"fixed sphere {s} of square -1 reduces to a diagonal "
                    f"basis vector e{j0}; orientation coupling then forces "
                    f"coefficient 1 on e{j0} in the standardly oriented "
                    f"invariant neighbours {f} and {g}, whose coefficients "
                    f"are all >= 0, so 0 = [F{f}].[F{g}] = -1 - (sum of "
                    "products of nonnegative coefficients): impossible"),
            )
            if cert.verify(cs):
                return cert
    # Fallback: the first two columns whose shared support pins o_f*o_g
    # both ways; only spheres sharing a basis vector can qualify.
    shared: Dict[int, List[int]] = {}
    for f, col in enumerate(cs.columns):
        for j, _ in col:
            shared.setdefault(j, []).append(f)
    for f, g in sorted({pair for nodes in shared.values()
                        for pair in itertools.combinations(nodes, 2)}):
        cert = Certificate(
            kind="parity-conflict", spheres=(f, g),
            detail=(f"spheres {f} and {g} share diagonal indices with "
                    "both product signs; no sign assignment orients "
                    "both columns consistently"))
        if cert.verify(cs):
            return cert
    return Certificate(kind="search-refutation", spheres=(),
                       detail="unit propagation derived a contradiction")
