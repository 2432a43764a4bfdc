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
of two signs.  decide does not solve that parity system in general: it
returns one of the two configurations the paper's argument rests on,
each of which refutes the system whatever its other equations are.  A
fixed sphere with a coefficient of size >= 2 cannot have coefficients in
{0, 1}.  A fixed (-1)-sphere with two disjoint invariant neighbours
forces 0 = [F].[G] < 0.  Every diagonalizable input met so far has
delta = -1, so its central node is a fixed (-1)-sphere and one of the
two applies.  A system with neither witness is refused as a broken
invariant (exit 2), not decided.  The general decision, a parity
2-coloring whose conflicts close negative cycles, is the test oracle in
tests/obstruction_oracle.py, with the report's conclusion for a
satisfiable system.  Sphere i is read from its sparse coordinates
(Diagonalization.coordinates), the nonzero (j, x) of column i of C^-1; a
sphere of square w has at most |w|.  Every intersection number the
system needs is an entry of Q: Diagonalization checks X^t X = -Q for X =
C^-1 when it is built, so [F_i].[F_k] = Q[i][k], and the squares and
couplings are read off Q's diagonal and the nonzeros of its rows.  Only
Certificate.verify takes its own sparse dot products, so it re-checks a
certificate independently of Q.  The tests check decide against the
2-coloring on random systems and pipeline inputs, the 2-coloring against
an exhaustive assignment oracle for small ranks, and the assembly
against a dense one.
"""

from __future__ import annotations

from itertools import combinations, compress

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
    columns: tuple[tuple[tuple[int, int], ...], ...]
    kinds: tuple[str, ...]
    couplings: tuple[tuple[int, int, int], ...]

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
    products of nonnegative coefficients) < 0.  verify re-checks either
    kind from the system alone and returns False on any other kind, on a
    certificate of the wrong arity or with an index out of range.
    """

    kind: str
    spheres: tuple[int, ...]
    detail: str

    def render(self) -> str:
        return f"infeasible ({self.kind}): {self.detail}"

    def verify(self, cs: ConstraintSystem) -> bool:
        """Re-check the integer identities the certificate rests on."""
        size = {"adjacent-branches": 3, "fixed-coefficient": 1}.get(self.kind)
        if len(self.spheres) != size or not all(
                0 <= i < len(cs.columns) for i in self.spheres):
            return False
        if self.kind == "fixed-coefficient":
            (s,) = self.spheres
            return (cs.kinds[s] == "fixed"
                    and any(abs(x) >= 2 for _, x in cs.columns[s]))
        s, f, g = self.spheres
        return (cs.kinds[s] == "fixed"
                and cs.kinds[f] == "invariant"
                and cs.kinds[g] == "invariant"
                and cs.intersection(s, s) == -1
                and abs(cs.intersection(f, s)) == 1
                and abs(cs.intersection(g, s)) == 1
                and cs.intersection(f, g) == 0)


@record
class ObstructionVerdict:
    """An infeasible sign system and its verified certificate.  decide
    returns no other verdict, so status is always "infeasible"."""

    certificate: Certificate
    status = "infeasible"


def decide(cs: ConstraintSystem) -> ObstructionVerdict:
    """The verified witness that the sign system is infeasible.

    First a fixed sphere with a coefficient of absolute value >= 2, by
    increasing index.  Then a fixed (-1)-sphere s with two disjoint
    invariant neighbours f, g: s's invariant neighbours are the spheres
    coupled to it, and s is tried by increasing index, each pair in the
    order of the couplings, until one passes Certificate.verify.  Each
    witness makes the system infeasible whatever its other equations
    are.  A system with neither is refused with InternalInvariantError:
    deciding it needs the general 2-coloring, which no pipeline input is
    known to reach.
    """
    for i, col in enumerate(cs.columns):
        if cs.kinds[i] == "fixed" and any(abs(x) >= 2 for _, x in col):
            return ObstructionVerdict(Certificate(
                kind="fixed-coefficient", spheres=(i,),
                detail=(f"fixed sphere {i} has a coefficient of absolute "
                        "value >= 2; no signs put its class in {0,1} "
                        "coordinates")))
    neighbours: dict[int, list[int]] = {}
    for f, s, _ in cs.couplings:
        neighbours.setdefault(s, []).append(f)
    for s in sorted(neighbours):
        for f, g in combinations(neighbours[s], 2):
            if Certificate("adjacent-branches", (s, f, g), "").verify(cs):
                (j0, _), = cs.columns[s]    # a (-1)-sphere is +-e_j0
                return ObstructionVerdict(Certificate(
                    kind="adjacent-branches", spheres=(s, f, g), detail=(
                    f"fixed sphere {s} of square -1 reduces to a diagonal "
                    f"basis vector e{j0}; orientation coupling then forces "
                    f"coefficient 1 on e{j0} in the standardly oriented "
                    f"invariant neighbours {f} and {g}, whose coefficients "
                    f"are all >= 0, so 0 = [F{f}].[F{g}] = -1 - (sum of "
                    "products of nonnegative coefficients): impossible")))
    raise InternalInvariantError(
        "no fixed-coefficient or adjacent-branches witness for the sign "
        f"system {cs!r}")
