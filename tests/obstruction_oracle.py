"""Reference sign-obstruction code, kept as test oracles.

``decide`` is the general decision that ``brieskorn.obstruction.decide``
replaced: a parity 2-coloring of the whole sign system, which returns an
assignment when the system is satisfiable and otherwise a certificate,
the package's two witnesses first and else the ``negative-cycle`` that
the coloring closed through its search forest.  ``verify`` re-checks a
negative cycle, and ``obstruction_section`` is the report's obstruction
section and smooth conclusion as ``build_analysis`` wrote them from
such a verdict, the conclusion for a satisfiable system included.  The
package's ``decide`` must return the oracle's certificate wherever it is
not a negative cycle, and refuse the system otherwise.

``brute_force_decide`` enumerates every orientation/sign assignment, so
it is limited to small ranks; the 2-coloring must agree with it wherever
both run.  ``build_constraints`` is the dense assembly: it reads every
node column of the dense C^-1, where the package reads the sparse
``Diagonalization.coordinates``, and must give the same system."""

import itertools
from math import prod
from typing import Dict, List, NamedTuple, Optional, Tuple

from brieskorn.matrices import transpose
from brieskorn.obstruction import (Certificate, ConstraintError,
                                   ConstraintSystem)


def build_constraints(markup, d) -> ConstraintSystem:
    """The constraint system from the dense columns of d.c_inv, with every
    dot product taken over all n cells; the columns are stored sparse at
    the end, as ConstraintSystem holds them."""
    n = d.form.n
    if len(markup.node_kinds) != n:
        raise ConstraintError(
            f"markup covers {len(markup.node_kinds)} nodes, form has rank {n}")
    columns = transpose(d.c_inv)
    kinds = markup.node_kinds
    self_int = {node: w for node, w, _ in markup.fixed_spheres}
    for i, col in enumerate(columns):
        if kinds[i] == "fixed" and -sum(x * x for x in col) != self_int[i]:
            raise ConstraintError(f"fixed sphere {i}: column square mismatch")
    couplings = []
    for i, col in enumerate(columns):
        if kinds[i] != "fixed" or -sum(x * x for x in col) != -1:
            continue
        for k in range(n):
            if kinds[k] != "invariant":
                continue
            dot = -sum(x * y for x, y in zip(columns[k], col))
            if abs(dot) == 1:
                couplings.append((k, i, -dot))
    sparse = tuple(tuple((j, x) for j, x in enumerate(col) if x)
                   for col in columns)
    return ConstraintSystem(n, sparse, kinds, tuple(couplings))


def brute_force_decide(cs: ConstraintSystem, max_rank: int = 12) -> str:
    """Exhaustive oracle over all orientation/sign assignments.

    Enumerates all 2^m orientation tuples; for fixed orientations the
    admissible values of each diagonal sign s_j are independent across j,
    so scanning each j over {+1,-1} covers the full 2^(m+n) space exactly.
    The sparse columns are densified first.
    """
    m = len(cs.columns)
    if cs.n > max_rank:
        raise ValueError(f"brute force limited to rank <= {max_rank}")
    columns = [[0] * cs.n for _ in range(m)]
    for i, col in enumerate(cs.columns):
        for j, x in col:
            columns[i][j] = x
    for o in itertools.product((1, -1), repeat=m):
        if any(o[i] * o[k] != sign for i, k, sign in cs.couplings):
            continue
        def admissible(j: int) -> bool:
            for s in (1, -1):
                ok = True
                for i in range(m):
                    c = columns[i][j]
                    if not c:
                        continue
                    value = o[i] * s * c
                    if cs.kinds[i] == "fixed":
                        if value != 1:
                            ok = False
                            break
                    elif value < 0:
                        ok = False
                        break
                if ok:
                    return True
            return False
        if all(admissible(j) for j in range(cs.n)):
            return "feasible"
    return "infeasible"


class Verdict(NamedTuple):
    assignment: Optional[Dict[str, Tuple[int, ...]]]
    certificate: Optional[Certificate]

    @property
    def status(self) -> str:
        return "feasible" if self.certificate is None else "infeasible"


def decide(cs: ConstraintSystem) -> Verdict:
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
            return Verdict(None, Certificate(
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
                    return Verdict(None, _certificate(cs, parent, u, v))
    return Verdict({"orientations": tuple(value[:m]),
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
        for f, g in itertools.combinations(neighbours[s], 2):
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


def verify(cert: Certificate, cs: ConstraintSystem) -> bool:
    """cert.verify, which also re-checks kind "negative-cycle": the
    variables (o_i = i, s_j = m + j, as in decide) of a cycle of sign
    equations whose signs multiply to -1, which exists exactly when the
    2-coloring has no solution (Harary, Michigan Math. J. 2, 1953).
    False on a cycle with a variable out of range, and on an empty one."""
    if cert.kind != "negative-cycle":
        return cert.verify(cs)
    m, cycle = len(cs.columns), cert.spheres
    if not cycle or not all(0 <= x < m + cs.n for x in cycle):
        return False
    # The signs of the equations on each pair of consecutive variables: a
    # sphere-basis pair is read from cs.columns, a sphere-sphere pair from
    # cs.couplings.  sum(s) is the pair's sign, or 0 for a pair carrying
    # both signs, which is a contradiction on its own.
    signs = [{1 if x > 0 else -1 for j, x in cs.columns[a] if m + j == b}
             if a < m <= b else {c for i, k, c in cs.couplings
                                 if sorted((i, k)) == [a, b]}
             for a, b in map(sorted, zip(cycle, cycle[1:] + cycle[:1]))]
    return all(signs) and prod(map(sum, signs)) < 1


def obstruction_section(cs: ConstraintSystem, name: str, p: int):
    """(the report's "obstruction" section, its smooth conclusion) for the
    system, decided by the 2-coloring, as build_analysis wrote them."""
    verdict = decide(cs)
    section = {"status": verdict.status,
               "certificate": (verdict.certificate.render()
                               if verdict.certificate else None)}
    if verdict.status == "infeasible":
        return section, (
            f"If {name} bounds a smooth acyclic 4-manifold W whose "
            "fundamental group is normally generated by the image of "
            "the boundary's, then the standard free Z/"
            f"{p}-action on {name} does not extend to a smooth action "
            "on any such W (in particular not over a contractible one).")
    return section, ("The orientation/sign constraint system is satisfiable; "
                     "this criterion does not obstruct a smooth extension.")
