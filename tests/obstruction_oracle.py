"""Reference sign-obstruction code, kept as test oracles.

``brute_force_decide`` enumerates every orientation/sign assignment, so
it is limited to small ranks; ``decide`` in ``brieskorn.obstruction``
must agree with it wherever both run.  ``build_constraints`` is the dense
assembly: it reads every node column of the dense C^-1, where the package
reads the sparse ``Diagonalization.coordinates``, and must give the same
system."""

import itertools

from brieskorn.matrices import transpose
from brieskorn.obstruction import ConstraintError, ConstraintSystem


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
