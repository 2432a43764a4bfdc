"""Exhaustive reference for the sign-obstruction decision, kept as a test
oracle: it enumerates every orientation/sign assignment, so it is limited
to small ranks.  ``decide`` in ``brieskorn.obstruction`` must agree with
it wherever both run."""

import itertools

from brieskorn.obstruction import ConstraintSystem


def brute_force_decide(cs: ConstraintSystem, max_rank: int = 12) -> str:
    """Exhaustive oracle over all orientation/sign assignments.

    Enumerates all 2^m orientation tuples; for fixed orientations the
    admissible values of each diagonal sign s_j are independent across j,
    so scanning each j over {+1,-1} covers the full 2^(m+n) space exactly.
    """
    m = len(cs.columns)
    if cs.n > max_rank:
        raise ValueError(f"brute force limited to rank <= {max_rank}")
    for o in itertools.product((1, -1), repeat=m):
        if any(o[i] * o[k] != sign for i, k, sign in cs.couplings):
            continue
        def admissible(j: int) -> bool:
            for s in (1, -1):
                ok = True
                for i in range(m):
                    c = cs.columns[i][j]
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
