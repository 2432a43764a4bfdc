"""Seeded inputs and correctness checks for the brieskorn benchmark.

Every workload is an endless sequence of rounds.  A round is a short list
of requests of fixed make-up drawn from fixed pools by a ``random.Random``
seeded from the workload name and ``--seed``, so the same seed always
sends the same requests in the same order.  A run sends a fixed number of
whole rounds, sized from ``--seconds``, so the same seed always measures
the same work and every run has the same mix of cheap and costly
requests.

The pools are plain data: triples with their node count n, and for family
members the (r, s) parameters that make the known answers checkable.  No
pool entry has p dividing a1*a2*a3.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

# (a, b, c, n, family, r, s): diagonalizable members of the stern and
# casson-harer families with r in 2..5 and n <= 16.
SMALL = (
    (2, 3, 13, 5, "stern", 2, 1),
    (3, 7, 8, 6, "casson-harer", 3, 2),
    (3, 4, 29, 7, "stern", 3, 1),
    (4, 11, 13, 7, "casson-harer", 4, 3),
    (2, 11, 53, 8, "stern", 2, 5),
    (3, 13, 14, 8, "casson-harer", 3, 4),
    (2, 13, 67, 9, "stern", 2, 7),
    (3, 11, 76, 9, "stern", 3, 4),
    (4, 27, 29, 9, "casson-harer", 4, 7),
    (5, 18, 19, 9, "casson-harer", 5, 4),
    (3, 13, 92, 10, "stern", 3, 4),
    (4, 21, 187, 10, "stern", 4, 5),
    (5, 21, 22, 10, "casson-harer", 5, 4),
    (2, 29, 31, 11, "casson-harer", 2, 15),
    (3, 16, 113, 11, "stern", 3, 5),
    (4, 27, 245, 11, "stern", 4, 7),
    (5, 19, 208, 11, "stern", 5, 4),
    (2, 27, 133, 12, "stern", 2, 13),
    (3, 25, 26, 12, "casson-harer", 3, 8),
    (5, 21, 232, 12, "stern", 5, 4),
    (2, 29, 147, 13, "stern", 2, 15),
    (3, 23, 160, 13, "stern", 3, 8),
    (4, 59, 61, 13, "casson-harer", 4, 15),
    (5, 38, 39, 13, "casson-harer", 5, 8),
    (3, 25, 176, 14, "stern", 3, 8),
    (4, 53, 475, 14, "stern", 4, 13),
    (5, 41, 42, 14, "casson-harer", 5, 8),
    (2, 45, 47, 15, "casson-harer", 2, 23),
    (4, 59, 533, 15, "stern", 4, 15),
    (5, 39, 428, 15, "stern", 5, 8),
    (2, 43, 213, 16, "stern", 2, 21),
    (3, 37, 38, 16, "casson-harer", 3, 12),
    (5, 41, 452, 16, "stern", 5, 8),
)

# The paper's locally linear family at spectral primes: odd r, p | s;
# in order of cost.
LOCALLY_LINEAR = (
    ((3, 34, 239, 17, "stern", 3, 11), 11),
    ((3, 32, 223, 16, "stern", 3, 11), 11),
    ((5, 54, 593, 18, "stern", 5, 11), 11),
    ((5, 56, 617, 19, "stern", 5, 11), 11),
    ((3, 38, 265, 18, "stern", 3, 13), 13),
    ((3, 40, 281, 19, "stern", 3, 13), 13),
    ((5, 66, 727, 21, "stern", 5, 13), 13),
    ((5, 64, 703, 20, "stern", 5, 13), 13),
)

# Indexes into SMALL of the entries free at each spectral prime, in order
# of their cold build_analysis cost there (measured on the code this
# benchmark was written against; cost at p=31 ranges 1.3..3.6 s).
SPECTRAL_COST_ORDER = {
    11: (1, 0, 5, 2, 9, 14, 8, 10, 6, 13, 19, 18, 20, 25, 17, 15, 16, 21, 26,
         22, 27, 31, 23, 29, 30, 28, 32),
    13: (1, 4, 12, 7, 9, 2, 8, 11, 13, 14, 22, 26, 15, 20, 21, 24, 19, 27, 32,
         17, 31, 25, 30),
    17: (0, 3, 2, 5, 1, 12, 21, 4, 7, 13, 16, 18, 6, 19, 8, 10, 15, 23, 30, 9,
         20, 14, 28, 24, 26, 22, 17, 27, 32, 29, 25, 31),
    19: (0, 3, 1, 8, 2, 12, 5, 11, 6, 4, 10, 19, 15, 26, 18, 22, 20, 13, 27,
         21, 24, 30, 14, 28, 32, 29),
    23: (3, 0, 1, 2, 11, 9, 7, 18, 4, 27, 8, 14, 28, 15, 13, 6, 22, 5, 23, 24,
         19, 25, 12, 26, 17, 16, 30, 20, 29, 31, 32),
    29: (0, 5, 1, 6, 3, 18, 17, 21, 12, 4, 14, 7, 31, 25, 15, 24, 27, 16, 9,
         10, 11, 26, 32, 29, 30, 22, 23, 28),
    31: (12, 1, 0, 2, 4, 3, 8, 7, 5, 9, 26, 22, 23, 11, 14, 16, 6, 19, 27, 15,
         21, 18, 10, 30, 17, 28, 32, 20, 25, 29, 31, 24),
}

# Stern members with 25 <= n <= 60, in five node-count strata.
LARGE = (
    ((2, 77, 387, 25, "stern", 2, 39), (5, 86, 947, 25, "stern", 5, 17),
     (4, 149, 1339, 26, "stern", 4, 37), (4, 157, 1411, 27, "stern", 4, 39),
     (4, 163, 1469, 28, "stern", 4, 41), (3, 71, 496, 29, "stern", 3, 24),
     (2, 99, 493, 30, "stern", 2, 49), (2, 101, 507, 31, "stern", 2, 51)),
    ((2, 107, 533, 32, "stern", 2, 53), (2, 109, 547, 33, "stern", 2, 55),
     (5, 129, 1418, 33, "stern", 5, 26), (4, 213, 1915, 34, "stern", 4, 53),
     (4, 219, 1973, 35, "stern", 4, 55), (3, 91, 638, 36, "stern", 3, 30),
     (2, 125, 627, 37, "stern", 2, 63), (5, 146, 1607, 37, "stern", 5, 29)),
    ((2, 133, 667, 39, "stern", 2, 67), (4, 251, 2261, 39, "stern", 4, 63),
     (2, 139, 693, 40, "stern", 2, 69), (4, 261, 2347, 40, "stern", 4, 65),
     (4, 267, 2405, 41, "stern", 4, 67), (3, 110, 769, 42, "stern", 3, 37),
     (5, 174, 1913, 42, "stern", 5, 35), (3, 115, 806, 44, "stern", 3, 38)),
    ((3, 121, 848, 46, "stern", 3, 40), (5, 191, 2102, 46, "stern", 5, 38),
     (3, 124, 869, 47, "stern", 3, 41), (5, 199, 2188, 47, "stern", 5, 40),
     (3, 128, 895, 48, "stern", 3, 43), (3, 130, 911, 49, "stern", 3, 43),
     (5, 206, 2267, 49, "stern", 5, 41), (3, 133, 932, 50, "stern", 3, 44)),
    ((3, 142, 995, 53, "stern", 3, 47), (5, 229, 2518, 53, "stern", 5, 46),
     (5, 234, 2573, 54, "stern", 5, 47), (5, 239, 2628, 55, "stern", 5, 48),
     (5, 241, 2652, 56, "stern", 5, 48), (3, 155, 1084, 57, "stern", 3, 52),
     (3, 157, 1100, 58, "stern", 3, 52), (3, 160, 1121, 59, "stern", 3, 53)),
)

# (a, b, c, n, root pairs): triples whose form has fewer than n root pairs.
NOT_DIAGONALIZABLE = (
    (2, 3, 5, 8, 0),
    (3, 5, 7, 12, 0),
    (2, 3, 11, 9, 1),
    (2, 5, 9, 12, 0),
    (2, 7, 13, 16, 0),
    (3, 4, 11, 15, 0),
    (2, 3, 29, 12, 4),
    (2, 19, 21, 12, 4),
    (3, 4, 23, 16, 1),
    (2, 13, 37, 11, 3),
)

SPECTRAL_PRIMES = (11, 13, 17, 19, 23, 29, 31)
LATTICE_PRIMES = (5, 7)
CACHE_PRIMES = (None, 5, 7)
CACHE_ROUND = 64


@dataclass(frozen=True)
class Request:
    """One item: Sigma(a, b, c) with optional p, and what to expect of it."""

    a: int
    b: int
    c: int
    p: Optional[int]
    n: int
    family: Optional[Tuple[str, int, int]] = None
    root_pairs: Optional[int] = None   # set for non-diagonalizable triples
    anchor: bool = False               # a row of the traced sanity table

    @property
    def key(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.p}"

    @property
    def label(self) -> str:
        return f"Sigma({self.a},{self.b},{self.c}) p={self.p} n={self.n}"

    @property
    def locally_linear(self) -> bool:
        """Odd-r stern member with p | s: the paper's one-fixed-point family."""
        return (self.p is not None and self.family is not None
                and self.family[0] == "stern" and self.family[1] % 2 == 1
                and self.family[2] % self.p == 0)


def _free(row, p) -> bool:
    return p is None or (row[0] * row[1] * row[2]) % p != 0


def _family_request(row, p, anchor=False) -> Request:
    a, b, c, n, kind, r, s = row
    return Request(a, b, c, p, n, (kind, r, s), anchor=anchor)


def _bad_request(row, p) -> Request:
    a, b, c, n, pairs = row
    return Request(a, b, c, p, n, root_pairs=pairs)


def _strata(rng: random.Random, count: int, pairs: int) -> List[List[float]]:
    """Points in [0, 1) for `2 * pairs` slots over `count` rounds.

    A slot gets one point in each of `count` equal strata, in seeded
    order, so over a run it samples its pool (sorted by cost) evenly.  The
    offset within the strata is seeded too, and a slot's partner gets the
    mirrored offset, so a seed that sends the costlier end of one pool's
    strata sends the cheaper end of its partner's: two seeds send mixes
    of about the same total cost.
    """
    out = []
    for _ in range(pairs):
        u = rng.random()
        for offset in (u, 1.0 - u):
            xs = [min(k + offset, count - 1e-9) / count for k in range(count)]
            rng.shuffle(xs)
            out.append(xs)
    return out


def _pick(pool, x: float):
    return pool[int(x * len(pool))]


# Partners (see _strata) are neighbours in cost.
SPECTRAL_SLOTS = (31, 29, 23, 19, 19, 17, 13, 11)


def spectral_p(rng: random.Random, count: int) -> Iterator[List[Request]]:
    """Per round, one small triple at each spectral prime (p = 19 twice, so
    the median item falls inside one prime's stratum) plus one locally
    linear member.

    The first round pins Sigma(3,16,113) to p = 13 and p = 29, rows of the
    traced sanity table.
    """
    anchor = next(x for x in SMALL if x[:3] == (3, 16, 113))
    # the middle half of each prime's cost order: strata of typical cost
    pools = {p: [SMALL[i] for i in order[len(order) // 4: len(order) - len(order) // 4]]
             for p, order in SPECTRAL_COST_ORDER.items()}
    points = _strata(rng, count, len(SPECTRAL_SLOTS) // 2) + _strata(rng, count, 1)[:1]
    for k in range(count):
        batch = []
        for p, xs in zip(SPECTRAL_SLOTS, points):
            if k == 0 and p in (13, 29):
                batch.append(_family_request(anchor, p, anchor=True))
            else:
                batch.append(_family_request(_pick(pools[p], xs[k]), p))
        row, p = _pick(LOCALLY_LINEAR, points[-1][k])
        batch.append(_family_request(row, p))
        # Slot order is fixed: of two items at one prime, the same slot
        # always finds the memo warm.
        yield batch


def lattice_n(rng: random.Random, count: int) -> Iterator[List[Request]]:
    """Per round, one large stern member per node-count stratum at p in
    {5, 7}, plus two non-diagonalizable triples without p (so the median
    item falls inside the second stratum).

    The first round pins stern r=3 s=40, Sigma(3,121,848), at p = 5.
    """
    parity = [rng.randrange(2) for _ in LARGE]
    # strata 0/1 and 3/4 are partners, as are the two non-diagonalizable slots
    points = (_strata(rng, count, 1) + _strata(rng, count, 1)[:1]
              + _strata(rng, count, 1) + _strata(rng, count, 1))
    for k in range(count):
        batch = []
        for j, stratum in enumerate(LARGE):
            if k == 0 and j == 3:
                batch.append(_family_request(stratum[0], 5, anchor=True))
                continue
            row = _pick(stratum, points[j][k])
            primes = [q for q in LATTICE_PRIMES if _free(row, q)]
            batch.append(_family_request(row, primes[(k + parity[j]) % len(primes)]))
        for xs in points[-2:]:
            batch.append(_bad_request(_pick(NOT_DIAGONALIZABLE, xs[k]), None))
        rng.shuffle(batch)
        yield batch


def cache_pool() -> List[Request]:
    """Cheap inputs for the repeat-cache workload: small triples at
    p in {none, 5, 7}, some of them non-diagonalizable."""
    pool = []
    for p in CACHE_PRIMES:
        pool.extend(_family_request(x, p) for x in SMALL if _free(x, p))
        pool.extend(_bad_request(x, p) for x in NOT_DIAGONALIZABLE if _free(x, p))
    return pool


def repeat_cache(rng: random.Random, count: int) -> Iterator[List[Request]]:
    """Requests drawn with replacement from the cache pool.

    The first request is Sigma(3,16,113) at p = 5, the known-answer case
    and a row of the traced sanity table.
    """
    pool = cache_pool()
    first = next(x for x in pool if x.key == "3,16,113,5")
    batch = [Request(first.a, first.b, first.c, 5, first.n, first.family,
                     anchor=True)]
    for _ in range(count):
        batch += [rng.choice(pool) for _ in range(CACHE_ROUND - len(batch))]
        yield batch
        batch = []


WORKLOADS = {
    "spectral-p": spectral_p,
    "lattice-n": lattice_n,
    "repeat-cache": repeat_cache,
}

# Seconds one round takes at the reference speed (see speed.py) on the
# code this benchmark was written against; a run sends
# round(--seconds / ROUND_SECONDS) rounds, at least one.
ROUND_SECONDS = {
    "spectral-p": 5.7,
    "lattice-n": 2.6,
    "repeat-cache": 0.095,
}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def rounds(workload: str, seed: int, count: int) -> Iterator[List[Request]]:
    """The `count` rounds a run of `workload` with `seed` sends."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), count)


def all_requests() -> List[Request]:
    """Every request any workload can send, for the golden digests."""
    out = {}
    for row in SMALL:
        for p in SPECTRAL_PRIMES:
            if _free(row, p):
                out.setdefault((row[:3], p), _family_request(row, p))
    for row, p in LOCALLY_LINEAR:
        out.setdefault((row[:3], p), _family_request(row, p))
    for stratum in LARGE:
        for row in stratum:
            for p in LATTICE_PRIMES:
                if _free(row, p):
                    out.setdefault((row[:3], p), _family_request(row, p))
    for row in NOT_DIAGONALIZABLE:
        out.setdefault((row[:3], None), _bad_request(row, None))
    for req in cache_pool():
        out.setdefault(((req.a, req.b, req.c), req.p), req)
    return list(out.values())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mat_mul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def check_report(req: Request, report: Dict, json_text: str,
                 golden: Dict[str, str]) -> List[str]:
    """Problems found in one report; an empty list means it passed."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    inp = report["input"]
    expect(sorted((inp["a"], inp["b"], inp["c"])) == [req.a, req.b, req.c]
           and inp["p"] == req.p, "input echo")
    expect(len(report["graph"]["weights"]) == req.n, f"expected {req.n} nodes")
    q = report["form"]["matrix"]
    d = report["diagonalization"]
    if req.root_pairs is None:
        expect(d["found"], "expected a diagonalization")
    else:
        expect(not d["found"] and d["root_pairs"] == req.root_pairs,
               f"expected failure with {req.root_pairs} root pairs")
    if d["found"]:
        n = len(q)
        c, c_inv = d["C"], d["C_inv"]
        minus_i = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        expect(d["root_pairs"] == n, "root pairs != n")
        expect(_mat_mul(_mat_mul(list(zip(*c)), q), c) == minus_i, "C^t Q C != -I")
        expect(_mat_mul(c, c_inv) == ident, "C C_inv != I")
    if req.p is not None and d["found"]:
        ll = report["locally_linear"]
        expect(len(ll["rho_quotient"]) == req.p and ll["rho_quotient"][0] == "0",
               "rho quotient table")
        for cand in ll["candidates"]:
            expect(cand["product_mod_p"] == cand["rs_mod_p"],
                   f"candidate ({cand['r']},{cand['s']}) congruence")
        if req.locally_linear:
            expect(report["obstruction"]["status"] == "infeasible",
                   "locally linear member not infeasible")
            expect(any(cand["rho_match"] for cand in ll["candidates"]),
                   "locally linear member without a rho match")
    if req.key == "3,16,113,5":
        expect(report["seifert"]["b"] == [-1, -5, -40], "Sigma(3,16,113) b")
        expect(report["form"]["signature"] == -11, "Sigma(3,16,113) signature")
        expect(report.get("obstruction", {}).get("status") == "infeasible",
               "Sigma(3,16,113) p=5 verdict")
        cands = report.get("locally_linear", {}).get("candidates", [])
        expect([(x["r"], x["s"], x["rho_match"]) for x in cands] == [(2, 2, True)],
               "Sigma(3,16,113) p=5 lens candidates")
    if req.key == "2,3,5,None":
        expect(d["root_pairs"] == 0, "Sigma(2,3,5) root pairs")
    expect(golden.get(req.key) == digest(json_text), "golden digest")
    return problems
