"""The paper's two theorems as verdict-level oracles on the generator
families (PAPER.md).

* Theorem A: the standard free Z/p action on a family member does not
  extend smoothly.  Every member diagonalizes, the sign obstruction is
  infeasible, and its certificate re-checks on the constraint system.
* Theorem B: on the stern members with r odd and p | s the action extends
  locally linearly with one fixed point.  The lens search yields exactly
  one candidate, the class of L(p; r, 2r+2), and its rho invariants match.
  For r even the same search yields one candidate whose rho invariants
  do not match.

Draws (kind, r, s, sign, p) with p | s forced in about half the draws.
"""

import json
import pathlib

from hypothesis import assume, given, settings, strategies as st

from brieskorn.lattice import UnimodularForm, diagonalize
from brieskorn.obstruction import build_constraints, decide
from brieskorn.plumbing import (canonical_resolution, intersection_matrix,
                                propagate_rotations)
from brieskorn.records import InputError
from brieskorn.seifert import (BrieskornTriple, family, seifert_invariants,
                               standard_action_valid)
from brieskorn.spectral import (canonical_lens_pair, eta_from_fixed_data,
                                ll_extension_search)
from conftest import LARGE_ENTRIES
import obstruction_oracle

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def members(draw):
    kind = draw(st.sampled_from(("stern", "casson-harer")))
    r = draw(st.sampled_from((2, 3, 4, 5, 7, 9, 11)))
    sign = draw(st.sampled_from("+-"))
    p = draw(st.sampled_from(PRIMES))
    if draw(st.booleans()):
        s = p * draw(st.integers(1, max(1, 40 // p)))
    else:
        s = draw(st.integers(1, 29))
    try:
        triple = family(kind, r, s, sign)
    except InputError:
        assume(False)
    assume(standard_action_valid(triple, p))
    return kind, r, s, triple, p


@settings(max_examples=250, deadline=None)
@given(members())
def test_family_members_obey_theorems_a_and_b(member):
    kind, r, s, triple, p = member
    graph = canonical_resolution(seifert_invariants(triple))
    form = UnimodularForm.from_matrix(intersection_matrix(graph))
    diag = diagonalize(form)
    assert diag.found, triple

    # Theorem A
    markup = propagate_rotations(graph, p)
    cs = build_constraints(markup, diag)
    verdict = decide(cs)
    assert verdict.status == "infeasible", (triple, p)
    assert verdict.certificate.verify(cs), (triple, p)

    if kind != "stern" or s % p:
        return
    # Theorem B for r odd; for r even the candidate's rho does not match
    eta = eta_from_fixed_data(markup, form.elimination.signature)
    (cand,) = ll_extension_search(triple, p, eta)
    if r % 2:
        assert (cand.r, cand.s) == canonical_lens_pair(r, 2 * r + 2, p)
        assert cand.rho_match, (triple, p)
    else:
        assert not cand.rho_match, (triple, p)


def _golden_and_large_entry_inputs():
    """(triple, p): each golden key with a p, and each LARGE_ENTRIES triple
    with its p; the ones whose form does not diagonalize are dropped
    below."""
    golden = json.loads((pathlib.Path(__file__).resolve().parent.parent
                         / "perfbench" / "golden.json").read_text(
                             encoding="utf-8"))
    for key in sorted(golden):
        *triple, p = key.split(",")
        if p != "None":
            yield tuple(map(int, triple)), int(p)
    for triple, _, _, _, p in LARGE_ENTRIES:
        if p is not None:
            yield triple, p


def test_no_known_input_reaches_a_satisfiable_sign_system():
    # decide refuses a satisfiable system, or one whose only witness is a
    # negative cycle.  No diagonalizable golden or large-entry input at
    # its p gives one: each has delta = -1, so the central node is a
    # fixed (-1)-sphere, and its verdict is fixed-coefficient or
    # adjacent-branches, the general 2-coloring's certificate.
    diagonals, kinds = {}, set()
    for triple, p in _golden_and_large_entry_inputs():
        if triple not in diagonals:
            sd = seifert_invariants(BrieskornTriple.of(*triple))
            graph = canonical_resolution(sd)
            diag = diagonalize(UnimodularForm.from_matrix(
                intersection_matrix(graph)))
            diagonals[triple] = sd, graph, diag
        sd, graph, diag = diagonals[triple]
        if not diag.found:
            continue
        assert sd.delta == -1, triple
        cs = build_constraints(propagate_rotations(graph, p), diag)
        cert = decide(cs).certificate
        assert cert.kind in ("fixed-coefficient", "adjacent-branches"), (
            triple, p)
        assert cert.verify(cs)
        assert cert == obstruction_oracle.decide(cs).certificate, (triple, p)
        kinds.add(cert.kind)
    assert kinds == {"fixed-coefficient", "adjacent-branches"}
