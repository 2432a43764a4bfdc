"""Input checks that valid data never trips.

The pipeline builds only consistent records, so these checks fire only on
inputs made by hand.  Each case asserts the exception type and the whole
message.
"""

import pytest

from brieskorn.lattice import UnimodularForm, diagonalize
from brieskorn.matrices import inverse_unimodular, parse_matrix_text
from brieskorn.obstruction import ConstraintError, build_constraints
from brieskorn.plumbing import (EquivariantMarkup, PlumbingGraph,
                                PropagationError, propagate_rotations, star)
from brieskorn.records import InputError
from brieskorn.seifert import (BrieskornTriple, SeifertData, family,
                               standard_action_valid)
from brieskorn.spectral import (coefficients_at, eta_from_fixed_data,
                                ll_extension_search)

T235 = BrieskornTriple(2, 3, 5)   # its Seifert data: b = (-1, -2, -4), delta = -2


CASES = {
    "graph-edge-to-a-missing-node": (
        lambda: PlumbingGraph((-1, -2), ((0, 2),)),
        ValueError, "bad edge (0,2)"),
    "graph-loop": (
        lambda: PlumbingGraph((-1, -2), ((1, 1),)),
        ValueError, "bad edge (1,1)"),
    "graph-duplicate-edge": (
        lambda: PlumbingGraph((-1, -2, -2), ((0, 1), (1, 0))),
        ValueError, "duplicate edge (1,0)"),
    "graph-too-few-edges": (
        lambda: PlumbingGraph((-1, -2, -2), ((0, 1),)),
        ValueError, "graph is not a tree"),
    "graph-cycle-and-isolated-node": (
        lambda: PlumbingGraph((-1, -2, -2, -2), ((0, 1), (1, 2), (2, 0))),
        ValueError, "graph is not a tree"),
    "seifert-b-out-of-range": (
        lambda: SeifertData(T235, (0, -2, -4), -2),
        ValueError, "b=(0, -2, -4) out of range for (2, 3, 5)"),
    "seifert-congruence": (
        lambda: SeifertData(T235, (-1, -1, -4), -2),
        ValueError, "congruence fails for b=(-1, -1, -4)"),
    "seifert-delta-above-minus-one": (
        lambda: SeifertData(T235, (-1, -2, -4), 0),
        ValueError, "delta must be <= -1, got 0"),
    "triple-unsorted": (
        lambda: BrieskornTriple(3, 2, 5),
        InputError, "entries must be sorted ascending, got (3, 2, 5)"),
    "action-order-below-two": (
        lambda: standard_action_valid(T235, 1),
        InputError, "group order must be >= 2, got 1"),
    "family-bad-sign": (
        lambda: family("stern", 3, 1, "*"),
        InputError, "sign must be '+' or '-', got '*'"),
    "coefficients-at-a-multiple-of-p": (
        lambda: coefficients_at((0,) * 5, 10),
        ValueError, "10 is not invertible mod 5"),
    # eta reads p from the markup, whose constructor does not check it;
    # one isolated point and no node (1 + 2*0 == 1 + 0).
    "eta-of-a-markup-with-p-not-prime": (
        lambda: eta_from_fixed_data(
            EquivariantMarkup(p=9, fixed_spheres=(),
                              isolated_points=((1, 1),), node_kinds=()), 0),
        InputError, "p must be an odd prime >= 3, got 9"),
    "lens-search-eta-of-another-p": (
        lambda: ll_extension_search(BrieskornTriple(3, 16, 113), 5, (0,) * 7),
        ValueError, "eta is for p=7, not p=5"),
    # One fixed (-1)-sphere and no isolated point (0 + 2*1 == 1 + 1),
    # against the rank-2 form -I.
    "constraints-markup-of-another-size": (
        lambda: build_constraints(
            EquivariantMarkup(p=5, fixed_spheres=((0, -1, 1),),
                              isolated_points=(), node_kinds=("fixed",)),
            diagonalize(UnimodularForm(((-1, 0), (0, -1))))),
        ConstraintError, "markup covers 1 nodes, form has rank 2"),
    "matrix-text-without-rows": (
        lambda: parse_matrix_text("# only a comment\n"),
        InputError, "no matrix rows found"),
    "inverse-of-a-singular-matrix": (
        lambda: inverse_unimodular(((1, 2), (2, 4))),
        ValueError, "matrix is singular"),
    # The center hands (1, 0) to the branch; over the -5-sphere it becomes
    # (-1, 5) = (4, 0) mod 5 at the free pole, a fixed normal direction.
    "propagation-fixed-normal-disk-at-a-free-pole": (
        lambda: propagate_rotations(star(-1, [[-5]]), 5),
        PropagationError, "fixed normal disk at the free pole of node 1: "
                          "the boundary action is not free"),
}


@pytest.mark.parametrize("make, error, message", CASES.values(), ids=CASES)
def test_input_check(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message

