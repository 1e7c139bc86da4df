"""Exact simplex: optima, infeasibility, unboundedness, vertex enumeration."""

from fractions import Fraction as F

import pytest

import lp_oracles as oracle
from orthokit.linprog import enumerate_vertices, row_reduce, solve_lp


def lp_feasible(a_rows, b_rhs):
    """Feasibility of A x = b, x >= 0 (objective zero)."""
    n = len(a_rows[0]) if a_rows else 0
    return solve_lp(a_rows, b_rhs, [F(0)] * n)


def test_simple_optimum():
    # max x + y with x + y + s = 1
    res = solve_lp([[1, 1, 1]], [1], [1, 1, 0])
    assert res.optimal and res.value == 1

def test_exact_fractions():
    res = solve_lp([[F(1, 3), F(2, 3)]], [F(1, 2)], [1, 0])
    assert res.optimal
    assert res.value == F(3, 2)


def test_minimization():
    res = solve_lp([[1, 1]], [1], [2, 1], maximize=False)
    assert res.optimal and res.value == 1


def test_infeasible():
    res = solve_lp([[1, 0], [1, 0]], [1, 2], [0, 0])
    assert res.status == "infeasible"


def test_infeasible_negative():
    res = lp_feasible([[1, 1]], [-1])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([[1, -1]], [0], [1, 0])
    assert res.status == "unbounded"


def test_redundant_rows_ok():
    res = solve_lp([[1, 1], [2, 2]], [1, 2], [1, 0])
    assert res.optimal and res.value == 1


def test_degenerate_no_cycle():
    # Klee-Minty-flavoured degeneracy; Bland's rule must terminate.
    a = [
        [1, 0, 0, 1, 0, 0],
        [4, 1, 0, 0, 1, 0],
        [8, 4, 1, 0, 0, 1],
    ]
    b = [5, 25, 125]
    c = [4, 2, 1, 0, 0, 0]
    res = solve_lp(a, b, c)
    assert res.optimal and res.value == 125


def test_row_reduce_inconsistent():
    _, _, consistent = row_reduce([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
    assert not consistent


def test_vertex_enumeration_square():
    # probability simplex over 3 points
    verts = enumerate_vertices([[F(1), F(1), F(1)]], [F(1)])
    assert sorted(tuple(v) for v in verts) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


def test_vertices_agree_with_feasibility():
    """Feasibility answers match vertex enumeration on small polytopes."""
    from orthokit.corpus import corpus_models

    for m in corpus_models(4, 2):
        rows, rhs = oracle.polytope_rows(m)
        verts = enumerate_vertices(rows, rhs)
        feasible = lp_feasible(rows, rhs).optimal
        assert feasible == bool(verts)
        if len(verts) <= 12:
            for v in verts:
                for row, target in zip(rows, rhs):
                    assert sum(c * x for c, x in zip(row, v)) == target
                assert all(x >= 0 for x in v)


def test_vertex_cap():
    """On the 20-point simplex double description creates 39 rays.

    One for lambda, one per lineality vector turned ray at x0..x18 and one
    per pair combined at x19; the 39th trips a cap of 38.
    """
    from orthokit.errors import EnumerationCapExceeded

    rows = [[F(1)] * 20]
    for cap in (5, 38):
        with pytest.raises(EnumerationCapExceeded) as info:
            enumerate_vertices(rows, [F(1)], cap=cap)
        assert (info.value.what, info.value.cap, info.value.bound) == (
            "polytope vertices", cap, cap + 1
        )
    verts = enumerate_vertices(rows, [F(1)], cap=39)
    assert verts == enumerate_vertices(rows, [F(1)]) and len(verts) == 20


@pytest.mark.parametrize(
    "a, b, want",
    [([[0, 0]], [0], [[0, 0]]), ([[0]], [0], [[0]]), ([[0, 0]], [1], [])],
)
def test_vertices_of_zero_rows(a, b, want):
    """Zero rows reduce away: with rhs 0 the orthant's one vertex, as long as the input's rows."""
    assert enumerate_vertices(a, b) == oracle.fraction_enumerate_vertices(a, b) == want


# -- boundary cases, each against the Fraction reference ------------------------------

TINY = F(5e-324)  # the least subnormal double: denominator 2**1074

BOUNDARY = {
    "subnormal entries": ([[1, TINY, 0], [0, 1, 1]], [TINY, 1], [1, 0, 0], True),
    "subnormal entries, scaled": ([[TINY, 1, 0], [1, TINY, 1]], [TINY, 1], [1, 1, -1], True),
    "subnormal objective": ([[1, 1, 1]], [1], [TINY, -TINY, 0], True),
    "zero row, zero rhs": ([[0, 0, 0], [1, 1, 1]], [0, 1], [1, 2, 0], True),
    "zero row, rhs one": ([[0, 0, 0], [1, 1, 1]], [1, 1], [1, 2, 0], True),
    "no rows, optimal": ([], [], [-1, 0, -2], True),
    "no rows, unbounded": ([], [], [0, 1], True),
    "zero rows only, optimal": ([[0, 0], [0, 0]], [0, 0], [-1, 0], True),
    "zero rows only, unbounded": ([[0, 0]], [0], [0, 3], True),
    "negative rhs": ([[-1, -1, 0], [1, -1, -1]], [-2, -1], [1, -1, 0], True),
    "negative rhs, infeasible": ([[1, 1]], [-1], [0, 0], True),
    "zero objective, redundant rows": ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], [1, 1, 2], [0, 0, 0], True),
    "minimization unbounded below": ([[1, -1, 0]], [1], [-1, 0, 0], False),
    "minimization optimal": ([[1, -1, 1]], [1], [1, 1, 1], False),
    "scalar multiple rows": ([[1, 2, 3], [-2, -4, -6], [F(1, 3), F(2, 3), 1]], [1, -2, F(1, 3)], [1, 1, 1], True),
    "scalar multiple rows, inconsistent": ([[1, 2], [2, 4]], [1, 3], [1, 1], True),
    "artificial driven out": ([[1, -1, 2], [1, 1, 0]], [1, 0], [0, 1, -1], True),
}


@pytest.mark.parametrize("name", BOUNDARY)
def test_boundary_case_matches_oracle(name):
    a, b, c, maximize = BOUNDARY[name]
    got = solve_lp(a, b, c, maximize=maximize)
    want = oracle.fraction_solve_lp(a, b, c, maximize=maximize)
    assert (got.status, repr(got.value), repr(got.x), got.pivots) == (
        want.status, repr(want.value), repr(want.x), want.pivots
    )


def test_boundary_cases_reach_their_paths():
    status = {name: solve_lp(*case[:3], maximize=case[3]).status for name, case in BOUNDARY.items()}
    assert status["no rows, unbounded"] == status["zero rows only, unbounded"] == "unbounded"
    assert status["minimization unbounded below"] == "unbounded"
    assert status["zero row, rhs one"] == status["negative rhs, infeasible"] == "infeasible"
    assert status["scalar multiple rows, inconsistent"] == "infeasible"
    res = solve_lp(*BOUNDARY["subnormal entries"][:3])
    assert res.optimal and res.pivots > 0
    assert res.value == TINY and res.value.denominator.bit_length() == 1075
    assert solve_lp(*BOUNDARY["minimization optimal"][:3], maximize=False).value == 1


def test_pivots_count_phase_one_drive_out_and_phase_two():
    # x + y = 1 with objective y: one phase-1 pivot (x enters), one phase-2 pivot (y enters).
    res = solve_lp([[1, 1]], [1], [0, 1])
    assert (res.value, res.x, res.pivots) == (1, [0, 1], 2)
    # A row reduced away before the simplex costs no pivot.
    assert solve_lp([[1, 1], [2, 2]], [1, 2], [0, 1]).pivots == 2
    assert solve_lp([], [], [0, 0]).pivots == 0
    # Two phase-1 pivots leave the second artificial basic at level 0; one
    # pivot drives it out (x0 enters), and phase 2 needs none.
    res = solve_lp(*BOUNDARY["artificial driven out"][:3])
    assert (res.value, res.x, res.pivots) == (F(-1, 2), [0, 0, F(1, 2)], 3)
