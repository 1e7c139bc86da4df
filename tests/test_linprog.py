"""Exact simplex: optima, infeasibility, unboundedness, vertex enumeration."""

from fractions import Fraction as F

import pytest

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
        rows, rhs = m.polytope_rows()
        verts = enumerate_vertices(rows, rhs)
        feasible = lp_feasible(rows, rhs).optimal
        assert feasible == bool(verts)
        if len(verts) <= 12:
            for v in verts:
                for row, target in zip(rows, rhs):
                    assert sum(c * x for c, x in zip(row, v)) == target
                assert all(x >= 0 for x in v)


def test_vertex_cap():
    from orthokit.errors import EnumerationCapExceeded

    rows = [[F(1)] * 20]
    with pytest.raises(EnumerationCapExceeded):
        enumerate_vertices(rows, [F(1)], cap=5)
