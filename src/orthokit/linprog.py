"""Exact rational linear programming over Fraction arithmetic.

Small dense two-phase simplex for problems in standard equality form

    maximize c.x  subject to  A x = b,  x >= 0.

Pivoting uses Bland's rule, so the method terminates without cycling.  The
sizes here are tiny (state polytopes of finite test spaces), so no effort is
spent on sparsity; the point is exactness: predicates like "some state puts
probability one on this outcome" are decided with no floating-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import check_cap

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list[Fraction] | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _as_fraction_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def dedupe_rows(a: list[list[Fraction]], b: list[Fraction]):
    """Drop duplicate equality rows; cheap pre-pass before the simplex."""
    seen = set()
    a2, b2 = [], []
    for row, rhs in zip(a, b):
        key = (tuple(row), rhs)
        if key in seen:
            continue
        seen.add(key)
        a2.append(row)
        b2.append(rhs)
    return a2, b2


def row_reduce(a: list[list[Fraction]], b: list[Fraction]):
    """Gaussian elimination to an independent row set.

    Returns (a', b', consistent).  When the system is inconsistent
    (0 = nonzero), consistent is False.
    """
    if not a:
        return [], [], True
    m, n = len(a), len(a[0])
    a = [row[:] for row in a]
    b = b[:]
    pivot_rows = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, m):
            if a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = ONE / a[r][col]
        a[r] = [v * inv for v in a[r]]
        b[r] = b[r] * inv
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
                b[i] = b[i] - f * b[r]
        pivot_rows.append(r)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if b[i] != 0:
            return a[:r], b[:r], False
    return a[:r], b[:r], True


class _Tableau:
    """Dense simplex tableau with Bland pivoting."""

    def __init__(self, a, b, c, basis):
        self.a = a  # m rows, n cols
        self.b = b
        self.c = c  # reduced objective row (maximization)
        self.obj = ZERO
        self.basis = basis
        self.m = len(a)
        self.n = len(c)
        for i, j in enumerate(self.basis):
            self._price_out(i, j)

    def _price_out(self, row, col):
        if self.c[col] == 0:
            return
        f = self.c[col]
        arow = self.a[row]
        self.c = [cj - f * aij for cj, aij in zip(self.c, arow)]
        self.obj -= f * self.b[row]

    def _pivot(self, row, col):
        arow = self.a[row]
        inv = ONE / arow[col]
        arow = [v * inv for v in arow]
        self.a[row] = arow
        self.b[row] = self.b[row] * inv
        for i in range(self.m):
            if i != row and self.a[i][col] != 0:
                f = self.a[i][col]
                self.a[i] = [vi - f * vr for vi, vr in zip(self.a[i], arow)]
                self.b[i] = self.b[i] - f * self.b[row]
        if self.c[col] != 0:
            f = self.c[col]
            self.c = [cj - f * ar for cj, ar in zip(self.c, arow)]
            self.obj -= f * self.b[row]
        self.basis[row] = col

    def run(self) -> str:
        while True:
            enter = next((j for j in range(self.n) if self.c[j] > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(self.m):
                aie = self.a[i][enter]
                if aie > 0:
                    ratio = self.b[i] / aie
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter)

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for i, j in enumerate(self.basis):
            x[j] = self.b[i]
        return x


def solve_lp(a_rows, b_rhs, c_obj, maximize: bool = True) -> LPResult:
    """Solve max/min c.x subject to A x = b, x >= 0, exactly."""
    a = _as_fraction_matrix(a_rows)
    b = [Fraction(v) for v in b_rhs]
    c = [Fraction(v) for v in c_obj]
    if not maximize:
        res = solve_lp(a_rows, b_rhs, [-v for v in c], maximize=True)
        if res.optimal:
            res.value = -res.value
        return res
    a, b = dedupe_rows(a, b)
    a, b, consistent = row_reduce(a, b)
    if not consistent:
        return LPResult("infeasible", None, None)
    n = len(c)
    m = len(a)
    if m == 0:
        # No constraints left: optimum is 0 at the origin unless some c > 0.
        if any(cj > 0 for cj in c):
            return LPResult("unbounded", None, None)
        return LPResult("optimal", ZERO, [ZERO] * n)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    # Phase 1: artificials with identity columns.
    art = list(range(n, n + m))
    a1 = [row + [ONE if k == i else ZERO for k in range(m)] for i, row in enumerate(a)]
    c1 = [ZERO] * n + [Fraction(-1)] * m
    t = _Tableau(a1, b, c1, basis=art[:])
    t.run()
    if t.obj != 0:
        return LPResult("infeasible", None, None)
    # Drive remaining artificials out of the basis.
    for i in range(t.m):
        if t.basis[i] >= n:
            enter = next((j for j in range(n) if t.a[i][j] != 0), None)
            if enter is not None:
                t._pivot(i, enter)
    keep = [i for i in range(t.m) if t.basis[i] < n]
    a2 = [t.a[i][:n] for i in keep]
    b2 = [t.b[i] for i in keep]
    basis2 = [t.basis[i] for i in keep]
    t2 = _Tableau(a2, b2, [v for v in c], basis=basis2)
    status = t2.run()
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = t2.solution()
    value = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
    return LPResult("optimal", value, x)


def enumerate_vertices(
    a_rows: Sequence[Sequence[Fraction]],
    b_rhs: Sequence[Fraction],
    cap: int | None = None,
) -> list[list[Fraction]]:
    """All vertices of {x : A x = b, x >= 0} by basic feasible solutions.

    Exhaustive over column subsets of size rank(A); intended for small
    polytopes (LP self-checks, morphism state conditions).  The cap counts
    candidate bases examined.
    """
    a = _as_fraction_matrix(a_rows)
    b = [Fraction(v) for v in b_rhs]
    a, b = dedupe_rows(a, b)
    a, b, consistent = row_reduce(a, b)
    if not consistent:
        return []
    r = len(a)
    n = len(a[0]) if a else 0
    if r == 0:
        return [[ZERO] * n]
    check_cap("polytope vertices", math.comb(n, r), cap)
    seen = set()
    out: list[list[Fraction]] = []
    for cols in combinations(range(n), r):
        sub = [[a[i][j] for j in cols] for i in range(r)]
        sol = _solve_square(sub, b)
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        x = [ZERO] * n
        for j, v in zip(cols, sol):
            x[j] = v
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def _solve_square(a: list[list[Fraction]], b: list[Fraction]):
    """Solve a square system exactly; None when singular."""
    n = len(a)
    a = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = ONE / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [vi - f * vc for vi, vc in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]
