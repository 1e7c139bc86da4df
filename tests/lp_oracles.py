"""Reference implementations of the LP layer and of the state predicates.

``fraction_row_reduce`` and ``fraction_solve_lp`` are the exact row
reduction and simplex written directly in ``Fraction`` arithmetic, with the
same pivot rules as ``orthokit.linprog`` (first nonzero row per column;
Bland's rule: first improving column, minimum ratio with ties to the lowest
basis index).  The library runs the same pivots on integer rows over a
common denominator; the oracle tests require identical results, pivot
counts included.

``fraction_enumerate_vertices`` finds the vertices the textbook way: it
solves every square subsystem on rank(A) columns, C(n, r) of them, and
keeps the nonnegative solutions.  The library enumerates them by double
description and returns them sorted, so the oracle tests compare with the
sorted scan.

``polytope_rows`` writes a model's state polytope as ``Fraction`` rows, one
per test, with right-hand side 1: the system the library reduces once per
test space from the test masks, for every full model on that space.

``transversal_weights`` finds the 0/1 vertices of a state polytope by a
search over transversals, sets that meet every test exactly once.

``hull_membership`` is ``Model._hull_membership`` with the LP alone: the
library first tries a candidate mixture whose exact residual can confirm
membership with no LP, and poses this LP only when it cannot.  The oracle
tests require ``contains_state`` and ``contains_ray`` to give the verdicts
they give with ``hull_membership`` in its place.

``positivity_failures``, ``check_unital`` and ``check_strongly_unital`` are
the straightforward versions of the ``Model`` predicates: on full models one
fresh LP per outcome or per non-orthogonal pair, with nothing remembered
between LPs; on hull models a scan of every generator.  The library scans
the vertices of a full model's polytope, and covers what they leave open
with its LP cover: one LP that maximizes the total weight of many
outcomes, after a scan of the LP optima it kept, with the answers
memoised; the oracle tests require both to report the same verdict and the
same ordered failures.

``lp_cover`` copies a space so that its full models answer through the LP
cover alone, as on a space past the vertex budget.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from orthokit.errors import CapCounter, check_cap
from orthokit.linprog import ZERO, LPResult, dedupe_rows, factor
from orthokit.states import Model, StateReport, StateSpace, Weight
from orthokit.testspace import TestSpace, _ids

ONE = Fraction(1)


def polytope_rows(model):
    """Equality rows (one per test) cutting out the probability-weight polytope."""
    n = model.space.n_outcomes
    rows = []
    for t in model.space.tests:
        row = [ZERO] * n
        for x in t:
            row[x] = ONE
        rows.append(row)
    return rows, [ONE] * len(rows)


def lp_cover(space):
    """A fresh copy of ``space`` whose full models answer through the LP cover.

    Its polytope record is marked as a space past the vertex budget is, so
    the predicates scan no vertex and never enumerate them; ``state_vertices``
    still enumerates under its caller's cap.
    """
    fresh = TestSpace(space.labels, space._test_masks)
    Model(fresh, StateSpace.full())._polytope().vertices = (0, None)
    return fresh


def fraction_row_reduce(a, b):
    """Gaussian elimination to an independent row set: (a', b', consistent)."""
    if not a:
        return [], [], True
    m, n = len(a), len(a[0])
    a = [row[:] for row in a]
    b = b[:]
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
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if b[i] != 0:
            return a[:r], b[:r], False
    return a[:r], b[:r], True


class _Tableau:
    """Dense simplex tableau with Bland pivoting; ``pivots`` counts pivots."""

    def __init__(self, a, b, c, basis):
        self.a = a  # m rows, n cols
        self.b = b
        self.c = c  # reduced objective row (maximization)
        self.obj = ZERO
        self.basis = basis
        self.m = len(a)
        self.n = len(c)
        self.pivots = 0
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
        self.pivots += 1
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


def fraction_solve_lp(a_rows, b_rhs, c_obj, maximize: bool = True) -> LPResult:
    """Solve max/min c.x subject to A x = b, x >= 0 in Fractions."""
    a = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b_rhs]
    c = [Fraction(v) for v in c_obj]
    if not maximize:
        res = fraction_solve_lp(a_rows, b_rhs, [-v for v in c], maximize=True)
        if res.optimal:
            res.value = -res.value
        return res
    a, b = dedupe_rows(a, b)
    a, b, consistent = fraction_row_reduce(a, b)
    if not consistent:
        return LPResult("infeasible", None, None)
    n = len(c)
    m = len(a)
    if m == 0:
        if any(cj > 0 for cj in c):
            return LPResult("unbounded", None, None)
        return LPResult("optimal", ZERO, [ZERO] * n)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]
    art = list(range(n, n + m))
    a1 = [row + [ONE if k == i else ZERO for k in range(m)] for i, row in enumerate(a)]
    c1 = [ZERO] * n + [Fraction(-1)] * m
    t = _Tableau(a1, b, c1, basis=art[:])
    t.run()
    if t.obj != 0:
        return LPResult("infeasible", None, None, t.pivots)
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
    pivots = t.pivots + t2.pivots
    if status == "unbounded":
        return LPResult("unbounded", None, None, pivots)
    x = t2.solution()
    value = sum((cj * xj for cj, xj in zip(c, x)), ZERO)
    return LPResult("optimal", value, x, pivots)


def fraction_solve_square(a, b):
    """Solve a square system in Fractions; None when singular."""
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


def fraction_enumerate_vertices(a_rows, b_rhs, cap=None):
    """All basic feasible solutions of A x = b, x >= 0, in column-subset order."""
    a = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b_rhs]
    n = len(a[0]) if a else 0  # read before zero rows reduce away
    a, b = dedupe_rows(a, b)
    a, b, consistent = fraction_row_reduce(a, b)
    if not consistent:
        return []
    r = len(a)
    if r == 0:
        return [[ZERO] * n]
    check_cap("polytope vertices", math.comb(n, r), cap)
    seen = set()
    out = []
    for cols in combinations(range(n), r):
        sol = fraction_solve_square([[a[i][j] for j in cols] for i in range(r)], b)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [ZERO] * n
        for j, v in zip(cols, sol):
            x[j] = v
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def transversal_weights(space, cap=None):
    """0/1 probability weights: indicators of sets meeting every test exactly once.

    Each step picks an outcome of the open test (none chosen yet) with the
    fewest free ones (not orthogonal to a chosen one); a branch dies when an
    open test has none, and each transversal is found once.  The cap counts steps.
    """
    counter = CapCounter("transversal weights", cap)
    tests, orth = space._test_masks, space._orth_table()
    n = space.n_outcomes
    out = []

    def extend(chosen, free):
        counter.tick()
        best = None
        for t in tests:
            if not t & chosen:
                options = t & free
                if not options:
                    return
                if best is None or options.bit_count() < best.bit_count():
                    best = options
        if best is None:
            out.append(Weight(tuple(Fraction(chosen >> x & 1) for x in range(n))))
            return
        for x in _ids(best):
            extend(chosen | 1 << x, free & ~(orth[x] | 1 << x))

    extend(0, (1 << n) - 1)
    out.sort(key=lambda w: w.values)
    return out


def hull_membership(model, w, conic):
    """Is ``w`` a mixture (``conic``: a nonnegative combination) of the generators?

    The table of generator columns is reduced once per model and per
    ``conic`` flag: G, with a row of ones unless conic.  A float model adds
    residual columns +I and -I, minimizes their total and then re-validates
    each coordinate against the tolerance.
    """
    gens = model.states.generators
    m = len(gens)
    n = model.space.n_outcomes
    system = _membership_system(model.states, n, model.exact, conic)
    target = [Fraction(v) for v in w.values]
    rhs = target if conic else [*target, 1]
    if model.exact:
        return system.solve(rhs, [ZERO] * m).optimal
    res = system.solve(rhs, [ZERO] * m + [Fraction(-1)] * (2 * n))
    if not res.optimal:
        return False
    lam = res.x[:m]
    for x in range(n):
        approx = sum((Fraction(g[x]) * l for g, l in zip(gens, lam)), ZERO)
        if abs(float(approx) - float(target[x])) > model.tol:
            return False
    return True


@lru_cache(maxsize=None)
def _membership_system(states, n, exact, conic):
    gens = states.generators
    m = len(gens)
    width = m if exact else m + 2 * n
    rows = [[Fraction(g[x]) for g in gens] + [0] * (width - m) for x in range(n)]
    if not exact:
        for x, row in enumerate(rows):
            row[m + 2 * x], row[m + 2 * x + 1] = 1, -1
    if not conic:
        rows.append([1] * m + [0] * (width - m))
    return factor(rows, width)


def _indicator(n, x):
    obj = [ZERO] * n
    obj[x] = Fraction(1)
    return obj


def positivity_failures(model):
    dead = []
    n = model.space.n_outcomes
    for x in range(n):
        if model.states.is_full:
            res = model.optimize_over_states(_indicator(n, x))
            ok = res.optimal and res.value > 0
        else:
            ok = any(g[x] > 0 for g in model.states.generators)
        if not ok:
            dead.append(x)
    return dead


def check_unital(model):
    failures = []
    n = model.space.n_outcomes
    for x in range(n):
        if model.states.is_full:
            res = model.optimize_over_states(_indicator(n, x))
            ok = res.optimal and model._eq_float_ok(res.value, 1)
        else:
            ok = any(model._eq(g[x], 1) for g in model.states.generators)
        if not ok:
            failures.append(x)
    return StateReport("unital", not failures, tuple(failures))


def check_strongly_unital(model):
    failures = []
    n = model.space.n_outcomes
    floor = 0 if model.exact else model.tol
    for x in range(n):
        for y in range(n):
            if x != y and model.space.orthogonal(x, y):
                continue
            if model.states.is_full:
                res = model.optimize_over_states(_indicator(n, y), fix=[(x, 1)])
                ok = res.optimal and float(res.value) > floor
            else:
                ok = any(
                    model._eq(g[x], 1) and (float(g[y]) > floor if floor else g[y] > 0)
                    for g in model.states.generators
                )
            if not ok:
                failures.append((x, y))
    return StateReport("strongly_unital", not failures, tuple(failures))
