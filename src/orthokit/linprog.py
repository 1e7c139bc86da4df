"""Exact rational linear programming on integer rows.

Small dense two-phase simplex for problems in standard equality form

    maximize c.x  subject to  A x = b,  x >= 0.

Pivoting uses Bland's rule, so the method terminates without cycling.  The
sizes here are tiny (state polytopes of finite test spaces), so no effort is
spent on sparsity; the point is exactness: predicates like "some state puts
probability one on this outcome" are decided with no floating-point slack.

One elimination kernel serves the simplex and row reduction.  A row,
right-hand side last, is a list of ``int`` numerators over one positive
common denominator, kept in lowest terms by one ``gcd`` per row operation;
every entry is exactly the rational the textbook ``Fraction`` tableau would
hold, so the pivots are the same.  Vertex enumeration starts from the same
reduced rows and runs the double description method on primitive ``int``
rays, under a cap that refuses (``enumerate_vertices``) or a budget that
stops the run and returns None (``vertices_within``).  ``Fraction``s
appear only where values enter and leave.

A caller that poses many LPs over one A with different right-hand sides
reduces A once: ``factor(A, n)`` reduces [A | I] on A's columns and keeps
the reduced rows R, the row operations T that produced each of them, and
the left-null rows N (the rows whose A part reduced to zero), with T and N
written over the rows of A they combine.  Its
``solve(b, c, maximize, extra_rows)`` is infeasible when N b != 0;
otherwise it reduces the rows [R | T b] plus the query's own rows (pins,
slack bounds) and runs the simplex on them, as ``solve_lp`` does on
[A | b].  The results are identical, by this lemma: ``_row_reduce``
returns the reduced row echelon form (RREF) of its rows -- ``_pivot``
clears the pivot column from every other row, the rows come out in
pivot-column order, and each is ``(nums, den)`` in lowest terms with
den > 0, the one integer form of a rational row.  The RREF of a consistent
system depends only on its row space, not on row order, duplicates or
which rows were reduced earlier, and when N b = 0 the rows [R | T b] span
the row space of [A | b].  So the simplex receives the same rows, and
status, value, x and pivots cannot differ.  ``solve_lp`` remains the call
for an LP posed once: it reduces [A | b] alone and keeps nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import countOf
from typing import Sequence

from ._record import Record
from .errors import CapCounter

ZERO = Fraction(0)


class LPResult(Record):
    # status: "optimal" | "infeasible" | "unbounded"; pivots: simplex pivots
    # (phase 1, artificials driven out, phase 2)
    __slots__ = ("status", "value", "x", "pivots")
    _defaults = {"pivots": 0}

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _as_fraction_matrix(rows) -> list[list]:
    """Exact rationals: ``int`` and ``Fraction`` entries as given, others as Fractions."""
    return [[v if type(v) in (int, Fraction) else Fraction(v) for v in row] for row in rows]


def dedupe_rows(a: list[list[Fraction]], b: list[Fraction]):
    """Drop duplicate equality rows, keeping first occurrences (as ``_int_rows`` does)."""
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


# -- the kernel: rows (numerators, denominator) ----------------------------------------


def _int_row(row, rhs) -> tuple[tuple[int, ...], int]:
    """Exact rationals (ints or Fractions) as numerators over their lowest common denominator.

    That form is unique, so equal rows give equal (hashable) results.
    """
    vals = [*row, rhs]
    den = math.lcm(*[v.denominator for v in vals])
    return tuple([v.numerator * (den // v.denominator) for v in vals]), den


def _int_rows(a_rows, b_rhs) -> list[tuple[tuple[int, ...], int]]:
    """The distinct equations of A x = b, in order, as integer rows."""
    b = _as_fraction_matrix([b_rhs])[0]
    return list(dict.fromkeys(map(_int_row, _as_fraction_matrix(a_rows), b)))


def _reduced(nums, den: int):
    g = math.gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g != 1 else (nums, den)


def _eliminate(target, pivot_row, col):
    """``target`` minus its ``col`` entry times ``pivot_row``, whose ``col`` entry is 1."""
    ni, di = target
    nr, dr = pivot_row
    f = ni[col]
    return _reduced([x * dr - f * y for x, y in zip(ni, nr)], di * dr)


def _pivot(rows, r: int, col: int) -> None:
    """Scale row r to 1 in ``col`` and eliminate ``col`` from every other row."""
    nums, _ = rows[r]
    p = nums[col]
    if p < 0:
        nums, p = [-v for v in nums], -p
    rows[r] = pivot_row = _reduced(nums, p)
    for i, row in enumerate(rows):
        if i != r and row[0][col]:
            rows[i] = _eliminate(row, pivot_row, col)


def _row_reduce(rows) -> bool:
    """Reduce ``rows`` in place to an independent set; False when some 0 = nonzero."""
    m, r = len(rows), 0
    for col in range(len(rows[0][0]) - 1 if rows else 0):
        pivot = next((i for i in range(r, m) if rows[i][0][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        _pivot(rows, r, col)
        r += 1
        if r == m:
            break
    consistent = not any(nums[-1] for nums, _ in rows[r:])
    del rows[r:]
    return consistent


def _simplex(rows, basis: list[int], n: int) -> tuple[str, int]:
    """Bland's rule on a tableau whose last row is the objective; (status, pivots).

    Enter on the first column with a positive reduced cost; leave on the
    minimum ratio b_i / a_ie (compared by cross-multiplying, the row
    denominators cancel), ties to the lowest basis index.
    """
    m = len(rows) - 1
    pivots = 0
    while True:
        cost = rows[m][0]
        enter = next((j for j in range(n) if cost[j] > 0), None)
        if enter is None:
            return "optimal", pivots
        leave = None
        for i in range(m):
            nums = rows[i][0]
            a = nums[enter]
            if a > 0:
                if leave is None:
                    leave, best_b, best_a = i, nums[-1], a
                    continue
                d = nums[-1] * best_a - best_b * a
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, nums[-1], a
        if leave is None:
            return "unbounded", pivots
        _pivot(rows, leave, enter)
        basis[leave] = enter
        pivots += 1


def _price_out(rows, basis) -> None:
    """Zero the objective row (last) on the basic columns."""
    for i, j in enumerate(basis):
        if rows[-1][0][j]:
            rows[-1] = _eliminate(rows[-1], rows[i], j)


def solve_lp(a_rows, b_rhs, c_obj, maximize: bool = True) -> LPResult:
    """Solve max/min c.x subject to A x = b, x >= 0, exactly."""
    rows = _int_rows(a_rows, b_rhs)
    if not _row_reduce(rows):
        return LPResult("infeasible", None, None)
    return _solve_reduced(rows, c_obj, maximize)


def _solve_reduced(rows, c_obj, maximize: bool) -> LPResult:
    """The simplex on rows ``_row_reduce`` has reduced (independent, consistent)."""
    c = _as_fraction_matrix([c_obj])[0]
    if not maximize:
        c = [-v for v in c]
    n = len(c)
    m = len(rows)
    if m == 0:
        # No constraints left: optimum is 0 at the origin unless some c > 0.
        if any(cj > 0 for cj in c):
            return LPResult("unbounded", None, None)
        return LPResult("optimal", ZERO, [ZERO] * n)
    # Phase 1: right-hand sides made nonnegative, artificials with identity
    # columns, objective -sum(artificials).
    tableau = []
    for i, (nums, den) in enumerate(rows):
        if nums[-1] < 0:
            nums = [-v for v in nums]
        tableau.append(([*nums[:-1], *(den if k == i else 0 for k in range(m)), nums[-1]], den))
    tableau.append(([0] * n + [-1] * m + [0], 1))
    basis = list(range(n, n + m))
    _price_out(tableau, basis)
    _, pivots = _simplex(tableau, basis, n + m)
    if tableau[-1][0][-1]:
        return LPResult("infeasible", None, None, pivots)
    # Drive remaining artificials out of the basis.
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][0][j]), None)
            if enter is not None:
                _pivot(tableau, i, enter)
                basis[i] = enter
                pivots += 1
    # Phase 2 on the rows whose basic variable is original.
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [_reduced([*tableau[i][0][:n], tableau[i][0][-1]], tableau[i][1]) for i in keep]
    basis = [basis[i] for i in keep]
    tableau.append(_int_row(c, ZERO))
    _price_out(tableau, basis)
    status, more = _simplex(tableau, basis, n)
    pivots += more
    if status == "unbounded":
        return LPResult("unbounded", None, None, pivots)
    x = [ZERO] * n
    for (nums, den), j in zip(tableau, basis):
        x[j] = Fraction(nums[-1], den)
    # The objective row ends in -c.x at the basic solution.
    obj, den = tableau[-1][0][-1], tableau[-1][1]
    return LPResult("optimal", Fraction(-obj if maximize else obj, den), x, pivots)


class ReducedSystem:
    """A x = b reduced once for every right-hand side b; built by ``factor``.

    ``rows`` holds, per pivot row in pivot-column order, the numerators of
    its A part R, its row operations T as (row of A, numerator) pairs, and
    their denominator; ``null`` holds the left-null rows N as such pairs.
    """

    __slots__ = ("n", "rows", "null")

    def __init__(self, n: int, rows: list, null: list):
        self.n = n
        self.rows = rows
        self.null = null

    def reduced(self, b_rhs) -> list | None:
        """The rows [R | T b] of A x = b, or None when N b != 0 (inconsistent).

        ``b_rhs`` holds ints or Fractions; T b is formed over their common
        denominator in integer arithmetic.
        """
        bd = math.lcm(*[v.denominator for v in b_rhs])
        bn = [v.numerator * (bd // v.denominator) for v in b_rhs]
        if any(sum([c * bn[i] for i, c in t]) for t in self.null):
            return None
        return [
            _reduced([*[v * bd for v in a], sum([c * bn[i] for i, c in t])], den * bd)
            for a, t, den in self.rows
        ]

    def solve(self, b_rhs, c_obj, maximize: bool = True, extra_rows=()) -> LPResult:
        """``solve_lp`` on A x = b plus ``extra_rows``, each a (coefficients, rhs) pair.

        The columns are those of c: A's rows and the shorter extra rows are
        padded with zero columns up to ``len(c_obj)``.
        """
        rows = self.reduced(b_rhs)
        if rows is None:
            return LPResult("infeasible", None, None)
        width = len(c_obj)
        if width > self.n:
            pad = [0] * (width - self.n)
            rows = [([*nums[:-1], *pad, nums[-1]], den) for nums, den in rows]
        for coeffs, rhs in extra_rows:
            rows.append(_int_row([*coeffs, *[0] * (width - len(coeffs))], rhs))
        if not _row_reduce(rows):
            return LPResult("infeasible", None, None)
        return _solve_reduced(rows, c_obj, maximize)


def factor(a_rows, n: int) -> ReducedSystem:
    """Reduce the rows of A (ints or Fractions, n columns) once, for ``ReducedSystem``.

    Row i enters as [a_i | e_k], with k pivot rows so far, and is reduced
    against them.  If its A part stays nonzero it becomes pivot row k and
    its pivot clears that column from the others; otherwise its operation
    part is a left-null row.  Operation column j < k stands for the row of A
    that became pivot row j, and column k for row i itself, so the kept
    operations stay as short as the rank, not as wide as A is tall.
    """
    width = n + min(len(a_rows), n + 1)
    rows, cols, sources, null = [], [], [], []
    for i, row in enumerate(a_rows):
        nums, den = _int_row(row, 0)
        k = len(rows)
        cur = ([*nums[:-1], *[0] * (width - n)], den)
        cur[0][n + k] = den
        for prow, col in zip(rows, cols):
            if cur[0][col]:
                cur = _eliminate(cur, prow, col)
        col = next((j for j in range(n) if cur[0][j]), None)
        if col is None:
            null.append(_pairs(cur[0][n : n + k + 1], [*sources, i]))
            continue
        rows.append(cur)
        cols.append(col)
        sources.append(i)
        _pivot(rows, k, col)
    order = sorted(range(len(rows)), key=cols.__getitem__)
    return ReducedSystem(
        n,
        [(rows[j][0][:n], _pairs(rows[j][0][n:], sources), rows[j][1]) for j in order],
        null,
    )


def _pairs(coeffs, sources) -> list[tuple[int, int]]:
    return [(i, c) for i, c in zip(sources, coeffs) if c]


def row_reduce(a: list[list[Fraction]], b: list[Fraction]):
    """Gaussian elimination to an independent row set.

    Returns (a', b', consistent).  When the system is inconsistent
    (0 = nonzero), consistent is False.
    """
    rows = [_int_row(row, rhs) for row, rhs in zip(a, b)]
    consistent = _row_reduce(rows)
    a2 = [[Fraction(v, den) for v in nums[:-1]] for nums, den in rows]
    return a2, [Fraction(nums[-1], den) for nums, den in rows], consistent


def enumerate_vertices(
    a_rows: Sequence[Sequence[Fraction]],
    b_rhs: Sequence[Fraction],
    cap: int | None = None,
) -> list[list[Fraction]]:
    """All vertices of {x : A x = b, x >= 0}, sorted, by double description.

    They are the extreme rays with lambda > 0 of the cone
    {(x, lambda) : A x = b lambda, x >= 0, lambda >= 0}, scaled to lambda = 1.
    The cone starts as the nullspace of [A | -b], all of it lineality, and
    takes the n + 1 inequalities one at a time, lambda's first (Motzkin,
    Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996).  A lineality
    vector that is nonzero on the new coordinate becomes a ray and zeroes the
    coordinate on the rest; otherwise each adjacent pair of rays on opposite
    sides gives a new ray on the hyperplane.  Rays are primitive ``int``
    tuples, each with the bitmask of the inequalities it is tight on.  The
    cap counts the rays created.
    """
    counter = CapCounter("polytope vertices", cap)
    verts, created = _double_description(a_rows, b_rhs, counter.cap)
    counter.tick(created)  # raises past the cap, where created is cap + 1
    return verts


def vertices_within(
    a_rows: Sequence[Sequence[Fraction]], b_rhs: Sequence[Fraction], budget: int
) -> list[list[Fraction]] | None:
    """``enumerate_vertices`` under a budget of rays created, or None past it.

    The run stops before it would create ray ``budget`` + 1, and nothing is
    raised: past the budget is an answer, not a refusal.
    """
    return _double_description(a_rows, b_rhs, budget)[0]


def _double_description(a_rows, b_rhs, limit: int) -> tuple[list[list[Fraction]] | None, int]:
    """(the sorted vertices, rays created), or (None, limit + 1) when the run
    would create more than ``limit`` rays."""
    rows = _int_rows(a_rows, b_rhs)
    n = len(rows[0][0]) - 1 if rows else 0  # read before zero rows reduce away
    if not _row_reduce(rows):
        return [], 0
    lineality = _nullspace(rows, n)
    dim = len(lineality)
    rays: list[tuple[tuple[int, ...], int]] = []
    created = 0
    done = 0
    for k in (n, *range(n)):
        bit = 1 << k
        i = next((i for i, v in enumerate(lineality) if v[k]), None)
        if i is not None:
            created += 1
            if created > limit:
                return None, created
            pivot = lineality.pop(i)
            if pivot[k] < 0:
                pivot = tuple([-v for v in pivot])
            lineality = [_combine(pivot, v, k) if v[k] else v for v in lineality]
            rays = [(_combine(pivot, v, k) if v[k] else v, z | bit) for v, z in rays]
            rays.append((pivot, done))
        else:
            # A pair on opposite sides spans an edge when no third ray is tight
            # on every inequality both are; sharing fewer than
            # dim - |lineality| - 2 rules the pair out at once.
            need = dim - len(lineality) - 2
            masks = [z for _, z in rays]
            neg = [(q, zq) for q, zq in rays if q[k] < 0]
            new = []
            for p, zp in rays:
                if p[k] <= 0:
                    continue
                for q, zq in neg:
                    z = zp & zq
                    if z.bit_count() >= need and countOf(map(z.__and__, masks), z) == 2:
                        created += 1
                        if created > limit:
                            return None, created
                        new.append((_combine(p, q, k), z | bit))
            rays = [(v, z if v[k] else z | bit) for v, z in rays if v[k] >= 0]
            rays += new
        done |= bit
    # Sorted as integer rows over one common denominator, then made rational.
    verts = [x for x, _ in rays if x[n]]
    den = math.lcm(*[x[n] for x in verts])
    keys = sorted([v * (den // x[n]) for v in x[:n]] for x in verts)
    value = {v: Fraction(v, den) for v in set().union(*keys)}
    return [[value[v] for v in key] for key in keys], created


def _primitive(w: list[int]) -> tuple[int, ...]:
    g = math.gcd(*w)
    return tuple([v // g for v in w]) if g > 1 else tuple(w)


def _combine(p, v, k: int) -> tuple[int, ...]:
    """``p[k] v - v[k] p``, zero at ``k``; a positive combination when p[k] > 0 > v[k]."""
    a, b = p[k], v[k]
    return _primitive([a * y - b * x for x, y in zip(p, v)])


def _nullspace(rows, n: int) -> list[tuple[int, ...]]:
    """An integer basis of {(x, lambda) : A x = b lambda}, one vector per free column.

    ``rows`` are reduced (each has a pivot column, 1 there and 0 in the
    other rows); lambda is column n, where the rows hold b.
    """
    pivots = [(next(j for j, v in enumerate(nums) if v), nums, den) for nums, den in rows]
    taken = {col for col, _, _ in pivots}
    basis = []
    for f in range(n + 1):
        if f in taken:
            continue
        sign = 1 if f == n else -1
        scale = math.lcm(*[den for _, nums, den in pivots if nums[f]])
        v = [0] * (n + 1)
        v[f] = scale
        for col, nums, den in pivots:
            v[col] = sign * nums[f] * (scale // den)
        basis.append(_primitive(v))
    return basis
