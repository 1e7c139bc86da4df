"""Pair-set reference implementation of the orthoalgebra order.

``PairOrder`` stores the order of an ``Orthoalgebra`` as a frozenset of
(p, q) pairs, built from the partial sum table as p <= p and p <= p + c,
and answers ``leq``, ``join``, ``meet``, ``is_omp``, ``is_boolean`` and
``atoms`` one element at a time.  ``Orthoalgebra`` decides the same
questions on one mask per element; the oracle tests require both to agree
on every answer and witness.
"""

from __future__ import annotations

from itertools import product

from orthokit.testspace import PredicateResult


class PairOrder:
    """The order of ``alg`` (its ``reps``, ``oplus``, ``zero``) as a set of pairs."""

    def __init__(self, alg):
        self.alg = alg
        self.n = len(alg.reps)
        le = {(p, p) for p in range(self.n)}
        for (p, c), s in alg.oplus.items():
            le.add((p, s))
        self.le = frozenset(le)

    def leq(self, p: int, q: int) -> bool:
        return (p, q) in self.le

    def upper_bounds(self, p: int, q: int) -> list[int]:
        return [u for u in range(self.n) if self.leq(p, u) and self.leq(q, u)]

    def lower_bounds(self, p: int, q: int) -> list[int]:
        return [v for v in range(self.n) if self.leq(v, p) and self.leq(v, q)]

    def join(self, p: int, q: int) -> int | None:
        ubs = self.upper_bounds(p, q)
        least = [u for u in ubs if all(self.leq(u, v) for v in ubs)]
        return least[0] if least else None

    def meet(self, p: int, q: int) -> int | None:
        lbs = self.lower_bounds(p, q)
        greatest = [v for v in lbs if all(self.leq(u, v) for u in lbs)]
        return greatest[0] if greatest else None

    def is_omp(self) -> PredicateResult:
        for (p, q), s in self.alg.oplus.items():
            for u in self.upper_bounds(p, q):
                if not self.leq(s, u):
                    return PredicateResult(False, (p, q, u))
        return PredicateResult(True)

    def is_boolean(self) -> PredicateResult:
        omp = self.is_omp()
        if not omp:
            return omp
        n = self.n
        joins = {}
        meets = {}
        for p in range(n):
            for q in range(n):
                j, m = self.join(p, q), self.meet(p, q)
                if j is None or m is None:
                    return PredicateResult(False, (p, q))
                joins[(p, q)] = j
                meets[(p, q)] = m
        for p, q, r in product(range(n), repeat=3):
            lhs = meets[(p, joins[(q, r)])]
            rhs = joins[(meets[(p, q)], meets[(p, r)])]
            if lhs != rhs:
                return PredicateResult(False, (p, q, r))
        return PredicateResult(True)

    def atoms(self) -> list[int]:
        zero = self.alg.zero
        out = []
        for p in range(self.n):
            if p == zero:
                continue
            below = [q for q in range(self.n) if self.leq(q, p) and q not in (p, zero)]
            if not below:
                out.append(p)
        return out
