"""Orthoalgebra logics of algebraic test spaces.

For an algebraic test space the perspectivity classes of events carry a
partial sum ([a] + [b] = [a u b] for orthogonal a, b), a unique
complementation, and an induced order.  This module builds that quotient,
validates the orthoalgebra laws exhaustively, classifies the result
(orthomodular poset? Boolean?), builds the orthopartition test space of an
abstract orthoalgebra, and transports logics along morphisms.

Algebraicity makes the class structure cheap: two events are perspective
exactly when their complement sets are equal, so classes are fibers of the
complement-set map and no transitive closure is ever taken.  On inputs that
fail algebraicity, construction refuses rather than quotienting anyway.

Lemma (Booleanness from the atoms): in a finite orthomodular poset an orthogonal
sum is a join and each element an orthogonal sum of atoms, hence the join of the
atoms below it.  So p -> {atoms <= p} is an order embedding, and the logic is
Boolean exactly when it has 2^|atoms| elements (Kalmbach, *Orthomodular Lattices*).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Sequence

from ._record import Frozen
from .errors import CapCounter, LawViolation, NotAlgebraic, UnknownLabel, UsageError, check_cap
from .states import Model
from .testspace import PredicateResult, TestSpace, _ids, build_test_space, mask_event, mask_key

if TYPE_CHECKING:
    from .morphisms import Morphism


class Orthoalgebra:
    """Finite orthoalgebra with canonical representative events.

    Elements are dense ids; ``reps[p]`` is the lexicographically least event
    in class p when the algebra arose as a logic (synthetic algebras carry
    opaque reps).  ``oplus`` is the partial sum table, ``comp`` the
    complementation, ``zero``/``one`` the bounds.
    """

    def __init__(self, reps, class_of, oplus, zero, one, labels=None):
        self.reps: tuple = tuple(reps)
        self.class_of: dict = dict(class_of)
        self.oplus: dict[tuple[int, int], int] = dict(oplus)
        self.zero = zero
        self.one = one
        self.labels = tuple(labels) if labels else tuple(str(sorted(r)) for r in self.reps)
        self.comp = self._complements()
        self.le = self._order()
        self._validate_laws()

    def __len__(self) -> int:
        return len(self.reps)

    # -- structure ------------------------------------------------------------

    def orthogonal(self, p: int, q: int) -> bool:
        return (p, q) in self.oplus

    def add(self, p: int, q: int) -> int:
        try:
            return self.oplus[(p, q)]
        except KeyError:
            raise UsageError(f"{self.labels[p]} + {self.labels[q]} undefined") from None

    def _complements(self) -> tuple[int, ...]:
        comp = []
        for p in range(len(self.reps)):
            mates = sorted(
                q for q in range(len(self.reps)) if self.oplus.get((p, q)) == self.one
            )
            if len(mates) != 1:
                raise LawViolation(
                    f"element {self.labels[p]} has {len(mates)} complements"
                )
            comp.append(mates[0])
        return tuple(comp)

    def _order(self) -> tuple[int, ...]:
        """Per element p, the mask of the elements above it: p and each sum p + c."""
        up = [1 << p for p in range(len(self.reps))]
        for (p, _), s in self.oplus.items():
            up[p] |= 1 << s
        return tuple(up)

    @cached_property
    def _below(self) -> list[int]:
        """Per element q, the mask of the elements below it: ``le`` transposed."""
        le = self.le
        return [sum(1 << p for p, up in enumerate(le) if up >> q & 1) for q in range(len(le))]

    def leq(self, p: int, q: int) -> bool:
        return self.le[p] >> q & 1 == 1

    def _validate_laws(self) -> None:
        n = len(self.reps)
        op = self.oplus
        # commutativity (built in by construction, checked for synthetic input)
        for (p, q), s in op.items():
            if op.get((q, p)) != s:
                raise LawViolation("partial sum is not commutative")
        # associativity in the orthoalgebra sense, over the defined pairs (p, q)
        # and the r with s + r defined, each ascending
        pairs = sorted(op)
        partners: dict = {}
        for p, q in pairs:
            partners.setdefault(p, []).append(q)
        for p, q in pairs:
            s = op[(p, q)]
            for r in partners.get(s, ()):
                sr = op[(s, r)]
                qr = op.get((q, r))
                if qr is None or op.get((p, qr)) != sr:
                    raise LawViolation(
                        f"associativity fails at {self.labels[p]},"
                        f"{self.labels[q]},{self.labels[r]}"
                    )
        # consistency
        for p in range(n):
            if (p, p) in op and p != self.zero:
                raise LawViolation(f"{self.labels[p]} is orthogonal to itself")
        if op.get((self.zero, self.zero)) != self.zero:
            raise LawViolation("zero must satisfy 0 + 0 = 0")
        # order sanity
        if self.le[self.zero] != (1 << n) - 1 or not all(up >> self.one & 1 for up in self.le):
            raise LawViolation("order is not bounded by 0 and 1")

    # -- classification ----------------------------------------------------------

    def join(self, p: int, q: int) -> int | None:
        return _least(self.le[p] & self.le[q], self.le)

    def meet(self, p: int, q: int) -> int | None:
        return _least(self._below[p] & self._below[q], self._below)

    def is_omp(self) -> PredicateResult:
        """Orthogonal sums are joins (so the order is an orthomodular poset)."""
        le = self.le
        for (p, q), s in self.oplus.items():
            missed = le[p] & le[q] & ~le[s]  # upper bounds of p and q not above s
            if missed:
                return PredicateResult(False, (p, q, (missed & -missed).bit_length() - 1))
        return PredicateResult(True)

    def is_boolean(self) -> PredicateResult:
        """True when p -> {atoms <= p} maps the order onto the atoms' subsets (by the
        lemma, when n = 2^|atoms|; checked whole, as tables may skip the laws), else
        the full scan's first failing pair or triple."""
        omp = self.is_omp()
        if not omp:
            return omp
        n, up, down, atoms = len(self.reps), self.le, self._below, self.atoms()
        if n == 1 << len(atoms):
            code = [sum(1 << i for i, a in enumerate(atoms) if up[a] >> p & 1) for p in range(n)]
            if len(set(code)) == n and all(
                u.bit_count() == n >> c.bit_count() and all(code[q] & c == c for q in _ids(u))
                for u, c in zip(up, code)
            ):
                return omp
        joins = [[_least(up[p] & up[q], up) for q in range(n)] for p in range(n)]
        meets = [[_least(down[p] & down[q], down) for q in range(n)] for p in range(n)]
        for p, q in product(range(n), repeat=2):
            if joins[p][q] is None or meets[p][q] is None:
                return PredicateResult(False, (p, q))
        # distributivity: p ∧ (q ∨ r) = (p ∧ q) ∨ (p ∧ r), a row of r at a time
        for p, q in product(range(n), repeat=2):
            meet_p, join_pq = meets[p], joins[meets[p][q]]
            lhs = list(map(meet_p.__getitem__, joins[q]))
            rhs = list(map(join_pq.__getitem__, meet_p))
            if lhs != rhs:
                r = next(r for r in range(n) if lhs[r] != rhs[r])
                return PredicateResult(False, (p, q, r))
        return PredicateResult(True)

    def atoms(self) -> list[int]:
        down, zero = self._below, self.zero
        return [p for p in range(len(down)) if p != zero and down[p] & ~(1 << zero | 1 << p) == 0]


def _least(bounds: int, above: Sequence[int]) -> int | None:
    """The first element u of the mask ``bounds`` that ``above[u]`` covers whole."""
    for u in _ids(bounds):
        if bounds & ~above[u] == 0:
            return u
    return None


def build_logic(space_or_model, cap: int | None = None) -> Orthoalgebra:
    """Quotient the events of an algebraic test space by perspectivity."""
    space = space_or_model.space if isinstance(space_or_model, Model) else space_or_model
    verdict = space.algebraic(cap)
    if not verdict:
        a, b, c = verdict.witness
        raise NotAlgebraic(
            f"not algebraic: {space.labels_of(a)} ~ {space.labels_of(b)} oc "
            f"{space.labels_of(c)} but the transfer fails"
        )
    # Every split of a test into two disjoint events: checked before any event's
    # class is built.  The event caps cannot trip, since 2^max|t| <= E <=
    # sum 2^|t|, which algebraic has checked.
    check_cap("logic sum table", sum(3 ** m.bit_count() for m in space._test_masks), cap)
    # Classes are fibers of the complement-set map (valid because algebraic).
    key_to_class: dict[frozenset, int] = {}
    reps: list[frozenset] = []
    mask_class: dict[int, int] = {}
    for m in sorted(space._checked_event_masks(cap), key=mask_key):
        cls = key_to_class.setdefault(space._complement_set(m), len(reps))
        if cls == len(reps):
            reps.append(mask_event(m))  # the least event of its class, in this order
        mask_class[m] = cls
    # Partial sum: enumerate ordered disjoint event pairs inside each test.
    # Every orthogonal pair appears under the test containing its union, so
    # recording sums this way both builds the table and verifies that the sum
    # depends only on the classes.
    oplus: dict[tuple[int, int], int] = {}
    for t in space._test_masks:
        bits = [1 << x for x in _ids(t)]
        for split in product((0, 1, 2), repeat=len(bits)):
            a = sum(bit for bit, side in zip(bits, split) if side == 1)
            b = sum(bit for bit, side in zip(bits, split) if side == 2)
            pq = (mask_class[a], mask_class[b])
            s = mask_class[a | b]
            prior = oplus.get(pq)
            if prior is None:
                oplus[pq] = s
            elif prior != s:
                raise LawViolation(
                    f"sum of classes {pq} is ambiguous: {prior} vs {s}"
                )
    class_of = {mask_event(m): cls for m, cls in mask_class.items()}
    zero = mask_class[0]
    one = mask_class[space._test_masks[0]]
    labels = ["[" + ",".join(space.labels_of(r)) + "]" for r in reps]
    return Orthoalgebra(reps, class_of, oplus, zero, one, labels=labels)


# -- outcome-level atomicity ----------------------------------------------------


def atomic_outcomes(space: TestSpace) -> list[int]:
    """Outcomes perspective only to singleton events."""
    return [x for x in range(space.n_outcomes) if outcome_is_atomic(space, x)]


def outcome_is_atomic(space: TestSpace, x: int) -> bool:
    """Every event perspective to {x} is a singleton: each complement of each
    complement of {x}."""
    m = space._mask_of([x])
    if m is None:
        raise UnknownLabel(f"{x!r} is not an outcome id")
    return all(r.bit_count() == 1 for c in space._complement_masks(m) for r in space._complement_masks(c))


def is_totally_nonatomic(space: TestSpace) -> bool:
    return not atomic_outcomes(space)


# -- orthopartition test space of an abstract orthoalgebra -------------------------


def orthopartition_space(algebra: Orthoalgebra, cap: int | None = None) -> TestSpace:
    """Tests are the finite orthopartitions of the unit (sums equal to one)."""
    counter = CapCounter("orthopartitions", cap)
    n = len(algebra)
    nonzero = [p for p in range(n) if p != algebra.zero]
    tests: list[frozenset] = []

    def extend(start: int, chosen: tuple, total: int):
        counter.tick()
        if total == algebra.one and chosen:
            tests.append(frozenset(chosen))
        for q in range(start, n):
            if q == algebra.zero:
                continue
            s = algebra.oplus.get((total, q)) if chosen else q
            if s is not None:
                extend(q + 1, chosen + (q,), s)

    extend(0, (), algebra.zero)
    if {p for t in tests for p in t} != set(nonzero):
        raise LawViolation("some nonzero element lies in no orthopartition")
    return build_test_space(
        [[f"e{p}" for p in t] for t in tests], labels=[f"e{p}" for p in nonzero]
    )


def orthopartition_round_trip(algebra: Orthoalgebra, cap: int | None = None):
    """Rebuild the logic of the orthopartition space and the canonical map.

    Returns (space, logic, mapping) where mapping[p] is the class of the
    singleton {p}; raises LawViolation if it is not an isomorphism.
    """
    space = orthopartition_space(algebra, cap)
    logic = build_logic(space, cap)
    nonzero = sorted(p for p in range(len(algebra)) if p != algebra.zero)
    mapping = {algebra.zero: logic.zero}
    for i, p in enumerate(nonzero):
        mapping[p] = logic.class_of[frozenset([i])]
    if len(set(mapping.values())) != len(mapping) or len(mapping) != len(logic):
        raise LawViolation("orthopartition round trip is not a bijection")
    for (p, q), s in algebra.oplus.items():
        ms = logic.oplus.get((mapping[p], mapping[q]))
        if ms != mapping[s]:
            raise LawViolation("orthopartition round trip does not preserve sums")
    for (p, q) in product(range(len(algebra)), repeat=2):
        if (mapping[p], mapping[q]) in logic.oplus and (p, q) not in algebra.oplus:
            raise LawViolation("orthopartition round trip adds spurious sums")
    return space, logic, mapping


# -- transport along morphisms ---------------------------------------------------


class OrthoMap(Frozen):
    """Class-level map induced by a morphism between algebraic models."""

    __slots__ = ("source", "target", "table")

    def __call__(self, p: int) -> int:
        return self.table[p]


def induced_logic_map(
    phi: Morphism,
    source_logic: Orthoalgebra | None = None,
    target_logic: Orthoalgebra | None = None,
    cap: int | None = None,
) -> OrthoMap:
    """Transport classes along a morphism: [a] goes to [image of a].

    Both models must be algebraic.  Well-definedness is checked on every
    event, and preservation of orthogonality and partial sums on every
    defined pair.
    """
    src = source_logic if source_logic is not None else build_logic(phi.source.space, cap)
    dst = target_logic if target_logic is not None else build_logic(phi.target.space, cap)
    table: list[int | None] = [None] * len(src)
    for a, cls in src.class_of.items():
        img_cls = dst.class_of.get(phi.image(a))
        if img_cls is None:
            raise LawViolation("event image is not an event of the target")
        if table[cls] is None:
            table[cls] = img_cls
        elif table[cls] != img_cls:
            raise LawViolation(
                f"induced class map ill-defined on class {src.labels[cls]}"
            )
    for (p, q), s in src.oplus.items():
        fp, fq = table[p], table[q]
        if (fp, fq) not in dst.oplus:
            raise LawViolation("induced map does not preserve orthogonality")
        if dst.oplus[(fp, fq)] != table[s]:
            raise LawViolation("induced map does not preserve partial sums")
    return OrthoMap(src, dst, tuple(table))
