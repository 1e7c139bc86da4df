"""Orthoalgebra logics: quotient construction, order, classification, round trips."""

from functools import lru_cache
from itertools import product

import pytest

import frozenset_oracles as oracle
from logic_oracles import PairOrder
from orthokit.compounding import forward_product
from orthokit.errors import LawViolation, NotAlgebraic, UnknownLabel
from orthokit.corpus import corpus_models, enumerate_test_spaces, named
from orthokit import logic as logic_module
from orthokit.logic import (
    Orthoalgebra,
    atomic_outcomes,
    build_logic,
    induced_logic_map,
    is_totally_nonatomic,
    orthopartition_round_trip,
    orthopartition_space,
    outcome_is_atomic,
)
from orthokit.morphisms import identity_morphism, validate_morphism
from orthokit.quantum import classical_model
from orthokit.states import full_model
from orthokit.testspace import build_test_space


@pytest.fixture(scope="module")
def boolean8():
    return build_logic(named("classical-3").space)


@pytest.fixture(scope="module")
def four_element():
    return build_logic(build_test_space([["a", "b"]]))


class TestQuotient:
    def test_partition_model_is_boolean_cube(self, boolean8):
        assert len(boolean8) == 8
        assert boolean8.is_boolean()
        assert len(boolean8.atoms()) == 3

    def test_single_binary_test(self, four_element):
        assert len(four_element) == 4
        assert four_element.comp[four_element.zero] == four_element.one

    def test_loop_and_fine_events_identified(self):
        m = named("wright")
        logic = build_logic(m.space)
        xy = logic.class_of[m.space.event_of(["x", "y"])]
        q = logic.class_of[m.space.event_of(["q"])]
        assert xy == q
        assert len(logic) == 8

    def test_not_algebraic_refused(self):
        s = build_test_space([["a", "b", "c"], ["b", "c", "d"]])
        if not s.algebraic():
            with pytest.raises(NotAlgebraic):
                build_logic(s)

    def test_sum_well_defined_across_representatives(self):
        for space in enumerate_test_spaces(5, 2):
            if space.algebraic():
                build_logic(space)  # raises LawViolation on ambiguity

    def test_perspectivity_union_transfer(self):
        """a ~ b orthogonal to c forces a orthogonal to c with unions perspective."""
        for space in enumerate_test_spaces(5, 2):
            if not space.algebraic():
                continue
            events = space.events_list()
            for a in events:
                for b in events:
                    if not space.is_perspective(a, b):
                        continue
                    for c in events:
                        if space.events_orthogonal(b, c):
                            assert space.events_orthogonal(a, c)
                            assert space.is_perspective(a | c, b | c)


class TestOrder:
    def test_bounds(self, boolean8):
        for p in range(len(boolean8)):
            assert boolean8.leq(boolean8.zero, p)
            assert boolean8.leq(p, boolean8.one)

    def test_partial_order(self, boolean8):
        n = len(boolean8)
        for p in range(n):
            for q in range(n):
                if boolean8.leq(p, q) and boolean8.leq(q, p):
                    assert p == q
                for r in range(n):
                    if boolean8.leq(p, q) and boolean8.leq(q, r):
                        assert boolean8.leq(p, r)

    def test_boolean_order_is_union_inclusion(self, boolean8):
        space = named("classical-3").space
        cm = classical_model(3)
        for a, p in boolean8.class_of.items():
            for b, q in boolean8.class_of.items():
                ua = frozenset().union(*(cm.subsets[i] for i in a)) if a else frozenset()
                ub = frozenset().union(*(cm.subsets[i] for i in b)) if b else frozenset()
                assert boolean8.leq(p, q) == (ua <= ub)

    def test_complement_is_antitone(self, boolean8):
        n = len(boolean8)
        for p in range(n):
            for q in range(n):
                if boolean8.leq(p, q):
                    assert boolean8.leq(boolean8.comp[q], boolean8.comp[p])

    def test_orthogonality_via_order(self, boolean8):
        n = len(boolean8)
        for p in range(n):
            for q in range(n):
                assert boolean8.orthogonal(p, q) == boolean8.leq(p, boolean8.comp[q])


class TestClassification:
    def test_coherent_algebraic_gives_omp(self):
        for space in enumerate_test_spaces(5, 3):
            if space.algebraic() and space.coherent():
                assert build_logic(space).is_omp(), repr(space)

    def test_triangle_logic_not_omp(self):
        tri = named("triangle").space
        assert tri.algebraic()
        logic = build_logic(tri)
        verdict = logic.is_omp()
        assert not verdict

    def test_wright_logic_boolean(self):
        assert build_logic(named("wright").space).is_boolean()


class TestAtoms:
    def test_binary_test_outcomes_atomic(self):
        s = build_test_space([["a", "b"]])
        assert atomic_outcomes(s) == [0, 1]

    @pytest.mark.parametrize("x", [99, -1, "q"])
    def test_ids_that_are_not_outcomes_refused(self, x):
        with pytest.raises(UnknownLabel):
            outcome_is_atomic(named("wright").space, x)

    def test_loop_outcome_not_atomic(self):
        m = named("wright")
        assert not outcome_is_atomic(m.space, m.space.outcome("q"))
        assert outcome_is_atomic(m.space, m.space.outcome("x"))

    def test_compound_strings_not_atomic(self):
        from orthokit.compounding import truncated_compound

        tc = truncated_compound(full_model(build_test_space([["a", "b"]])), 2)
        short = [tc.id_of(s) for s in tc.strings if len(s) <= 1]
        for sid in short:
            assert not outcome_is_atomic(tc.model.space, sid)
        assert not is_totally_nonatomic(tc.model.space)  # depth-2 strings are atomic


class TestOrthopartitions:
    def test_four_element(self, four_element):
        space = orthopartition_space(four_element)
        assert len(space.tests) == 2  # {p, p'} and {1}

    def test_boolean_cube_partitions(self, boolean8):
        space = orthopartition_space(boolean8)
        assert len(space.tests) == 5

    def test_round_trips_on_corpus_logics(self):
        seen = 0
        for space in enumerate_test_spaces(4, 2):
            if not space.algebraic():
                continue
            logic = build_logic(space)
            if len(logic) > 16:
                continue
            orthopartition_round_trip(logic)
            seen += 1
        assert seen >= 5

    def test_round_trip_rejects_corruption(self, four_element):
        broken = dict(four_element.oplus)
        # make the two atoms non-summable: drop their sums
        atoms = four_element.atoms()
        for key in list(broken):
            if set(key) == set(atoms):
                del broken[key]
        with pytest.raises(LawViolation):
            Orthoalgebra(
                four_element.reps,
                four_element.class_of,
                broken,
                four_element.zero,
                four_element.one,
            )


class TestInducedMaps:
    def test_identity_is_identity(self):
        m = named("wright")
        logic = build_logic(m.space)
        out = induced_logic_map(identity_morphism(m), logic, logic)
        assert list(out.table) == list(range(len(logic)))

    def test_pullback_is_boolean_homomorphism(self):
        c2, c3 = classical_model(2), classical_model(3)
        fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
        mapping = []
        for s in c2.subsets:
            preimage = frozenset().union(*(fibers[p] for p in s))
            mapping.append(c3.subset_id[preimage])
        phi = validate_morphism(c2.model, c3.model, tuple(mapping))
        out = induced_logic_map(phi)
        src, dst = out.source, out.target
        assert out(src.zero) == dst.zero
        assert out(src.one) == dst.one
        for p in range(len(src)):
            assert out(src.comp[p]) == dst.comp[out(p)]

    def test_functoriality(self):
        m = named("wright")
        logic = build_logic(m.space)
        ident = identity_morphism(m)
        from orthokit.morphisms import compose

        one = induced_logic_map(ident, logic, logic)
        two = induced_logic_map(compose(ident, ident), logic, logic)
        assert one.table == two.table


def test_order_map_into_closure_lattice():
    """On regular algebraic spaces, closures order-embed the logic order."""
    for space in enumerate_test_spaces(5, 2):
        if not (space.regular() and space.algebraic()):
            continue
        logic = build_logic(space)
        for a, p in logic.class_of.items():
            for b, q in logic.class_of.items():
                if logic.leq(p, q):
                    ca = space.orthocomplement(space.orthocomplement(a))
                    cb = space.orthocomplement(space.orthocomplement(b))
                    assert ca <= cb


# -- the frozenset oracle ----------------------------------------------------------

# Forward squares of the corpus whose sum table (sum of 3^|t|) is at most this;
# the 17 such squares build their logics in about 3 s, most of it law validation.
SQUARE_BUDGET = 30_000
# Algebraic but not regular, so some perspective events have different
# orthocomplements: classes keyed by orthocomplement would split them.
# None of the other inputs is such a space.
NOT_REGULAR = (
    [["0", "1", "2", "4"], ["0", "1", "5", "6"], ["0", "3", "6"], ["2", "5", "7"]],
    [["0", "3", "6"], ["0", "4", "5"], ["1", "3", "4"], ["2", "5", "6"], ["6", "7"]],
)


@lru_cache(maxsize=None)
def oracle_spaces():
    """The corpus, the (5, 2) enumeration, the corpus forward squares within
    budget and the spaces of ``NOT_REGULAR``."""
    squares = [forward_product(m, m, 100_000).model.space for m in corpus_models()]
    return [
        *(m.space for m in corpus_models()),
        *enumerate_test_spaces(5, 2),
        *(s for s in squares if sum(3 ** len(t) for t in s.tests) <= SQUARE_BUDGET),
        *map(build_test_space, NOT_REGULAR),
    ]


@lru_cache(maxsize=None)
def oracle_logics():
    """(space, logic) for each algebraic space of ``oracle_spaces``."""
    return [(s, build_logic(s)) for s in oracle_spaces() if s.algebraic()]


def test_logics_match_oracle():
    """Classes, representatives and sums, each in order, as the frozenset oracle."""
    built = 0
    for space, got in oracle_logics():
        reps, class_of, oplus = oracle.logic(space)
        assert got.reps == tuple(reps), repr(space)
        assert list(got.class_of.items()) == list(class_of.items()), repr(space)
        assert list(got.oplus.items()) == list(oplus.items()), repr(space)
        built += 1
    assert built == 99
    assert not any(s.regular() for s in oracle_spaces()[-len(NOT_REGULAR):])


def test_atomic_outcomes_match_oracle():
    for space in oracle_spaces():
        want = [x for x in range(space.n_outcomes) if oracle.outcome_is_atomic(space, x)]
        assert atomic_outcomes(space) == want, repr(space)


def full_scan_laws(alg):
    """``Orthoalgebra._validate_laws`` with associativity scanning every r for
    each defined (p, q), not only the r with (p + q) + r defined."""
    n, op = len(alg.reps), alg.oplus
    for (p, q), s in op.items():
        if op.get((q, p)) != s:
            raise LawViolation("partial sum is not commutative")
    for p in range(n):
        for q in range(n):
            s = op.get((p, q))
            if s is None:
                continue
            for r in range(n):
                sr = op.get((s, r))
                if sr is None:
                    continue
                qr = op.get((q, r))
                if qr is None or op.get((p, qr)) != sr:
                    raise LawViolation(
                        f"associativity fails at {alg.labels[p]},{alg.labels[q]},{alg.labels[r]}"
                    )
    for p in range(n):
        if (p, p) in op and p != alg.zero:
            raise LawViolation(f"{alg.labels[p]} is orthogonal to itself")
    if op.get((alg.zero, alg.zero)) != alg.zero:
        raise LawViolation("zero must satisfy 0 + 0 = 0")
    for p in range(n):
        if not alg.leq(alg.zero, p) or not alg.leq(p, alg.one):
            raise LawViolation("order is not bounded by 0 and 1")


def unchecked(n, oplus, zero=0, one=None):
    """An ``Orthoalgebra`` on ids 0..n-1 built without running its checks."""
    alg = Orthoalgebra.__new__(Orthoalgebra)
    alg.reps, alg.labels = tuple(range(n)), tuple(map(str, range(n)))
    alg.oplus, alg.zero, alg.one = dict(oplus), zero, n - 1 if one is None else one
    alg.le = alg._order()
    return alg


def law_outcome(check, alg):
    try:
        check(alg)
    except LawViolation as exc:
        return str(exc)
    return "ok"


def test_law_check_matches_full_scan_on_logics():
    logics = [logic for _, logic in oracle_logics()]
    assert len(logics) == 99
    for logic in logics:
        assert law_outcome(Orthoalgebra._validate_laws, logic) == "ok"
        assert law_outcome(full_scan_laws, logic) == "ok"


def test_associativity_fails_at_the_known_triple():
    """0 is zero and 4 is one; 1 + 2 = 3 and 3 + 1 = 4, but 1 + 1 is undefined.

    The first (p, q) in order with some r failing is (2, 1): (2 + 1) + 1 = 4
    needs 1 + 1.  (1, 2) comes earlier and passes, as 1 + (2 + 1) = 4."""
    oplus = {(0, x): x for x in range(5)} | {(x, 0): x for x in range(5)}
    oplus |= {(1, 2): 3, (2, 1): 3, (1, 3): 4, (3, 1): 4}
    alg = unchecked(5, oplus)
    want = "associativity fails at 2,1,1"
    assert law_outcome(Orthoalgebra._validate_laws, alg) == want
    assert law_outcome(full_scan_laws, alg) == want


def test_corrupted_sum_tables_fail_like_the_full_scan(boolean8):
    """Each commuting pair of entries of the Boolean cube's table dropped, or sent
    to each other element: the first violation and its message agree, and so do
    the order answers of the pair-set oracle.  Such an order need not be
    antisymmetric, so a join or meet can have several candidates, and the first
    is taken."""
    n, table = len(boolean8), boolean8.oplus
    seen, witnesses = set(), set()
    for p, q in sorted(table):
        if p > q:
            continue
        for value in [None, *range(n)]:
            oplus = {k: v for k, v in table.items() if k not in {(p, q), (q, p)}}
            if value is not None:
                oplus[(p, q)] = oplus[(q, p)] = value
            alg = unchecked(n, oplus, boolean8.zero, boolean8.one)
            got = law_outcome(Orthoalgebra._validate_laws, alg)
            assert got == law_outcome(full_scan_laws, alg), (p, q, value)
            seen.add(got.split(" at ")[0])
            order = assert_order_matches(alg)
            witnesses.add((order[3][1] is None, order[4][1] is None))
    assert {"ok", "associativity fails"} <= seen
    assert witnesses == {(True, True), (True, False), (False, False)}


# -- the pair-set order oracle --------------------------------------------------------


def order_answers(order, n):
    """``leq`` on every pair, ``join`` and ``meet`` of every pair, the omp and
    Boolean verdicts with their witnesses, and the atoms."""
    pairs = list(product(range(n), repeat=2))
    omp, boolean = order.is_omp(), order.is_boolean()
    return (
        [order.leq(p, q) for p, q in pairs],
        [order.join(p, q) for p, q in pairs],
        [order.meet(p, q) for p, q in pairs],
        (omp.holds, omp.witness),
        (boolean.holds, boolean.witness),
        order.atoms(),
    )


def assert_order_matches(alg):
    got = order_answers(alg, len(alg))
    assert got == order_answers(PairOrder(alg), len(alg)), alg.labels
    return got


# Most elements of a logic on which every answer is compared: the oracle's
# joins take time quartic in the size.  Larger logics compare ``leq`` and
# ``is_omp`` only.
ORDER_ELEMENTS = 100


def test_order_matches_pair_oracle_on_logics():
    """The 99 logics of ``oracle_logics``, the corpus's among them."""
    verdicts, large = [], 0
    for _, logic in oracle_logics():
        n = len(logic)
        if n <= ORDER_ELEMENTS:
            verdicts.append(assert_order_matches(logic)[4][0])
            continue
        pairs, oracle_order = list(product(range(n), repeat=2)), PairOrder(logic)
        assert [logic.leq(*pair) for pair in pairs] == [oracle_order.leq(*pair) for pair in pairs]
        got, want = logic.is_omp(), oracle_order.is_omp()
        assert (got.holds, got.witness) == (want.holds, want.witness)
        large += 1
    assert (len(verdicts), large) == (96, 3) and 0 < sum(verdicts) < 96


# ``is_boolean`` on the logics over ``ORDER_ELEMENTS``, by size, as the full scan
# gave it: the verdict and witness.
LARGE_BOOLEAN_VERDICTS = {188: (False, (1, 17, 25)), 512: (True, None), 518: (False, (2, 5, 8))}


def test_large_logics_decide_booleanness_by_their_atoms(monkeypatch):
    """The Boolean logic is decided by its atom count, with no join or meet
    built; the others keep the full scan's first failing triple."""
    least_calls = []
    real_least = logic_module._least
    monkeypatch.setattr(
        logic_module, "_least", lambda *args: least_calls.append(1) or real_least(*args)
    )
    got = {}
    for _, logic in oracle_logics():
        if len(logic) > ORDER_ELEMENTS:
            least_calls.clear()
            verdict = logic.is_boolean()
            got[len(logic)] = (verdict.holds, verdict.witness)
            assert bool(least_calls) != verdict.holds
    assert got == LARGE_BOOLEAN_VERDICTS


def test_order_matches_pair_oracle_on_orthopartition_algebras():
    """The logic of the orthopartition space of each logic of at most 16 elements."""
    seen = 0
    for _, logic in oracle_logics():
        if len(logic) <= 16:
            _, rebuilt, _ = orthopartition_round_trip(logic)
            assert_order_matches(rebuilt)
            seen += 1
    assert seen >= 40
