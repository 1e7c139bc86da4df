"""Combinatorial core: events, orthogonality, perspectivity, predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from orthokit.errors import (
    EmptyTest,
    EnumerationCapExceeded,
    LabelCollision,
    RedundantTests,
    UncoveredOutcome,
    UnknownLabel,
)
from orthokit.corpus import enumerate_test_spaces, named
from orthokit import testspace
from orthokit.testspace import _ids, build_test_space, event_key, mask_key


@pytest.fixture(scope="module")
def wright():
    return build_test_space([["x", "y", "z"], ["q", "z"]])


@pytest.fixture(scope="module")
def triangle():
    return build_test_space([["a", "x", "b"], ["b", "y", "c"], ["c", "z", "a"]])


def ev(space, *labels):
    return space.event_of(labels)


class TestConstruction:
    def test_two_test_space(self, wright):
        assert set(wright.labels) == {"x", "y", "z", "q"}
        assert len(wright.tests) == 2

    def test_single_test(self):
        s = build_test_space([["a"]])
        assert s.labels == ("a",)
        assert s.tests == (frozenset([0]),)

    def test_redundant_tests_rejected(self):
        with pytest.raises(RedundantTests):
            build_test_space([["a", "b"], ["a"]])

    def test_empty_test_rejected(self):
        with pytest.raises(EmptyTest):
            build_test_space([["a"], []])
        with pytest.raises(EmptyTest):
            build_test_space([])

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownLabel):
            build_test_space([["a", "b"]], labels=["a"])

    def test_uncovered_outcome_rejected(self):
        with pytest.raises(UncoveredOutcome):
            build_test_space([["a"]], labels=["a", "b"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelCollision):
            build_test_space([["a"]], labels=["a", "a"])

    @pytest.mark.parametrize(
        "tests, labels, error",
        [
            ([["a", "q"], [], ["a"]], ["a", "a", "b"], LabelCollision),
            ([["a", "z"], []], ["a"], UnknownLabel),
            ([[], ["a", "z"]], ["a"], UnknownLabel),
            ([["a", "b"], []], ["a", "b", "c"], EmptyTest),
            ([["a", "b"], ["a"]], ["a", "b", "c"], RedundantTests),
        ],
    )
    def test_check_order_on_doubly_malformed_input(self, tests, labels, error):
        """Each input breaks two or more checks; the first in the documented order wins."""
        with pytest.raises(error):
            build_test_space(tests, labels=labels)

    def test_duplicate_tests_are_merged(self):
        s = build_test_space([["a", "b"], ["b", "a"]])
        assert len(s.tests) == 1


class TestOrthogonality:
    def test_within_test(self, wright):
        assert wright.orthogonal(wright.outcome("x"), wright.outcome("y"))

    def test_irreflexive(self, wright):
        for x in range(wright.n_outcomes):
            assert not wright.orthogonal(x, x)

    def test_across_tests_via_shared(self, triangle):
        # a and c never share a test position with each other? They do:
        # the third test contains both.
        assert triangle.orthogonal(triangle.outcome("a"), triangle.outcome("c"))

    def test_no_common_test(self, wright):
        assert not wright.orthogonal(wright.outcome("x"), wright.outcome("q"))


class TestEvents:
    def test_single_test_power_set(self):
        s = build_test_space([["a", "b"]])
        assert len(s.events_list()) == 4
        assert frozenset() in s.events_list()

    def test_two_test_count(self, wright):
        # subsets of a 3-test and a 2-test, minus the shared empty event
        # and the shared singleton {z}
        assert len(wright.events_list()) == 10

    def test_cap(self):
        s = build_test_space([[f"o{i}" for i in range(20)]])
        with pytest.raises(EnumerationCapExceeded) as err:
            list(s.events(cap=1000))
        assert (err.value.what, err.value.bound, err.value.cap) == ("events", 2**20, 1000)
        assert str(err.value) == "events: needs ≥ 1048576, enumeration exceeds cap 1000"

    def test_cached_list_still_honours_cap(self, wright):
        assert len(wright.events_list(cap=10)) == 10
        with pytest.raises(EnumerationCapExceeded) as err:
            wright.events_list(cap=9)
        assert err.value.bound == 10
        assert wright.events_list(cap=None) is wright.events_list(cap=10)

    def test_orthogonal_events(self, wright):
        assert wright.events_orthogonal(ev(wright, "x"), ev(wright, "y"))
        assert not wright.events_orthogonal(ev(wright, "x"), ev(wright, "q"))
        assert wright.events_orthogonal(ev(wright, "x"), frozenset())

    def test_complementary(self, wright):
        assert wright.complementary(ev(wright, "x", "y"), ev(wright, "z"))
        assert wright.complementary(ev(wright, "q"), ev(wright, "z"))
        assert not wright.complementary(ev(wright, "x"), ev(wright, "y"))


class TestIdsOutsideTheSpace:
    """An id that is not an outcome makes a non-event, whatever the id (ids
    index per-outcome tables): the event queries answer for a non-event, and
    ``orthocomplement``, which has no answer there, refuses it."""

    @pytest.mark.parametrize("bad", [4, 5, 64, -1, -4, "q", 1.5])
    def test_queries_on_a_non_outcome(self, wright, bad):
        for a in ([bad], [0, bad], [3, bad]):
            assert not wright.is_event(a)
            assert wright.complements(a) == ()
            assert wright.perspective(a, ev(wright, "z")) is None
            assert wright.perspective(ev(wright, "q"), a) is None
            assert not wright.is_perspective(a, a)
            with pytest.raises(UnknownLabel):
                wright.orthocomplement(a)

    @pytest.mark.parametrize("x, y", [(-1, 1), (5, 1), (1, 5), (1, -1), (3, 3)])
    def test_orthogonal_refuses_a_non_outcome_either_side(self, x, y):
        # outcome ids are 0, 1, 2: -1 must not index the last one, 5 nothing at all
        space = build_test_space([["a", "b"], ["b", "c"]])
        assert space.orthogonal(2, 1)
        assert not space.orthogonal(x, y)

    def test_empty_event(self, wright):
        assert wright.is_event(frozenset())
        assert wright.is_event([])
        assert wright.complements(frozenset()) == wright.tests


class TestPerspectivity:
    def test_loop_and_fine_event(self, wright):
        axis = wright.perspective(ev(wright, "x", "y"), ev(wright, "q"))
        assert axis == ev(wright, "z")

    def test_tests_share_empty_axis(self, wright):
        assert wright.perspective(wright.tests[0], wright.tests[1]) == frozenset()

    def test_singletons_not_perspective(self, wright):
        assert wright.perspective(ev(wright, "x"), ev(wright, "q")) is None

    def test_least_axis_is_deterministic(self, wright):
        a = ev(wright, "x", "y")
        axes = [c for c in wright.complements(a) if c in set(wright.complements(ev(wright, "q")))]
        assert wright.perspective(a, ev(wright, "q")) == min(axes, key=event_key)

    def test_contained_perspective_events_are_equal(self):
        for space in enumerate_test_spaces(5, 3):
            for a in space.events_list():
                for c in space.complements(a):
                    for b in space.events_list():
                        if a < b and space.complementary(b, c):
                            pytest.fail(f"{a} < {b} share complement {c} in {space!r}")

    def test_event_perspective_to_test_is_test(self):
        for space in enumerate_test_spaces(5, 3):
            for t in space.tests:
                for a in space.events_list():
                    if space.is_perspective(a, t):
                        assert a in space.test_set


class TestPredicates:
    def test_wright_flags(self, wright):
        assert wright.algebraic()
        assert wright.coherent()
        assert wright.regular()
        assert wright.projective()

    def test_triangle_not_coherent(self, triangle):
        verdict = triangle.coherent()
        assert not verdict
        a, b = verdict.witness
        assert a <= triangle.orthocomplement(b)
        assert not triangle.events_orthogonal(a, b)

    def test_triangle_algebraic(self, triangle):
        assert triangle.algebraic()

    def test_partition_space_flags(self):
        km = named("classical-3").space
        assert km.algebraic() and km.coherent() and km.regular() and km.projective()

    def test_single_test_algebraic(self):
        assert build_test_space([["a", "b", "c"]]).algebraic()

    def test_algebraic_witness_shape(self):
        # A space where perspectivity fails to transfer complements: two
        # tests overlapping in two points.
        s = build_test_space([["a", "b", "c"], ["b", "c", "d"]])
        verdict = s.algebraic()
        if not verdict:
            a, b, c = verdict.witness
            assert s.is_perspective(a, b)
            assert s.complementary(b, c)
            assert not s.complementary(a, c)

    def test_bounds_fail_before_enumeration(self):
        # 10 events: the coherence scan needs 100 pairs, the complement
        # buckets 2^3 + 2^2 = 12 subsets
        wright = build_test_space([["x", "y", "z"], ["q", "z"]])
        with pytest.raises(EnumerationCapExceeded) as err:
            wright.coherent(cap=99)
        assert (err.value.what, err.value.bound) == ("coherence pairs", 100)
        assert wright._event_masks is None  # stopped at isqrt(99) + 1 = 10 events
        assert wright.coherent(cap=100)
        with pytest.raises(EnumerationCapExceeded) as err:
            wright.coherent(cap=81)
        assert err.value.bound == 100  # (isqrt(81) + 1)^2, from the cached list
        for name in ("algebraic", "regular"):
            with pytest.raises(EnumerationCapExceeded) as err:
                getattr(wright, name)(cap=11)
            assert (err.value.what, err.value.bound) == ("complement buckets", 12)
        assert wright.algebraic(cap=12) and wright.regular(cap=12)

    def test_coherent_regular_iff_algebraic_on_corpus(self):
        for space in enumerate_test_spaces(6, 3):
            if space.coherent():
                assert bool(space.regular()) == bool(space.algebraic()), repr(space)


class TestOrthoClosure:
    def test_singleton_complement(self, wright):
        assert wright.orthocomplement(ev(wright, "x")) == ev(wright, "y", "z")

    def test_empty_set(self, wright):
        assert wright.orthocomplement(frozenset()) == frozenset(range(4))

    def test_lattice_laws(self, wright):
        lat = wright.closed_set_lattice()
        full = frozenset(range(wright.n_outcomes))
        assert full in lat
        for a in lat.elements:
            assert lat.closure(a) == a
            assert lat.ortho(lat.ortho(a)) == a
            for b in lat.elements:
                assert lat.meet(a, b) in lat
                assert lat.join(a, b) in lat
                # De Morgan
                assert lat.ortho(lat.join(a, b)) == lat.meet(lat.ortho(a), lat.ortho(b))

    def test_lattice_on_corpus(self):
        for space in enumerate_test_spaces(4, 3):
            lat = space.closed_set_lattice()
            for a in lat.elements:
                assert lat.ortho(lat.ortho(a)) == a


class TestSupportsCoreAdjoin:
    def test_whole_space_is_support(self, wright):
        assert wright.is_support(frozenset(range(wright.n_outcomes)))

    def test_wright_subset_support(self, wright):
        assert wright.is_support(ev(wright, "x", "y", "q"))

    def test_non_support(self, wright):
        # traces {x,y} and {x,y,q}-free: removing z leaves {q} vs {x,y}:
        # fine; removing y and q leaves traces {x,z} vs {z}: nested.
        assert not wright.is_support(ev(wright, "x", "z"))

    def test_state_supports(self, wright):
        from orthokit.states import full_model

        m = full_model(wright)
        for w in m.state_vertices():
            support = frozenset(x for x in range(4) if w[x] > 0)
            assert wright.is_support(support)

    def test_core(self, wright):
        assert wright.core() == ev(wright, "z")
        assert build_test_space([["a", "b"]]).core() == frozenset([0, 1])
        assert named("classical-2").space.core() == frozenset()

    def test_adjoin_unit_test(self, wright):
        bigger = wright.adjoin_unit_test("e")
        assert len(bigger.tests) == 3
        assert frozenset([bigger.outcome("e")]) in bigger.test_set
        with pytest.raises(LabelCollision):
            bigger.adjoin_unit_test("e")

    def test_restrict_to_support(self, wright):
        sub, remap = wright.restrict_to_support(ev(wright, "x", "y", "q"))
        assert set(sub.labels) == {"x", "y", "q"}
        assert len(sub.tests) == 2


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    spaces = list(enumerate_test_spaces(n, k))
    return spaces[draw(st.integers(min_value=0, max_value=len(spaces) - 1))]


@given(small_spaces())
@settings(max_examples=60, deadline=None)
def test_orthogonality_symmetric_irreflexive(space):
    n = space.n_outcomes
    for x in range(n):
        assert not space.orthogonal(x, x)
        for y in range(n):
            assert space.orthogonal(x, y) == space.orthogonal(y, x)
            assert space.orthogonal(x, y) == (x != y and any({x, y} <= t for t in space.tests))


@given(small_spaces())
@settings(max_examples=40, deadline=None)
def test_double_orthocomplement_is_closure(space):
    for a in space.events_list():
        closed = space.orthocomplement(space.orthocomplement(a))
        assert a <= closed
        assert space.orthocomplement(closed) == space.orthocomplement(a)


# -- id-sequence order on masks --------------------------------------------------


@st.composite
def mask_families(draw):
    """Masks over up to 1,200 bits: sparse ones, the empty one, and nested pairs."""
    width = draw(st.integers(min_value=1, max_value=1200))
    bits = st.integers(min_value=0, max_value=width - 1)
    sparse = st.sets(bits, max_size=6).map(lambda xs: sum(1 << x for x in xs))
    masks = draw(st.lists(sparse, min_size=1, max_size=12))
    masks += [m | 1 << draw(bits) for m in masks[: draw(st.integers(0, 3))]]  # supersets
    masks += [m & ~(m & -m) for m in masks[: draw(st.integers(0, 3))]]  # subsets, 0 included
    masks += [draw(st.integers(min_value=0, max_value=(1 << width) - 1))]
    return width, list(set(masks))


@given(mask_families())
@settings(max_examples=300, deadline=None)
def test_mask_key_orders_like_id_sequences(family):
    _, masks = family
    assert sorted(masks, key=mask_key) == sorted(masks, key=_ids)


@given(mask_families())
@settings(max_examples=300, deadline=None)
def test_test_order_is_id_sequence_order_on_antichains(family):
    width, masks = family
    antichain = [m for m in masks if m and not any(m & o == m for o in masks if o != m)]
    space = testspace.TestSpace([str(x) for x in range(width)], antichain)
    assert list(space._test_masks) == sorted(antichain, key=_ids)
