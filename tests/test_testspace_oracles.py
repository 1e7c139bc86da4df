"""The bitmask predicates agree with the frozenset oracles in ``frozenset_oracles``.

For every input the two sides must give the same verdict, the same witness
and the same raise-or-not at the caps that sit on each side of the bounds:
E^2 - 1 and E^2 (the coherence pair bound, E the number of events) and
sum(2^|t|) - 1 (the complement-bucket bound).  ``events_list`` is compared at
E - 1, E and 2^max|t| - 1.  Inputs are the whole corpus, the depth-2
compounds and forward squares of the corpus whose oracle run stays under
the work budgets below, and random small spaces.  ``regular`` and
``algebraic`` decide one complement bucket per intersection of two tests,
so they are also compared on stars (every test meets every other in one
outcome), on a bucket whose third event is the first to differ, on depth-2
compounds whose first failing bucket is the empty one, and on the heavier
compounds and squares up to ``BUILD_CAP``.  ``_is_antichain`` must
return the oracle's (small, large) pair on test families, their traces on
outcome subsets, and random set families.  The canonical test order must be
the one the formatted, reversed and parsed string key gives, on the corpus
coarsenings, double coarsenings and depth-2 compounds and on random
antichains of up to 80 outcomes.  ``is_support`` must agree with
the perspectivity criterion of the oracles.  ``is_event``, ``complements``,
``perspective`` and ``orthocomplement`` must answer as the oracles on every
event and every event plus one outcome of each corpus space, its coarsening
and its depth-1 compound, and on random spaces and random id sets.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import frozenset_oracles as oracle
from orthokit.coarsening import coarsen
from orthokit.compounding import forward_product, truncated_compound
from orthokit.corpus import corpus_models, enumerate_test_spaces
from orthokit.errors import EnumerationCapExceeded, UnknownLabel
from orthokit.states import full_model
from orthokit import testspace

PREDICATES = ("algebraic", "regular", "coherent")
# Work budgets for the frozenset oracles on constructed spaces: the
# complement-bucket pass (sum of 2^|t|) and the coherence pair scan (E^2).
INDEX_BUDGET = 20_000
PAIR_BUDGET = 1_000_000
BUILD_CAP = 100_000


def outcome(call, cap):
    try:
        got = call(cap)
        return (got.holds, got.witness) if hasattr(got, "holds") else list(got)
    except EnumerationCapExceeded:
        return "cap exceeded"


def bounds(space):
    n_events = len(list(oracle.events(space, 10**12)))
    index = sum(2 ** len(t) for t in space.tests)
    return n_events, index


def predicate_caps(n_events, index):
    return (n_events**2 - 1, n_events**2, index - 1)


def oracle_outcomes(space, name, caps):
    """The oracle at each cap, ascending.

    The oracle raises only when a count exceeds the cap and otherwise does
    not read it, so once it answers at one cap it answers the same at every
    larger cap; that saves repeating a full run.
    """
    fn = getattr(oracle, name)
    out, answer = {}, None
    for cap in sorted(set(caps)):
        if answer is None:
            got = outcome(lambda c: fn(space, c), cap)
            if got != "cap exceeded":
                answer = got
            out[cap] = got
        else:
            out[cap] = answer
    return out


def assert_agrees(space, name, caps):
    want = oracle_outcomes(space, name, caps)
    # a fresh copy sees ascending caps (uncached, then cached), then the same
    # copy sees them descending, so a cached result must still raise
    fresh = testspace.TestSpace(space.labels, space._test_masks)
    method = getattr(fresh, name if name != "events" else "events_list")
    for cap in sorted(want) + sorted(want, reverse=True):
        assert outcome(method, cap) == want[cap], (repr(space), name, cap)


def check_space(space, predicates=PREDICATES):
    n_events, index = bounds(space)
    top = 2 ** max(len(t) for t in space.tests)
    assert_agrees(space, "events", (n_events - 1, n_events, top - 1))
    for name in predicates:
        assert_agrees(space, name, predicate_caps(n_events, index))


CORPUS = list(enumerate_test_spaces(6, 3))


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_space_matches_oracle(index):
    check_space(CORPUS[index])


@lru_cache(maxsize=None)
def built_spaces():
    """Depth-2 compounds and forward squares of the corpus, with their index bounds."""
    out = []
    for model in corpus_models(6, 3):
        for built in (truncated_compound(model, 2, BUILD_CAP), forward_product(model, model, BUILD_CAP)):
            space = built.model.space
            out.append((space, sum(2 ** len(t) for t in space.tests)))
    return out


def constructed_spaces():
    """The built spaces within the index budget."""
    return [space for space, index in built_spaces() if index <= INDEX_BUDGET]


def test_constructed_spaces_match_oracle():
    checked = {name: 0 for name in PREDICATES}
    for space in constructed_spaces():
        n_events, _ = bounds(space)
        names = [n for n in PREDICATES if n != "coherent" or n_events**2 <= PAIR_BUDGET]
        check_space(space, names)
        for n in names:
            checked[n] += 1
    assert len(constructed_spaces()) >= 70
    assert checked["coherent"] >= 25


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_constructed_spaces_any_cap(data):
    """Raise-or-not and the answer agree at arbitrary caps, not just at the bounds."""
    space = data.draw(st.sampled_from(constructed_spaces()))
    n_events, index = bounds(space)
    names = [n for n in PREDICATES if n != "coherent" or n_events <= 400]
    name = data.draw(st.sampled_from(names))
    top = n_events**2 if name == "coherent" else index
    cap = data.draw(st.integers(min_value=0, max_value=top + 2))
    assert_agrees(space, name, (cap,))


def test_heavier_constructed_spaces_match_oracle():
    """``regular`` and ``algebraic`` on the built spaces over the index budget
    and within ``BUILD_CAP``, at caps index - 1 and index."""
    heavy = [(s, index) for s, index in built_spaces() if INDEX_BUDGET < index <= BUILD_CAP]
    for space, index in heavy:
        for name in ("regular", "algebraic"):
            assert_agrees(space, name, (index - 1, index))
    assert len(heavy) >= 20


def star_space(arms, width, chord):
    """Tests {c} ∪ arm over disjoint arms of ``width`` outcomes; with ``chord``
    one more test joins the first outcomes of the first two arms."""
    tests = [["c"] + [f"x{i}.{j}" for j in range(width)] for i in range(arms)]
    if chord:
        tests.append(["x0.0", "x1.0"])
    return testspace.build_test_space(tests)


@pytest.mark.parametrize("chord", [False, True])
@pytest.mark.parametrize("arms, width", [(2, 1), (3, 2), (60, 3), (200, 1)])
def test_star_matches_oracle(arms, width, chord):
    """One intersection holds every test: regular and algebraic without a
    chord, neither with one."""
    space = star_space(arms, width, chord)
    check_space(space, ("regular", "algebraic"))
    assert bool(space.regular()) == bool(space.algebraic()) == (not chord)


def test_third_event_of_a_bucket_matches_oracle():
    """Tests {a, d}, {b, d}, {d, e}, {c, e}: the bucket of {d} holds {a}, {b}
    and {e}, and only the third has another orthocomplement."""
    space = testspace.build_test_space([["a", "d"], ["b", "d"], ["d", "e"], ["c", "e"]])
    check_space(space)
    assert space.regular().witness == (frozenset({0}), frozenset({4}))


def test_empty_bucket_witness_matches_oracle():
    """A depth-2 compound's unit test is disjoint from every other test, so its
    first failing bucket can be the empty one: regular's witness is two tests."""
    found = 0
    for space, index in built_spaces():
        if index > BUILD_CAP:
            continue
        witness = space.regular(index).witness
        if witness and all(e in space.test_set for e in witness):
            assert_agrees(space, "regular", (index - 1, index))
            found += 1
    assert found >= 6
    model = list(corpus_models(6, 3))[7]
    space = truncated_compound(model, 2, BUILD_CAP).model.space
    assert space.regular().witness == (frozenset({0}), frozenset({1, 2}))


@st.composite
def random_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=5)
    )
    family = [m for m in set(masks) if not any(m != o and m & o == m for o in masks)]
    used = sorted({x for m in family for x in range(n) if m >> x & 1})
    new_id = {x: i for i, x in enumerate(used)}
    tests = [[f"o{new_id[x]}" for x in range(n) if m >> x & 1] for m in family]
    return testspace.build_test_space(tests, labels=[f"o{i}" for i in range(len(used))])


@given(random_spaces())
@settings(max_examples=150, deadline=None)
def test_random_space_matches_oracle(space):
    check_space(space)


@given(random_spaces(), st.integers(min_value=0, max_value=300))
@settings(max_examples=150, deadline=None)
def test_random_space_any_cap(space, cap):
    for name in ("events",) + PREDICATES:
        assert_agrees(space, name, (cap,))


# -- the antichain scan -------------------------------------------------------------


def trace_families(space):
    """The test family itself, then the traces {t & S} for every outcome subset S."""
    yield space.tests
    n = space.n_outcomes
    for m in range(1 << n):
        s = frozenset(x for x in range(n) if m >> x & 1)
        yield [t & s for t in space.tests]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_antichain_matches_oracle(index):
    for family in trace_families(CORPUS[index]):
        assert testspace._is_antichain(family) == oracle.is_antichain(family)


def test_constructed_antichain_matches_oracle():
    violations = 0
    for space in constructed_spaces():
        tests = space.tests
        half = frozenset(range(0, space.n_outcomes, 2))
        for family in (tests, [t & half for t in tests], tests + (tests[-1] & half,)):
            want = oracle.is_antichain(family)
            assert testspace._is_antichain(family) == want, repr(space)
            violations += want is not None
    assert violations >= len(constructed_spaces())


@given(
    st.lists(
        st.frozensets(st.integers(min_value=0, max_value=7), max_size=6), max_size=12
    )
)
@settings(max_examples=300, deadline=None)
def test_random_family_antichain_matches_oracle(family):
    assert testspace._is_antichain(family) == oracle.is_antichain(family)


# -- canonical test order ---------------------------------------------------------


def string_key_order(masks, n):
    """Test masks in lemma 2's order by the string key: each mask formatted to
    n binary digits, reversed and parsed, descending."""
    width = f"0{n}b"
    return tuple(sorted(masks, key=lambda m: int(format(m, width)[::-1], 2), reverse=True))


def test_constructed_test_order_matches_the_string_key():
    """Corpus coarsenings, their double coarsenings and depth-2 compounds."""
    spaces = []
    for model in corpus_models(6, 3):
        coarse = coarsen(model)
        spaces += [
            coarse.model.space,
            coarsen(coarse.model).model.space,
            truncated_compound(model, 2, BUILD_CAP).model.space,
        ]
    assert len(spaces) == 336
    assert max(space.n_outcomes for space in spaces) == 876
    for space in spaces:
        assert space._test_masks == string_key_order(space._test_masks, space.n_outcomes)


@st.composite
def random_antichains(draw):
    """n outcomes, up to 80 so that masks span several bytes, and an antichain."""
    n = draw(st.integers(min_value=1, max_value=80))
    mask = st.integers(min_value=1, max_value=(1 << n) - 1)
    masks = draw(st.lists(mask, min_size=1, max_size=10))
    return n, [m for m in set(masks) if not any(m != o and m & o == m for o in masks)]


@given(random_antichains())
@settings(max_examples=300, deadline=None)
def test_random_test_order_matches_the_string_key(case):
    n, antichain = case
    space = testspace.TestSpace([f"o{i}" for i in range(n)], antichain)
    assert space._test_masks == string_key_order(antichain, n)


# -- supports: traces against perspectivity -----------------------------------------


def outcome_subsets(n):
    for m in range(1 << n):
        yield frozenset(x for x in range(n) if m >> x & 1)


def support_cases():
    """(space, subsets): every corpus space with every outcome subset, then for
    every 4th corpus model its depth-1 compound with every subset and its
    forward square with the first- and second-stage lift of every base subset."""
    for space in CORPUS:
        yield space, list(outcome_subsets(space.n_outcomes))
    for model in list(corpus_models(6, 3))[::4]:
        compound = truncated_compound(model, 1, BUILD_CAP).model.space
        yield compound, list(outcome_subsets(compound.n_outcomes))
        square = forward_product(model, model, BUILD_CAP)
        lifts = []
        for s in outcome_subsets(model.space.n_outcomes):
            for stage in (0, 1):
                lifts.append(
                    frozenset(i for i, pair in enumerate(square.outcome_pair) if pair[stage] in s)
                )
        yield square.model.space, lifts


def test_supports_match_perspectivity_criterion():
    compared = 0
    for space, subsets in support_cases():
        if sum(2 ** len(t) for t in space.tests) > oracle.SUPPORT_WORK_CAP:
            continue
        buckets = oracle.complement_buckets(space, oracle.SUPPORT_WORK_CAP)
        for s in subsets:
            want = oracle.support_by_perspectivity(space, s, buckets)
            assert space.is_support(s) == want, (repr(space), sorted(s))
            compared += 1
    assert compared >= 8_000


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_supports_match_perspectivity_criterion(data):
    space = data.draw(random_spaces())
    s = data.draw(st.frozensets(st.integers(min_value=0, max_value=space.n_outcomes - 1)))
    assert space.is_support(s) == oracle.support_by_perspectivity(space, s)


# -- per-event queries: the frozenset versions of is_event, complements, ... ---------


def query_events(space):
    """Every event, then every event plus one outcome outside it (often not an event)."""
    events = space.events_list()
    known = set(events)
    grown = {a | {x} for a in events for x in range(space.n_outcomes) if x not in a}
    return events + sorted(grown - known, key=testspace.event_key)


def assert_queries_agree(space):
    """``is_event``, ``complements``, ``orthocomplement`` and ``perspective`` answer
    as the frozenset oracles on every query event.

    ``perspective`` pairs each event with the event before it and with every
    event that shares one of its complements (b = t - c for a complement c and
    a test t holding c), where the least common axis is chosen; a non-event
    has no complement, and the random-space test pairs those.
    """
    previous = frozenset()
    for a in query_events(space):
        comps = oracle.complements(space, a)
        assert space.is_event(a) == oracle.is_event(space, a), (repr(space), sorted(a))
        assert space.complements(a) == comps, (repr(space), sorted(a))
        assert space.orthocomplement(a) == oracle.orthocomplement(space, a), (repr(space), sorted(a))
        if not comps:
            continue
        for b in [previous] + [t - c for c in comps for t in space.tests if c <= t]:
            want = oracle.perspective(space, a, b)
            assert space.perspective(a, b) == want, (repr(space), sorted(a), sorted(b))
            assert space.is_perspective(b, a) == (want is not None)
        previous = a


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_event_queries_match_oracle(index):
    """The corpus space, its coarsening and its depth-1 compound."""
    model = full_model(CORPUS[index])
    for space in (
        model.space,
        coarsen(model).model.space,
        truncated_compound(model, 1, BUILD_CAP).model.space,
    ):
        assert_queries_agree(space)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_event_queries_match_oracle(data):
    """Random spaces, then random id sets that may hold ids outside the space:
    those make non-events, and only ``orthocomplement`` refuses them."""
    space = data.draw(random_spaces())
    assert_queries_agree(space)
    n = space.n_outcomes
    ids = st.frozensets(st.integers(min_value=-2, max_value=n + 1), max_size=4)
    a, b = data.draw(ids), data.draw(ids)
    assert space.is_event(a) == oracle.is_event(space, a)
    assert space.complements(a) == oracle.complements(space, a)
    assert space.perspective(a, b) == oracle.perspective(space, a, b)
    if all(0 <= x < n for x in a):
        assert space.orthocomplement(a) == oracle.orthocomplement(space, a)
    else:
        with pytest.raises(UnknownLabel):
            space.orthocomplement(a)
