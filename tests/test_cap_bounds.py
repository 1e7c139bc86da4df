"""Loops whose length has a closed form check it against the cap before they start.

For each such loop the bound B is computed here from its formula and checked
three ways: at cap B - 1 the call raises ``EnumerationCapExceeded`` naming the
loop, with ``bound == B``, before a single pass of the loop body (a patched
callee of the body records no call); at cap B it returns what the uncapped
call returns; and at the default cap the loop runs exactly B times, counted
by the same patched callee or read off what the call returns.

Vertex enumeration is the exception: the rays double description creates
have no closed form, so a ``CapCounter`` counts them and B is read off a
run at the default cap.  ``regular`` and ``algebraic`` are the other: B is
the complement-bucket pass that their check per intersection of two tests
replaced, so their test counts the submask enumerations that are left.

A space keeps its vertex list and its coarse family once built.  At B - 1
and B, for every bound B the calls that read them meet, a call on a space
that holds them must return or raise exactly what the call does on a fresh
copy of the space.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from lp_oracles import polytope_rows
from orthokit import (
    coarsening,
    corpus,
    errors,
    interference,
    linprog,
    logic,
    quantum,
    states,
    testspace,
)
from orthokit.coarsening import (
    _bell_numbers,
    check_monad_laws_sharp,
    coarsen,
    is_cohesion,
    validate_coherence,
)
from orthokit.compounding import SequentialProduct, truncated_compound, validate_sequential
from orthokit.corpus import corpus_models, named
from orthokit.errors import EnumerationCapExceeded
from orthokit.interference import (
    check_distributive_diagrams,
    check_ell_naturality,
    validate_g_algebra,
)
from orthokit.logic import build_logic
from orthokit.morphisms import identity_morphism, validate_morphism
from orthokit.quantum import classical_model
from orthokit.testspace import build_test_space, mask_event


def raises_before_work(call, what, bound, calls):
    """At cap bound - 1 the call names ``what`` and ``bound`` and does no loop work."""
    calls.clear()
    with pytest.raises(EnumerationCapExceeded) as info:
        call(bound - 1)
    assert (info.value.what, info.value.bound, info.value.cap) == (what, bound, bound - 1)
    assert calls == []


@pytest.fixture
def record(monkeypatch):
    """``record(owner, name)`` wraps a callable so that each call is appended to a list."""
    calls = []

    def wrap(owner, name):
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return wrap


# -- classical_model -----------------------------------------------------------------


@pytest.mark.parametrize("n, bound", [(1, 2), (2, 5), (3, 12), (4, 30), (5, 83)])
def test_classical_model(n, bound, record):
    """The nonempty subsets of {1..n}, then the set partitions: 2^n - 1 + B(n)."""
    assert bound == 2**n - 1 + _bell_numbers(n)[n]
    calls = record(quantum, "set_partitions")
    raises_before_work(lambda cap: classical_model(n, cap), "classical model", bound, calls)
    want = classical_model(n)
    assert len(want.subsets) + len(want.model.space.tests) == bound
    try:
        got = classical_model(n, bound)
    except EnumerationCapExceeded as exc:
        # From n = 3 on the event list of the finished space needs more than
        # B; that later check fires at cap B with or without this one.
        assert n >= 3 and exc.what == "events" and exc.bound > bound
        assert calls
        return
    assert (got.subsets, got.model.space.tests, got.sigma, got.product) == (
        want.subsets,
        want.model.space.tests,
        want.sigma,
        want.product,
    )


def test_classical_subsets_come_in_size_then_lexicographic_order():
    subsets = classical_model(4).subsets
    assert list(subsets) == sorted(subsets, key=lambda s: (len(s), sorted(s)))


# -- enumerate_vertices -----------------------------------------------------------------


@lru_cache(maxsize=None)
def vertex_cases():
    models = list(corpus_models())[::10]
    return [*models, named("wright"), classical_model(3).model]


@pytest.mark.parametrize("index", range(len(vertex_cases())))
def test_enumerate_vertices(index, monkeypatch):
    """The rays double description creates: no closed form, so counted as they come.

    B is the count of a run at the default cap; at cap B - 1 the B-th ray
    raises, naming the enumeration, and at cap B the run returns the list
    of the default run.
    """
    rows, rhs = polytope_rows(vertex_cases()[index])
    counters = []

    class RecordingCounter(errors.CapCounter):
        def __init__(self, what, cap=None):
            super().__init__(what, cap)
            counters.append(self)

    monkeypatch.setattr(linprog, "CapCounter", RecordingCounter)
    want = linprog.enumerate_vertices(rows, rhs)
    [counter] = counters
    bound = counter.count
    assert bound >= len(want) > 0
    with pytest.raises(EnumerationCapExceeded) as info:
        linprog.enumerate_vertices(rows, rhs, bound - 1)
    assert (info.value.what, info.value.bound, info.value.cap) == (
        "polytope vertices", bound, bound - 1
    )
    assert linprog.enumerate_vertices(rows, rhs, bound) == want


def fresh_model(model):
    """A full model on a copy of ``model``'s space, which holds nothing yet."""
    space = testspace.TestSpace(model.space.labels, model.space._test_masks)
    return states.Model(space, states.StateSpace.full())


def outcome(call, cap):
    """("returned", what ``call(cap)`` returns), or ("refused", what, cap, bound)."""
    try:
        return "returned", call(cap)
    except EnumerationCapExceeded as exc:
        return "refused", exc.what, exc.cap, exc.bound


@pytest.mark.parametrize("index", range(len(vertex_cases())))
def test_kept_vertices_refuse_below_their_cap(index, record):
    """A kept list answers a cap at least the one it was enumerated under with
    no enumeration; a smaller cap enumerates again and refuses as a fresh space
    does.  Each call returns a list of its own."""
    model = vertex_cases()[index]

    def listed(m):
        return lambda cap: [w.values for w in m.state_vertices(cap)]

    want = outcome(listed(fresh_model(model)), None)
    bound = next(c for c in range(10_000) if outcome(listed(fresh_model(model)), c) == want)
    below = outcome(listed(fresh_model(model)), bound - 1)
    assert below[:3] == ("refused", "polytope vertices", bound - 1)
    m = fresh_model(model)
    m.state_vertices().clear()  # kept at the default cap; the caller's list is its own
    calls = record(states, "enumerate_vertices")
    # (cap, its outcome, whether it enumerates): below the kept cap each call
    # enumerates, and a success keeps its cap; from then on B reads the list
    steps = [(bound - 1, below, 1), (bound, want, 1), (bound - 1, below, 1), (bound, want, 0)]
    for cap, got, enumerations in steps + [(None, want, 0), (bound + 1, want, 0)]:
        calls.clear()
        assert outcome(listed(m), cap) == got, cap
        assert len(calls) == enumerations, cap


def _coarse_family(m, cap):
    masks, mask_outcome, space = coarsening._coarse_space(m.space, cap)
    return masks, dict(mask_outcome), space._test_masks


def _coarsening(m, cap):
    c = coarsen(m, cap)
    return c.outcome_mask, c.mask_outcome, c.model.space._test_masks


COARSE_CALLS = {
    "_coarse_space": _coarse_family,
    "coarsen": _coarsening,
    "check_monad_laws_sharp": check_monad_laws_sharp,
    "check_distributive_diagrams": lambda m, cap: check_distributive_diagrams(m, 1, cap),
}


@pytest.mark.parametrize(
    "tests, met",
    [
        ([["x", "y", "z"], ["q", "z"]], {"events", "triple-coarsening outcomes"}),
        ([["a", "b"], ["a", "c"], ["b", "c"]], {"events", "triple-coarsening outcomes"}),
        ([["a", "b", "c", "d", "e"], ["e", "f"]], {"events", "coarsened tests"}),
    ],
)
def test_kept_coarse_family_refuses_as_a_fresh_space(tests, met, record):
    """Once a space holds its coarse family, and its coarse space the double
    family, each call that reads them returns or refuses at B - 1 and B, for
    every bound B it meets as the cap rises, what it does on a fresh copy,
    and builds no set partition."""
    model = states.full_model(build_test_space(tests))
    warm = fresh_model(model)
    check_monad_laws_sharp(warm)
    check_distributive_diagrams(warm, 1)
    partitions = record(coarsening, "set_partitions")
    seen = set()
    for label, call in COARSE_CALLS.items():
        bounds, cap = [], 0
        while (got := outcome(lambda c: call(fresh_model(model), c), cap))[0] == "refused":
            seen.add(got[1])
            bounds.append(cap := got[3])
        for cap in sorted({c for b in bounds for c in (b - 1, b)}):
            want = outcome(lambda c: call(fresh_model(model), c), cap)
            partitions.clear()
            assert outcome(lambda c: call(warm, c), cap) == want, (label, cap)
            assert partitions == [], (label, cap)
    assert met <= seen


# -- regular and algebraic -----------------------------------------------------------------


@lru_cache(maxsize=None)
def bucket_cases():
    """A star and Wright's space, where both predicates hold; the star with a chord,
    where both fail; the depth-2 compound of corpus model 7, where regular fails on
    the empty bucket and algebraic fails too."""
    star = [["c", "x"], ["c", "y"], ["c", "z"]]
    return [
        build_test_space(star),
        named("wright").space,
        build_test_space(star + [["x", "y"]]),
        truncated_compound(list(corpus_models())[7], 2).model.space,
    ]


@pytest.mark.parametrize("name", ["regular", "algebraic"])
@pytest.mark.parametrize("index", range(len(bucket_cases())))
def test_complement_buckets(name, index, record):
    """Sum of 2^|t|, the complement-bucket pass that one check per intersection of
    two tests replaces: at cap B - 1 the predicate raises before it splits a test's
    partners.  Then a verdict that holds enumerates no submask, and a failing one
    the submasks of one test, which holds the witness's first event."""
    space = bucket_cases()[index]
    bound = sum(2 ** len(t) for t in space.tests)

    def call(cap):
        return getattr(testspace.TestSpace(space.labels, space._test_masks), name)(cap)

    calls = record(testspace.TestSpace, "_intersections")
    record(testspace, "_submasks")  # appends to the same list
    raises_before_work(call, "complement buckets", bound, calls)
    assert call(bound) == call(None)
    calls.clear()
    verdict = call(None)
    submasks = [args for args in calls if not isinstance(args[0], testspace.TestSpace)]
    assert len(calls) - len(submasks) == 1
    assert len(submasks) == (0 if verdict else 1)
    if not verdict:
        [(test,)] = submasks
        assert verdict.witness[0] <= mask_event(test)
    assert bool(verdict) == (index < 2)


# -- build_logic ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def algebraic_spaces():
    spaces = [m.space for m in corpus_models() if m.space.algebraic()]
    return [*spaces[::6], classical_model(3).model.space]


@pytest.mark.parametrize("index", range(len(algebraic_spaces())))
def test_logic_sum_table(index, monkeypatch, record):
    """Each test's members split three ways (left, right, neither): sum of 3^|t|.

    The bound is checked before any event's class is built, so at cap B - 1
    the only complement sets read are those of the ``algebraic`` verdict."""
    space = algebraic_spaces()[index]
    bound = sum(3 ** len(t) for t in space.tests)
    comps = record(testspace.TestSpace, "_complement_set")
    space.algebraic(bound - 1)
    verdict_comps = list(comps)
    comps.clear()
    splits = []
    product = logic.product

    def counting(*args, **kwargs):
        for item in product(*args, **kwargs):
            if args == ((0, 1, 2),):
                splits.append(item)
            yield item

    monkeypatch.setattr(logic, "product", counting)
    raises_before_work(lambda cap: build_logic(space, cap), "logic sum table", bound, splits)
    assert comps == verdict_comps
    got, want = build_logic(space, bound), build_logic(space)
    assert (got.reps, got.oplus) == (want.reps, want.oplus)
    splits.clear()
    build_logic(space)
    assert len(splits) == bound


# -- is_cohesion -------------------------------------------------------------------------


@pytest.mark.parametrize("n, bound", [(2, 4), (3, 17), (4, 79)])
def test_cohesion_pairs(n, bound, monkeypatch):
    """Each table entry against each test holding its collapse: sum of deg(sigma(a))."""
    cm = classical_model(n)
    checked = validate_coherence(cm.model, cm.sigma)
    space = checked.model.space
    degree = {x: sum(x in t for t in space.tests) for x in range(space.n_outcomes)}
    assert sum(degree[cx] for cx in checked.table.values()) == bound
    calls = []  # each test index read off the holders of a collapse
    ids = coarsening._ids

    def holders(m):
        out = ids(m)
        calls.extend(out)
        return out

    monkeypatch.setattr(coarsening, "_ids", holders)
    raises_before_work(lambda cap: is_cohesion(checked, cap), "cohesion pairs", bound, calls)
    assert is_cohesion(checked, bound) == is_cohesion(checked)
    calls.clear()
    assert is_cohesion(checked)
    assert len(calls) == bound


# -- check_distributive_diagrams and check_ell_naturality ---------------------------------


DIAGRAM_CASES = [
    (name, depth)
    for name in ("wright", "triangle", "single-2", "semiclassical-2x2")
    for depth in (1, 2)
]


@pytest.mark.parametrize("name, depth", DIAGRAM_CASES)
def test_distributive_diagrams(name, depth, record):
    """Per length k <= d: D^k double-coarse words, E^k words times their 2^(k-1) splits
    (one for k = 0), n^k outcome strings; plus the E coarse outcomes."""
    model = named(name)
    coarse = coarsen(model)
    d = sum(1 for ev in coarse.model.space.events_list() if ev)
    e, n = len(coarse.outcome_mask), model.space.n_outcomes
    splits = [1] + [2 ** (k - 1) for k in range(1, depth + 1)]
    bound = e + sum(d**k + e**k * splits[k] + n**k for k in range(depth + 1))
    calls = record(interference, "concat_masks")
    raises_before_work(
        lambda cap: check_distributive_diagrams(model, depth, cap),
        "distributive diagrams",
        bound,
        calls,
    )
    report = check_distributive_diagrams(model, depth, bound)
    assert report == check_distributive_diagrams(model, depth)
    assert sum(getattr(report, name) for name in report.__slots__) == bound


def naturality_cases():
    """Three identities, and the map from classical 2 to classical 3 splitting point 2 in two."""
    cm2, cm3 = classical_model(2), classical_model(3)
    fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
    coarse_map = tuple(
        cm3.subset_id[frozenset().union(*(fibers[p] for p in s))] for s in cm2.subsets
    )
    return [
        identity_morphism(named("wright")),
        identity_morphism(named("triangle")),
        identity_morphism(named("single-2")),
        validate_morphism(cm2.model, cm3.model, coarse_map),
    ]


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("depth", [2, 3])
def test_ell_naturality(index, depth, record):
    """Strings of length k <= d over the E nonempty source events: sum of E^k.

    Depth 2 and up: at depth 1 the bound 1 + E is the number of source
    events, so cap B - 1 trips the event list first.
    """
    phi = naturality_cases()[index]
    assert phi.test_preserving
    e = sum(1 for ev in phi.source.space.events_list() if ev)
    bound = sum(e**k for k in range(depth + 1))
    calls = record(interference, "concat_masks")
    raises_before_work(
        lambda cap: check_ell_naturality(phi, depth, cap), "naturality points", bound, calls
    )
    assert check_ell_naturality(phi, depth, bound) == check_ell_naturality(phi, depth) == bound


# -- validate_g_algebra --------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, depth, bound", [(2, 1, 4), (2, 2, 20), (3, 1, 14), (3, 2, 210), (4, 2, 2652)]
)
def test_event_strings(n, depth, bound, record):
    """Strings of length 1..d over the E table entries: sum of E^k."""
    cm = classical_model(n)
    checked = validate_coherence(cm.model, cm.sigma)
    sequential = validate_sequential(cm.model, cm.product)
    e = len(checked.table)
    assert sum(e**k for k in range(1, depth + 1)) == bound

    def call(cap):
        return validate_g_algebra(cm.model, checked, sequential, depth, cap)

    calls = record(SequentialProduct, "products")
    raises_before_work(call, "event strings", bound, calls)
    got, want = call(bound), call(None)
    assert bool(calls) == (depth > 1)  # a word of one entry needs no product
    assert (got.strings_checked, got.strings_skipped, got.commutative) == (
        want.strings_checked,
        want.strings_skipped,
        want.commutative,
    )
    assert want.strings_checked + want.strings_skipped == bound


# -- enumerate_test_spaces -----------------------------------------------------------


def corpus_at(max_outcomes, max_tests, cap):
    return [(s.labels, s.tests) for s in corpus.enumerate_test_spaces(max_outcomes, max_tests, cap)]


@pytest.mark.parametrize(
    "max_outcomes, max_tests, bound", [(6, 3, 47_364), (4, 4, 2_046), (2, 5, 8), (1, 1, 1)]
)
def test_corpus(max_outcomes, max_tests, bound, record, monkeypatch):
    """Candidate test families: C(2^n - 1, k) summed over n <= N and k <= T.

    Fresh caches on each side, so the capped call does the loop itself and
    the uncapped one repeats it; the cap also holds on a cached hit.
    """
    assert bound == sum(
        comb(2**n - 1, k) for n in range(1, max_outcomes + 1) for k in range(1, max_tests + 1)
    )
    monkeypatch.setattr(corpus, "_cache", {})
    calls = record(corpus, "TestSpace")
    raises_before_work(
        lambda cap: corpus_at(max_outcomes, max_tests, cap), "test-space corpus", bound, calls
    )
    visited = []

    def counting(items, r):
        for combo in combinations(items, r):
            if isinstance(items, list):  # the candidate families, not the pair checks
                visited.append(combo)
            yield combo

    monkeypatch.setattr(corpus, "combinations", counting)
    got = corpus_at(max_outcomes, max_tests, bound)
    assert len(visited) == bound
    raises_before_work(
        lambda cap: corpus_at(max_outcomes, max_tests, cap), "test-space corpus", bound, calls
    )
    monkeypatch.setattr(corpus, "_cache", {})
    assert got == corpus_at(max_outcomes, max_tests, None)


# -- large inputs ----------------------------------------------------------------------


def small_bound_over_cap(call, what):
    """The call stops at the cap with a small lower bound rather than forming the whole
    sum, whose decimal form for these inputs runs past 4,300 digits."""
    with pytest.raises(EnumerationCapExceeded) as info:
        call()
    assert info.value.what == what
    assert info.value.cap < info.value.bound < 2**64
    assert f"needs ≥ {info.value.bound}, enumeration exceeds cap" in str(info.value)


def test_large_classical_model_stops_at_the_subsets(record):
    calls = record(quantum, "_bell_numbers")
    small_bound_over_cap(lambda: classical_model(20000), "classical model")
    assert calls == []


def test_deep_distributive_window_stops_at_the_cap(record):
    calls = record(interference, "concat_masks")
    small_bound_over_cap(
        lambda: check_distributive_diagrams(named("wright"), 5000), "distributive diagrams"
    )
    assert calls == []


@pytest.mark.parametrize("index", range(4))
def test_deep_naturality_window_stops_at_the_cap(index, record):
    phi = naturality_cases()[index]
    calls = record(interference, "concat_masks")
    small_bound_over_cap(lambda: check_ell_naturality(phi, 20000), "naturality points")
    assert calls == []


def test_deep_event_strings_stop_at_the_cap(record):
    cm = classical_model(2)
    checked = validate_coherence(cm.model, cm.sigma)
    sequential = validate_sequential(cm.model, cm.product)
    calls = record(SequentialProduct, "products")
    small_bound_over_cap(
        lambda: validate_g_algebra(cm.model, checked, sequential, 20000), "event strings"
    )
    assert calls == []


def test_event_strings_take_no_product_before_the_cap(record):
    """Both folds of a word go through ``SequentialProduct.products``."""
    cm = classical_model(2)
    checked = validate_coherence(cm.model, cm.sigma)
    sequential = validate_sequential(cm.model, cm.product)
    calls = record(SequentialProduct, "products")

    def call(depth, cap=None):
        return validate_g_algebra(cm.model, checked, sequential, depth, cap)

    raises_before_work(lambda cap: call(2, cap), "event strings", 20, calls)
    small_bound_over_cap(lambda: call(20000), "event strings")
    assert calls == []
    call(2, 20)
    assert calls


def test_huge_corpus_stops_at_the_cap(record):
    calls = record(corpus, "TestSpace")
    small_bound_over_cap(lambda: list(corpus.enumerate_test_spaces(10**6, 3)), "test-space corpus")
    assert calls == []


def test_huge_test_count_skips_empty_sizes():
    """Two outcomes have three nonempty subsets, so no family has more than three
    tests; a huge test count neither adds to the bound nor loops over it."""
    assert corpus_at(2, 10**9, None) == corpus_at(2, 3, None)
