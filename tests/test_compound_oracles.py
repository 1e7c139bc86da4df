"""Compounds and forward products agree with the enumerating oracles.

``truncated_compound`` builds tests by the tower recursion and
``forward_product`` by the same branching kernel; ``compound_oracles`` keeps
the worklist fixed point and the one-choice-at-a-time enumeration they
replaced.  Both sides must give the same strings, labels, tests (in order)
and generators (in order, scalar types included), and must raise on the
same caps: the library bounds the tests before building any, by
n_0 = 1, n_k = 1 + sum_e n_{k-1}^|e| for compounds (the non-root tests,
never more than the worklist's choices) and sum_e |R|^|e| for forward
products (exactly the oracle's count).  Inputs are the whole corpus at
depths 0-2 (and 3 where the worklist stays under ``DEPTH3_CHOICES``),
generator models (the quantum presets, exact and float hulls of corpus
vertices) and hypothesis-random spaces.  ``forward_product`` builds pair rows
only where the first state weighs an outcome; the oracle builds them all,
and the two must give the same generators on the 2-vertex hulls of the
corpus, their float twins and a float weight under the tolerance.

``validate_sequential`` decides inductivity by counting distinct images;
``exhaustive_inductivity`` tries every branch assignment.  They must agree on
the verdict, both counts and the first failing (test, choice) wherever the
oracle's Σ_t |T|^|t| assignments stay under ``INDUCTIVITY_ASSIGNMENTS``: on
``classical_model(2..4)``, on the concatenation products of the corpus
truncations at depths 1-2, and on hypothesis-random corruptions of the
classical products under both semantics, where a table that breaks the
counting's disjointness premise must raise in the orthogonality checks first.

Both unitality checks read pair orthogonality from the factors; the closed
forms must give the built tables on the corpus compounds at depths 1-3
within ``LEMMA_CAP``, the corpus forward products and random spaces.
``compound_unitality`` must give the verdict or ``LawViolation`` text of
``pair_loop_compound_unitality`` on every corpus model and its float twin
at depths 1 and 2 and on positive generator models, and both checks must
fail at their oracles' pair under witness accessors patched to fail at
chosen reads.
"""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import compound_oracles as oracle
from orthokit import compounding, quantum
from orthokit.compounding import (
    IMPOSSIBLE,
    OUT_OF_WINDOW,
    SequentialProduct,
    concatenation_product,
    forward_product,
    truncated_compound,
    validate_sequential,
)
from orthokit.corpus import corpus_models, enumerate_test_spaces
from orthokit.errors import EnumerationCapExceeded, LawViolation, NotSequential, OrthokitError
from orthokit.states import Model, StateSpace, Weight
from orthokit import testspace

DEPTH3_CHOICES = 300_000
# Cap for generator-model forward products: past it both sides must raise,
# the oracle after ticking that far.
GENERATOR_CAP = 50_000
HULL_PRODUCT_CAP = 2_000
INDUCTIVITY_ASSIGNMENTS = 1_000_000
# Test cap for the compounds whose orthogonality and unitality are compared.
LEMMA_CAP = 100_000


@lru_cache(maxsize=None)
def corpus():
    return list(corpus_models(6, 3))


def compound_snapshot(tc):
    return (
        tc.depth,
        tc.strings,
        tc.string_id,
        tc.model.space.labels,
        tc.model.space.tests,
        generators(tc.model),
    )


def forward_snapshot(fp):
    return (
        fp.outcome_pair,
        dict(fp.pair_id),
        fp.model.space.labels,
        fp.model.space.tests,
        generators(fp.model),
    )


def generators(model):
    """The generator tuple in order, each scalar with its type."""
    if model.states.is_full:
        return "full"
    return tuple(tuple(map(repr, g.values)) for g in model.states.generators)


def outcome(build, snapshot):
    """A snapshot of the built object, or the error it raised.

    For a cap error only what and cap count: the oracles count as they go and
    report cap + 1 as the bound, so the bound is compared separately.
    """
    try:
        return snapshot(build())
    except EnumerationCapExceeded as exc:
        return ("cap exceeded", exc.what, exc.cap)
    except OrthokitError as exc:
        return (type(exc).__name__, str(exc))


def assert_compound_agrees(model, depth, cap=None):
    got = outcome(lambda: truncated_compound(model, depth, cap), compound_snapshot)
    want = outcome(lambda: oracle.worklist_compound(model, depth, cap), compound_snapshot)
    assert got == want
    return got


def assert_forward_agrees(left, right, cap=None):
    got = outcome(lambda: forward_product(left, right, cap), forward_snapshot)
    want = outcome(lambda: oracle.enumerated_forward_product(left, right, cap), forward_snapshot)
    assert got == want
    return got


# -- corpus ------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(112))
def test_corpus_compounds_match_worklist(index):
    model = corpus()[index]
    depths = [0, 1, 2]
    if oracle.worklist_choices(model.space, 3) <= DEPTH3_CHOICES:
        depths.append(3)
    for depth in depths:
        assert_compound_agrees(model, depth)


def test_corpus_has_depth3_cases():
    """The depth-3 comparison is not vacuous."""
    cases = [m for m in corpus() if oracle.worklist_choices(m.space, 3) <= DEPTH3_CHOICES]
    assert len(cases) >= 10


@pytest.mark.parametrize("index", range(112))
def test_corpus_forward_products_match_enumeration(index):
    models = corpus()
    model = models[index]
    assert_forward_agrees(model, model)
    assert_forward_agrees(model, models[(index + 1) % len(models)])


def test_worklist_choices_match_the_oracle_counter():
    """``worklist_choices`` is the oracle's tick count: it raises one below."""
    for model in corpus()[::5]:
        for depth in (1, 2):
            choices = oracle.worklist_choices(model.space, depth)
            if choices > 20_000:
                continue
            with pytest.raises(EnumerationCapExceeded):
                oracle.worklist_compound(model, depth, cap=choices - 1)
            oracle.worklist_compound(model, depth, cap=choices)
    assert oracle.worklist_choices(corpus()[111].space, 2) == 47_352


# -- generator models --------------------------------------------------------------


@lru_cache(maxsize=None)
def preset_models():
    presets = (
        quantum.preset_qubit_interferometer,
        quantum.preset_spin1,
        quantum.preset_spin32,
    )
    return [p().model for p in presets]


def hull(space, gens, exact=True):
    if not exact:
        gens = [Weight(tuple(float(v) for v in g.values)) for g in gens]
    return Model(space, StateSpace.hull(gens), exact=exact)


@lru_cache(maxsize=None)
def hull_models():
    """Exact and float hulls of two, and of every other, corpus vertex."""
    out = []
    for model in corpus()[::8]:
        vertices = model.state_vertices()
        for gens in (vertices[:2], vertices[::2]):
            out.append(hull(model.space, gens))
            out.append(hull(model.space, gens, exact=False))
    return out


@pytest.mark.parametrize("index", range(3))
def test_preset_compounds_and_products_match(index):
    """Depth 2 builds for the qubit preset; spin-1 and spin-3/2 trip the caps."""
    model = preset_models()[index]
    assert not model.states.is_full and not model.exact
    outcomes = [assert_compound_agrees(model, depth, cap=GENERATOR_CAP) for depth in (0, 1, 2)]
    outcomes.append(assert_forward_agrees(model, model, cap=GENERATOR_CAP))
    assert len(outcomes[1][-1]) == len(model.states.generators)
    assert (outcomes[2][0] == "cap exceeded") == (index > 0)


def test_hull_compounds_and_products_match():
    outcomes = []
    for model in hull_models():
        for depth in (0, 1, 2):
            outcomes.append(assert_compound_agrees(model, depth))
        outcomes.append(assert_forward_agrees(model, model, cap=HULL_PRODUCT_CAP))
    built = [o for o in outcomes if o[0] != "cap exceeded"]
    assert len(built) > len(outcomes) // 2


def test_generator_cap_is_fixed():
    """The 4096 generator limit is a constant, not a parameter."""
    model = hull(corpus()[111].space, corpus()[111].state_vertices())
    bound = len(model.states.generators) ** (1 + model.space.n_outcomes)
    with pytest.raises(EnumerationCapExceeded) as err:
        truncated_compound(model, 2, cap=10**9)
    assert (err.value.what, err.value.cap, err.value.bound) == ("compound generators", 4096, bound)
    assert compounding.COMPOUND_GENERATOR_CAP == 4096


# -- forward-product rows on the support of the first state ----------------------------

# Most rows the enumerating oracle builds for one support comparison, and a
# corpus space past it that is compared too (8,192 rows, about 1.5 s)
SUPPORT_ROWS = 5_000
SUPPORT_EXTRA = 60


def support_cases():
    """(left, right) for each corpus space whose 2-vertex hull forward product
    the oracle enumerates within ``SUPPORT_ROWS``, and for ``SUPPORT_EXTRA``:
    the exact hull and its float twin against the full model, and the hull
    against itself."""
    cases = []
    for index, space in enumerate(enumerate_test_spaces(6, 3)):
        right = full(space)
        try:
            vertices = right.state_vertices()
        except OrthokitError:
            continue
        rows = 2 * len(vertices) ** space.n_outcomes
        if not vertices or rows > SUPPORT_ROWS and index != SUPPORT_EXTRA:
            continue
        pair = hull(space, vertices[:2])
        cases += [(pair, right), (hull(space, vertices[:2], exact=False), right), (pair, pair)]
    return cases


def test_forward_rows_on_the_support_match_enumeration():
    """Rows only where the first state weighs an outcome, ``rgens[0]`` elsewhere:
    the generators of every row choice, in first-occurrence order."""
    cases = support_cases()
    assert len(cases) == 3 * 46
    for left, right in cases:
        assert_forward_agrees(left, right)


def test_tiny_first_weights_keep_their_rows():
    """A float weight under the tolerance is still on the support: each of its
    rows gives another generator."""
    tiny = Weight((1e-12, 1 - 1e-12))
    left = hull(testspace.build_test_space([["a", "b"]]), [tiny], exact=False)
    right = full(testspace.build_test_space([["c", "d"]]))
    got = assert_forward_agrees(left, right)
    assert len(got[-1]) == 4


def test_hull_rows_are_built_on_the_support_only(monkeypatch):
    """Corpus space 48, one test of six outcomes: each of two vertices of its
    hull weighs one outcome, so 2 * 6 rows against the full model's six
    vertices, not 2 * 6^6 = 93,312."""
    space = list(enumerate_test_spaces(6, 3))[48]
    right = full(space)
    left = hull(space, right.state_vertices()[:2])
    rows, pair_weight = [], compounding._pair_weight

    def counted(*args):
        rows.append(None)
        assert len(rows) <= 12, "a row off the support"
        return pair_weight(*args)

    monkeypatch.setattr(compounding, "_pair_weight", counted)
    fp = forward_product(left, right)
    assert len(rows) == len(fp.model.states.generators) == 12


# -- witness accessors ---------------------------------------------------------------


def test_accessors_find_witnesses_where_the_pool_scan_does():
    """The 112 corpus models, their float twins, ``classical_model(2..4)`` and
    the quantum presets: each accessor returns a witness exactly where the
    scan of the vertex or generator pool finds one, and it is a witness."""
    models = [v for m in corpus() for v in (m, Model(m.space, m.states, exact=False))]
    models += [quantum.classical_model(n).model for n in (2, 3, 4)] + preset_models()
    assert len(models) == 230
    for m in models:
        unital, positive, strong = oracle.pool_witnesses(m)
        for x in range(m.space.n_outcomes):
            w = m.certainty_witness(x)
            assert (w is None) == (unital[x] is None), (repr(m.space), x)
            assert w is None or m._eq(w[x], 1)
            w = m.positive_witness(x)
            assert (w is None) == (positive[x] is None), (repr(m.space), x)
            assert w is None or w[x] > 0
        for (x, y), want in strong.items():
            w = m.strong_witness(x, y)
            assert (w is None) == (want is None), (repr(m.space), x, y)
            assert w is None or (m._eq(w[x], 1) and w[y] > 0)


# -- random spaces -----------------------------------------------------------------


@st.composite
def random_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=4)
    )
    family = [m for m in set(masks) if not any(m != o and m & o == m for o in masks)]
    used = sorted({x for m in family for x in range(n) if m >> x & 1})
    new_id = {x: i for i, x in enumerate(used)}
    tests = [[f"o{new_id[x]}" for x in range(n) if m >> x & 1] for m in family]
    return testspace.build_test_space(tests, labels=[f"o{i}" for i in range(len(used))])


def full(space, exact=True):
    return Model(space, StateSpace.full(), exact=exact)


@st.composite
def random_models(draw, exact):
    """A full model, or the hull of a few of its vertices, of one scalar kind."""
    space = draw(random_spaces())
    if draw(st.booleans()):
        return full(space, exact)
    vertices = full(space).state_vertices()
    return hull(space, draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3)), exact)


model_pairs = st.booleans().flatmap(lambda exact: st.tuples(random_models(exact), random_models(exact)))


@given(model_pairs, st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_random_compounds_and_products_match(models, depth):
    model, other = models
    assume(oracle.worklist_choices(model.space, depth) <= 20_000)
    assert_compound_agrees(model, depth)
    assert_forward_agrees(model, other, cap=GENERATOR_CAP)


# -- orthogonality from the factors, unitality ----------------------------------------


def compound_orth_by_letters(tc):
    """Per string, the mask of the strings orthogonal to it by the closed form:
    they part at some k and their letters there are orthogonal in the base."""
    base = tc.base.space
    rows = []
    for s in tc.strings:
        row = 0
        for j, t in enumerate(tc.strings):
            k = next((k for k, (a, b) in enumerate(zip(s, t)) if a != b), None)
            if k is not None and base.orthogonal(s[k], t[k]):
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def forward_orth_by_factors(fp):
    """Per pair, the mask of the pairs orthogonal to it by the closed form:
    (x, y) ⊥ (u, v) when x ⊥ u in L, or x = u and y ⊥ v in R."""
    ls, rs = fp.left.space, fp.right.space
    return tuple(
        sum(
            1 << j
            for j, (u, v) in enumerate(fp.outcome_pair)
            if ls.orthogonal(x, u) or x == u and rs.orthogonal(y, v)
        )
        for x, y in fp.outcome_pair
    )


def built_compounds(model, depths, cap=LEMMA_CAP):
    """The compounds of ``model`` at ``depths`` that build under ``cap``."""
    out = []
    for depth in depths:
        try:
            out.append(truncated_compound(model, depth, cap))
        except EnumerationCapExceeded:
            pass
    return out


def test_corpus_compound_orthogonality_is_letterwise():
    """Depths 1-3 within the cap: 112 + 112 + 20 compounds."""
    built = [tc for model in corpus() for tc in built_compounds(model, (1, 2, 3))]
    assert len(built) == 244
    for tc in built:
        assert compound_orth_by_letters(tc) == tc.model.space._orth_table()


def test_corpus_forward_orthogonality_is_by_factors():
    models = corpus()
    for i, model in enumerate(models):
        for other in (model, models[(i + 1) % len(models)]):
            fp = forward_product(model, other)
            assert forward_orth_by_factors(fp) == fp.model.space._orth_table()


@given(random_spaces(), random_spaces(), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_random_orthogonality_is_by_factors(space, other, depth):
    fp = forward_product(full(space), full(other))
    assert forward_orth_by_factors(fp) == fp.model.space._orth_table()
    for tc in built_compounds(full(space), (depth,)):
        assert compound_orth_by_letters(tc) == tc.model.space._orth_table()


def unitality(check, built):
    """The verdict pair of a unitality check, or the text of its violation."""
    try:
        return check(built)
    except LawViolation as exc:
        return str(exc)


def float_twin(model):
    return Model(model.space, model.states, exact=False)


@pytest.mark.parametrize("exact", [True, False])
def test_corpus_compound_unitality_matches_the_pair_loop(exact):
    """Every corpus model (or its float twin) at depths 1 and 2; 26 of each
    kind are unital but not strongly unital."""
    verdicts = []
    for model in corpus():
        for tc in built_compounds(model if exact else float_twin(model), (1, 2)):
            got = unitality(compounding.compound_unitality, tc)
            assert got == unitality(oracle.pair_loop_compound_unitality, tc)
            verdicts.append(got)
    assert len(verdicts) == 224
    assert verdicts.count((True, False)) == 26


def test_generator_compound_unitality_matches_the_pair_loop():
    """The positive hulls of corpus vertices and the quantum presets, where
    witnesses go missing (every model is positive, so no positivity witness does)."""
    models = [m for m in hull_models() + preset_models() if not m.positivity_failures()]
    built = [tc for model in models for tc in built_compounds(model, (1, 2))]
    verdicts = [unitality(compounding.compound_unitality, tc) for tc in built]
    assert verdicts == [unitality(oracle.pair_loop_compound_unitality, tc) for tc in built]
    assert len(set(verdicts)) > 1


def mean_vertex(model):
    vertices = model.state_vertices()
    return Weight([sum(col) / len(vertices) for col in zip(*vertices)])


def zero_vertex(model, x):
    """A vertex with no weight at x, if there is one."""
    return next((w for w in model.state_vertices() if w[x] == 0), None)


# Witness accessors patched onto Model: (certainty, positive, strong), each
# given the unpatched accessors and returning the witness to use.
WITNESS_PATCHES = {
    "uncertain certainty and strong": (
        lambda real, m, x: mean_vertex(m),
        None,
        lambda real, m, x, y: mean_vertex(m),
    ),
    "uncertain certainty at the last outcome": (
        lambda real, m, x: mean_vertex(m) if x == m.space.n_outcomes - 1 else real(m, x),
        None,
        None,
    ),
    "uncertain strong": (None, None, lambda real, m, x, y: mean_vertex(m)),
    "uncertain strong at the last outcome": (
        None,
        None,
        lambda real, m, x, y: mean_vertex(m) if y == m.space.n_outcomes - 1 else real(m, x, y),
    ),
    "missing strong at 0, uncertain at the last outcome": (
        None,
        None,
        lambda real, m, x, y: None
        if y == 0
        else mean_vertex(m)
        if y == m.space.n_outcomes - 1
        else real(m, x, y),
    ),
    "strong without weight": (None, None, lambda real, m, x, y: m.certainty_witness(x)),
    "positive without weight": (
        None,
        lambda real, m, x: zero_vertex(m, x) or real(m, x),
        None,
    ),
}
ACCESSORS = ("certainty_witness", "positive_witness", "strong_witness")


@pytest.mark.parametrize("patch", sorted(WITNESS_PATCHES))
def test_patched_witnesses_fail_the_same_pair(patch, monkeypatch):
    """Both unitality checks against their oracles under witnesses that fail
    at chosen pairs, on every fourth corpus model: the same verdict or the
    same first failing pair."""
    models = corpus()[::4]
    for name, make in zip(ACCESSORS, WITNESS_PATCHES[patch]):
        if make is not None:

            def patched(m, *xs, make=make, real=getattr(Model, name)):
                return make(real, m, *xs)

            # Model has __slots__, so the accessors are patched on the class
            monkeypatch.setattr(Model, name, patched)
    outcomes = []
    for model in models:
        for tc in built_compounds(model, (1, 2)):
            got = unitality(compounding.compound_unitality, tc)
            assert got == unitality(oracle.pair_loop_compound_unitality, tc), repr(model.space)
            outcomes.append(got)
        fp = forward_product(model, model)
        got = unitality(compounding.forward_unitality, fp)
        assert got == unitality(oracle.pair_state_forward_unitality, fp), repr(model.space)
        outcomes.append(got)
    assert any(isinstance(o, str) for o in outcomes)


@pytest.mark.parametrize(
    "pair, witness, failing",
    [
        ((1, 2), [0, 1, 0, 0], "(1, 0), (2, 0)"),  # entry j, though (a, p), (c, p) passed
        ((0, 3), [0, 0, 0, 1], "(0, 0), (3, 0)"),  # entry i, though (a, p), (c, p) passed
    ],
)
def test_forward_entries_are_read_per_pair_of_first_outcomes(pair, witness, failing, monkeypatch):
    """L has tests {a, b}, {c, d}, so a and b each reach c and d; R is one
    test {p, q}.  One strong witness of L is a point mass that fails entry j
    (no weight at u) or entry i (no weight at x) of a later pair."""
    left = full(testspace.build_test_space([["a", "b"], ["c", "d"]]))
    right = full(testspace.build_test_space([["p", "q"]]))
    real = Model.strong_witness
    monkeypatch.setattr(
        Model,
        "strong_witness",
        lambda m, x, y: Weight(witness) if (m, (x, y)) == (left, pair) else real(m, x, y),
    )
    fp = forward_product(left, right)
    want = f"strong-unitality witness fails on outcome pairs {failing}"
    assert unitality(compounding.forward_unitality, fp) == want
    assert unitality(oracle.pair_state_forward_unitality, fp) == want


# -- caps --------------------------------------------------------------------------


def kernel_calls(monkeypatch):
    calls = []
    kernel = compounding._branch

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(compounding, "_branch", counted)
    return calls


def assert_compound_cap_edge(model, depth, monkeypatch):
    """At the bound B, cap B - 1 raises before the kernel runs and cap B builds."""
    built = truncated_compound(model, depth)
    bound = len(built.model.space.tests) - 1  # every non-root test, each once
    assert bound <= oracle.worklist_choices(model.space, depth)
    calls = kernel_calls(monkeypatch)
    with pytest.raises(EnumerationCapExceeded) as err:
        truncated_compound(model, depth, cap=bound - 1)
    assert (err.value.what, err.value.cap, err.value.bound) == (
        "compound tests",
        bound - 1,
        bound,
    )
    assert calls == []
    # the library raises only where the oracle raises
    with pytest.raises(EnumerationCapExceeded):
        oracle.worklist_compound(model, depth, cap=bound - 1)
    assert compound_snapshot(truncated_compound(model, depth, cap=bound)) == compound_snapshot(built)
    assert len(calls) == depth
    monkeypatch.undo()


def assert_forward_cap_edge(left, right, monkeypatch):
    """The forward bound is exactly the oracle's count: both raise one below it."""
    built = forward_product(left, right)
    bound = len(built.model.space.tests)
    assert bound == sum(len(right.space.tests) ** len(e) for e in left.space.tests)
    calls = kernel_calls(monkeypatch)
    with pytest.raises(EnumerationCapExceeded) as err:
        forward_product(left, right, cap=bound - 1)
    assert (err.value.what, err.value.bound) == ("forward-product tests", bound)
    assert calls == []
    with pytest.raises(EnumerationCapExceeded):
        oracle.enumerated_forward_product(left, right, cap=bound - 1)
    oracle.enumerated_forward_product(left, right, cap=bound)
    assert forward_snapshot(forward_product(left, right, cap=bound)) == forward_snapshot(built)
    monkeypatch.undo()


def test_cap_edges_on_the_corpus(monkeypatch):
    models = corpus()
    for i, model in enumerate(models[::3]):
        for depth in (1, 2):
            if oracle.worklist_choices(model.space, depth) <= 20_000:
                assert_compound_cap_edge(model, depth, monkeypatch)
        assert_forward_cap_edge(model, models[(3 * i + 1) % len(models)], monkeypatch)


@given(random_spaces(), random_spaces(), st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_cap_edges_on_random_spaces(space, other, depth):
    assume(oracle.worklist_choices(space, depth) <= 20_000)
    with pytest.MonkeyPatch.context() as mp:
        assert_compound_cap_edge(full(space), depth, mp)
        assert_forward_cap_edge(full(space), full(other), mp)


def test_compound_bound_without_enumeration(monkeypatch):
    """spin-1 at depth 2 needs 893,790,300 non-root tests; nothing is built."""
    spin1 = preset_models()[1]
    calls = kernel_calls(monkeypatch)
    with pytest.raises(EnumerationCapExceeded) as err:
        truncated_compound(spin1, 2, cap=2_000_000)
    assert err.value.bound == 893_790_300
    assert calls == []
    # a deep truncation stops at the first level over the cap
    with pytest.raises(EnumerationCapExceeded) as err:
        truncated_compound(spin1, 50, cap=2_000_000)
    assert err.value.bound == 893_790_300
    assert calls == []



# -- inductivity -------------------------------------------------------------------

INDUCTIVITY_FAILURE = "branch assignment leaves the test family"
# what validate_sequential checks before inductivity, the premise included
EARLIER_FAILURES = {
    "unit law fails",
    "associativity fails",
    "left translation breaks orthogonality",
    "products of orthogonal heads are not orthogonal",
    "the unit must carry its own test",
}


def assignments(space):
    return sum(len(space.tests) ** len(t) for t in space.tests)


def sequential_report(model, sp):
    """validate_sequential's report, checked against the exhaustive loop; None
    when it raises.  The state conditions run on no states, so only the
    phases that must come first can stop it before inductivity."""
    checked, skipped, witness = oracle.exhaustive_inductivity(model.space, sp)
    try:
        report = validate_sequential(model, sp, probe_depth=1, states=[]).report
    except NotSequential as exc:
        if str(exc) == INDUCTIVITY_FAILURE:
            assert exc.witness == witness
        else:
            assert witness is None or str(exc) in EARLIER_FAILURES, str(exc)
        return None
    assert witness is None
    assert (report.inductivity_checked, report.inductivity_skipped) == (checked, skipped)
    return report


@lru_cache(maxsize=None)
def classical(n):
    return quantum.classical_model(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_inductivity_matches_the_exhaustive_loop(n):
    cm = classical(n)
    assert sequential_report(cm.model, cm.product) is not None


def test_one_entry_deletions_match_the_exhaustive_loop():
    """Each entry of the classical 3-point product deleted, under both semantics;
    24 of the 74 break inductivity and none breaks an earlier phase."""
    cm = classical(3)
    table = cm.product.table
    failed = 0
    for semantics in (IMPOSSIBLE, OUT_OF_WINDOW):
        for key in table:
            rest = {k: v for k, v in table.items() if k != key}
            sp = SequentialProduct(cm.product.unit, rest, undefined_means=semantics)
            failed += sequential_report(cm.model, sp) is None
    assert failed == 24


@pytest.mark.parametrize("depth", [1, 2])
def test_truncation_windows_match_the_exhaustive_loop(depth):
    checked = 0
    for model in corpus():
        tc = truncated_compound(model, depth, cap=100_000)
        if assignments(tc.model.space) <= INDUCTIVITY_ASSIGNMENTS:
            assert sequential_report(tc.model, concatenation_product(tc)) is not None
            checked += 1
    assert checked >= (100 if depth == 1 else 5)


@st.composite
def corrupted_classical(draw):
    """A classical 2- or 3-point product with up to three entries set or deleted."""
    cm = classical(draw(st.sampled_from((2, 3))))
    k = cm.model.space.n_outcomes
    table = dict(cm.product.table)
    entry = st.integers(min_value=0, max_value=k - 1)
    for key, value in draw(
        st.lists(st.tuples(st.tuples(entry, entry), st.none() | entry), min_size=1, max_size=3)
    ):
        if value is None:
            table.pop(key, None)
        else:
            table[key] = value
    semantics = draw(st.sampled_from((IMPOSSIBLE, OUT_OF_WINDOW)))
    return cm.model, SequentialProduct(cm.product.unit, table, undefined_means=semantics)


@given(corrupted_classical())
@settings(max_examples=300, deadline=None)
def test_corrupted_classical_products_match_the_exhaustive_loop(case):
    sequential_report(*case)
