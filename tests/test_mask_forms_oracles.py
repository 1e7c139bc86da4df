"""The mask forms of the forward-product, compound and closure-lattice reads
agree with their frozenset forms in ``frozenset_oracles``.

``fp_perspective_by_parts``, the two marginals, ``tests_as_strings``,
``check_unit_level``, ``check_tower_recursion``, ``nonatomicity_report`` and
``TestSpace.closed_set_lattice`` read tests and events as masks; the oracles
keep the versions that read the frozenset views.  Both sides must give the
same values, the same exception class and message, and the same
raise-or-not at the closed-set cap and one below it.  Inputs are the corpus
models, their hulls of two vertices and float twins, and random spaces.
``check_tower_recursion``, which builds test spaces only, is also compared at
the caps one below and at each bound it checks, so each refusal comes in the
oracle's order, and on a bad depth, a bad cap and a colliding unit label.

Exact values must be equal.  A float sum over a test now adds in ascending
id order, where the frozenset form followed hash-table order, so float
marginals must agree to ``FLOAT_SLACK``.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import frozenset_oracles as oracle
from orthokit.compounding import (
    check_tower_recursion,
    check_unit_level,
    forward_product,
    fp_perspective_by_parts,
    marginal_and_conditional,
    marginal_weight,
    nonatomicity_report,
    truncated_compound,
)
from orthokit.corpus import corpus_models
from orthokit.errors import EnumerationCapExceeded, OrthokitError
from orthokit.states import Model, StateSpace, Weight, full_model
from orthokit.testspace import build_test_space

FLOAT_SLACK = 1e-12
# Most events of a forward product whose event pairs are all compared
PAIR_EVENTS = 300
# Test cap of the compounds and forward products built here
BUILD_CAP = 20_000


@lru_cache(maxsize=None)
def corpus():
    return list(corpus_models(6, 3))


def outcome(call, *args):
    try:
        return call(*args)
    except OrthokitError as exc:
        return type(exc).__name__, str(exc)


def same_value(got, want):
    """Equal, floats to ``FLOAT_SLACK``, through tuples, lists and weights."""
    if isinstance(got, Weight) and isinstance(want, Weight):
        return same_value(got.values, want.values)
    if isinstance(got, (tuple, list)) and isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(same_value, got, want))
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=0, abs_tol=FLOAT_SLACK)
    return got == want


def float_twin(model):
    if model.states.is_full:
        return Model(model.space, model.states, exact=False)
    gens = [Weight(tuple(map(float, g.values))) for g in model.states.generators]
    return Model(model.space, StateSpace.hull(gens), exact=False)


def hull_of_two(model):
    return Model(model.space, StateSpace.hull(model.state_vertices()[:2]))


# -- forward products -------------------------------------------------------------------


def small_products():
    """The forward squares and next-neighbour products of the corpus with at most
    ``PAIR_EVENTS`` events."""
    models, out = corpus(), []
    for i, model in enumerate(models):
        for other in (model, models[(i + 1) % len(models)]):
            try:
                fp = forward_product(model, other, BUILD_CAP)
            except EnumerationCapExceeded:
                continue
            if len(fp.model.space._event_mask_list(PAIR_EVENTS)) <= PAIR_EVENTS:
                out.append(fp)
    return out


def test_perspective_by_parts_matches_oracle():
    verdicts = []
    for fp in small_products():
        events = fp.model.space.events_list()
        for a in events:
            for b in events:
                got = fp_perspective_by_parts(fp, a, b)
                assert got == oracle.fp_perspective_by_parts(fp, a, b), (fp.model.space, a, b)
                verdicts.append(got)
    assert len(verdicts) >= 100_000 and 0 < sum(verdicts) < len(verdicts)


def product_weights(fp):
    """Pair states of the first three vertices of each factor, and one weight
    whose marginal depends on the follow-up test where the second factor has
    two tests."""
    lefts = fp.left.state_vertices()[:3]
    rights = fp.right.state_vertices()[:3]
    out = [fp.state(alpha, beta) for alpha in lefts for beta in rights]
    n = fp.model.space.n_outcomes
    out.append(Weight(tuple(Fraction(i % 3, 2) for i in range(n))))
    return out


def assert_marginals_agree(fp, weights):
    for w in weights:
        assert same_value(marginal_weight(fp, w), oracle.marginal_weight(fp, w))
        for x in range(fp.left.space.n_outcomes):
            got = outcome(marginal_and_conditional, fp, w, x)
            want = outcome(oracle.marginal_and_conditional, fp, w, x)
            assert same_value(got, want), (fp.model.space, w, x)


@pytest.mark.parametrize("exact", [True, False])
def test_marginals_match_oracle(exact):
    """Every corpus forward square, exact or on the float twins."""
    raised = set()
    for model in corpus():
        left = model if exact else float_twin(model)
        fp = forward_product(left, left, BUILD_CAP)
        weights = product_weights(forward_product(model, model, BUILD_CAP))
        if not exact:
            weights = [Weight(tuple(map(float, w.values))) for w in weights]
        assert_marginals_agree(fp, weights)
        for w in weights:
            got = outcome(marginal_and_conditional, fp, w, 0)
            if isinstance(got, tuple) and isinstance(got[0], str):
                raised.add(got[0])
    assert raised == {"LawViolation", "ZeroMarginal"}


# -- compounds --------------------------------------------------------------------------


def compound_checks(model, depth):
    """Each compound read on ``model`` at ``depth``, mask form and frozenset form."""
    tc = truncated_compound(model, depth, BUILD_CAP)
    assert tc.tests_as_strings() == oracle.tests_as_strings(tc)
    assert outcome(nonatomicity_report, tc) == outcome(oracle.nonatomicity_report, tc)
    assert outcome(check_unit_level, model, BUILD_CAP) == outcome(
        oracle.check_unit_level, model, BUILD_CAP
    )
    assert outcome(check_tower_recursion, model, depth, BUILD_CAP) == outcome(
        oracle.check_tower_recursion, model, depth, BUILD_CAP
    )


def fits(model, depth):
    try:
        truncated_compound(model, depth + 1, BUILD_CAP)
        forward_product(model, truncated_compound(model, depth, BUILD_CAP).model, BUILD_CAP)
    except EnumerationCapExceeded:
        return False
    return True


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_compound_reads_match_oracle(depth):
    """Every corpus model and its hull of two vertices whose compounds fit."""
    checked = 0
    for model in corpus():
        for m in (model, hull_of_two(model)):
            if fits(m, depth):
                compound_checks(m, depth)
                checked += 1
    assert checked >= (200 if depth < 2 else 20)


def tower_caps(space, depth):
    """One below and at each bound the tower check meets, in its order: the
    non-root tests at ``depth`` and ``depth`` + 1, then the forward-product tests
    (the unit test branches into the n_d tests at ``depth``, each base test as
    at ``depth`` + 1), up to ``BUILD_CAP``."""
    n = [1]
    for _ in range(depth + 1):
        n.append(1 + sum(n[-1] ** m.bit_count() for m in space._test_masks))
    bounds = (n[depth] - 1, n[depth + 1] - 1, n[depth] + n[depth + 1] - 1)
    return sorted({c for b in bounds for c in (b - 1, b) if 0 <= c <= BUILD_CAP} | {BUILD_CAP})


def assert_tower_matches(model, depth, cap):
    got = outcome(check_tower_recursion, model, depth, cap)
    assert got == outcome(oracle.check_tower_recursion, model, depth, cap), (model, depth, cap)
    return got


def test_tower_recursion_matches_oracle_at_every_cap():
    """Every corpus model at depths 0 and 1, at the caps that trip each bound,
    and the refusals of a bad depth, a bad cap and an outcome labelled like the
    adjoined unit."""
    seen = set()
    for model in corpus():
        for depth in (0, 1):
            for cap in tower_caps(model.space, depth):
                got = assert_tower_matches(model, depth, cap)
                seen.add(got if isinstance(got, int) else got[1].split(":")[0])
    collision = full_model(build_test_space([["@unit@", "b"]]))
    for model, depth, cap in ((corpus()[0], -1, 0), (corpus()[0], 0, -1), (collision, 1, None)):
        seen.add(assert_tower_matches(model, depth, cap)[0])
    assert {"compound tests", "forward-product tests", "UsageError", "LabelCollision"} <= seen
    assert len([v for v in seen if isinstance(v, int)]) > 10


# -- closure lattice --------------------------------------------------------------------


def closed_sets(space, cap=None):
    try:
        return space.closed_set_lattice(cap).elements
    except EnumerationCapExceeded:
        return "cap exceeded"


def oracle_closed_sets(space, cap=None):
    try:
        return oracle.closed_set_lattice(space, cap)
    except EnumerationCapExceeded:
        return "cap exceeded"


def assert_lattice_agrees(space):
    """The closed sets in order, and the cap verdict one below the count and at it."""
    want = oracle_closed_sets(space)
    assert closed_sets(space) == want
    ticks = len(want) - len({frozenset(range(space.n_outcomes))} | {
        oracle.orthocomplement(space, {x}) for x in range(space.n_outcomes)
    })
    for cap in {max(ticks - 1, 0), ticks}:
        assert closed_sets(space, cap) == oracle_closed_sets(space, cap)
    return ticks


def test_corpus_closed_sets_match_oracle():
    ticks = [assert_lattice_agrees(model.space) for model in corpus()]
    assert max(ticks) > 0


@st.composite
def random_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=5)
    )
    family = [m for m in set(masks) if not any(m != o and m & o == m for o in masks)]
    used = sorted({x for m in family for x in range(n) if m >> x & 1})
    tests = [[f"o{used.index(x)}" for x in range(n) if m >> x & 1] for m in family]
    return build_test_space(tests, labels=[f"o{i}" for i in range(len(used))])


@given(random_spaces())
@settings(max_examples=150, deadline=None)
def test_random_closed_sets_match_oracle(space):
    assert_lattice_agrees(space)


@given(random_spaces())
@settings(max_examples=60, deadline=None)
def test_random_compound_reads_match_oracle(space):
    model = Model(space, StateSpace.full())
    for depth in (0, 1):
        if fits(model, depth):
            compound_checks(model, depth)


@given(random_spaces())
@settings(max_examples=60, deadline=None)
def test_random_tower_recursion_matches_oracle_at_every_cap(space):
    model = Model(space, StateSpace.full())
    for depth in (0, 1):
        for cap in tower_caps(space, depth):
            assert_tower_matches(model, depth, cap)
