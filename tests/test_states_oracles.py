"""The witness-cover state predicates agree with the per-query LPs in ``lp_oracles``.

``positivity_failures``, ``check_unital`` and ``check_strongly_unital`` are
views over the model's witness accessors: covering LPs that maximize the
total weight of every target still open, after a scan of the LP optima the
model kept, with the answers memoised.  Hull models scan their generators
for positivity and certainty.  For every model below each of the three
must report the oracle's verdict and the oracle's failures in the oracle's
order, whichever order the three are called in on a model with a cold
cache, and again when called a second time on the warm one.  Models: the 112 corpus models with their float
twins, a space with an outcome that no state reaches, hull models (the
quantum presets, exact hulls of corpus vertices and of vertex subsets),
``classical_model(2..4)``, the failure-outcome extensions of corpus and
preset models, a float hull at the tolerance boundary, and random small
spaces.
"""

from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracles as oracle
from orthokit import quantum, testspace
from orthokit.corpus import corpus_models
from orthokit.states import Model, StateSpace, Weight, adjoin_failure_outcome, generator_model

PREDICATES = ("positivity_failures", "check_unital", "check_strongly_unital")


def cold_copy(model, states=None):
    """The same model with an empty witness cache (no positivity LPs at build)."""
    return Model(
        model.space, states or model.states, exact=model.exact,
        tol=(model.tol or None),
    )


def oracle_reports(model):
    return {name: getattr(oracle, name)(model) for name in PREDICATES}


def assert_agrees(model, orders=(PREDICATES,)):
    want = oracle_reports(model)
    for order in orders:
        fresh = cold_copy(model)
        for rnd in range(2):  # cold, then warm
            for name in order:
                got = getattr(fresh, name)()
                assert got == want[name], (repr(model.space), order, rnd, name)
    return want


CORPUS = list(corpus_models(6, 3))


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_model_matches_oracle_in_every_order(index):
    model = CORPUS[index]
    twin = Model(model.space, model.states, exact=False)
    for m in (model, twin):
        assert_agrees(m, orders=tuple(permutations(PREDICATES)))


@pytest.mark.parametrize("dead", range(5))
def test_non_positive_model_matches_oracle(dead):
    """Tests {a,b}, {c,d}, {b,d}, {a,c,x} force weight 0 on x, wherever x sits."""
    a, b, c, d = (i for i in range(5) if i != dead)
    tests = [{a, b}, {c, d}, {b, d}, {a, c, dead}]
    masks = [sum(1 << x for x in t) for t in tests]
    space = testspace.TestSpace([f"o{i}" for i in range(5)], masks)
    for exact in (True, False):
        model = Model(space, StateSpace.full(), exact=exact)
        want = assert_agrees(model, orders=tuple(permutations(PREDICATES)))
        assert want["positivity_failures"] == [dead]


def test_corpus_covers_both_verdicts():
    unital = [oracle.check_unital(m).holds for m in CORPUS]
    strong = [oracle.check_strongly_unital(m).holds for m in CORPUS]
    assert any(unital) and not all(unital)
    assert any(strong) and not all(strong)


@lru_cache(maxsize=None)
def preset_models():
    presets = (
        quantum.preset_qubit_interferometer,
        quantum.preset_spin1,
        quantum.preset_spin32,
    )
    return [p().model for p in presets]


@pytest.mark.parametrize("index", range(3))
def test_quantum_preset_matches_oracle(index):
    model = preset_models()[index]
    assert not model.states.is_full
    assert_agrees(model)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_classical_model_matches_oracle(n):
    assert_agrees(quantum.classical_model(n).model)


def test_failure_outcome_extensions_match_oracle():
    for model in CORPUS[::4] + preset_models()[:1]:
        assert_agrees(adjoin_failure_outcome(model))


def test_exact_hulls_of_corpus_vertices_match_oracle():
    """Hulls of all vertices, and of every other vertex (some of them fail)."""
    failed = 0
    for model in CORPUS[::3]:
        vertices = model.state_vertices()
        for gens in (vertices, vertices[::2]):
            hull = cold_copy(model, StateSpace.hull(gens))
            want = assert_agrees(hull, orders=(PREDICATES, PREDICATES[::-1]))
            failed += not want["check_strongly_unital"].holds
    assert failed > 0


def test_float_hull_at_the_tolerance_boundary_matches_oracle():
    """A generator 1e-9 above 1 is not certain, although a mixture is.

    Both generators pass validation on tests {a,b}, {b,c}, but 1 + 1e-9 is
    not within the tolerance of 1 in floating point, so no generator is
    certain of a or c.  A mixture reaches weight exactly 1 at a, so a
    certainty LP over the hull would call the model unital; the generator
    scan, like the oracle, does not.
    """
    space = testspace.build_test_space([["a", "b"], ["b", "c"]])
    gens = [Weight([1 + 1e-9, -1e-9, 1 + 1e-9]), Weight([0.0, 1.0, 0.0])]
    model = generator_model(space, gens, exact=False)
    want = assert_agrees(model, orders=tuple(permutations(PREDICATES)))
    assert want["check_unital"].failures == (0, 2)


@st.composite
def random_models(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=4)
    )
    family = [m for m in set(masks) if not any(m != o and m & o == m for o in masks)]
    used = sorted({x for m in family for x in range(n) if m >> x & 1})
    new_id = {x: i for i, x in enumerate(used)}
    tests = [[f"o{new_id[x]}" for x in range(n) if m >> x & 1] for m in family]
    space = testspace.build_test_space(tests, labels=[f"o{i}" for i in range(len(used))])
    full = Model(space, StateSpace.full())
    kind = draw(st.sampled_from(("exact", "float", "hull")))
    if kind == "float":
        return Model(space, StateSpace.full(), exact=False)
    if kind == "hull":
        vertices = full.state_vertices()
        picked = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=4))
        return cold_copy(full, StateSpace.hull(picked))
    return full


@given(random_models(), st.permutations(PREDICATES))
@settings(max_examples=150, deadline=None)
def test_random_model_matches_oracle(model, order):
    assert_agrees(model, orders=(tuple(order),))
