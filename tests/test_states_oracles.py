"""The witness-cover state predicates agree with the per-query LPs in ``lp_oracles``.

``positivity_failures``, ``check_unital`` and ``check_strongly_unital`` are
views over the model's witness accessors.  Full models find witnesses by
covering LPs that maximize the total weight of every target still open,
after a scan of the LP optima the model kept, with the answers memoised.
Hull models scan their generators for all three and solve no LP.  For every
model below each of the three must report the oracle's verdict and the
oracle's failures in the oracle's order, whichever order the three are
called in on a model with a cold cache, and again when called a second time
on the warm one; and on each, strong unitality implies unitality and a
strong witness of (x, x) implies a certainty witness of x.  Models: the 112
corpus models with their float twins, a space with an outcome that no state
reaches, hull models (the quantum presets, exact hulls of corpus vertices
and of vertex subsets), ``classical_model(2..4)``, the failure-outcome
extensions of corpus and preset models, float hulls at the tolerance
boundary, and random small spaces.  The generator scan of exact hulls is
also checked against an LP over the mixture weights.

The full models on one space share the LP optima each of them keeps, so
sibling models are checked too: an exact model, its float twin and a float
model at another tolerance on one space, the three predicates in every
order, interleaved across the siblings, cold and then warm, on the corpus
spaces, the space with an outcome no state reaches, and spaces where the
float floor and pin decide (where exact and float verdicts differ).
"""

from functools import lru_cache
from itertools import permutations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracles as oracle
from orthokit import quantum, states, testspace
from orthokit.coarsening import coarsen
from orthokit.corpus import corpus_models
from orthokit.errors import UsageError
from orthokit.states import (
    Model,
    StateSpace,
    Weight,
    adjoin_failure_outcome,
    generator_model,
    weight_from_labels,
)

PREDICATES = ("positivity_failures", "check_unital", "check_strongly_unital")


def cold_copy(model, states=None):
    """The same model with an empty witness cache (no positivity LPs at build),
    on a fresh copy of its space: the full models on one space share its LP optima."""
    return Model(
        testspace.TestSpace(model.space.labels, model.space._test_masks),
        states or model.states, exact=model.exact, tol=(model.tol or None),
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
    assert_implications(cold_copy(model))
    return want


def assert_implications(model):
    """Strongly unital implies unital, and a strong witness of (x, x) is a
    certainty witness of x."""
    if model.check_strongly_unital().holds:
        assert model.check_unital().holds, repr(model.space)
    for x in range(model.space.n_outcomes):
        if model.strong_witness(x, x) is not None:
            assert model.certainty_witness(x) is not None, (repr(model.space), x)


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


# -- sibling models on one space -------------------------------------------------

SIBLING_TOL = 1e-3


def siblings(space):
    """An exact model, its float twin and a float model at ``SIBLING_TOL``, on
    one fresh copy of ``space``."""
    fresh = testspace.TestSpace(space.labels, space._test_masks)
    return [
        Model(fresh, StateSpace.full()),
        Model(fresh, StateSpace.full(), exact=False),
        Model(fresh, StateSpace.full(), exact=False, tol=SIBLING_TOL),
    ]


def assert_witnesses_are_the_models_own(model):
    """Each witness meets the model's own pin and floor, and every optimum kept on
    the space is an exact point of its polytope, as sharing them needs, and
    carries its support and weight-exactly-1 masks."""
    floor = 0 if model.exact else model.tol
    n = model.space.n_outcomes
    for x in range(n):
        w = model.positive_witness(x)
        assert w is None or w[x] > 0
        w = model.certainty_witness(x)
        assert w is None or model._eq(w[x], 1)
        for y in range(n):
            w = model.strong_witness(x, y)
            assert w is None or model._eq(w[x], 1) and states._clears(w[y], floor)
    for w, masks in model._polytope().optima.items():
        assert all(isinstance(v, Fraction) and v >= 0 for v in w.values)
        assert all(sum(w[x] for x in t) == 1 for t in model.space.tests)
        assert masks == tuple(
            sum(1 << x for x, v in enumerate(w.values) if keep(v))
            for keep in (lambda v: v > 0, lambda v: v == 1)
        )


def assert_siblings_agree(space):
    """Every order of the predicates on fresh siblings, cold then warm, with the
    siblings interleaved per predicate and each of them first in turn."""
    wants = [oracle_reports(m) for m in siblings(space)]
    for i, order in enumerate(permutations(PREDICATES)):
        models = siblings(space)
        turn = [(i + k) % 3 for k in range(3)]
        for rnd in range(2):  # cold, then warm
            for name in order:
                for k in turn:
                    got = getattr(models[k], name)()
                    assert got == wants[k][name], (repr(space), order, rnd, name, k)
        for m in models:
            assert_witnesses_are_the_models_own(m)
    return wants


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_siblings_match_oracle(index):
    assert_siblings_agree(CORPUS[index].space)


@pytest.mark.parametrize("dead", range(5))
def test_non_positive_siblings_match_oracle(dead):
    a, b, c, d = (i for i in range(5) if i != dead)
    masks = [sum(1 << x for x in t) for t in ({a, b}, {c, d}, {b, d}, {a, c, dead})]
    wants = assert_siblings_agree(testspace.TestSpace([f"o{i}" for i in range(5)], masks))
    assert all(want["positivity_failures"] == [dead] for want in wants)


def test_siblings_at_the_float_floor_match_oracle():
    """Spaces where the float pin and floor decide.

    The coarsening of corpus model 33, where strong witnesses fail only after
    one LP per target; a space whose float certainty witnesses sit 1 - tol
    below 1; and tests {x,a}, {x,b}, {a,b,c}, {c,y}, where certainty of x
    leaves y nothing, but x = 1 - tol leaves it 2 tol, above the float floor:
    there (x, y) fails strong unitality on the exact model alone.
    """
    spaces = [
        coarsen(CORPUS[33]).model.space,
        testspace.build_test_space([["a", "b"], ["a", "c", "d"], ["c", "d", "e"]]),
        testspace.build_test_space([["x", "a"], ["x", "b"], ["a", "b", "c"], ["c", "y"]]),
    ]
    for space in spaces:
        wants = assert_siblings_agree(space)
    x, y = spaces[-1].outcome("x"), spaces[-1].outcome("y")
    assert [(x, y) in want["check_strongly_unital"].failures for want in wants] == [
        True, False, False
    ]


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


@lru_cache(maxsize=None)
def corpus_hulls():
    """Exact hulls of the vertices of each corpus model, and of every other
    vertex where that is a smaller set: 220 hulls."""
    hulls = []
    for model in CORPUS:
        vertices = model.state_vertices()
        for gens in (vertices, vertices[::2]) if len(vertices) > 1 else (vertices,):
            hulls.append(cold_copy(model, StateSpace.hull(gens)))
    return hulls


def mixture_strong_failures(model):
    """Strong unitality of an exact hull by one LP per pair over the mixture
    weights: maximize the weight at y over sum(l) = 1, sum(l g[x]) = 1, l >= 0."""
    gens = model.states.generators
    n = model.space.n_outcomes
    failures = []
    for x in range(n):
        for y in range(n):
            if model.space.orthogonal(x, y):
                continue
            rows = [[Fraction(1)] * len(gens), [Fraction(g[x]) for g in gens]]
            res = oracle.fraction_solve_lp(
                rows, [Fraction(1), Fraction(1)], [Fraction(g[y]) for g in gens]
            )
            if not (res.optimal and res.value > 0):
                failures.append((x, y))
    return tuple(failures)


def test_generator_scan_matches_the_mixture_lp_on_corpus_hulls():
    """On an exact hull a state certain of x mixes only generators certain of
    x, so scanning the generators decides strong unitality as the LP does."""
    hulls = corpus_hulls()
    assert len(hulls) == 220
    failed = 0
    for hull in hulls:
        want = mixture_strong_failures(hull)
        assert hull.check_strongly_unital().failures == want, repr(hull.space)
        failed += bool(want)
    assert 0 < failed < len(hulls)


def test_hull_predicates_solve_no_lp(monkeypatch):
    """The presets and the corpus hulls decide all three predicates by scans:
    they neither solve an LP nor reduce a system to solve one against."""

    def refuse(*args, **kwargs):
        raise AssertionError("a hull predicate solved an LP")

    monkeypatch.setattr(states, "solve_lp", refuse)
    monkeypatch.setattr(states, "factor", refuse)
    models = preset_models() + corpus_hulls()
    for model in models:
        fresh = cold_copy(model)
        for name in PREDICATES:
            getattr(fresh, name)()
    with pytest.raises(UsageError):
        cold_copy(models[0]).optimize_over_states([0] * models[0].space.n_outcomes)


def test_float_hull_at_the_tolerance_boundary_matches_oracle():
    """A generator 1e-9 above 1 is not certain, although a mixture is.

    Both generators pass validation on tests {a,b}, {b,c}, but 1 + 1e-9 is
    not within the tolerance of 1 in floating point, so no generator is
    certain of a or c.  A mixture reaches weight exactly 1 at a, so a
    certainty LP over the hull would call the model unital, and a pinned LP
    strongly unital; the generator scan, like the oracle, calls it neither.
    """
    space = testspace.build_test_space([["a", "b"], ["b", "c"]])
    gens = [Weight([1 + 1e-9, -1e-9, 1 + 1e-9]), Weight([0.0, 1.0, 0.0])]
    model = generator_model(space, gens, exact=False)
    want = assert_agrees(model, orders=tuple(permutations(PREDICATES)))
    assert want["check_unital"].failures == (0, 2)
    assert want["check_strongly_unital"].failures == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_float_hull_twin_fails_strong_unitality_where_the_exact_hull_does():
    """Tests {x,z}, {y,p}; generators (x=1, p=1) and (x=2/3, z=1/3, y=p=1/2).

    Certainty of x mixes only the first generator, so y gets nothing and
    (x, y) fails in the exact hull.  A float LP pinned at x = 1 - tol could
    mix in 3 tol of the second and leave 1.5 tol at y; the float twin scans
    the generators and fails the same pairs as the exact hull.
    """
    space = testspace.build_test_space([["x", "z"], ["y", "p"]])
    rows = [
        {"x": 1, "z": 0, "y": 0, "p": 1},
        {"x": Fraction(2, 3), "z": Fraction(1, 3), "y": Fraction(1, 2), "p": Fraction(1, 2)},
    ]
    exact = generator_model(space, [weight_from_labels(space, r) for r in rows])
    twin_rows = [{k: float(v) for k, v in r.items()} for r in rows]
    twin = generator_model(space, [weight_from_labels(space, r) for r in twin_rows], exact=False)
    x, y = space.outcome("x"), space.outcome("y")
    want = assert_agrees(exact)
    assert (x, y) in want["check_strongly_unital"].failures
    assert assert_agrees(twin) == want


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
