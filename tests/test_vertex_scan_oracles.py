"""A full model's vertex scan decides its state predicates as the LP cover does.

``Model._cover`` first scans the vertices of the space's polytope (the
lemma in the ``states`` docstring), enumerated once per space under the
budget (n + 1)(2n + 1) for n outcomes.  The LP cover that follows the scan,
and answers alone past the budget, stays in place; ``lp_oracles.lp_cover``
copies a space so that its models use it alone, and here it is the oracle.
On every model below, the scan and the LP cover report the same ``holds``
and the same ordered failures for positivity, unitality and strong
unitality; each witness of the scan is an exact point of the polytope that
meets its model's pin and floor; and an exact model solves no LP.  Models:
the 112 corpus models, exact and at tolerances 1e-9, 1e-6 and 1e-3; the
112 corpus coarsenings, exact and at 1e-9; the 5-outcome space with an
outcome that no state reaches, at each position; ``classical_model(2..4)``;
and hypothesis-random spaces.

A space past the budget, 10 disjoint 2-outcome tests (1,024 vertices,
1,034 rays created against a budget of 861; 9 tests need 521 of 703),
answers through the LP cover as ``lp_oracles`` does, stops its one
enumeration at the budget, and leaves ``state_vertices`` refusing and
answering as on a fresh space.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracles as oracle
from orthokit import linprog, quantum, states, testspace
from orthokit.coarsening import coarsen
from orthokit.corpus import corpus_models
from orthokit.errors import EnumerationCapExceeded
from orthokit.states import Model, StateSpace

TOLS = (None, 1e-9, 1e-6, 1e-3)  # None: the exact model
PAST_BUDGET = 10  # disjoint 2-outcome tests: the fewest whose enumeration passes the budget


@pytest.fixture
def lp_log(monkeypatch):
    """The models that solve a state LP, one entry per LP."""
    log = []
    solve = Model.optimize_over_states

    def logged(self, *args, **kwargs):
        log.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Model, "optimize_over_states", logged)
    return log


def full(space, tol):
    return Model(space, StateSpace.full(), exact=tol is None, tol=tol)


def reports(model):
    return [model.positivity_failures(), model.check_unital(), model.check_strongly_unital()]


def budget(space):
    n = space.n_outcomes
    return (n + 1) * (2 * n + 1)


def assert_witnesses_meet_pin_and_floor(model):
    floor = 0 if model.exact else model.tol
    n = model.space.n_outcomes

    def state(w):
        return all(isinstance(v, Fraction) and v >= 0 for v in w.values) and all(
            w.of(t) == 1 for t in model.space.tests
        )

    for x in range(n):
        w = model.positive_witness(x)
        assert w is None or w[x] > 0 and state(w), x
        w = model.certainty_witness(x)
        assert w is None or model._eq(w[x], 1) and state(w), x
        for y in range(n):
            w = model.strong_witness(x, y)
            assert w is None or (
                model._eq(w[x], 1) and states._clears(w[y], floor) and state(w)
            ), (x, y)


def assert_scan_matches_cover(space, lp_log, tols=TOLS):
    """Each model scans the vertices of a fresh copy of ``space`` and reports
    what the LP cover reports; the exact one solves no LP."""
    for tol in tols:
        scan = full(testspace.TestSpace(space.labels, space._test_masks), tol)
        lp_log.clear()
        got = reports(scan)
        assert scan._polytope().vertices[0] == budget(space)
        assert scan._polytope().vertices[1] is not None
        if tol is None:
            assert lp_log == [], repr(space)
        assert got == reports(full(oracle.lp_cover(space), tol)), (repr(space), tol)
        assert_witnesses_meet_pin_and_floor(scan)


CORPUS = list(corpus_models(6, 3))


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_scan_matches_lp_cover(index, lp_log):
    assert_scan_matches_cover(CORPUS[index].space, lp_log)


@lru_cache(maxsize=None)
def coarse_spaces():
    return [coarsen(m).model.space for m in CORPUS]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_coarsening_scan_matches_lp_cover(index, lp_log):
    assert_scan_matches_cover(coarse_spaces()[index], lp_log, tols=TOLS[:2])


@pytest.mark.parametrize("dead", range(5))
def test_dead_outcome_scan_matches_lp_cover(dead, lp_log):
    """Tests {a,b}, {c,d}, {b,d}, {a,c,x} force weight 0 on x, wherever x sits."""
    a, b, c, d = (i for i in range(5) if i != dead)
    masks = [sum(1 << x for x in t) for t in ({a, b}, {c, d}, {b, d}, {a, c, dead})]
    space = testspace.TestSpace([f"o{i}" for i in range(5)], masks)
    assert_scan_matches_cover(space, lp_log)
    assert full(space, None).positivity_failures() == [dead]


@pytest.mark.parametrize("n", (2, 3, 4))
def test_classical_scan_matches_lp_cover(n, lp_log):
    assert_scan_matches_cover(quantum.classical_model(n).model.space, lp_log)


def test_scans_meet_both_verdicts():
    """The corpus and its coarsenings hold and fail each predicate somewhere,
    and the float twins there differ from the exact models somewhere."""
    spaces = [m.space for m in CORPUS] + coarse_spaces()
    exact = [reports(full(sp, None)) for sp in spaces]
    for k in range(1, 3):
        assert {r[k].holds for r in exact} == {True, False}
    floats = [reports(full(sp, 1e-3)) for sp in spaces]
    assert exact != floats


@st.composite
def random_spaces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=5)
    )
    family = sorted({m for m in masks if not any(m != o and m & o == m for o in masks)})
    used = sorted({x for m in family for x in range(n) if m >> x & 1})
    new_id = {x: i for i, x in enumerate(used)}
    family = [sum(1 << new_id[x] for x in range(n) if m >> x & 1) for m in family]
    return testspace.TestSpace([f"o{i}" for i in range(len(used))], family)


@given(random_spaces(), st.sampled_from(TOLS))
@settings(max_examples=150, deadline=None)
def test_random_scan_matches_lp_cover(space, tol):
    log = []
    solve = Model.optimize_over_states
    Model.optimize_over_states = lambda self, *a, **k: log.append(self) or solve(self, *a, **k)
    try:
        assert_scan_matches_cover(space, log, tols=(tol,))
    finally:
        Model.optimize_over_states = solve


# -- past the budget -----------------------------------------------------------------


def disjoint_pairs(k):
    return testspace.build_test_space([[f"a{i}", f"b{i}"] for i in range(k)])


def outcome(model, cap):
    """("returned", the vertices) of ``state_vertices(cap)``, or ("refused", what, cap, bound)."""
    try:
        return "returned", [w.values for w in model.state_vertices(cap)]
    except EnumerationCapExceeded as exc:
        return "refused", exc.what, exc.cap, exc.bound


def test_space_past_the_budget_answers_through_the_lp_cover(monkeypatch):
    space = disjoint_pairs(PAST_BUDGET)
    limit = budget(space)
    runs, enumerations = [], []
    inner = linprog._double_description

    def spy(a_rows, b_rhs, cap):
        verts, created = inner(a_rows, b_rhs, cap)
        runs.append((cap, verts is None, created))
        return verts, created

    monkeypatch.setattr(linprog, "_double_description", spy)
    enumerate_vertices = states.enumerate_vertices
    monkeypatch.setattr(
        states, "enumerate_vertices", lambda *a: enumerations.append(a) or enumerate_vertices(*a)
    )
    for rnd in range(2):  # the second round's models find the space's record
        for tol in TOLS:
            model = full(space, tol)
            got = reports(model)
            want = [
                oracle.positivity_failures(model),
                oracle.check_unital(model),
                oracle.check_strongly_unital(model),
            ]
            assert got == want, (rnd, tol)
            assert_witnesses_meet_pin_and_floor(model)
    # one run, stopped when its next ray would pass the budget
    assert runs == [(limit, True, limit + 1)] and enumerations == []
    assert space._derived["polytope"].vertices == (limit, None)
    runs.clear()
    model = full(space, None)
    fresh = full(disjoint_pairs(PAST_BUDGET), None)
    for cap in (limit - 1, limit):
        got = outcome(model, cap)
        assert got == outcome(fresh, cap) == ("refused", "polytope vertices", cap, cap + 1)
    assert len(runs) == 4 and enumerations
    # the whole run creates 1,034 rays
    assert outcome(model, 1033)[0] == "refused"
    assert outcome(model, 1034) == outcome(fresh, None)
    assert len(outcome(model, None)[1]) == 2**PAST_BUDGET


def test_one_test_fewer_stays_within_the_budget():
    """9 disjoint 2-outcome tests: 521 rays against a budget of 703."""
    space = disjoint_pairs(PAST_BUDGET - 1)
    model = full(space, None)
    assert reports(model)[1].holds
    cap, kept = space._derived["polytope"].vertices
    assert cap == budget(space) and len(kept) == 2 ** (PAST_BUDGET - 1)
    assert outcome(model, 520)[0] == "refused" and outcome(model, 521)[0] == "returned"
