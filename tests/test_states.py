"""States: weights, membership, positivity, unitality, certainty forcing."""

import math
from fractions import Fraction as F

import pytest

import lp_oracles
from orthokit.coarsening import coarsen
from orthokit.compounding import preservation_compound
from orthokit.errors import (
    NumericKindMismatch,
    PositivityViolation,
    UsageError,
)
from orthokit.corpus import corpus_models, named
from orthokit.states import (
    Model,
    StateSpace,
    Weight,
    adjoin_failure_outcome,
    full_model,
    generator_model,
    weight_from_labels,
)
from orthokit.testspace import build_test_space


@pytest.fixture(scope="module")
def wright_model():
    return named("wright")


def test_event_weight_sums(wright_model):
    m = wright_model
    w = weight_from_labels(
        m.space, {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3), "q": F(2, 3)}
    )
    assert m.is_probability_weight(w)
    assert w.of(m.space.event_of(["x", "y"])) == F(2, 3)
    assert w.of(frozenset()) == 0
    # normalization on the second test pins the loop outcome
    assert w.of(m.space.event_of(["q"])) == 1 - w.of(m.space.event_of(["z"]))


def test_weight_validation():
    s = build_test_space([["a", "b"]])
    m = full_model(s)
    assert not m.is_probability_weight(Weight([F(1), F(1)]))
    assert not m.is_probability_weight(Weight([F(2), F(-1)]))
    with pytest.raises(NumericKindMismatch):
        m._validate_weight(Weight([0.5, 0.5]))


def test_contains_state_full(wright_model):
    w = weight_from_labels(
        wright_model.space, {"x": F(1), "y": F(0), "z": F(0), "q": F(1)}
    )
    assert wright_model.contains_state(w)


def test_contains_state_hull():
    s = build_test_space([["a", "b"]])
    g1 = Weight([F(1), F(0)])
    g2 = Weight([F(0), F(1)])
    m = generator_model(s, [g1, g2])
    mid = Weight([F(1, 2), F(1, 2)])
    assert m.contains_state(mid)
    outside = generator_model(s, [Weight([F(1, 2), F(1, 2)])])
    assert not outside.contains_state(g1)


def test_contains_ray_vs_state():
    s = build_test_space([["a", "b"]])
    alpha = Weight([F(1, 2), F(1, 2)])
    m = generator_model(s, [alpha])
    doubled = Weight([F(1), F(1)])
    assert m.contains_ray(doubled)
    assert not m.contains_state(doubled)
    assert m.contains_ray(Weight([F(0), F(0)]))


def test_contains_ray_refuses_what_contains_state_refuses():
    """A weight of the other scalar kind, or with an entry that is not
    finite, is neither a state nor a ray, on hulls and full models alike."""
    s = build_test_space([["a", "b", "c"]])
    corners = [[int(i == j) for j in range(3)] for i in range(3)]
    exact = generator_model(s, [Weight([F(v) for v in c]) for c in corners])
    floats = generator_model(s, [Weight([float(v) for v in c]) for c in corners], exact=False)
    halves, float_halves = Weight([F(1, 2)] * 3), Weight([0.5] * 3)
    for m in (exact, full_model(s)):
        assert m.contains_ray(halves)
        assert not m.contains_ray(float_halves) and not m.contains_state(float_halves)
    for m in (floats, full_model(s, exact=False)):
        assert m.contains_ray(float_halves)
        for bad in (halves, Weight([math.inf, 0.0, 0.0]), Weight([math.nan, 0.0, 0.0])):
            assert not m.contains_ray(bad) and not m.contains_state(bad)


@pytest.mark.parametrize("exact", (True, False))
def test_hull_membership_keeps_one_system_per_conic_flag(exact):
    """``contains_state`` reduces [G; 1], ``contains_ray`` G alone; whichever
    asks first, the other still gets its own table.  Hull of (1/2, 1/2) on
    one test {a, b}: (1, 1) is a ray, not a state, and the mixture row sums
    to 1 only for the state."""
    s = build_test_space([["a", "b"]])
    half = F(1, 2) if exact else 0.5
    one = F(1) if exact else 1.0
    m = generator_model(s, [Weight([half, half])], exact=exact)
    for first in ("state", "ray"):
        fresh = Model(m.space, m.states, exact=m.exact, tol=m.tol)
        answers = []
        for query in (first, {"state": "ray", "ray": "state"}[first]):
            if query == "state":
                answers.append(fresh.contains_state(Weight([half, half])))
            else:
                answers.append(fresh.contains_ray(Weight([one, one])))
        assert answers == [True, True], first
        assert fresh.contains_ray(Weight([one, 0 * one])) is False


def test_contains_ray_full(wright_model):
    w = weight_from_labels(
        wright_model.space,
        {"x": F(1, 2), "y": F(0), "z": F(0), "q": F(1, 2)},
    )
    assert wright_model.contains_ray(w)
    bad = weight_from_labels(
        wright_model.space, {"x": F(1, 2), "y": F(0), "z": F(0), "q": F(1, 4)}
    )
    assert not wright_model.contains_ray(bad)


def test_float_model_membership():
    s = build_test_space([["a", "b"]])
    m = generator_model(s, [Weight([1.0, 0.0]), Weight([0.0, 1.0])], exact=False)
    assert m.contains_state(Weight([0.5 + 1e-12, 0.5 - 1e-12]))
    assert not m.contains_state(Weight([0.7, 0.2]))


def test_positivity_enforced():
    s = build_test_space([["a", "b"]])
    with pytest.raises(PositivityViolation):
        generator_model(s, [Weight([F(1), F(0)])])


def test_unitality(wright_model):
    assert wright_model.check_unital().holds
    s = build_test_space([["a", "b"]])
    m = generator_model(s, [Weight([F(1, 2), F(1, 2)])])
    rep = m.check_unital()
    assert not rep.holds and len(rep.failures) == 2


def test_strong_unitality(wright_model):
    assert wright_model.check_strongly_unital().holds


def test_strong_unitality_includes_certainty():
    # all distinct outcomes orthogonal, but no state is certain of anything,
    # so the diagonal requirement fails
    m = full_model(build_test_space([["a", "b"], ["a", "c"], ["b", "c"]]))
    assert not m.check_strongly_unital().holds
    assert not m.check_unital().holds
    assert not m.space.regular()  # which is why the diagonal matters


def test_hull_strong_witness_skips_orthogonal_pairs():
    """A float generator within tol of 1 at x can carry more than tol at an
    orthogonal y (another outcome of the test sits at -0.9 tol); the pair
    still has no strong witness."""
    space = build_test_space([["x", "y", "z"]])
    gens = [Weight([1 - 5e-10, 1.4e-9, -0.9e-9]), Weight([0.0, 1.0, 0.0]), Weight([0.0, 0.0, 1.0])]
    m = generator_model(space, gens, exact=False)
    assert m.strong_witness(0, 0) is gens[0] and gens[0][1] > m.tol
    assert m.strong_witness(0, 1) is None


def test_exact_hull_scans_compare_exactly():
    """A weight of 1/10^400 is positive, although it is 0.0 as a float."""
    tiny = F(1, 10**400)
    m = generator_model(build_test_space([["a", "b"]]), [Weight([1 - tiny, tiny]), Weight([F(1), F(0)])])
    assert m.positivity_failures() == []
    assert m.strong_witness(1, 1) is None and m.strong_witness(0, 0) is m.states.generators[1]
    assert m.check_strongly_unital() == lp_oracles.check_strongly_unital(m)


def test_strongly_unital_implies_regular_on_corpus():
    for m in corpus_models(5, 3):
        if m.check_strongly_unital().holds:
            assert m.space.regular(), repr(m.space)


def test_certain_event_is_test(wright_model):
    m = wright_model
    assert m.certain_event_is_test(m.space.tests[0])
    assert not m.certain_event_is_test(m.space.event_of(["x", "y"]))
    with pytest.raises(UsageError):
        m.certain_event_is_test(m.space.event_of(["x", "q"]))


def test_certainty_forcing_on_corpus():
    """Events certain under every state are whole tests, corpus-wide."""
    for m in corpus_models(4, 3):
        for a in m.space.events_list():
            m.certain_event_is_test(a)  # raises PositivityViolation on defect


def test_perspective_events_same_weight_everywhere(wright_model):
    m = wright_model
    a = m.space.event_of(["x", "y"])
    b = m.space.event_of(["q"])
    assert m.space.is_perspective(a, b)
    for w in m.state_vertices():
        assert w.of(a) == w.of(b)


def test_min_event_weight(wright_model):
    assert wright_model.min_event_weight(wright_model.space.tests[0]) == 1
    assert wright_model.min_event_weight(frozenset()) == 0


def test_transversal_weights():
    s = build_test_space([["a", "b"], ["c", "d"]])
    ws = lp_oracles.transversal_weights(s)
    assert len(ws) == 4
    m = full_model(s)
    for w in ws:
        assert m.is_probability_weight(w)


def test_adjoin_failure_outcome(wright_model):
    plus = adjoin_failure_outcome(wright_model, "*")
    star = plus.space.outcome("*")
    assert all(star in t for t in plus.space.tests)
    assert plus.check_unital().holds  # the point mass at * is available


def test_hull_state_space_requires_generators():
    with pytest.raises(UsageError):
        StateSpace.hull([])


@pytest.mark.parametrize("tol", [float("inf"), -1, float("nan")])
def test_model_entry_points_refuse_bad_tolerances(tol):
    """With tol=inf the non-state {a: 0.7, b: 0.7} would pass as unital."""
    space = build_test_space([["a", "b"]])
    with pytest.raises(UsageError, match="tolerance must be finite and nonnegative"):
        generator_model(space, [Weight((0.7, 0.7))], exact=False, tol=tol)
    with pytest.raises(UsageError, match="tolerance must be finite and nonnegative"):
        full_model(space, exact=False, tol=tol)


# -- witness covers ---------------------------------------------------------------------
#
# ``Model._cover`` answers positivity, certainty and strong unitality with
# covering LPs.  These tests pin each of its branches by the LPs it solves.


@pytest.fixture
def lp_log(monkeypatch):
    """(model, objective support, pins) of every LP a model solves."""
    log = []
    solve = Model.optimize_over_states

    def logged(self, objective, fix=(), maximize=True):
        log.append((self, {x for x, v in enumerate(objective) if v}, tuple(fix)))
        return solve(self, objective, fix=fix, maximize=maximize)

    monkeypatch.setattr(Model, "optimize_over_states", logged)
    return log


def cold(space, exact=True):
    """A full model that has solved no LP yet."""
    return Model(space, StateSpace.full(), exact=exact)


def test_cover_infeasible_pin_fails_after_one_lp(lp_log):
    """No state of the triangle is certain of anything: one LP per pin."""
    m = cold(build_test_space([["a", "b"], ["a", "c"], ["b", "c"]]))
    rep = m.check_strongly_unital()
    assert rep.failures == ((0, 0), (1, 1), (2, 2))
    assert [(s, f) for _, s, f in lp_log] == [({x}, ((x, 1),)) for x in range(3)]
    assert not m.check_unital().holds and len(lp_log) == 3


def test_cover_total_at_floor_fails_open_targets_after_one_lp(lp_log):
    """Certainty of x forces weight 0 on y1 and y2: their total LP fails both."""
    space = build_test_space([["x", "a"], ["a", "b"], ["b", "y1"], ["b", "y2"]])
    x, b, y1, y2 = (space.outcome(lab) for lab in ("x", "b", "y1", "y2"))
    m = cold(space)
    assert m.strong_witness(x, b)[b] == 1
    assert m.strong_witness(x, y1) is None and m.strong_witness(x, y2) is None
    assert [s for _, s, _ in lp_log] == [{x, b, y1, y2}, {y1, y2}]


def test_cover_falls_back_to_one_lp_per_target(lp_log):
    """The float floor: open targets clear it together but none alone.

    In the float coarsening of corpus model 33 (tests {a,b}, {a,c},
    {b,d,e}), certainty of {c} forces {d}, {d,e} and {e} to 0; with the pin
    at 1 - tol they clear the floor together, but each alone gets the
    tolerance and no more, so all three fail after their own LPs.  In the
    coarsening of corpus model 94, pinned at {a}, {b,e} and {c,d} also clear
    it only in their own LPs, so only the fallback finds their witnesses;
    the exact twin has none.
    """
    corpus = list(corpus_models(6, 3))
    space, second = (coarsen(corpus[i]).model.space for i in (33, 94))
    lp_log.clear()
    c, d, de, e = (space.outcome(lab) for lab in ("{c}", "{d}", "{d,e}", "{e}"))
    m = cold(space, exact=False)
    assert all(m.strong_witness(c, y) is None for y in (d, de, e))
    targets = {y for y in range(space.n_outcomes) if not space.orthogonal(c, y)}
    assert [s for _, s, _ in lp_log] == [targets, {d, de, e}, {d}, {de}, {e}]
    assert m.check_strongly_unital() == lp_oracles.check_strongly_unital(m)

    space = second
    a, be, cd = (space.outcome(lab) for lab in ("{a}", "{b,e}", "{c,d}"))
    m = cold(space, exact=False)
    lp_log.clear()
    assert all(m.strong_witness(a, y)[y] > m.tol for y in (be, cd))
    assert [s for _, s, _ in lp_log][-2:] == [{be}, {cd}]
    exact = cold(space)
    assert exact.strong_witness(a, be) is None and exact.strong_witness(a, cd) is None


def test_cover_repeated_query_solves_no_lp(lp_log, wright_model):
    for m in (cold(wright_model.space), cold(build_test_space([["a", "b"], ["a", "c"], ["b", "c"]]))):
        first = [m.positivity_failures(), m.check_unital(), m.check_strongly_unital()]
        solved = len(lp_log)
        assert solved
        for x in range(m.space.n_outcomes):
            m.positive_witness(x), m.certainty_witness(x), m.strong_witness(x, x)
        assert [m.positivity_failures(), m.check_unital(), m.check_strongly_unital()] == first
        assert len(lp_log) == solved
        lp_log.clear()


def test_float_certainty_witness_below_one_compounds():
    """A pinned LP may spend the float slack at the pinned outcome.

    On this space a cold float model has a certainty witness with weight
    1 - tol at its outcome.  The compound multiplies two such factors on the
    string (d, d): not within tol of 1, but within one tol per factor, which
    is what its re-verification allows.
    """
    space = build_test_space([["a", "b"], ["a", "c", "d"], ["c", "d", "e"]])
    m = cold(space, exact=False)
    assert any(m.certainty_witness(x)[x] != 1 for x in range(space.n_outcomes))
    rep = preservation_compound(cold(space, exact=False), 2)
    assert rep.properties["unital"] == (True, True)

