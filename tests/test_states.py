"""States: weights, membership, positivity, unitality, certainty forcing."""

from fractions import Fraction as F

import pytest

import lp_oracles
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
    sample_polytope_vertices,
    transversal_weights,
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
    ws = transversal_weights(s)
    assert len(ws) == 4
    m = full_model(s)
    for w in ws:
        assert m.is_probability_weight(w)


def test_sampled_vertices_are_states(wright_model):
    for w in sample_polytope_vertices(wright_model, 16, seed=3):
        assert wright_model.is_probability_weight(w)


def test_adjoin_failure_outcome(wright_model):
    plus = adjoin_failure_outcome(wright_model, "*")
    star = plus.space.outcome("*")
    assert all(star in t for t in plus.space.tests)
    assert plus.check_unital().holds  # the point mass at * is available


def test_hull_state_space_requires_generators():
    with pytest.raises(UsageError):
        StateSpace.hull([])


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
    """The float floor: two targets clear it together but neither alone.

    The first model is the float twin of an exact hull of two corpus
    vertices: pinned at d, b and c each get the tolerance and no more, so
    both fail after their own LPs.  In the second, y1 alone clears the floor
    through a generator that the total LP passes over, so only the fallback
    finds its witness.
    """
    space = build_test_space([["a", "b"], ["a", "c"], ["d", "e"]])
    gens = [Weight([0.0, 1.0, 1.0, 0.0, 1.0]), Weight([1.0, 0.0, 0.0, 1.0, 0.0])]
    m = generator_model(space, gens, exact=False)
    a, b, c, d = range(4)
    assert m.strong_witness(d, b) is None and m.strong_witness(d, c) is None
    assert [s for _, s, _ in lp_log] == [{a, b, c, d}, {b, c}, {b}, {c}]

    space = build_test_space([["x", "z"], ["y1", "p"], ["y2", "q"]])
    rows = [
        {"x": 1 + 5e-10, "z": -5e-10, "y1": 0.0, "p": 1.0, "y2": 0.0, "q": 1.0},
        {"x": 0.0, "z": 1.0, "y1": 0.6, "p": 0.4, "y2": 0.6, "q": 0.4},
        {"x": 0.0, "z": 1.0, "y1": 1.0, "p": 0.0, "y2": 0.0, "q": 1.0},
    ]
    m = generator_model(space, [weight_from_labels(space, r) for r in rows], exact=False)
    x, y1, y2 = (space.outcome(lab) for lab in ("x", "y1", "y2"))
    assert m.strong_witness(x, y1)[y1] > m.tol
    assert m.strong_witness(x, y2) is None
    assert m.check_strongly_unital() == lp_oracles.check_strongly_unital(m)


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

