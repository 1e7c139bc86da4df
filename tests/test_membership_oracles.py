"""Hull membership agrees with the LP alone (``lp_oracles.hull_membership``).

``contains_state`` and ``contains_ray`` decide hull membership through
``Model._hull_membership``, which first forms a candidate mixture λ̂ and its
exact L1 residual B (``Model._mixture``) and answers True with no LP when B
is within the rounding margin of the tolerance (float models) or 0 (exact
models); otherwise it poses the LP the oracle poses.  Every query below must
get the oracle's verdict from both public methods, rays scaled by 0, 1/3 and
7; λ̂ must be a feasible point of the LP (nonnegative, summing to 1 unless
conic) and B its exact residual; and a query that solved no LP must have
answered True.  Inputs: the three quantum presets' generators and mixtures,
exact and float hulls of every corpus model's state vertices, points whose
exact residual is tol·(1 ± 2^-20), repeated and affinely dependent
generators and single generators, tolerances 0 and 1e-300, and
hypothesis-random float hulls.  Rule tests pin the decision itself: where
the certificate applies and where the LP must run.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracles as oracle
from orthokit import linprog, quantum, states
from orthokit.corpus import corpus_models
from orthokit.states import Model, StateSpace, Weight
from orthokit.testspace import build_test_space

CORPUS = list(corpus_models(6, 3))


@contextmanager
def counted_lps():
    """The LPs solved inside the block, by any reduced system."""
    calls = []
    solve = linprog.ReducedSystem.solve

    def counting(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    with mock.patch.object(linprog.ReducedSystem, "solve", counting):
        yield calls


def lp_verdict(model, method, w):
    """What ``method`` answers with the LP alone deciding hull membership."""
    with mock.patch.object(Model, "_hull_membership", oracle.hull_membership):
        return getattr(model, method)(w)


def scaled(model, w, c):
    factor = F(c) if model.exact else float(c)
    return Weight([v * factor for v in w.values])


def assert_membership(model, w):
    """Both public methods and the membership step itself against the oracle;
    returns the verdict of ``contains_state`` and whether it solved an LP."""
    out = None
    for conic, point in [(False, w)] + [(True, scaled(model, w, c)) for c in (0, F(1, 3), 7)]:
        method = "contains_ray" if conic else "contains_state"
        with counted_lps() as calls:
            got = getattr(model, method)(point)
        assert got == lp_verdict(model, method, point), (repr(model.space), method, point)
        with counted_lps() as calls:
            member = model._hull_membership(point, conic=conic)
        assert member == oracle.hull_membership(model, point, conic), (method, point)
        assert calls or member is True, "the certificate answered False"
        assert_feasible_candidate(model, point, conic)
        if out is None:
            out = got, bool(calls)
    return out


def assert_feasible_candidate(model, w, conic):
    """λ̂ is a feasible point of the membership LP and B its exact L1 residual."""
    weights, bound = model._mixture(w, conic)
    gens = model.states.generators
    assert len(weights) == len(gens)
    assert all(type(v) is F and v >= 0 for v in weights), weights
    assert conic or sum(weights) == 1, weights
    residual = sum(
        abs(sum((F(g[x]) * v for g, v in zip(gens, weights)), F(0)) - F(w[x]))
        for x in range(model.space.n_outcomes)
    )
    assert bound == residual


def mixtures(gens, rng, count):
    """Seeded convex combinations, in the generators' scalar kind."""
    out = []
    for _ in range(count):
        lam = [rng.random() + 0.05 for _ in gens]
        total = sum(lam)
        if isinstance(gens[0][0], float):
            out.append(Weight([sum(l * g[x] for l, g in zip(lam, gens)) / total
                               for x in range(len(gens[0]))]))
        else:
            lam = [F(round(l * 64)) for l in lam]
            out.append(Weight([sum(l * g[x] for l, g in zip(lam, gens)) / sum(lam)
                               for x in range(len(gens[0]))]))
    return out


def float_weight(w):
    return Weight([float(v) for v in w.values])


def hull(model, gens, exact=True, tol=None):
    return Model(model.space, StateSpace.hull(gens), exact=exact, tol=tol)


# -- the quantum presets ----------------------------------------------------------------


@lru_cache(maxsize=None)
def preset_models():
    presets = (
        quantum.preset_qubit_interferometer,
        quantum.preset_spin1,
        quantum.preset_spin32,
    )
    return [p().model for p in presets]


@pytest.mark.parametrize("index", range(3))
def test_quantum_presets_match_the_lp(index, monkeypatch):
    """Generators and mixtures are confirmed by the certificate, with no LP
    table built; every other query matches the LP."""
    preset = preset_models()[index]
    model = hull(preset, preset.states.generators, exact=False, tol=preset.tol)
    gens = model.states.generators
    points = [*gens, *mixtures(gens, random.Random(index), 3)]

    def refuse(*args, **kwargs):
        raise AssertionError("a confirmed point built an LP table")

    with monkeypatch.context() as patch:
        patch.setattr(states, "factor", refuse)
        assert all(model.contains_state(w) for w in points)
    for w in points:
        assert assert_membership(model, w) == (True, False)
    # each generator alone: the other generator is outside, by a clear margin
    for g in gens:
        single = hull(preset, [g], exact=False, tol=preset.tol)
        assert [assert_membership(single, w)[0] for w in gens] == [h is g for h in gens]


# -- corpus vertex hulls ----------------------------------------------------------------


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_vertex_hulls_match_the_lp(index):
    """Exact and float hulls of every other vertex, queried at every vertex
    (some outside), at mixtures of the generators and at mixtures of all
    vertices (some outside)."""
    model = CORPUS[index]
    vertices = model.state_vertices()
    gens = vertices[::2]
    rng = random.Random(index)
    points = [*vertices, *mixtures(gens, rng, 2), *mixtures(vertices, rng, 2)]
    exact = hull(model, gens)
    verdicts = [assert_membership(exact, w)[0] for w in points]
    assert verdicts[: len(vertices) + 2] == [v in gens for v in vertices] + [True, True]
    twin = hull(model, [float_weight(g) for g in gens], exact=False)
    twin_verdicts = [assert_membership(twin, float_weight(w))[0] for w in points]
    assert twin_verdicts == verdicts


def test_corpus_hulls_use_both_paths():
    """Across the corpus, the certificate confirms some exact queries and the
    LP decides others, both ways."""
    seen = set()
    for model in CORPUS[::7]:
        vertices = model.state_vertices()
        exact = hull(model, vertices[::2])
        for w in [*vertices, *mixtures(vertices[::2], random.Random(0), 2)]:
            seen.add(assert_membership(exact, w))
    assert seen == {(True, False), (True, True), (False, True)}


# -- at the tolerance ---------------------------------------------------------------------


def boundary_points(g):
    """For each outcome x, g moved at x alone, with the tolerance that puts the
    exact residual |w_x - g_x| at tol·(1 ± 2^-20)."""
    for x in range(len(g)):
        w = list(g.values)
        w[x] = g[x] + 3e-9 if g[x] < 0.5 else g[x] - 3e-9
        residual = abs(F(w[x]) - F(g[x]))
        for sign in (-1, 1):
            tol = float(residual / (1 + sign * F(1, 2**20)))
            yield Weight(w), tol, sign


@pytest.mark.parametrize("index", range(3))
def test_residual_at_the_tolerance_matches_the_lp(index):
    """One generator: λ̂ = 1 for states, so B is the residual itself.  Just
    inside the tolerance the certificate confirms the state; just outside,
    the LP rejects it."""
    preset = preset_models()[index]
    for g in preset.states.generators:
        for w, tol, sign in boundary_points(g):
            model = hull(preset, [g], exact=False, tol=tol)
            assert model._hull_membership(w, conic=False) == (sign < 0)
            assert_membership(model, w)


def test_corpus_residual_at_the_tolerance_matches_the_lp():
    for model in CORPUS[::5]:
        for g in model.state_vertices()[:2]:
            g = float_weight(g)
            for w, tol, sign in boundary_points(g):
                single = hull(model, [g], exact=False, tol=tol)
                assert single._hull_membership(w, conic=False) == (sign < 0)
                assert_membership(single, w)


# -- degenerate generator sets and tolerances ---------------------------------------------


def degenerate_sets(gens):
    """Repeated, affinely dependent and single generators."""
    g1, g2 = gens[0], gens[-1]
    mid = Weight([(a + b) / 2 for a, b in zip(g1.values, g2.values)])
    return [[g1, g1, g2], [g1, g2, g1, g2], [g1, mid, g2], [mid, g1, g2, mid], [g1], [mid]]


def test_degenerate_preset_generators_match_the_lp():
    for preset in preset_models():
        gens = preset.states.generators
        points = [*gens, *mixtures(gens, random.Random(1), 2)]
        for subset in degenerate_sets(gens):
            model = hull(preset, subset, exact=False, tol=preset.tol)
            verdicts = [assert_membership(model, w)[0] for w in points]
            if len(subset) > 1:
                assert all(verdicts)


def test_degenerate_corpus_generators_match_the_lp():
    confirmed = 0
    for model in CORPUS[::4]:
        vertices = model.state_vertices()
        points = [*vertices, *mixtures(vertices, random.Random(2), 1)]
        for subset in degenerate_sets(vertices):
            for exact in (True, False):
                gens = subset if exact else [float_weight(g) for g in subset]
                h = hull(model, gens, exact=exact)
                for w in points:
                    got, solved = assert_membership(h, w if exact else float_weight(w))
                    confirmed += got and not solved
    assert confirmed > 0


@pytest.mark.parametrize("tol", (0.0, 1e-300))
def test_tiny_tolerances_match_the_lp(tol):
    """With tol 0 or 1e-300 only exactly reproduced points can be states."""
    for preset in preset_models():
        gens = preset.states.generators
        model = hull(preset, gens, exact=False, tol=tol)
        assert model.tol == tol
        for w in [*gens, *mixtures(gens, random.Random(3), 2)]:
            assert_membership(model, w)
    for model in CORPUS[::6]:
        vertices = [float_weight(v) for v in model.state_vertices()]
        h = hull(model, vertices[::2], exact=False, tol=tol)
        for w in [*vertices, *mixtures(vertices, random.Random(4), 1)]:
            assert_membership(h, w)


# -- the decision rule ------------------------------------------------------------------


def test_float_certificate_keeps_the_rounding_margin():
    """One generator (1/2, 1/2) on one test {a, b} and w = (1/2 + d, 1/2 - d),
    d = 2^-40: λ̂ = 1, so B = 2d exactly and the largest |w_x| is 1/2 + d.
    The certificate applies exactly when the margin
    (B + 2^-53·(2·max|w_x| + B))·(1 + 2^-53) is at most tol; below that the
    LP runs (and confirms: each coordinate is off by d).  A residual taken as
    a maximum (d) or without the margin would skip the LP at tol = 1.5 d or
    tol = B."""
    space = build_test_space([["a", "b"]])
    d = 2.0**-40
    w = Weight([0.5 + d, 0.5 - d])
    bound = F(2 * d)
    margin = (bound + F(1, 2**53) * (2 * F(0.5 + d) + bound)) * (1 + F(1, 2**53))
    above = float(margin)
    if above < margin:
        above = math.nextafter(above, math.inf)
    below = math.nextafter(above, 0.0)
    for tol, solves in ((1.5 * d, True), (2 * d, True), (below, True), (above, False)):
        assert (F(tol) >= margin) is not solves
        model = Model(space, StateSpace.hull([Weight([0.5, 0.5])]), exact=False, tol=tol)
        assert model._mixture(w, conic=False) == ([F(1)], bound)
        with counted_lps() as calls:
            assert model._hull_membership(w, conic=False) is True
        assert bool(calls) is solves, tol


def test_exact_certificate_needs_a_zero_residual():
    """On an exact hull only B = 0 skips the LP: the generator itself does,
    a point of the hull off the candidate or outside it does not."""
    space = build_test_space([["a", "b"]])
    model = Model(space, StateSpace.hull([Weight([F(1, 2), F(1, 2)])]))
    for w, member, solves in (
        (Weight([F(1, 2), F(1, 2)]), True, False),
        (Weight([F(1, 3), F(2, 3)]), False, True),
    ):
        with counted_lps() as calls:
            assert model._hull_membership(w, conic=False) is member
        assert bool(calls) is solves
    wide = Model(space, StateSpace.hull([Weight([F(1), F(0)]), Weight([F(0), F(1)])]))
    with counted_lps() as calls:
        assert wide.contains_state(Weight([F(1, 7), F(6, 7)]))
    assert calls, "1/7 is no float: the candidate misses it and the LP confirms"


def test_candidate_clips_and_renormalizes():
    """A point outside a segment gets a negative least-squares weight: the
    candidate clips it and sums to 1 exactly; as a ray it only clips."""
    space = build_test_space([["a", "b", "c"]])
    gens = [Weight([0.5, 0.5, 0.0]), Weight([0.25, 0.5, 0.25])]
    model = Model(space, StateSpace.hull(gens), exact=False)
    for w in (Weight([0.75, 0.5, -0.25]), Weight([1.0, 0.0, 0.0]), Weight([0.1, 0.3, 0.6])):
        for conic in (False, True):
            assert_feasible_candidate(model, w, conic)
    weights, _ = model._mixture(Weight([0.75, 0.5, -0.25]), conic=False)
    assert weights == [F(1), F(0)]
    assert model._mixture(Weight([0.0, 0.0, 0.0]), conic=True) == ([F(0), F(0)], F(0))


# -- random float hulls -------------------------------------------------------------------


@st.composite
def random_float_hulls(draw):
    """A corpus space, float generators mixed from its vertices, query points
    (generators, mixtures, vertices, nudged mixtures) and a tolerance."""
    model = draw(st.sampled_from(CORPUS))
    vertices = model.state_vertices()
    rng = random.Random(draw(st.integers(0, 2**32)))
    gens = [float_weight(v) for v in draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=4))]
    if draw(st.booleans()):
        gens += mixtures(gens, rng, draw(st.integers(1, 2)))
    points = [*gens[:2], *mixtures(gens, rng, 2), *map(float_weight, vertices[:3])]
    nudge = draw(st.sampled_from((1e-12, 1e-9, 1e-6)))
    points += [Weight([v + nudge * rng.uniform(-1, 1) for v in w.values]) for w in points[2:4]]
    tol = draw(st.sampled_from((None, 1e-6, 1e-12, 0.0, 1e-300)))
    return hull(model, gens, exact=False, tol=tol), points


@given(random_float_hulls())
@settings(max_examples=150, deadline=None)
def test_random_float_hulls_match_the_lp(case):
    model, points = case
    for w in points:
        assert_membership(model, w)
