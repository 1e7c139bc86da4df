"""Constructions output valid models, though nothing re-validates them.

``TestSpace`` trusts its test masks; only ``build_test_space`` validates.
Every test space the constructions build below, full models included, is
rebuilt here through ``build_test_space`` from its tests in reverse order.
That must succeed and give the same labels, the same tests in the same
(ascending) order, and the same algebraic, regular, coherent and
projective verdicts and witnesses.  The same holds for
``restrict_to_support`` on every support of every corpus space, for
``enumerate_test_spaces(6, 3)``, for ``classical_model(2..4)`` and for the
double coarsenings of five corpus models.

``Model`` trusts its arguments; only ``full_model`` and ``generator_model``
validate.  They check each generator (length, scalar kind, values in [0,1],
sum 1 on every test, to within the tolerance on float models) and then
positivity.  The five constructions (``coarsen``, ``forward_product``,
``truncated_compound``, ``adjoin_unit_model``, ``adjoin_failure_outcome``)
build their models directly, so every generator model they output from the
inputs below is rebuilt here through ``generator_model``, which must accept
it.  This shows in particular that no float row drifts past the tolerance
at depth 2.  Inputs: exact and float hulls of corpus vertices, the three
quantum presets (compounds to depth 2 where the caps allow, and forward
squares), hulls of the vertices of ``classical_model(2..4)`` with the full
model as partner, and hypothesis-random pairs.

``forward_product`` is the one construction with two inputs, so it checks
the two scalar kinds before building rows.  Its raise-or-kind table over
{exact, float} x {full, generators} is pinned below, as recorded while every
construction's output was still validated on the way out.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthokit import quantum, testspace
from orthokit.coarsening import coarsen
from orthokit.compounding import (
    adjoin_unit_model, forward_product, preservation_forward, truncated_compound
)
from orthokit.corpus import corpus_models, enumerate_test_spaces
from orthokit.errors import EnumerationCapExceeded, NumericKindMismatch, PositivityViolation
from orthokit.states import Weight, adjoin_failure_outcome, full_model, generator_model
from test_compound_oracles import random_spaces

CAP = 2_000
PRESET_CAP = 50_000
PREDICATE_CAP = 20_000


@lru_cache(maxsize=None)
def corpus():
    return list(corpus_models(6, 3))


def revalidate(model):
    """Rebuild a generator model through the validating factory."""
    return generator_model(model.space, model.states.generators, exact=model.exact, tol=model.tol)


def constructed(model, partner=None, cap=CAP):
    """The models the five constructions build from ``model``; cap errors are skipped.

    With a partner, forward products with it on either side are built too.
    """
    builds = [
        lambda: coarsen(model, cap).model,
        lambda: adjoin_unit_model(model, "@unit@")[0],
        lambda: adjoin_failure_outcome(model, "@fail@"),
        lambda: forward_product(model, model, cap).model,
        lambda: truncated_compound(model, 1, cap).model,
        lambda: truncated_compound(model, 2, cap).model,
    ]
    if partner is not None:
        builds.append(lambda: forward_product(model, partner, cap).model)
        builds.append(lambda: forward_product(partner, model, cap).model)
    out = []
    for build in builds:
        try:
            out.append(build())
        except EnumerationCapExceeded:
            pass
    return out


def verdicts(space):
    """The four structural predicates, each its result or "cap" when over ``PREDICATE_CAP``."""
    out = [space.projective()]
    for name in ("algebraic", "regular", "coherent"):
        try:
            out.append(getattr(space, name)(PREDICATE_CAP))
        except EnumerationCapExceeded:
            out.append("cap")
    return out


def assert_space_valid(space):
    """The validator rebuilds ``space`` from its reversed tests, and agrees on everything."""
    assert list(space.tests) == sorted(space.tests, key=testspace.event_key)
    tests = [space.labels_of(t) for t in reversed(space.tests)]
    rebuilt = testspace.build_test_space(tests, labels=space.labels)
    assert rebuilt.labels == space.labels
    assert rebuilt.tests == space.tests
    assert verdicts(rebuilt) == verdicts(space)


def assert_outputs_valid(model, partner=None, cap=CAP):
    """Every space built from ``model`` passes the validator, and every generator
    model passes input validation; returns the generator models."""
    built = constructed(model, partner, cap)
    for out in built:
        assert_space_valid(out.space)
    outputs = [m for m in built if not m.states.is_full]
    for out in outputs:
        revalidate(out)
    return outputs


def floats(weights):
    return [Weight(tuple(float(v) for v in w.values)) for w in weights]


def positive_or_none(factory, space, *gens, exact):
    """The model the factory validates, or None if it is not positive."""
    try:
        return factory(space, *gens, exact=exact)
    except PositivityViolation:
        return None


def hull_or_none(space, gens, exact):
    """The validated hull of ``gens`` (floated for float models), or None if not positive."""
    return positive_or_none(generator_model, space, gens if exact else floats(gens), exact=exact)


# -- corpus hulls ------------------------------------------------------------------


@pytest.mark.parametrize("index", range(0, 112, 8))
def test_corpus_hull_constructions_validate(index):
    """Exact and float hulls of all, of two, and of every other vertex of a corpus model."""
    model = corpus()[index]
    vertices = model.state_vertices()
    built = 0
    for exact in (True, False):
        partner = quantum.classical_model(2).model
        if not exact:
            partner = full_model(partner.space, exact=False)
        for gens in (vertices, vertices[:2], vertices[::2]):
            hull = hull_or_none(model.space, gens, exact)
            if hull is not None:
                built += len(assert_outputs_valid(hull, partner))
    assert built > 0


# -- quantum presets -------------------------------------------------------------------


@pytest.mark.parametrize(
    "preset",
    [quantum.preset_qubit_interferometer, quantum.preset_spin1, quantum.preset_spin32],
)
def test_preset_constructions_validate(preset):
    model = preset().model
    assert not model.exact and not model.states.is_full
    outputs = assert_outputs_valid(model, cap=PRESET_CAP)
    if preset is quantum.preset_qubit_interferometer:
        # the depth-2 compound (3,193 tests x 768 generators) and the forward square
        sizes = {(len(m.space.tests), len(m.states.generators)) for m in outputs}
        assert (3193, 768) in sizes and (1806, 768) in sizes
    else:
        assert len(outputs) >= 3


# -- classical models --------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_hull_constructions_validate(n):
    """The hull of the point masses, with the full classical model as partner."""
    model = quantum.classical_model(n).model
    vertices = model.state_vertices()
    for exact in (True, False):
        partner = model if exact else full_model(model.space, exact=False)
        hull = hull_or_none(model.space, vertices, exact)
        assert len(assert_outputs_valid(hull, partner)) >= 4


# -- restrictions, the corpus and classical spaces -------------------------------------


def test_restrictions_validate():
    """Every support S of every corpus space restricts to the traces {t & S}, relabelled."""
    restricted = 0
    for space in enumerate_test_spaces(6, 3):
        n = space.n_outcomes
        for m in range(1, 1 << n):
            s = frozenset(x for x in range(n) if m >> x & 1)
            if not space.is_support(s):
                continue
            sub, old_to_new = space.restrict_to_support(s)
            assert sorted(old_to_new) == sorted(s)
            assert sub.labels == tuple(space.labels[x] for x in sorted(s))
            traces = {frozenset(old_to_new[x] for x in t & s) for t in space.tests}
            assert sub.test_set == traces, (repr(space), sorted(s))
            assert_space_valid(sub)
            restricted += 1
    assert restricted == 1690


def test_corpus_spaces_validate():
    spaces = list(enumerate_test_spaces(6, 3))
    assert len(spaces) == 112
    for space in spaces:
        assert_space_valid(space)


@pytest.mark.parametrize("index", [55, 104, 54, 107, 48])
def test_double_coarsenings_validate(index):
    """Double coarsenings have the widest test masks built: 98 to 876 outcomes."""
    assert_space_valid(coarsen(coarsen(corpus()[index]).model).model.space)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_spaces_validate(n):
    assert_space_valid(quantum.classical_model(n).model.space)


# -- random pairs ------------------------------------------------------------------


@st.composite
def random_models(draw, exact, generators):
    """A full model, or a validated hull of some of its vertices, of one scalar kind."""
    space = draw(random_spaces())
    full = positive_or_none(full_model, space, exact=exact)
    assume(full is not None)
    if not (generators or draw(st.booleans())):
        return full
    vertices = full.state_vertices()
    picked = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=4))
    hull = hull_or_none(space, picked, exact)
    assume(hull is not None)
    return hull


model_pairs = st.booleans().flatmap(
    lambda exact: st.tuples(random_models(exact, True), random_models(exact, False))
)


@given(model_pairs)
@settings(max_examples=100, deadline=None)
def test_random_pair_constructions_validate(pair):
    model, partner = pair
    assert_outputs_valid(model, partner)


# -- forward-product scalar kinds ----------------------------------------------------

EXACT_FULL = ("exact", "full")
FLOAT_FULL = ("float", "full")
EXACT_GEN = ("exact", "generators")
FLOAT_GEN = ("float", "generators")
MISMATCH = "NumericKindMismatch"

# (left, right): the built model's (scalar kind, state-space kind), or the error
KIND_TABLE = [
    (EXACT_FULL, EXACT_FULL, EXACT_FULL),
    (EXACT_FULL, FLOAT_FULL, EXACT_FULL),
    (EXACT_FULL, EXACT_GEN, EXACT_GEN),
    (EXACT_FULL, FLOAT_GEN, MISMATCH),
    (FLOAT_FULL, EXACT_FULL, FLOAT_FULL),
    (FLOAT_FULL, FLOAT_FULL, FLOAT_FULL),
    (FLOAT_FULL, EXACT_GEN, MISMATCH),
    (FLOAT_FULL, FLOAT_GEN, FLOAT_GEN),
    (EXACT_GEN, EXACT_FULL, EXACT_GEN),
    (EXACT_GEN, FLOAT_FULL, EXACT_GEN),
    (EXACT_GEN, EXACT_GEN, EXACT_GEN),
    (EXACT_GEN, FLOAT_GEN, MISMATCH),
    (FLOAT_GEN, EXACT_FULL, FLOAT_GEN),
    (FLOAT_GEN, FLOAT_FULL, FLOAT_GEN),
    (FLOAT_GEN, EXACT_GEN, FLOAT_GEN),
    (FLOAT_GEN, FLOAT_GEN, FLOAT_GEN),
]


def kind_models():
    space = testspace.TestSpace(("a", "b"), [0b11])
    return {
        EXACT_FULL: full_model(space),
        FLOAT_FULL: full_model(space, exact=False),
        EXACT_GEN: generator_model(space, [Weight([F(1, 3), F(2, 3)]), Weight([F(1), F(0)])]),
        FLOAT_GEN: generator_model(
            space, [Weight([0.25, 0.75]), Weight([1.0, 0.0])], exact=False
        ),
    }


@pytest.mark.parametrize("left, right, want", KIND_TABLE)
def test_forward_product_kind_table(left, right, want):
    models = kind_models()
    try:
        product = forward_product(models[left], models[right]).model
    except NumericKindMismatch:
        assert want == MISMATCH
        return
    assert ("exact" if product.exact else "float", product.states.kind) == want
    if not product.states.is_full:
        revalidate(product)


@pytest.mark.parametrize("left, right, want", KIND_TABLE)
def test_preservation_forward_kind_table(left, right, want):
    """``preservation_forward`` builds no pair state, yet refuses the pairs
    that ``forward_product`` refuses, with the same message."""
    models = kind_models()
    if want != MISMATCH:
        preservation_forward(models[left], models[right])
        return
    messages = []
    for construction in (forward_product, preservation_forward):
        with pytest.raises(NumericKindMismatch) as info:
            construction(models[left], models[right])
        messages.append(str(info.value))
    assert messages[0] == messages[1]
