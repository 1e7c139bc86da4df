"""The sequential-product checks agree with their frozenset oracles.

``validate_sequential``, ``check_chain_rule``, ``validate_g_algebra`` and
``find_interference`` read every product once per call, on masks and
hoisted product lists, and sum exact states as integer numerators;
``sequential_oracles`` keeps the loops that asked ``sp.prod`` and
``sp.products`` per state and per triple and summed ``Fraction``s.  Both
sides must give the same report, string counts, witness list (values and
their types included) or exception class, message and witness on the
classical models at probe depths 1 and 2, the beam presets and their exact
twins, the ``classical3`` fixture, the concatenation products of truncated compounds,
the missing-follow-up tables, products corrupted to break each law,
hypothesis-random tables and exact states with nonzero gaps.  The
string-evaluation probe is also compared at its ``compound tests`` cap and
one below it, and on an evaluation that fails several compound tests, which
pins its witness to the first of them.
"""

from fractions import Fraction as F
from functools import lru_cache
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import sequential_oracles as oracle
from orthokit.compounding import (
    IMPOSSIBLE,
    OUT_OF_WINDOW,
    SequentialProduct,
    check_chain_rule,
    concatenation_product,
    truncated_compound,
    validate_sequential,
)
from orthokit.coarsening import CheckedCoherence, validate_coherence
from orthokit.corpus import corpus_models
from orthokit.document import load_document
from orthokit.errors import OrthokitError
from orthokit.interference import find_interference, validate_g_algebra
from orthokit.quantum import (
    classical_model,
    preset_qubit_interferometer,
    preset_spin1,
    preset_spin32,
)
from orthokit.states import Model, StateSpace, Weight, full_model


@lru_cache(maxsize=None)
def classical(n):
    return classical_model(n)


def outcome(run, snapshot):
    """The snapshot of what ``run`` returns, or the class, message and witness
    of the library error it raises."""
    try:
        got = run()
    except OrthokitError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return snapshot(got)


def field_tuple(record):
    """A record's fields, in order, as a plain tuple."""
    return tuple(getattr(record, name) for name in record.__slots__)


def sequential(checked):
    return field_tuple(checked.report)


def g_algebra(g):
    return g.commutative, g.strings_checked, g.strings_skipped, field_tuple(g.sequential.report)


def witnesses(found):
    """Each witness with its masses and their types: an exact gap of 0 is the int 0."""
    return [
        (w.state_index, w.event, w.outcome, w.coherent, w.incoherent,
         type(w.coherent), type(w.incoherent))
        for w in found
    ]


def same_sequential(model, sp, **kwargs):
    got = outcome(lambda: validate_sequential(model, sp, **kwargs), sequential)
    assert got == outcome(lambda: oracle.validate_sequential(model, sp, **kwargs), sequential)
    return got


def same_g_algebra(model, sigma, sp, **kwargs):
    got = outcome(lambda: validate_g_algebra(model, sigma, sp, **kwargs), g_algebra)
    assert got == outcome(lambda: oracle.validate_g_algebra(model, sigma, sp, **kwargs), g_algebra)
    return got


def same_interference(model, sigma, prod, **kwargs):
    got = outcome(lambda: find_interference(model, sigma, prod, **kwargs), witnesses)
    assert got == outcome(lambda: oracle.find_interference(model, sigma, prod, **kwargs), witnesses)
    return got


def same_chain_rule(model, sp, w):
    got = outcome(lambda: check_chain_rule(model, sp, w), field_tuple)
    assert got == outcome(lambda: oracle.check_chain_rule(model, sp, w), field_tuple)
    return got


def same_everything(model, sigma, sp, probe_depth=1, states=None):
    """All four checks on one input; returns the sequential and g-algebra outcomes."""
    seq = same_sequential(model, sp, probe_depth=probe_depth, states=states)
    ga = same_g_algebra(model, sigma, sp, probe_depth=probe_depth, states=states)
    same_interference(model, sigma, sp, states=states)
    for w in states if states is not None else model.state_vertices():
        same_chain_rule(model, sp, w)
    return seq, ga


# -- the classical models, the presets and the fixture -----------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2])
def test_classical_models(n, depth):
    cm = classical(n)
    seq, ga = same_everything(cm.model, cm.sigma, cm.product, probe_depth=depth)
    assert seq[0] == cm.model.space.n_outcomes and ga[0] is True
    checked = validate_sequential(cm.model, cm.product, probe_depth=depth)
    assert same_g_algebra(cm.model, cm.sigma, checked, probe_depth=depth) == ga


@pytest.mark.parametrize("build", [preset_qubit_interferometer, preset_spin1, preset_spin32])
def test_beam_presets(build):
    beam = build()
    pool = range(len(beam.witness_labels))
    found = same_interference(beam.model, beam.sigma, beam.path_product, witnesses_from=pool)
    assert found and all(t is float for row in found for t in row[5:])
    same_interference(beam.model, beam.sigma, beam.path_product, witnesses_from=pool, tol=1e-3)
    # the exact twin, on the generators read as Fractions (binary denominators)
    exact = full_model(beam.model.space)
    states = [Weight(tuple(map(F, g.values))) for g in beam.model.states.generators]
    found = same_interference(exact, beam.sigma, beam.path_product, states=states,
                              witnesses_from=pool)
    assert found and all(F in row[5:] for row in found)


def test_classical3_fixture():
    path = resources.files("orthokit").joinpath("fixtures", "classical3.json")
    bundle = load_document(str(path))
    sigma, sp = bundle.require_coherence(), bundle.require_product()
    for depth in (1, 2):
        seq, ga = same_everything(bundle.model, sigma, sp, probe_depth=depth)
        assert ga[0] is True and ga[1] > 0


@lru_cache(maxsize=None)
def corpus():
    return list(corpus_models(6, 3))


@pytest.mark.parametrize("depth", [1, 2])
def test_concatenation_products(depth):
    """Out-of-window products on the truncated compounds of every 4th corpus
    model with small tests; the scan's σ sends each of the first 150 events
    to its least string, which is no collapse."""
    ran = 0
    for model in corpus()[::4]:
        tc = truncated_compound(model, depth, cap=100_000)
        space = tc.model.space
        if max(t.bit_count() for t in space._test_masks) > 9 or len(space._test_masks) > 150:
            continue
        sp = concatenation_product(tc)
        states = tc.model.state_vertices()[:4]
        same_sequential(tc.model, sp, probe_depth=1, states=states)
        sigma = {a: min(a) for a in space.events_list()[1:151]}
        same_interference(tc.model, sigma, sp, states=states)
        for w in states:
            same_chain_rule(tc.model, sp, w)
        ran += 1
    assert ran >= (25 if depth == 1 else 10)


# -- the string-evaluation probe -----------------------------------------------------------


def test_probe_refuses_at_the_compound_tests_cap():
    """One below and at the count of non-root compound tests, on the classical
    models at probe depths 1 and 2."""
    for n in (2, 3):
        cm = classical(n)
        states = cm.model.state_vertices()
        tests = 1  # the compound tests at the probe depth
        for depth in (1, 2):
            tests = 1 + sum(tests ** t.bit_count() for t in cm.model.space._test_masks)
            kwargs = {"probe_depth": depth, "states": states}
            below = same_sequential(cm.model, cm.product, cap=tests - 2, **kwargs)
            assert below[:2] == (
                "EnumerationCapExceeded",
                f"compound tests: needs ≥ {tests - 1}, enumeration exceeds cap {tests - 2}",
            )
            at = same_sequential(cm.model, cm.product, cap=tests - 1, **kwargs)
            assert at[0] == cm.model.space.n_outcomes


class LastLetterEvaluation:
    """A classical product whose strings evaluate to their last letter, ε to the unit.

    For a ``SequentialProduct`` the checks before the probe already make it
    pass: orthogonality keeps the strings of one compound test apart, and
    inductivity carries each level's evaluated tests to the next.  So only an
    evaluation that is not the left fold of ``prod`` reaches the probe's raises.
    """

    def __init__(self, sp):
        self.sp = sp

    def __getattr__(self, name):
        return getattr(self.sp, name)

    def prod_string(self, xs):
        return xs[-1] if xs else self.sp.unit


def test_probe_witness_is_the_first_failing_compound_test():
    """On classical(2) at probe depth 2 several compound tests collapse; the
    witness is the first in the compound's canonical test order."""
    cm = classical(2)
    sp = LastLetterEvaluation(cm.product)
    tc = truncated_compound(cm.model, 2)
    failing = [
        t for t in tc.model.space.tests
        if len({sp.prod_string(tc.strings[i]) for i in t}) < len(t)
    ]
    assert len(failing) >= 2
    got = same_sequential(cm.model, sp, probe_depth=2)
    assert got == ("NotSequential", "string evaluation collapses a test", failing[0])


# -- missing follow-ups, corrupted products, random tables --------------------------------


@pytest.mark.parametrize("semantics", [IMPOSSIBLE, OUT_OF_WINDOW])
def test_missing_follow_up_tables(semantics):
    """classical(2) with {1}·{1} deleted: σ({{1}, {2}})·{1} is defined while
    neither member has a product with {1}."""
    cm = classical(2)
    one = cm.subset_id[frozenset({1})]
    table = {k: v for k, v in cm.product.table.items() if k != (one, one)}
    sp = SequentialProduct(cm.product.unit, table, undefined_means=semantics)
    for depth in (2, 3):  # at depth 3 an out-of-window prefix has extensions
        same_everything(cm.model, cm.sigma, sp, probe_depth=depth)
    found = same_interference(cm.model, cm.sigma, sp)
    assert len(found) == (1 if semantics == IMPOSSIBLE else 0)
    same_interference(cm.model, cm.sigma, lambda x, y: sp.prod(x, y))


def corrupted(n, changes, semantics=IMPOSSIBLE):
    cm = classical(n)
    table = dict(cm.product.table)
    ids = cm.subset_id
    for (x, y), z in changes.items():
        key = (ids[frozenset(x)], ids[frozenset(y)])
        if z is None:
            table.pop(key, None)
        else:
            table[key] = ids[frozenset(z)]
    return cm, SequentialProduct(cm.product.unit, table, undefined_means=semantics)


def test_product_of_collapses_out_of_window():
    """classical(3) with {1,2}·{1,2} out of window: ({{1,2}}, {{1},{2}}) has the
    event product {{1},{2}}, but its collapses {1,2}·{1,2} have none."""
    cm, sp = corrupted(3, {((1, 2), (1, 2)): None}, OUT_OF_WINDOW)
    seq, ga = same_everything(cm.model, cm.sigma, sp, probe_depth=2)
    assert ga[0] is True and ga[2] > 0


# one change that breaks the named law first, under the listed semantics
CORRUPTIONS = {
    "associativity fails": (2, {((1,), (2,)): (1, 2)}, (IMPOSSIBLE, OUT_OF_WINDOW)),
    "left translation breaks orthogonality": (2, {((1,), (2,)): (1,)}, (IMPOSSIBLE, OUT_OF_WINDOW)),
    "products of orthogonal heads are not orthogonal": (
        2, {((1,), (1,)): (2,)}, (IMPOSSIBLE, OUT_OF_WINDOW)
    ),
    "branch assignment leaves the test family": (3, {((1, 2), (1, 2)): None}, (IMPOSSIBLE,)),
}


@pytest.mark.parametrize("message", sorted(CORRUPTIONS))
def test_corrupted_products_fail_like_the_oracle(message):
    n, changes, semantics = CORRUPTIONS[message]
    for undefined_means in semantics:
        cm, sp = corrupted(n, changes, undefined_means)
        seq, ga = same_everything(cm.model, cm.sigma, sp, probe_depth=2)
        assert seq[:2] == ("NotSequential", message)
        assert ga == seq


def test_non_multiplicative_collapse_fails_like_the_oracle():
    """A valid product with σ changed on one event: the word loop raises."""
    cm = classical(3)
    sigma = dict(cm.sigma)
    a = frozenset({cm.subset_id[frozenset({1})], cm.subset_id[frozenset({2})]})
    sigma[a] = cm.subset_id[frozenset({1, 2, 3})]
    for sp in (cm.product, validate_sequential(cm.model, cm.product)):
        got = same_g_algebra(cm.model, sigma, sp, probe_depth=2)
        assert got[0] == "NotCoherence"
    checked_sigma = validate_coherence(cm.model, cm.sigma)
    table = dict(checked_sigma.table)
    table[a] = cm.subset_id[frozenset({1, 2, 3})]
    forged = CheckedCoherence(
        checked_sigma.model, checked_sigma.coarse, checked_sigma.morphism, table
    )
    got = same_g_algebra(cm.model, forged, cm.product, probe_depth=2)
    assert got[:2] == ("NotGAlgebra", "collapse is not multiplicative over the product")
    found = same_interference(cm.model, table, cm.product)
    assert found and {type(row[3]) for row in found} <= {F, int}


@st.composite
def random_tables(draw):
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
    return cm, SequentialProduct(cm.product.unit, table, undefined_means=semantics)


@given(random_tables(), st.sampled_from((1, 2)))
@settings(max_examples=150, deadline=None)
def test_random_tables(case, depth):
    cm, sp = case
    same_everything(cm.model, cm.sigma, sp, probe_depth=depth)


# -- exact states with nonzero gaps -------------------------------------------------------


def exact_states(n_outcomes, seed):
    """Exact weights with mixed denominators; int entries and zeros included."""
    dens = (1, 2, 3, 5, 7, 12)
    return [
        Weight(tuple(
            (0 if (i + j + seed) % 4 == 0 else F((i * 7 + j * 3 + seed) % 11, dens[(i + j) % 6]))
            if (i + j) % 5 else (i + seed) % 3
            for i in range(n_outcomes)
        ))
        for j in range(4)
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_exact_states_with_nonzero_gaps(n):
    """Weights that are not states give gaps everywhere: the Fraction masses,
    the int 0 where nothing was summed, and the chain rule's witnesses."""
    cm = classical(n)
    states = exact_states(cm.model.space.n_outcomes, n)
    found = same_interference(cm.model, cm.sigma, cm.product, states=states)
    assert found and {row[5] for row in found} | {row[6] for row in found} >= {F, int}
    one = cm.subset_id[frozenset({1})]
    two = cm.subset_id[frozenset({2})]
    sigma = dict(cm.sigma)
    sigma[frozenset({one})] = two  # σ({1})·{1} is impossible, {1}·{1} is not
    found = same_interference(cm.model, sigma, cm.product, states=states)
    assert int in {row[5] for row in found}
    verdicts = {same_chain_rule(cm.model, cm.product, w)[0] for w in states}
    assert False in verdicts
    same_sequential(cm.model, cm.product, states=states)
    # float entries in an exact model are summed as they come, in member order
    floats = [Weight(tuple(float(v) for v in w.values)) for w in states]
    same_interference(cm.model, cm.sigma, cm.product, states=floats)
    same_chain_rule(cm.model, cm.product, floats[0])


@pytest.mark.parametrize("n", [2, 3])
def test_conditional_rows_on_exact_hulls_and_odd_states(n):
    """On exact models the conditional rows skip the test sums the chain rule
    has fixed; they must still fail where ``contains_state`` fails them.

    Hulls of every vertex, of every other vertex and of one mixture of two
    vertices (its conditional rows are those vertices, outside that hull),
    and states that pass the chain rule with rows out of kind (int vertices:
    int/int is a float) or out of range (the affine combination 2·v1 - v2).
    """
    cm = classical(n)
    vertices = cm.model.state_vertices()
    mixture = Weight(tuple((a + b) / 2 for a, b in zip(vertices[0].values, vertices[-1].values)))
    escapes = ("NotSequential", "conditional state escapes the state space")
    got = []
    for gens in (vertices, vertices[::2], [mixture]):
        hull = Model(cm.model.space, StateSpace.hull(gens))
        got.append(same_sequential(hull, cm.product, probe_depth=1))
    assert got[0][0] == got[1][0] == cm.model.space.n_outcomes and got[2][:2] == escapes
    ints = Weight(tuple(int(v) for v in vertices[0].values))
    affine = Weight(tuple(2 * a - b for a, b in zip(vertices[0].values, vertices[-1].values)))
    assert min(affine.values) < 0
    for states in ([ints], [affine], [*vertices[:2], affine]):
        assert same_chain_rule(cm.model, cm.product, states[-1]) == (True, None)
        assert same_sequential(cm.model, cm.product, probe_depth=1, states=states)[:2] == escapes
