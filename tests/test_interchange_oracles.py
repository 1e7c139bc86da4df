"""The interchange checks agree with their frozenset oracles.

``check_distributive_diagrams``, ``distributive_ell``, ``check_ell_naturality``,
``check_commutative_boolean``, ``check_collapse_perspectivity``,
``check_left_equivariance`` and ``coarse_setwise_product`` read string sets as
masks over string codes and setwise products off one table of outcome
products; ``interchange_oracles`` keeps the versions that built frozensets of
tuples and asked ``event_product`` and ``is_perspective``.  Both sides must give
the same report, point count, mapping, product table, verdict and witness, or
exception class, message and witness: on the diagrams of the small corpus
coarsenings at depths 0-2, the interchange map of every corpus model at depths
1 and 2, identity naturality on the corpus, the combined algebras of the
classical models, the concatenation products of corpus compounds, and
products and tables corrupted to reach every raise path.  ``sharp_logic_iso``
is compared with the class walk it replaced on the whole corpus.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import coarsening_oracles
import interchange_oracles as oracle
from orthokit import interference
from orthokit.coarsening import CheckedCoherence, coarsen, sharp_logic_iso
from orthokit.compounding import (
    IMPOSSIBLE,
    OUT_OF_WINDOW,
    CheckedSequential,
    SequentialProduct,
    concat_masks,
    concatenation_product,
    truncated_compound,
)
from orthokit.corpus import corpus_models
from orthokit.errors import EnumerationCapExceeded, OrthokitError, UsageError
from orthokit.interference import GAlgebra, _is_commutative, validate_g_algebra
from orthokit.morphisms import identity_morphism, validate_morphism
from orthokit.quantum import classical_model
from orthokit.states import full_model
from orthokit.testspace import _ids, build_test_space, mask_event

# the cap under which the interchange maps and the diagrams of classical 4 are
# compared; past it both sides raise the same cap error
ELL_CAP = 20_000
# the cap under which a compound is coarsened to compare its blockwise product
SMALL_COARSE = 1100


@lru_cache(maxsize=None)
def corpus():
    return list(corpus_models(6, 3))


@lru_cache(maxsize=None)
def classical(n):
    return classical_model(n)


def field_tuple(record):
    """A record's fields, in order, as a plain tuple."""
    return tuple(getattr(record, name) for name in record.__slots__)


def outcome(run, snapshot):
    """The snapshot of what ``run`` returns, or the class, message and witness
    of the library error it raises."""
    try:
        got = run()
    except OrthokitError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return snapshot(got)


def same(name, *args, snapshot=lambda got: got, **kwargs):
    """The library's ``name`` and the oracle's give the same outcome; returns it."""
    got = outcome(lambda: getattr(interference, name)(*args, **kwargs), snapshot)
    want = outcome(lambda: getattr(oracle, name)(*args, **kwargs), snapshot)
    assert got == want, name
    return got


def cell(c):
    phi = c.morphism
    return (c.source.strings, c.target.outcome_mask, phi.mapping, phi.test_preserving,
            phi.embedding, phi.d_status)


def product_table(sp):
    return sp.unit, list(sp.table.items()), sp.undefined_means


def logic(algebra):
    return len(algebra), algebra.reps, algebra.oplus


def forged(model, table, sp, commutative=None):
    """A combined algebra with nothing validated: the coherence ``table`` and the
    product ``sp``, commutative as given or as ``sp`` is."""
    if commutative is None:
        commutative = _is_commutative(model, sp)
    coherence = CheckedCoherence(model, None, None, table)
    return GAlgebra(model, coherence, CheckedSequential(model, sp, None), commutative, 0, 0)


def same_products(model, table, sp, coarse=None):
    """Every check that reads products, on one model, table and product."""
    g = forged(model, table, sp)
    got = [
        same("check_collapse_perspectivity", g),
        same("check_commutative_boolean", g, snapshot=logic),
        same("check_commutative_boolean", forged(model, table, sp, True), snapshot=logic),
        same("check_left_equivariance", model, table, sp, snapshot=field_tuple),
    ]
    if coarse is not None:
        got.append(same("coarse_setwise_product", coarse, sp, snapshot=product_table))
    return got


def union_collapse_table(coarse):
    """σ on the coarse model: each nonempty family of events to its union."""
    return {
        mask_event(f): coarse.collapse(_ids(f))
        for f in coarse.model.space._checked_event_masks() if f
    }


def least_string_table(space, entries=150):
    """σ sending each of the first nonempty events to its least outcome: no collapse."""
    return {mask_event(m): _ids(m)[0] for m in space._checked_event_masks()[1 : entries + 1]}


# -- the string-set kernel ------------------------------------------------------------------


def test_concat_masks_is_concat_string_sets_on_codes():
    """Read code c of a length-k string as the compound's string at the id of
    (0,) * k plus c: ``concat_masks`` is then ``concat_string_sets``."""
    tc = truncated_compound(classical(2).model, 4)
    n = tc.base.space.n_outcomes

    def strings(m, k):
        return frozenset(tc.strings[tc.id_of((0,) * k) + c] for c in _ids(m))

    for j in range(3):
        for k in range(3):
            for a in range(0, 1 << n**j, 1 + (1 << n**j) // 13):
                for b in range(0, 1 << n**k, 1 + (1 << n**k) // 11):
                    got = strings(concat_masks(a, b, n**k), j + k)
                    assert got == oracle.concat_string_sets([strings(a, j), strings(b, k)])


def _small_coarsenings():
    return [i for i, m in enumerate(corpus())
            if sum(1 for f in coarsen(m).model.space._checked_event_masks() if f) <= 200]


# -- the diagrams, the interchange map and its naturality -----------------------------------


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_diagrams_match_oracle(depth):
    indices = _small_coarsenings()
    assert len(indices) == 92
    for i in indices:
        assert same("check_distributive_diagrams", corpus()[i], depth, snapshot=field_tuple)[0] > 0
    for n in (1, 2, 3):
        same("check_distributive_diagrams", classical(n).model, depth, snapshot=field_tuple)
    same("check_distributive_diagrams", classical(4).model, depth, ELL_CAP, snapshot=field_tuple)


def test_depth_three_diagrams_match_oracle():
    """Depth 3 is the first whose flattening square has a split, (1, 2), that
    concatenates a two-letter chunk after a nonempty prefix."""
    models = [m for m in corpus() if len(coarsen(m).model.space._checked_event_masks()) <= 13]
    assert len(models) == 15
    for m in [*models, classical(1).model, classical(2).model]:
        assert same("check_distributive_diagrams", m, 3, snapshot=field_tuple)[1] > 0


def test_negative_diagram_depth_matches_oracle():
    got = same("check_distributive_diagrams", corpus()[0], -1)
    assert got[:2] == ("UsageError", "depth must be nonnegative")


@pytest.mark.parametrize("depth", [1, 2])
def test_interchange_map_matches_oracle(depth):
    models = [*corpus(), *(classical(n).model for n in (1, 2, 3, 4))]
    got = [same("distributive_ell", m, depth, ELL_CAP, snapshot=cell) for m in models]
    errors = [o for o in got if isinstance(o[0], str)]
    assert {o[0] for o in errors} <= {"EnumerationCapExceeded"}
    assert len(got) - len(errors) >= (116 if depth == 1 else 15)


def naturality_morphisms():
    """Identities on the corpus and the classical models, the map from classical 2
    to classical 3 splitting point 2 in two, and a map that is not test-preserving."""
    yield from map(identity_morphism, corpus())
    yield from (identity_morphism(classical(n).model) for n in (1, 2, 3))
    cm2, cm3 = classical(2), classical(3)
    fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
    split = [cm3.subset_id[frozenset().union(*(fibers[p] for p in s))] for s in cm2.subsets]
    yield validate_morphism(cm2.model, cm3.model, split)
    one, three = (full_model(build_test_space(t)) for t in ([["a", "b"]], [["a", "b", "c"]]))
    yield validate_morphism(one, three, (0, 1))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_naturality_matches_oracle(depth):
    got = [same("check_ell_naturality", phi, depth, 100_000) for phi in naturality_morphisms()]
    assert got[-1][:2] == ("HypothesisUnmet", "naturality window needs a test-preserving morphism")
    assert all(isinstance(points, int) and points > 0 for points in got[:-1])


def test_naturality_cap_matches_oracle():
    phi = identity_morphism(corpus()[40])
    bound = same("check_ell_naturality", phi, 2)
    got = same("check_ell_naturality", phi, 2, bound - 1)
    assert got[0] == "EnumerationCapExceeded"


# -- the combined algebras --------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classical_combined_algebras_match_oracle(n):
    cm = classical(n)
    g = validate_g_algebra(cm.model, cm.sigma, cm.product)
    coarse = coarsen(cm.model)
    perspective, boolean, _, holds, blockwise = same_products(cm.model, cm.sigma, cm.product,
                                                              coarse)
    assert perspective > 0 and boolean[0] == 2**n and holds == (True, None)
    assert same("check_collapse_perspectivity", g) == perspective
    assert same("check_commutative_boolean", g, snapshot=logic) == boolean
    checked = same(
        "check_left_equivariance", cm.model, g.coherence, cm.product, snapshot=field_tuple
    )
    assert checked == holds
    # the blockwise product, on the coarse model's own union collapse
    pi = interference.coarse_setwise_product(coarse, cm.product)
    assert product_table(pi) == blockwise
    same_products(coarse.model, union_collapse_table(coarse), pi)


@pytest.mark.parametrize("depth", [1, 2])
def test_concatenation_products_match_oracle(depth):
    """The concatenation products of the corpus compounds, out of window past the
    depth, with σ sending events to their least strings and, on the coarse model,
    to their unions."""
    ran = coarse_ran = 0
    for model in corpus()[::3]:
        tc = truncated_compound(model, depth, cap=100_000)
        space, sp = tc.model.space, concatenation_product(tc)
        if max(t.bit_count() for t in space._test_masks) > 9 or len(space._test_masks) > 150:
            continue
        try:
            coarse = coarsen(tc.model, SMALL_COARSE)
        except EnumerationCapExceeded:
            coarse = None
        same_products(tc.model, least_string_table(space), sp, coarse)
        ran += 1
        if coarse is not None:
            pi = interference.coarse_setwise_product(coarse, sp)
            same_products(coarse.model, union_collapse_table(coarse), pi)
            coarse_ran += 1
    assert ran >= 10 and coarse_ran >= 3


# -- corrupted products and tables ----------------------------------------------------------


@st.composite
def random_products(draw):
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


@given(random_products())
@settings(max_examples=150, deadline=None)
def test_random_products_match_oracle(case):
    cm, sp = case
    same_products(cm.model, cm.sigma, sp, coarsen(cm.model))


RAISES = {
    "test product fell outside the window",
    "test product is not a common refinement test",
    "refinement fiber is not perspective to its outcome",
    "event-then-outcome is not perspective to collapse-then-outcome",
}


def test_every_raise_path_is_compared():
    """Single changes of the classical 3-point product under both semantics reach
    every LawViolation of the combined-algebra checks, and left equivariance fails."""
    cm = classical(3)
    coarse = coarsen(cm.model)
    k = cm.model.space.n_outcomes
    messages, witnesses = set(), set()
    for key in [(x, y) for x in range(1, k) for y in range(1, k)][::2]:
        for value in (None, *range(0, k, 2)):
            for semantics in (IMPOSSIBLE, OUT_OF_WINDOW):
                table = dict(cm.product.table)
                if value is None:
                    table.pop(key, None)
                else:
                    table[key] = value
                sp = SequentialProduct(cm.product.unit, table, undefined_means=semantics)
                for got in same_products(cm.model, cm.sigma, sp, coarse):
                    if isinstance(got, tuple) and got[0] == "LawViolation":
                        messages.add(got[1])
                    elif isinstance(got, tuple) and got[0] is False:
                        witnesses.add(got[1])
    assert messages == RAISES
    assert len(witnesses) > 1


@pytest.mark.parametrize("n", [2, 3])
def test_corrupted_coherence_tables_match_oracle(n):
    """σ changed at one entry to every other outcome."""
    cm = classical(n)
    k = cm.model.space.n_outcomes
    verdicts = set()
    for a in sorted(cm.sigma, key=sorted)[:: 4 if n == 3 else 1]:
        for c in range(k):
            table = dict(cm.sigma) | {a: c}
            got = same_products(cm.model, table, cm.product)
            verdicts.add(got[3][0])
    assert verdicts == {True, False}


def test_unit_outside_the_coarsening_matches_oracle():
    cm = classical(2)
    sp = SequentialProduct(99, cm.product.table)
    got = same("coarse_setwise_product", coarsen(cm.model), sp)
    assert got[:2] == ("UsageError", "the base unit must be an outcome of the coarsening")


# -- the σ guard of left equivariance -------------------------------------------------------


class CountingProduct(SequentialProduct):
    reads = 0

    def products(self, pairs):
        CountingProduct.reads += 1
        return super().products(pairs)


@pytest.mark.parametrize("key, value", [((0, 99), 0), ((-1,), 0), ((0, 1), 99), ((0,), -1)])
def test_left_equivariance_refuses_entries_that_are_not_outcome_ids(key, value):
    """The frozenset loop read such an entry as it came, and passed {0, 99}
    unnoticed; the library refuses each before it reads a product."""
    cm = classical(2)
    table = dict(cm.sigma) | {frozenset(key): value}
    sp = CountingProduct(cm.product.unit, cm.product.table)
    CountingProduct.reads = 0
    with pytest.raises(UsageError, match="not a σ entry of outcome ids"):
        interference.check_left_equivariance(cm.model, table, sp)
    assert CountingProduct.reads == 0
    if key == (0, 99):
        assert oracle.check_left_equivariance(cm.model, table, sp)


# -- the logic of the coarsening ------------------------------------------------------------


def iso_snapshot(iso):
    return iso.table, len(iso.source), len(iso.target)


def test_sharp_logic_iso_matches_the_class_walk():
    got = []
    for m in corpus():
        lib = outcome(lambda: sharp_logic_iso(m), iso_snapshot)
        assert lib == outcome(lambda: coarsening_oracles.sharp_logic_iso(m), iso_snapshot)
        got.append(lib[0])
    assert got.count("NotAlgebraic") == 48
    assert sum(isinstance(t, tuple) and all(isinstance(c, int) for c in t) for t in got) == 64
