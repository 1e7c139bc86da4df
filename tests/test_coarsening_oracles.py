"""The coarsening monad laws and coherence checks agree with ``coarsening_oracles``.

The library writes the monad multiplication once, as ``Coarsening.collapse``,
and reads the double coarsening's outcomes (the nonempty events of the
coarse space) without building it as a model wherever only that list is
needed.  The oracles are the versions that wrote the union out at each use
and built the double coarsening.  Both sides must give the same monad-law
points on the whole corpus and three fixtures, the same multiplication
mapping, the same algebra-law and diagram counts, and, on coherence tables
with one entry changed to every other outcome, the same exception class,
message and witness.  With one ``mask_outcome`` entry of a coarsening changed,
the monad laws must fail on both sides with the same class and message.
"""

from functools import lru_cache
from importlib import resources

import pytest

import coarsening_oracles as oracle
import frozenset_oracles
from orthokit import coarsening, interference
from orthokit.coarsening import (
    CheckedCoherence,
    check_monad_laws_sharp,
    check_sharp_algebra_laws,
    coarsen,
    functor_sharp,
    is_cohesion,
    mult_mu,
    unit_eta,
    validate_coherence,
)
from orthokit.compounding import validate_sequential
from orthokit.corpus import corpus_models
from orthokit.document import load_document
from orthokit.errors import LawViolation, NotCoherence, OrthokitError, UsageError
from orthokit.interference import check_distributive_diagrams, validate_g_algebra
from orthokit.morphisms import identity_morphism
from orthokit.quantum import classical_model
from orthokit.testspace import event_key

FIXTURES = ("wright", "classical3", "qubit-zx")
# Largest number of nonempty events of a coarse space whose double
# coarsening the oracles build for the diagram and algebra-law comparisons.
SMALL_EVENTS = 200
# Largest (table entries) x (outcomes) of a union-collapse table that is
# corrupted at every entry to every other outcome, and the smallest corpus
# coarsening past it where one changed entry fails the grouped refinement
# identity at two families of one test, so the order of the loop shows.
CORRUPTION_BUDGET = 300
TWO_FAMILY_FAILURE = 25


@lru_cache(maxsize=None)
def corpus():
    return list(corpus_models(6, 3))


@lru_cache(maxsize=None)
def coarsening_of(index):
    return coarsen(corpus()[index])


@lru_cache(maxsize=None)
def double_of(index):
    return coarsen(coarsening_of(index).model)


def nonempty_events(space):
    return [a for a in space.events_list() if a]


def fixture_model(name):
    path = resources.files("orthokit").joinpath("fixtures", f"{name}.json")
    return load_document(str(path)).model


def union_collapse_table(coarse):
    """The free algebra structure on a coarsened model: collapse by union."""
    return {ev: coarse.collapse(ev) for ev in nonempty_events(coarse.model.space)}


def outcome(call, snapshot):
    """A snapshot of the result, or the error's class, message and witness."""
    try:
        return snapshot(call())
    except OrthokitError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))


def morphism_snapshot(phi):
    return ("ok", phi.mapping, phi.test_preserving, phi.embedding, phi.d_status)


def coherence_snapshot(checked):
    return ("ok", checked.table, morphism_snapshot(checked.morphism))


def g_algebra_snapshot(galg):
    return ("ok", galg.sigma, galg.commutative, galg.strings_checked, galg.strings_skipped)


def corruptions(table, n_outcomes):
    """Each entry changed to each other outcome, in a fixed order."""
    for key in sorted(table, key=event_key):
        for other in range(n_outcomes):
            if other != table[key]:
                yield {**table, key: other}


@lru_cache(maxsize=None)
def monad_reports(index):
    m = corpus()[index]
    return check_monad_laws_sharp(m), oracle.check_monad_laws_sharp(m)


def test_corpus_size():
    assert len(corpus()) == 112


@pytest.mark.parametrize("index", range(112))
def test_monad_law_report_matches_oracle(index):
    got, want = monad_reports(index)
    assert got == want


def test_monad_law_points_total():
    reports = [monad_reports(i) for i in range(112)]
    for side in (0, 1):
        assert sum(
            r[side].associativity_points + r[side].unit_points for r in reports
        ) == 78_691


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_monad_law_report_matches_oracle(name):
    m = fixture_model(name)
    assert check_monad_laws_sharp(m) == oracle.check_monad_laws_sharp(m)


@pytest.mark.parametrize("index", [5, 35, 75, 110])
def test_tampered_coarsening_fails_like_the_oracle(index, monkeypatch):
    """Each ``mask_outcome`` entry of the single coarsening, in turn, points at
    the next outcome: the library walk and the oracle fail alike, with a
    ``LawViolation`` at the same points or a ``UsageError`` at the same union."""
    m = corpus()[index]
    build = coarsening._coarse_space
    masks, single, space = build(m.space, None)
    kinds = set()
    for key, i in single.items():
        tampered = (masks, {**single, key: (i + 1) % len(masks)}, space)

        def patched(base, cap=None):
            return tampered if base is m.space else build(base, cap)

        # the oracle's ``coarsen`` reads the same seam
        monkeypatch.setattr(coarsening, "_coarse_space", patched)
        got = outcome(lambda: check_monad_laws_sharp(m), repr)
        assert got == outcome(lambda: oracle.check_monad_laws_sharp(m), repr)
        kinds.add(got[0])
    assert kinds == {LawViolation, UsageError}


@pytest.mark.parametrize("index", range(112))
def test_mult_mu_mapping_matches_oracle(index):
    coarse = coarsening_of(index)
    double = double_of(index)
    got = mult_mu(coarse, double)
    want = oracle.mult_mu(coarse, double)
    assert morphism_snapshot(got) == morphism_snapshot(want)


@pytest.mark.parametrize("index", range(112))
def test_unit_and_functor_match_oracle(index):
    """The unit, the lift of the identity, and the lift of the unit to the
    double coarsening, against the frozenset forms."""
    model, coarse = corpus()[index], coarsening_of(index)
    eta = unit_eta(coarse)
    want = frozenset_oracles.validate_morphism(model, coarse.model, eta.mapping)
    assert morphism_snapshot(eta) == morphism_snapshot(want)
    ident = identity_morphism(model)
    for phi, source, target in [(ident, coarse, coarse), (eta, coarse, double_of(index))]:
        got = functor_sharp(phi, source, target)
        want = oracle.functor_sharp(phi, source, target)
        assert morphism_snapshot(got) == morphism_snapshot(want)


def test_functor_into_a_foreign_coarsening_fails_like_the_oracle():
    """A target coarsening of another model: the same image is not one of its events."""
    wright = fixture_model("wright")
    ident, source = identity_morphism(wright), coarsen(wright)
    target = coarsen(corpus()[0])
    got = outcome(lambda: functor_sharp(ident, source, target), morphism_snapshot)
    assert got == outcome(lambda: oracle.functor_sharp(ident, source, target), morphism_snapshot)
    assert got[0] is UsageError


def small_indices():
    return [
        i for i in range(len(corpus()))
        if len(nonempty_events(coarsening_of(i).model.space)) <= SMALL_EVENTS
    ]


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_distributive_report_matches_oracle(depth):
    indices = small_indices()
    assert len(indices) == 92
    for i in indices:
        m = corpus()[i]
        assert check_distributive_diagrams(m, depth) == oracle.check_distributive_diagrams(
            m, depth
        ), i


def algebra_law_inputs():
    """Validated coherences: classical models and small union-collapse tables."""
    for n in (2, 3):
        cm = classical_model(n)
        yield f"classical{n}", validate_coherence(cm.model, cm.sigma)
    for i in range(len(corpus())):
        coarse = coarsening_of(i)
        checked = validate_coherence(coarse.model, union_collapse_table(coarse))
        if len(nonempty_events(checked.coarse.model.space)) <= SMALL_EVENTS:
            yield i, checked


def test_sharp_algebra_law_counts_match_oracle():
    compared = 0
    for name, checked in algebra_law_inputs():
        got = check_sharp_algebra_laws(checked)
        assert got == oracle.check_sharp_algebra_laws(checked) > 0, name
        compared += 1
    assert compared >= 30


def test_corrupted_classical_sigma_matches_oracle():
    cm = classical_model(3)
    sp = validate_sequential(cm.model, cm.product, probe_depth=2)
    raised = set()  # one-entry changes all fail the coherence check
    tables = list(corruptions(dict(cm.sigma), cm.model.space.n_outcomes))
    assert len(tables) == 84
    for table in tables + [dict(cm.sigma)]:
        got = outcome(lambda: validate_coherence(cm.model, table), coherence_snapshot)
        want = outcome(lambda: oracle.validate_coherence(cm.model, table), coherence_snapshot)
        assert got == want
        got = outcome(lambda: validate_g_algebra(cm.model, table, sp), g_algebra_snapshot)
        want = outcome(
            lambda: oracle.validate_g_algebra(cm.model, table, sp), g_algebra_snapshot
        )
        assert got == want
        raised.add(got[0])
        if got[0] == "ok":
            checked = validate_coherence(cm.model, table)
            assert is_cohesion(checked) == oracle.is_cohesion(checked)
    assert raised == {"ok", NotCoherence}


@pytest.mark.parametrize("n, probe_depth", [(2, 2), (4, 1)])
def test_classical_g_algebra_matches_oracle(n, probe_depth):
    """Every string in the window takes the interchange route on both sides."""
    cm = classical_model(n)
    sp = validate_sequential(cm.model, cm.product, probe_depth=probe_depth)
    got = validate_g_algebra(cm.model, cm.sigma, sp, probe_depth=2)
    want = oracle.validate_g_algebra(cm.model, cm.sigma, sp, probe_depth=2)
    assert g_algebra_snapshot(got) == g_algebra_snapshot(want)
    assert got.strings_checked > 0


def corrupted_corpus_indices():
    small = [
        i for i in range(len(corpus()))
        if len(union_collapse_table(coarsening_of(i))) * coarsening_of(i).model.space.n_outcomes
        <= CORRUPTION_BUDGET
    ]
    return small + [TWO_FAMILY_FAILURE]


def test_corrupted_union_collapse_tables_match_oracle():
    indices = corrupted_corpus_indices()
    assert len(indices) >= 20
    messages = set()
    for i in indices:
        coarse = coarsening_of(i)
        model = coarse.model
        double = double_of(i)
        table = union_collapse_table(coarse)
        for bad in [table, *corruptions(table, model.space.n_outcomes)]:
            got = outcome(
                lambda: validate_coherence(model, bad, coarse=double), coherence_snapshot
            )
            want = outcome(
                lambda: oracle.validate_coherence(model, bad, coarse=double), coherence_snapshot
            )
            assert got == want, (i, bad)
            messages.add(got[1].split(":")[0] if got[0] != "ok" else "ok")
            if got[0] == "ok":
                checked = validate_coherence(model, bad, coarse=double)
                assert is_cohesion(checked) == oracle.is_cohesion(checked), (i, bad)
    # some one-entry changes are coherences too; the others fail each check
    assert {
        "ok",
        "structure map is not a morphism",
        "grouped refinement identity fails",
    } <= messages
    assert any(m.endswith("is not fixed") for m in messages)


def test_cohesion_of_unvalidated_tables_matches_oracle():
    """Tables that skip validation, as a hand-built ``CheckedCoherence`` may: the
    small union-collapse tables and each of their corruptions."""
    verdicts = set()
    for i in corrupted_corpus_indices():
        model = coarsening_of(i).model
        table = union_collapse_table(coarsening_of(i))
        ident = identity_morphism(model)
        for bad in [table, *corruptions(table, model.space.n_outcomes)]:
            fake = CheckedCoherence(model, double_of(i), ident, bad)
            verdict = is_cohesion(fake)
            assert verdict == oracle.is_cohesion(fake), (i, bad)
            verdicts.add(verdict.holds)
    assert verdicts == {True, False}


class _CountingCoarsen:
    def __init__(self, build=coarsen):
        self.build, self.calls = build, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.build(*args, **kwargs)


def test_sharp_algebra_laws_build_no_coarsening(monkeypatch):
    cm = classical_model(3)
    checked = validate_coherence(cm.model, cm.sigma)
    counting = _CountingCoarsen()
    monkeypatch.setattr(coarsening, "coarsen", counting)
    assert check_sharp_algebra_laws(checked) > 0
    assert counting.calls == 0


def test_distributive_diagrams_build_one_coarsening(monkeypatch):
    counting = _CountingCoarsen(coarsening._coarse_space)
    monkeypatch.setattr(interference, "_coarse_space", counting)
    monkeypatch.setattr(coarsening, "_coarse_space", counting)
    rep = check_distributive_diagrams(fixture_model("wright"), 2)
    assert rep.multiplication_outer > 0
    assert counting.calls == 1
