"""Morphism validation agrees with the frozenset forms in ``frozenset_oracles``.

The library checks the morphism conditions on test masks: (a) reads the
target's orthogonality table, (b) the tests holding each image mask, and (c)
the axis of two image masks.  The oracles build every test and every test
image as a frozenset.  On every outcome map between small spaces, and on the
classical models with their coherences, both sides must give the same
mapping, flags, ``d_status`` and image core, or the same exception class,
message and witness.
"""

from itertools import product

import pytest

import frozenset_oracles as oracle
from orthokit.coarsening import coarsen, unit_eta, validate_coherence
from orthokit.corpus import named
from orthokit.errors import (
    ImageNotEvent,
    ImagesNotPerspective,
    NotLocallyInjective,
    OrthokitError,
    UsageError,
)
from orthokit.morphisms import compose, identity_morphism, image_core, validate_morphism
from orthokit.quantum import classical_model
from orthokit.states import full_model
from orthokit.testspace import build_test_space

# Spaces whose maps to one another are all compared, for each pair with at
# most MAX_MAPS candidate maps (all but triangle to itself).
SMALL = ("single-3", "semiclassical-2x2", "wright", "triangle")
MAX_MAPS = 5_000
# A pair whose test images are events but not perspective: {a, b} and {c, d}
# have the complements {w} and {v}.
UNSHARED = [["a", "b", "w"], ["c", "d", "v"]]


def snapshot(phi):
    return ("ok", phi.mapping, phi.test_preserving, phi.embedding, phi.d_status)


def outcome(call):
    """A snapshot of the morphism, or the error's class, message and witness."""
    try:
        return snapshot(call())
    except OrthokitError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))


def compare(source, target, mapping):
    got = outcome(lambda: validate_morphism(source, target, mapping))
    assert got == outcome(lambda: oracle.validate_morphism(source, target, mapping)), mapping
    return got


def test_every_map_between_small_spaces_matches_oracle():
    """Flags, image core and composite flags too; (a), (b) and (c) each fail somewhere."""
    kinds = set()
    for source, target in product(map(named, SMALL), repeat=2):
        n, m = target.space.n_outcomes, source.space.n_outcomes
        if n**m > MAX_MAPS:
            continue
        for mapping in product(range(n), repeat=m):
            got = compare(source, target, mapping)
            kinds.add(got[0])
            if got[0] == "ok":
                phi = validate_morphism(source, target, mapping)
                assert image_core(phi) == oracle.image_core(phi)
                composite = compose(identity_morphism(target), phi)
                want = oracle.flags(source.space, target.space, mapping)
                assert (composite.test_preserving, composite.embedding) == want
    assert kinds == {"ok", NotLocallyInjective, ImageNotEvent, ImagesNotPerspective}


@pytest.mark.parametrize(
    "source, target, mapping, kind, witness",
    [
        ("wright", "wright", (0, 0, 1, 2), NotLocallyInjective, (0, 3)),
        ("single-3", "triangle", (0, 1, 2), ImageNotEvent, frozenset({0, 1, 2})),
        ("semiclassical-2x2", UNSHARED, (0, 1, 2, 3), ImagesNotPerspective,
         (frozenset({0, 1}), frozenset({2, 3}))),
    ],
)
def test_bad_mappings_match_oracle(source, target, mapping, kind, witness):
    """One failure of each condition, with its witness pinned."""
    src = named(source)
    dst = named(target) if isinstance(target, str) else full_model(build_test_space(target))
    got = compare(src, dst, mapping)
    assert (got[0], got[2]) == (kind, witness)


@pytest.mark.parametrize(
    "mapping",
    [{0: 0, 1: 1}, (0, 1, 2.0), (0, 1, "2"), {0: 0, 1: 1, 2: "2"}],
    ids=["partial dict", "float id", "str id", "str id in dict"],
)
def test_partial_or_non_integer_mappings_refused_like_oracle(mapping):
    model = full_model(build_test_space([["a", "b"], ["b", "c"]]))
    got = compare(model, model, mapping)
    assert got[0] is UsageError


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_models_match_oracle(n):
    """The unit into the coarsening, the coherence's structure map, and every
    map that moves one outcome of the coherence's mapping elsewhere."""
    cm = classical_model(n)
    coarse = coarsen(cm.model)
    eta = unit_eta(coarse)
    assert snapshot(eta) == snapshot(oracle.validate_morphism(cm.model, coarse.model, eta.mapping))
    phi = validate_coherence(cm.model, cm.sigma, coarse=coarse).morphism
    assert compare(coarse.model, cm.model, phi.mapping) == snapshot(phi)
    kinds = set()
    for x in range(len(phi.mapping)):
        for y in range(cm.model.space.n_outcomes):
            mapping = phi.mapping[:x] + (y,) + phi.mapping[x + 1 :]
            kinds.add(compare(coarse.model, cm.model, mapping)[0])
    assert NotLocallyInjective in kinds
