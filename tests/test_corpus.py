"""Fixture corpus: exhaustiveness, determinism, named models."""

from itertools import permutations

import pytest

from orthokit.errors import UnknownName
from orthokit.corpus import (
    corpus_digest,
    corpus_models,
    enumerate_test_spaces,
    named,
    named_fixtures,
)


def canonical(space):
    best = None
    for perm in permutations(range(space.n_outcomes)):
        enc = tuple(sorted(tuple(sorted(perm[x] for x in t)) for t in space.tests))
        best = enc if best is None or enc < best else best
    return best


def test_smallest_strata():
    assert len(list(enumerate_test_spaces(1, 1))) == 1
    two = list(enumerate_test_spaces(2, 1))
    assert [len(s.labels) for s in two] == [1, 2]


def test_no_isomorphic_duplicates():
    seen = set()
    for space in enumerate_test_spaces(4, 3):
        key = (space.n_outcomes, canonical(space))
        assert key not in seen
        seen.add(key)


def test_exhaustive_against_brute_force():
    """Every antichain cover over 3 outcomes appears up to relabelling."""
    from itertools import combinations

    spaces = list(enumerate_test_spaces(3, 2))
    keys = {(s.n_outcomes, canonical(s)) for s in spaces}
    masks = list(range(1, 8))
    found = set()
    for k in (1, 2):
        for combo in combinations(masks, k):
            cover = 0
            for m in combo:
                cover |= m
            if cover != 7:
                continue
            if any(a != b and a & b in (a, b) for a in combo for b in combo):
                continue
            from orthokit.testspace import TestSpace

            found.add((3, canonical(TestSpace(("a", "b", "c"), combo))))
    assert found == {k for k in keys if k[0] == 3}


def test_wright_shape_is_enumerated():
    target = (4, canonical(named("wright").space))
    keys = {(s.n_outcomes, canonical(s)) for s in enumerate_test_spaces(4, 2)}
    assert target in keys


def test_corpus_size_and_digest_are_pinned():
    spaces = list(enumerate_test_spaces(6, 3))
    assert len(spaces) == 112
    assert (
        corpus_digest()
        == "a2de3a7a3645a3a61607434e0491414bcc6ad1643c0a731c67e010a0d4cf4788"
    )


def test_models_are_positive():
    count = 0
    for m in corpus_models(5, 2):
        assert not m.positivity_failures()
        count += 1
    assert count > 10


def test_named_fixtures_resolve():
    for name in named_fixtures():
        model = named(name)
        assert model.space.n_outcomes >= 1


def test_unknown_name():
    with pytest.raises(UnknownName):
        named("nope")
