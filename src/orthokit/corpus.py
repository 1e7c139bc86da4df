"""Deterministic fixture corpus for the property suites.

Exhaustively enumerates small test spaces up to outcome relabelling, plus a
handful of named models that recur throughout the test suites.  Generation
is stratified by outcome and test count; within a stratum, candidates are
visited in mask-lexicographic order and the first member of each
isomorphism class is kept, so output order and the golden digest are stable
across runs.
"""

from __future__ import annotations

import hashlib
from itertools import combinations, permutations
from math import comb
from string import ascii_lowercase
from typing import Iterator

from .errors import PositivityViolation, UnknownName, check_cap_sum
from .quantum import classical_model, hilbert_slice_model
from .states import Model, full_model
from .testspace import TestSpace, _ids, build_test_space

_cache: dict[tuple[int, int], list[TestSpace]] = {}


def _mask_tables(n: int) -> list[list[int]]:
    """For each permutation of n points, the induced map on subset masks."""
    tables = []
    for perm in permutations(range(n)):
        table = [0] * (1 << n)
        for mask in range(1 << n):
            out = 0
            for i in range(n):
                if mask >> i & 1:
                    out |= 1 << perm[i]
            table[mask] = out
        tables.append(table)
    return tables


def enumerate_test_spaces(max_outcomes: int, max_tests: int, cap: int | None = None):
    """All irredundant covering test spaces, one per isomorphism class.

    The cap bounds the candidate test families, C(2^n - 1, k) summed over
    n <= max_outcomes and k <= max_tests; cached calls check it too.  Test
    counts past the 2^n - 1 nonempty outcome sets have no families and are
    skipped, in the bound and in the loop.
    """
    sizes = (comb(2**n - 1, k) for n in range(1, max_outcomes + 1)
             for k in range(1, min(max_tests, 2**n - 1) + 1))
    check_cap_sum("test-space corpus", sizes, cap)
    key = (max_outcomes, max_tests)
    if key in _cache:
        yield from _cache[key]
        return
    out: list[TestSpace] = []
    for n in range(1, max_outcomes + 1):
        labels = tuple(ascii_lowercase[:n])
        tables = _mask_tables(n)
        full = (1 << n) - 1
        masks = list(range(1, 1 << n))
        for k in range(1, min(max_tests, len(masks)) + 1):
            seen: set[tuple[int, ...]] = set()
            for combo in combinations(masks, k):
                cover = 0
                for m in combo:
                    cover |= m
                if cover != full:
                    continue
                if any((a & b) in (a, b) for a, b in combinations(combo, 2)):
                    continue
                if combo in seen:
                    continue
                for table in tables:
                    seen.add(tuple(sorted(table[m] for m in combo)))
                out.append(TestSpace(labels, combo))
    _cache[key] = out
    yield from out


def corpus_models(
    max_outcomes: int = 6, max_tests: int = 3, cap: int | None = None
) -> Iterator[Model]:
    """Full models over the generated spaces, skipping non-positive ones."""
    for space in enumerate_test_spaces(max_outcomes, max_tests, cap):
        try:
            yield full_model(space)
        except PositivityViolation:
            continue


def corpus_digest(max_outcomes: int = 6, max_tests: int = 3) -> str:
    """Stable hash of the generated corpus, for regression pinning."""
    h = hashlib.sha256()
    for space in enumerate_test_spaces(max_outcomes, max_tests):
        enc = ";".join(",".join(space.labels_of(_ids(t))) for t in space._test_masks)
        h.update(enc.encode())
        h.update(b"|")
    return h.hexdigest()


_NAMED = {}


def _register(name):
    def deco(fn):
        _NAMED[name] = fn
        return fn

    return deco


@_register("wright")
def _wright() -> Model:
    """Two overlapping splitter readouts: the fine test and the looped one."""
    return full_model(build_test_space([["x", "y", "z"], ["q", "z"]]))


@_register("triangle")
def _triangle() -> Model:
    """Three tests pasted in a loop; the standard non-coherent example."""
    return full_model(build_test_space([["a", "x", "b"], ["b", "y", "c"], ["c", "z", "a"]]))


@_register("semiclassical-2x2")
def _semiclassical() -> Model:
    return full_model(build_test_space([["a", "b"], ["c", "d"]]))


@_register("single-2")
def _single2() -> Model:
    return full_model(build_test_space([["a", "b"]]))


@_register("single-3")
def _single3() -> Model:
    return full_model(build_test_space([["a", "b", "c"]]))


@_register("classical-2")
def _classical2() -> Model:
    return classical_model(2).model


@_register("classical-3")
def _classical3() -> Model:
    return classical_model(3).model


@_register("classical-4")
def _classical4() -> Model:
    return classical_model(4).model


@_register("qubit-zx")
def _qubit_zx() -> Model:
    """Qubit slice with the computational and balanced bases."""
    z = ((1 + 0j, 0j), (0j, 1 + 0j))
    sq = 2 ** -0.5
    x = ((sq + 0j, sq + 0j), (sq + 0j, -sq + 0j))
    return hilbert_slice_model(
        [z, x],
        [(1 + 0j, 0j), (sq + 0j, sq + 0j)],
        labels=[["z0", "z1"], ["x+", "x-"]],
    )


def named(name: str) -> Model:
    """A documented fixture model by name."""
    try:
        builder = _NAMED[name]
    except KeyError:
        raise UnknownName(
            f"unknown fixture {name!r}; have {sorted(_NAMED)}"
        ) from None
    return builder()


def named_fixtures() -> list[str]:
    return sorted(_NAMED)
