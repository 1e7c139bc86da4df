"""Structure-respecting maps between probabilistic models.

A morphism is a total outcome map that preserves orthogonality, sends tests
to events, keeps test images mutually perspective, and pulls every target
state back to a multiple of a source state.  Test-preserving maps get a
fast path: for those, the event and perspectivity conditions hold
automatically, as does the state condition whenever the source carries the
full weight polytope.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from ._record import Frozen
from .errors import (
    DomainMismatch,
    HypothesisUnmet,
    ImageNotEvent,
    ImagesNotPerspective,
    LawViolation,
    NotLocallyInjective,
    NumericKindMismatch,
    PullbackNotState,
    UsageError,
)
from .states import GENERATORS, Model, Weight
from .testspace import TestSpace, _ids, mask_event

D_IMPLIED = "implied"  # full source: pullbacks are multiples of states by perspectivity
D_EXACT = "exact"  # checked against generators or enumerated vertices


class Morphism(Frozen):
    __slots__ = ("source", "target", "mapping", "test_preserving", "embedding", "d_status")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def image(self, event) -> frozenset:
        return frozenset(self.mapping[x] for x in event)

    def pullback(self, beta: Weight) -> Weight:
        return Weight(tuple(beta[self.mapping[x]] for x in range(len(self.mapping))))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.source.space.labels[x]}->{self.target.space.labels[self.mapping[x]]}"
            for x in range(len(self.mapping))
        )
        return f"Morphism({pairs})"


def validate_morphism(
    source: Model,
    target: Model,
    mapping: Sequence[int] | Callable[[int], int] | dict,
    cap: int | None = None,
) -> Morphism:
    """Check the four morphism conditions and compute the derived flags.

    Raises ``NumericKindMismatch`` when one model is exact and the other
    float, and a :class:`MorphismError` subclass with a witness on the first
    violated condition.  For a generator source over a full target, the
    state condition enumerates the target's vertices under ``cap`` and
    raises ``EnumerationCapExceeded`` past it.
    """
    if source.exact != target.exact:
        raise NumericKindMismatch("a morphism joins two exact or two float models")
    src, dst = source.space, target.space
    if callable(mapping):
        mapping = tuple(mapping(x) for x in range(src.n_outcomes))
    elif isinstance(mapping, dict):
        try:
            mapping = tuple(mapping[x] for x in range(src.n_outcomes))
        except KeyError:
            raise UsageError("mapping must be total on the source outcomes") from None
    else:
        mapping = tuple(mapping)
    if len(mapping) != src.n_outcomes:
        raise UsageError("mapping must be total on the source outcomes")
    for fx in mapping:  # checked before any 1 << fx, as TestSpace._mask_of checks ids
        if not (isinstance(fx, int) and 0 <= fx < dst.n_outcomes):
            raise UsageError(f"image id {fx!r} outside the target outcome range")

    # (a) orthogonality preservation; implies injectivity on each test.
    orth = dst._orth_table()
    for t in src._test_masks:
        members = _ids(t)
        for i, x in enumerate(members):
            ox = orth[mapping[x]]
            for y in members[i + 1 :]:
                if not ox >> mapping[y] & 1:
                    raise NotLocallyInjective(
                        f"{src.labels[x]},{src.labels[y]} are orthogonal but their "
                        "images are not",
                        witness=(x, y),
                    )

    # (b) tests land on events.
    images = [_image_mask(mapping, t) for t in src._test_masks]
    for t, img in zip(src._test_masks, images):
        if not dst._tests_holding(img):
            raise ImageNotEvent(
                f"image of test {src.labels_of(_ids(t))} is not an event", witness=mask_event(t)
            )

    test_preserving, embedding = _flags(images, dst, mapping)

    # (c) images of tests are mutually perspective (automatic when each image
    # is itself a test: any two tests share the empty complement).
    if not test_preserving:
        for (s, a), (t, b) in combinations(zip(src._test_masks, images), 2):
            if dst._axis(a, b) is None:
                raise ImagesNotPerspective(
                    "test images are not perspective", witness=(mask_event(s), mask_event(t))
                )

    # (d) state pullbacks are multiples of source states.
    d_status = _check_state_condition(source, target, mapping, cap)
    return Morphism(source, target, mapping, test_preserving, embedding, d_status)


def _image_mask(mapping: Sequence[int], m: int) -> int:
    """The mask of the image of the event mask ``m`` under an outcome map."""
    return sum({1 << mapping[x] for x in _ids(m)})  # distinct bits: the sum is the OR


def _flags(images: list[int], target: TestSpace, mapping: tuple[int, ...]) -> tuple[bool, bool]:
    """The derived flags of an outcome map with these test images: (test_preserving, embedding)."""
    test_preserving = set(images) <= set(target._test_masks)
    return test_preserving, test_preserving and len(set(mapping)) == len(mapping)


def _check_state_condition(source, target, mapping, cap) -> str:
    # Pullbacks take the source's scalar kind: the vertices of a float
    # model's full polytope are exact rationals.
    kind = (lambda v: v) if source.exact else float

    def pull(beta: Weight) -> Weight:
        return Weight(tuple(kind(beta[mapping[x]]) for x in range(source.space.n_outcomes)))

    if source.states.is_full:
        # Perspective events get equal weight under every probability weight,
        # so pullbacks have constant test sums and normalize into the full
        # polytope; nothing to solve.
        return D_IMPLIED
    # Generators source: conic membership is convex in the target state, so
    # the target's vertices decide the universal statement: its generators,
    # or the vertices of its full polytope, enumerated under the cap.
    what = "a generator state" if target.states.kind == GENERATORS else "a target state"
    for beta in target.state_vertices(cap):
        if not source.contains_ray(pull(beta)):
            raise PullbackNotState(
                f"{what} pulls back outside the source state cone", witness=beta
            )
    return D_EXACT


def identity_morphism(model: Model) -> Morphism:
    return validate_morphism(model, model, tuple(range(model.space.n_outcomes)))


def compose(psi: Morphism, phi: Morphism) -> Morphism:
    """psi after phi.

    Morphisms compose, so the composite needs no revalidation.  Its
    ``test_preserving`` and ``embedding`` flags are read off the composite
    mapping, as ``validate_morphism`` reads them, because neither follows
    from the factors' flags: an embedding followed by a fold can still be
    an embedding.  ``d_status`` is implied only when both factors' are.
    """
    if phi.target is not psi.source:
        raise DomainMismatch("codomain of the first factor must be the domain of the second")
    mapping = tuple(psi.mapping[fx] for fx in phi.mapping)
    images = [_image_mask(mapping, t) for t in phi.source.space._test_masks]
    test_preserving, embedding = _flags(images, psi.target.space, mapping)
    d_status = D_IMPLIED if phi.d_status == psi.d_status == D_IMPLIED else D_EXACT
    return Morphism(phi.source, psi.target, mapping, test_preserving, embedding, d_status)


def morphisms_equal(f: Morphism, g: Morphism) -> bool:
    return f.source is g.source and f.target is g.target and f.mapping == g.mapping


def check_retraction_test_preserving(phi: Morphism, psi: Morphism) -> bool:
    """A left inverse of an embedding must be test-preserving.

    Raises HypothesisUnmet unless phi is an embedding with psi after phi the
    identity; raises LawViolation if the conclusion somehow fails (it never
    should for validated morphisms).
    """
    if not phi.embedding:
        raise HypothesisUnmet("first argument must be an embedding")
    if phi.source is not psi.target or phi.target is not psi.source:
        raise HypothesisUnmet("need psi : B -> A against phi : A -> B")
    if any(psi.mapping[phi.mapping[x]] != x for x in range(len(phi.mapping))):
        raise HypothesisUnmet("psi does not invert phi on outcomes")
    if not psi.test_preserving:
        raise LawViolation("left inverse of an embedding failed to preserve tests")
    return True


def image_core(phi: Morphism) -> frozenset:
    """Core of the image test family: outcomes common to every test image."""
    out = -1
    for t in phi.source.space._test_masks:
        out &= _image_mask(phi.mapping, t)
    return mask_event(out)
