"""Structure-respecting maps between probabilistic models.

A morphism is a total outcome map that preserves orthogonality, sends tests
to events, keeps test images mutually perspective, and pulls every target
state back to a multiple of a source state.  Test-preserving maps get a
fast path: for those, the event and perspectivity conditions hold
automatically, as does the state condition whenever the source carries the
full weight polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    DomainMismatch,
    HypothesisUnmet,
    ImageNotEvent,
    ImagesNotPerspective,
    LawViolation,
    NotLocallyInjective,
    PullbackNotState,
    UsageError,
)
from .states import GENERATORS, Model, Weight

D_IMPLIED = "implied"  # full source: pullbacks are multiples of states by perspectivity
D_EXACT = "exact"  # checked against generators or enumerated vertices


@dataclass(frozen=True)
class Morphism:
    source: Model
    target: Model
    mapping: tuple[int, ...]
    test_preserving: bool
    embedding: bool
    d_status: str

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

    Raises a :class:`MorphismError` subclass with a witness on the first
    violated condition.  For a generator source over a full target, the
    state condition enumerates the target's vertices under ``cap`` and
    raises ``EnumerationCapExceeded`` past it.
    """
    src, dst = source.space, target.space
    if callable(mapping):
        mapping = tuple(mapping(x) for x in range(src.n_outcomes))
    elif isinstance(mapping, dict):
        mapping = tuple(mapping[x] for x in range(src.n_outcomes))
    else:
        mapping = tuple(mapping)
    if len(mapping) != src.n_outcomes:
        raise UsageError("mapping must be total on the source outcomes")
    for fx in mapping:
        if not 0 <= fx < dst.n_outcomes:
            raise UsageError(f"image id {fx} outside the target outcome range")

    # (a) orthogonality preservation; implies injectivity on each test.
    for t in src.tests:
        members = sorted(t)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if not dst.orthogonal(mapping[x], mapping[y]):
                    raise NotLocallyInjective(
                        f"{src.labels[x]},{src.labels[y]} are orthogonal but their "
                        "images are not",
                        witness=(x, y),
                    )

    # (b) tests land on events.
    images = [frozenset(mapping[x] for x in t) for t in src.tests]
    for t, img in zip(src.tests, images):
        if not dst.is_event(img):
            raise ImageNotEvent(
                f"image of test {src.labels_of(t)} is not an event", witness=t
            )

    test_preserving, embedding = _flags(source, target, mapping)

    # (c) images of tests are mutually perspective (automatic when each image
    # is itself a test: any two tests share the empty complement).
    if not test_preserving:
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if not dst.is_perspective(images[i], images[j]):
                    raise ImagesNotPerspective(
                        "test images are not perspective",
                        witness=(src.tests[i], src.tests[j]),
                    )

    # (d) state pullbacks are multiples of source states.
    d_status = _check_state_condition(source, target, mapping, cap)

    return Morphism(
        source=source,
        target=target,
        mapping=mapping,
        test_preserving=test_preserving,
        embedding=embedding,
        d_status=d_status,
    )


def _flags(source: Model, target: Model, mapping: tuple[int, ...]) -> tuple[bool, bool]:
    """The derived flags of an outcome map: (test_preserving, embedding)."""
    test_set = target.space.test_set
    test_preserving = all(
        frozenset(mapping[x] for x in t) in test_set for t in source.space.tests
    )
    return test_preserving, test_preserving and len(set(mapping)) == len(mapping)


def _check_state_condition(source, target, mapping, cap) -> str:
    def pull(beta: Weight) -> Weight:
        return Weight(tuple(beta[mapping[x]] for x in range(source.space.n_outcomes)))

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
    test_preserving, embedding = _flags(phi.source, psi.target, mapping)
    return Morphism(
        source=phi.source,
        target=psi.target,
        mapping=mapping,
        test_preserving=test_preserving,
        embedding=embedding,
        d_status=D_IMPLIED if phi.d_status == psi.d_status == D_IMPLIED else D_EXACT,
    )


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
    images = [phi.image(t) for t in phi.source.space.tests]
    out = images[0]
    for img in images[1:]:
        out &= img
    return out
