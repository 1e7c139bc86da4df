"""Coarse-graining of models and its algebras.

The coarsening of a test space has the nonempty events as outcomes and the
set partitions of tests as tests; states lift along event weight.  The
construction is functorial, carries a unit (singleton) and multiplication
(union) making it a monad, and its algebras are the coherence maps:
event-to-outcome maps fixing singletons and compatible with grouped
refinement.  Coherences satisfying the stronger substitution property
(cohesions) force orthomodular logics on regular models.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from ._record import Frozen
from .errors import (
    HypothesisUnmet,
    LawViolation,
    MorphismError,
    NotCoherence,
    UsageError,
    check_cap,
)
from .logic import Orthoalgebra, OrthoMap, build_logic, induced_logic_map
from .morphisms import Morphism, _image_mask, validate_morphism
from .states import Model, StateSpace, Weight
from .testspace import PredicateResult, TestSpace, _ids, mask_event, mask_key


def set_partitions(members: list) -> Iterable[list[list]]:
    """All set partitions, via restricted-growth block assignment."""
    if not members:
        yield []
        return
    first, rest = members[0], members[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def _bell_numbers(n: int) -> list[int]:
    """B(0), ..., B(n): the number of set partitions of each size, by the Bell triangle."""
    bells, row = [1], [1]
    for _ in range(n):
        row = list(accumulate(row, initial=row[-1]))
        bells.append(row[0])
    return bells


class Coarsening(Frozen):
    """A coarsened model plus the interning between outcomes and base events.

    Events are masks (bit x for base outcome x) and nothing else: outcome i
    is the base event whose mask is ``outcome_mask[i]``, and ``mask_outcome``
    inverts the masks.  ``to_event`` is the frozenset view of one outcome.
    """

    __slots__ = ("base", "model", "outcome_mask", "mask_outcome")

    def to_coarse(self, event: Iterable[int]) -> int:
        m = self.base.space._mask_of(event)
        if m not in self.mask_outcome:
            raise UsageError(f"{sorted(event)} is not a nonempty event of the base")
        return self.mask_outcome[m]

    def to_event(self, outcome: int) -> frozenset:
        if not 0 <= outcome < len(self.outcome_mask):
            raise _not_an_id(outcome)
        return mask_event(self.outcome_mask[outcome])

    def collapse(self, outcomes: Iterable[int]) -> int:
        """The monad multiplication: the outcome whose event is the union of theirs."""
        return _collapse(self.outcome_mask, self.mask_outcome, outcomes)


def _collapse(masks: Sequence[int], mask_outcome: Mapping, outcomes: Iterable[int]) -> int:
    """``Coarsening.collapse`` on the outcome masks and their ids."""
    m = 0
    for i in outcomes:
        if i < 0:  # an id >= n fails the lookup; one comparison per id
            raise _not_an_id(i)
        try:
            m |= masks[i]
        except IndexError:
            raise _not_an_id(i) from None
    return _outcome_of(mask_outcome, m)


def _outcome_of(mask_outcome: Mapping[int, int], m: int) -> int:
    """The outcome whose event has mask ``m``."""
    try:
        return mask_outcome[m]
    except KeyError:
        raise UsageError(f"{_ids(m)} is not a nonempty event of the base") from None


def _not_an_id(i) -> UsageError:
    return UsageError(f"{i!r} is not an outcome id of the coarsening")


def lift_weight(events: Iterable[frozenset], w: Weight) -> Weight:
    """The weight each event gets from ``w``, in order: a state lifted to a coarsening."""
    return Weight(tuple(w.of(ev) for ev in events))


def _coarse_space(space: TestSpace, cap: int | None):
    """The outcome masks, their ids and the partition tests of ``coarsen``, built
    once per space (``TestSpace._derived``), returned after this call's cap checks."""
    events = space._checked_event_masks(cap)
    bell = _bell_numbers(max((t.bit_count() for t in space._test_masks), default=0))
    check_cap("coarsened tests", sum(bell[t.bit_count()] for t in space._test_masks), cap)
    if "coarse" not in space._derived:
        masks = tuple(sorted(filter(None, events), key=mask_key))
        mask_outcome = {m: i for i, m in enumerate(masks)}
        labels = ["{" + ",".join([space.labels[x] for x in _ids(m)]) + "}" for m in masks]
        tests = set()
        for t in space._test_masks:
            for blocks in set_partitions([1 << x for x in _ids(t)]):
                tests.add(sum(1 << mask_outcome[sum(b)] for b in blocks))
        space._derived.setdefault("coarse", (masks, mask_outcome, TestSpace(labels, tests)))
    return space._derived["coarse"]


def coarsen(model: Model, cap: int | None = None) -> Coarsening:
    """The coarsened model: outcomes are nonempty events, tests are partitions."""
    masks, mask_outcome, coarse_space = _coarse_space(model.space, cap)
    if model.states.is_full:
        states = StateSpace.full()
    else:  # float weights add in frozenset order, which fixes the bits documents print
        events = list(map(mask_event, masks))
        states = StateSpace.hull(lift_weight(events, g) for g in model.states.generators)
    coarse_model = Model(coarse_space, states, exact=model.exact, tol=model.tol)
    return Coarsening(model, coarse_model, masks, dict(mask_outcome))


def functor_sharp(
    phi: Morphism,
    source_coarse: Coarsening | None = None,
    target_coarse: Coarsening | None = None,
    cap: int | None = None,
) -> Morphism:
    """Lift a morphism to the coarsenings by direct image of events."""
    sc = source_coarse if source_coarse is not None else coarsen(phi.source, cap)
    tc = target_coarse if target_coarse is not None else coarsen(phi.target, cap)
    images = (_image_mask(phi.mapping, m) for m in sc.outcome_mask)
    mapping = tuple(_outcome_of(tc.mask_outcome, m) for m in images)
    return validate_morphism(sc.model, tc.model, mapping, cap)


def unit_eta(coarse: Coarsening, cap: int | None = None) -> Morphism:
    """Singleton inclusion of a model into its coarsening; an embedding."""
    base = coarse.base
    mapping = tuple(coarse.mask_outcome[1 << x] for x in range(base.space.n_outcomes))
    eta = validate_morphism(base, coarse.model, mapping, cap)
    if not eta.embedding:
        raise LawViolation("the singleton unit must be an embedding")
    return eta


def mult_mu(
    coarse: Coarsening, double: Coarsening, cap: int | None = None
) -> Morphism:
    """Union collapse of the double coarsening onto the single one."""
    if double.base is not coarse.model:
        raise UsageError("second argument must be the coarsening of the first's model")
    mapping = tuple(coarse.collapse(_ids(d)) for d in double.outcome_mask)
    mu = validate_morphism(double.model, coarse.model, mapping, cap)
    if not mu.test_preserving:
        raise LawViolation("the union collapse must be test-preserving")
    return mu


class MonadLawReport(Frozen):
    __slots__ = ("associativity_points", "unit_points")


def check_monad_laws_sharp(model: Model, cap: int | None = None) -> MonadLawReport:
    """Pointwise commutation of the associativity square and unit triangles.

    The square is checked on every outcome of the triple coarsening, i.e.
    on every nonempty event of the double coarsening's test space, streamed
    rather than materialized as a model.  Point i of a double test with blocks
    b_0 < ... < b_{k-1} holds the b_j with bit j of i set, in submask order;
    its unions are those of i - 2^j, for j the top bit of i, OR the masks of
    mu(b_j) (left) and of b_j (right, then mu): no id list per point.
    """
    cmask, cmo, space = _coarse_space(model.space, cap)
    dmask, dmo, double = _coarse_space(space, cap)
    tests = double._test_masks
    bound = sum((1 << t.bit_count()) - 1 for t in tests)
    check_cap("triple-coarsening outcomes", bound, cap)
    mu = [_collapse(cmask, cmo, _ids(d)) for d in dmask]
    for t in tests:
        blocks, left, right = _ids(t), [0], [0]
        for b in blocks:
            lb, rb = cmask[mu[b]], dmask[b]
            left += [u | lb for u in left]
            right += [v | rb for v in right]
        for i in range(1, len(left)):
            if _outcome_of(cmo, left[i]) != mu[_outcome_of(dmo, right[i])]:
                failed = [x for k, x in enumerate(blocks) if i >> k & 1]
                raise LawViolation(f"associativity square fails at {failed}")
    for i, m in enumerate(cmask):
        # mu after sharp(eta): split into singletons, then union.
        if _collapse(cmask, cmo, (cmo[1 << x] for x in _ids(m))) != i:
            raise LawViolation("left unit triangle fails")
        # mu after eta of the coarsening: wrap as one block, then union.
        if _outcome_of(cmo, m) != i:
            raise LawViolation("right unit triangle fails")
    return MonadLawReport(bound, len(cmask))


# -- coherences and cohesions ---------------------------------------------------


class CheckedCoherence(Frozen):
    """A validated coarsening-algebra structure on a model."""

    # morphism: the structure map from the coarsening back to the model
    __slots__ = ("model", "coarse", "morphism", "table")

    def __call__(self, event: Iterable[int]) -> int:
        return self.table[frozenset(event)]


def validate_coherence(
    model: Model,
    sigma: Mapping[frozenset, int],
    cap: int | None = None,
    coarse: Coarsening | None = None,
) -> CheckedCoherence:
    """Validate a structure map for the coarsening construction.

    Checks: the table has an entry for every nonempty event; the map is a
    morphism from the coarsening to the model; it fixes singletons; it
    satisfies the grouped-refinement identity on jointly orthogonal families;
    and the derived substitution facts (image tests, perspectivity of an
    event with its collapse) hold.
    """
    coarse = coarse if coarse is not None else coarsen(model, cap)
    space = model.space
    events = list(map(mask_event, coarse.outcome_mask))
    try:
        image = tuple(map(sigma.__getitem__, events))  # coarse outcome -> its collapse
    except KeyError as exc:
        raise NotCoherence("structure map misses a nonempty event", witness=exc.args[0]) from None
    for x in range(space.n_outcomes):
        if image[coarse.mask_outcome[1 << x]] != x:
            raise NotCoherence(
                f"singleton {space.labels[x]} is not fixed", witness=x
            )
    try:
        phi = validate_morphism(coarse.model, model, image, cap)
    except MorphismError as exc:
        raise NotCoherence(f"structure map is not a morphism: {exc}", witness=exc.witness)
    # Grouped refinement: collapsing a jointly orthogonal family member-wise
    # and then collapsing the result agrees with collapsing the union.
    tests = coarse.model.space._test_masks
    check_cap("coherence families", sum((1 << t.bit_count()) - 1 for t in tests), cap)
    for t in tests:
        fam = 0
        while fam := (fam - t) & t:  # the nonempty submasks of t, ascending
            union = coarse.collapse(_ids(fam))
            inner = _outcome_of(coarse.mask_outcome, _image_mask(image, fam))
            if image[union] != image[inner]:
                raise NotCoherence(
                    "grouped refinement identity fails",
                    witness=(coarse.to_event(union), coarse.to_event(inner)),
                )
    if not phi.test_preserving:
        raise LawViolation("a coherence must be test-preserving")
    test_masks = set(space._test_masks)
    for t in space._test_masks:
        sub = 0
        while sub := (sub - t) & t:
            x = image[coarse.mask_outcome[sub]]
            patched = (t & ~sub) | (1 << x)
            if patched not in test_masks:
                raise LawViolation(
                    "substituting the collapse into its test must give a test"
                )
            if space._axis(1 << x, sub) is None:
                raise LawViolation("an event must be perspective to its collapse")
    return CheckedCoherence(model, coarse, phi, dict(zip(events, image)))


def is_cohesion(checked: CheckedCoherence, cap: int | None = None) -> PredicateResult:
    """Substitution the other way: an event may replace its collapse in any test."""
    space = checked.model.space
    holding, tests = space._holder_bits(), space._test_masks
    check_cap("cohesion pairs", sum(holding[cx].bit_count() for cx in checked.table.values()), cap)
    test_masks = set(tests)
    for ev, cx in checked.table.items():
        e = space._mask_of(ev)  # None when ev holds an id that is not an outcome
        for i in _ids(holding[cx]):
            t = tests[i]
            if e is None or (t & ~(1 << cx)) | e not in test_masks:
                return PredicateResult(False, (mask_event(t), ev))
    return PredicateResult(True)


class ProjectivityClassification(Frozen):
    __slots__ = (
        "cohesive_and_projective",
        "cohesive_and_collapse_constant",
        "algebraic_and_projective",
    )

    @property
    def all_equal(self) -> bool:
        return (
            self.cohesive_and_projective
            == self.cohesive_and_collapse_constant
            == self.algebraic_and_projective
        )


def classify_projectivity(
    checked: CheckedCoherence, cap: int | None = None
) -> ProjectivityClassification:
    """Three equivalent descriptions of projective coarsening algebras.

    Evaluates each side independently and raises if they ever disagree.
    """
    space = checked.model.space
    cohesive = bool(is_cohesion(checked, cap))
    projective = bool(space.projective())
    algebraic = bool(space.algebraic(cap))
    constant = True
    for c in space._checked_event_masks(cap):  # the bucket of c: the events it complements
        vals = {checked.table[mask_event(a)] for a in space._complement_masks(c) if a}
        if len(vals) > 1:
            constant = False
            break
    out = ProjectivityClassification(
        cohesive_and_projective=cohesive and projective,
        cohesive_and_collapse_constant=cohesive and constant,
        algebraic_and_projective=algebraic and projective,
    )
    if not out.all_equal:
        raise LawViolation(f"projectivity classifications disagree: {out}")
    return out


def check_regular_cohesive_logic(
    checked: CheckedCoherence, cap: int | None = None
) -> Orthoalgebra:
    """A regular model with a cohesion is coherent and algebraic with an OMP logic.

    Raises HypothesisUnmet unless the model is regular and the structure map
    is a cohesion; raises LawViolation if the guaranteed conclusions fail.
    """
    space = checked.model.space
    if not space.regular(cap):
        raise HypothesisUnmet("model is not regular")
    if not is_cohesion(checked, cap):
        raise HypothesisUnmet("structure map is not a cohesion")
    if not space.coherent(cap):
        raise LawViolation("regular cohesive model failed to be coherent")
    if not space.algebraic(cap):
        raise LawViolation("regular cohesive model failed to be algebraic")
    logic = build_logic(space, cap)
    if not logic.is_omp():
        raise LawViolation("regular cohesive model has a non-orthomodular logic")
    return logic


def check_sharp_algebra_laws(checked: CheckedCoherence, cap: int | None = None) -> int:
    """Pointwise unit and associativity laws for a coarsening algebra.

    The unit law is singleton fixing; the associativity law compares
    member-wise collapse with union collapse on every outcome of the double
    coarsening, i.e. every nonempty event of the coarse space.  Returns the
    number of points checked.
    """
    coarse, table = checked.coarse, checked.table
    masks = coarse.model.space._checked_event_masks(cap)
    image = [table[ev] for ev in map(mask_event, coarse.outcome_mask)]
    points = 0
    for m in filter(None, masks):
        if image[coarse.collapse(_ids(m))] != image[coarse.mask_outcome[_image_mask(image, m)]]:
            raise LawViolation("coarsening-algebra associativity fails")
        points += 1
    return points


def sharp_logic_iso(model: Model, cap: int | None = None) -> OrthoMap:
    """The logic of a model and of its coarsening agree, class by class.

    Transports the classes along the singleton unit and verifies that the
    induced sum-preserving map is a bijection.
    """
    iso = induced_logic_map(unit_eta(coarsen(model, cap), cap), cap=cap)
    if len(set(iso.table)) != len(iso.table) or len(iso.source) != len(iso.target):
        raise LawViolation("logics of the model and its coarsening are not in bijection")
    return iso
