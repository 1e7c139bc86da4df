"""Frozenset reference versions of the interchange checks.

These are the versions of ``check_distributive_diagrams``,
``distributive_ell``, ``check_ell_naturality``, ``check_commutative_boolean``,
``check_collapse_perspectivity``, ``check_left_equivariance`` and
``coarse_setwise_product`` that build every string set as a frozenset of
tuples (``concat_product``, ``concat_string_sets``) and every setwise product
through ``frozenset_oracles.event_product``, deciding perspectivity with
``is_perspective``.  The library reads string sets as masks over string codes
(``compounding.concat_masks``) and setwise products off one table of outcome
products; the oracle tests require both sides to agree on reports, point
counts, mappings, product tables, verdicts and witnesses, exception class and
message.
"""

from __future__ import annotations

from itertools import accumulate, chain, product as iproduct
from typing import Mapping, Sequence

from orthokit.coarsening import CheckedCoherence, Coarsening, coarsen
from orthokit.compounding import SequentialProduct, truncated_compound
from orthokit.errors import HypothesisUnmet, LawViolation, UsageError, check_cap_sum
from orthokit.interference import (
    DiagramReport,
    DistributiveCell,
    GAlgebra,
)
from orthokit.logic import build_logic
from orthokit.morphisms import Morphism, validate_morphism
from orthokit.states import Model
from orthokit.testspace import PredicateResult, _ids, event_key, mask_event
from frozenset_oracles import event_product


def concat_product(events: Sequence[frozenset]) -> frozenset:
    """Setwise concatenation product of outcome sets, as a set of strings."""
    out = [()]
    for ev in events:
        out = [s + (x,) for s in out for x in sorted(ev)]
    return frozenset(out)


def compositions(total: int):
    """Ordered splits of ``total`` into positive parts (one empty split for 0)."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def concat_string_sets(sets: Sequence[frozenset]) -> frozenset:
    """Concatenation product of sets of strings."""
    out = [()]
    for block in sets:
        out = [s + t for s in out for t in sorted(block)]
    return frozenset(out)


def check_distributive_diagrams(
    model: Model, depth: int, cap: int | None = None
) -> DiagramReport:
    """Pointwise commutation of the four interchange diagrams at a depth.

    All four are pure string-set computations over windows: the two
    multiplication squares (collapsing a double coarsening before or after
    taking products; flattening strings of strings before or after) and the
    two unit triangles.  Raises LawViolation on any mismatch.
    """
    if depth < 0:
        raise UsageError("depth must be nonnegative")
    coarse = coarsen(model, cap)
    events = list(map(mask_event, coarse.outcome_mask))  # sorted by event_key
    double_outcomes = [
        frozenset(events[i] for i in _ids(d))
        for d in filter(None, coarse.model.space._checked_event_masks(cap))
    ]
    n = model.space.n_outcomes
    # One point per word of each square and triangle; a word of length k has
    # 2^(k-1) splits (one for k = 0).
    d, e = len(double_outcomes), len(events)
    terms = (d**k + e**k * (2 ** (k - 1) if k else 1) + n**k for k in range(depth + 1))
    check_cap_sum("distributive diagrams", chain([e], terms), cap)

    # Square 1: strings of double-coarse outcomes; collapse inner unions
    # before or after distributing.
    sq1 = 0
    for k in range(depth + 1):
        for word in iproduct(double_outcomes, repeat=k):
            via_member = frozenset()
            for choice in iproduct(*[sorted(fam, key=event_key) for fam in word]):
                via_member |= concat_product(choice)
            unions = [frozenset().union(*fam) for fam in word]
            if via_member != concat_product(unions):
                raise LawViolation("distributive square over coarsening fails")
            sq1 += 1

    # Square 2: strings of strings of events; flatten before or after.
    sq2 = 0
    for total in range(depth + 1):
        for word in iproduct(events, repeat=total):
            for split in compositions(total):
                chunks = [word[end - part : end] for end, part in zip(accumulate(split), split)]
                nested = concat_string_sets([concat_product(c) for c in chunks])
                flat = concat_product(word)
                if nested != flat:
                    raise LawViolation("distributive square over flattening fails")
                sq2 += 1

    # Triangle 1: an event, viewed as a one-letter string, distributes to
    # its set of one-letter strings.
    tri1 = 0
    for ev in events:
        if concat_product([ev]) != frozenset((x,) for x in ev):
            raise LawViolation("coarse unit triangle fails")
        tri1 += 1

    # Triangle 2: a string of singletons distributes to the singleton of
    # the string.
    tri2 = 0
    for k in range(depth + 1):
        for s in iproduct(range(n), repeat=k):
            if concat_product([frozenset([x]) for x in s]) != frozenset([s]):
                raise LawViolation("compound unit triangle fails")
            tri2 += 1
    return DiagramReport(sq1, sq2, tri1, tri2)


def distributive_ell(model: Model, depth: int, cap: int | None = None) -> DistributiveCell:
    """The interchange map as a validated embedding between materializations."""
    coarse = coarsen(model, cap)
    source = truncated_compound(coarse.model, depth, cap)
    compound = truncated_compound(model, depth, cap)
    target = coarsen(compound.model, cap)
    events = list(map(mask_event, coarse.outcome_mask))
    mapping = []
    for s in source.strings:
        block = frozenset(compound.id_of(w) for w in concat_product([events[i] for i in s]))
        mapping.append(target.to_coarse(block))
    phi = validate_morphism(source.model, target.model, tuple(mapping), cap)
    if not phi.embedding:
        raise LawViolation("the interchange map must be an embedding")
    return DistributiveCell(model, depth, source, target, phi)


def check_ell_naturality(phi: Morphism, depth: int, cap: int | None = None) -> int:
    """Naturality of the interchange map along a test-preserving morphism.

    Pointwise and purely combinatorial: pushing a string of events forward
    and then distributing agrees with distributing first and pushing the
    string set.  Returns the number of points checked.
    """
    if not phi.test_preserving:
        raise HypothesisUnmet("naturality window needs a test-preserving morphism")
    src_events = sorted((a for a in phi.source.space.events_list(cap) if a), key=event_key)
    check_cap_sum("naturality points", (len(src_events) ** k for k in range(depth + 1)), cap)
    points = 0
    for k in range(depth + 1):
        for word in iproduct(src_events, repeat=k):
            pushed = [phi.image(ev) for ev in word]
            lhs = concat_product(pushed)
            rhs = frozenset(tuple(phi.mapping[x] for x in s) for s in concat_product(word))
            if lhs != rhs:
                raise LawViolation("interchange naturality fails")
            points += 1
    return points


def check_commutative_boolean(g: GAlgebra, cap: int | None = None):
    """Commutative algebras of the combined construction have Boolean logics.

    The product of two tests is their common refinement; with algebraicity
    this forces distributivity of the logic.  Raises HypothesisUnmet when
    the model is not algebraic or the product is not commutative.
    """
    space = g.model.space
    if not g.commutative:
        raise HypothesisUnmet("product is not commutative")
    if not space.algebraic(cap):
        raise HypothesisUnmet("model is not algebraic")
    prod = g.product
    for e in space.tests:
        for f in space.tests:
            refined = event_product(prod, e, f)
            if refined is None:
                raise LawViolation("test product fell outside the window")
            if refined not in space.test_set:
                raise LawViolation("test product is not a common refinement test")
            for y in sorted(f):
                fiber = event_product(prod, e, frozenset([y]))
                if fiber is None or not space.is_perspective(frozenset([y]), fiber):
                    raise LawViolation("refinement fiber is not perspective to its outcome")
    logic = build_logic(space, cap)
    verdict = logic.is_boolean()
    if not verdict:
        raise LawViolation("commutative combined algebra with non-Boolean logic")
    return logic


def check_collapse_perspectivity(g: GAlgebra) -> int:
    """Direct identity behind no-interference: ay is perspective to sigma(a)y.

    Returns the number of (event, outcome) pairs verified.
    """
    space = g.model.space
    prod = g.product
    table = g.sigma
    points = 0
    for a in sorted(table, key=event_key):
        for y in range(space.n_outcomes):
            ay = event_product(prod, a, frozenset([y]))
            cy = prod.prod(table[a], y)
            if ay is None or cy is None:
                continue
            if not ay:
                continue
            if not space.is_perspective(ay, frozenset([cy])):
                raise LawViolation(
                    "event-then-outcome is not perspective to collapse-then-outcome"
                )
            points += 1
    return points


def check_left_equivariance(
    model: Model,
    sigma: Mapping[frozenset, int] | CheckedCoherence,
    prod: SequentialProduct,
) -> PredicateResult:
    """Weaker compatibility: left translation commutes with collapsing."""
    table = sigma.table if isinstance(sigma, CheckedCoherence) else dict(sigma)
    for a in sorted(table, key=event_key):
        for x in range(model.space.n_outcomes):
            xa = event_product(prod, frozenset([x]), a)
            lhs = prod.prod(x, table[a])
            if xa is None or lhs is None:
                continue
            if not xa:
                continue
            rhs = table.get(xa) if len(xa) > 1 else next(iter(xa))
            if rhs is None or lhs != rhs:
                return PredicateResult(False, (x, a))
    return PredicateResult(True)


def coarse_setwise_product(
    coarse: Coarsening, sp: SequentialProduct
) -> SequentialProduct:
    """Blockwise product on a coarsening of a sequential model."""
    space = coarse.base.space
    unit = coarse.mask_outcome.get(space._mask_of([sp.unit]))
    if unit is None:
        raise UsageError("the base unit must be an outcome of the coarsening")
    table = {}
    events = list(map(mask_event, coarse.outcome_mask))
    for i, a in enumerate(events):
        for j, b in enumerate(events):
            ev = event_product(sp, a, b)
            if ev is None or not ev:
                continue
            k = coarse.mask_outcome.get(space._mask_of(ev))
            if k is not None:
                table[(i, j)] = k
    return SequentialProduct(unit, table, undefined_means=sp.undefined_means)
