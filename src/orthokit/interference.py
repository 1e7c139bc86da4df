"""Interaction of coarse-graining with sequential compounding.

Strings of events map to string-sets by taking setwise concatenation
products; that map intertwines the two constructions and satisfies the four
distributive-law diagrams, checked here pointwise on depth windows.  Models
carrying both a coherence and a sequential product, with the coherence
multiplicative over the product, are the algebras of the combined
construction; such structures provably show no interference.  Interference
itself is witnessed numerically: a state, an event, and a follow-up outcome
where conditioning on the collapsed event disagrees with summing over its
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, product as iproduct
from typing import Callable, Iterable, Mapping, Sequence

from .coarsening import CheckedCoherence, Coarsening, coarsen, validate_coherence
from .compounding import (
    CheckedSequential,
    SequentialProduct,
    TruncatedCompound,
    _joined,
    _mass,
    _product_masks,
    _summands,
    defined_products,
    truncated_compound,
    validate_sequential,
)
from .errors import (
    HypothesisUnmet,
    LawViolation,
    NotGAlgebra,
    UsageError,
    check_cap_sum,
    check_tolerance,
)
from .logic import build_logic
from .morphisms import Morphism, validate_morphism
from .states import Model, Weight
from .testspace import PredicateResult, _ids, event_key, mask_event

BaseString = tuple  # strings over base outcome ids


def concat_product(events: Sequence[frozenset]) -> frozenset:
    """Setwise concatenation product of outcome sets, as a set of strings."""
    out = [()]
    for ev in events:
        out = [s + (x,) for s in out for x in sorted(ev)]
    return frozenset(out)


def concat_string_sets(sets: Sequence[frozenset]) -> frozenset:
    """Concatenation product of sets of strings."""
    out = [()]
    for block in sets:
        out = [s + t for s in out for t in sorted(block)]
    return frozenset(out)


@dataclass(frozen=True)
class DiagramReport:
    multiplication_outer: int
    multiplication_inner: int
    unit_coarse: int
    unit_compound: int


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
            for split in _compositions(total):
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


def _compositions(total: int):
    """Ordered splits of ``total`` into positive parts (one empty split for 0)."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class DistributiveCell:
    """Materialized interchange morphism at a depth, with its interning."""

    model: Model
    depth: int
    source: TruncatedCompound  # compounds of the coarsening
    target: Coarsening  # coarsening of the compound
    morphism: Morphism


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


# -- combined algebras -----------------------------------------------------------------


@dataclass(frozen=True)
class GAlgebra:
    """A model with a coherence multiplicative over its sequential product."""

    model: Model
    coherence: CheckedCoherence
    sequential: CheckedSequential
    commutative: bool
    strings_checked: int
    strings_skipped: int

    @property
    def sigma(self) -> Mapping[frozenset, int]:
        return self.coherence.table

    @property
    def product(self) -> SequentialProduct:
        return self.sequential.product


def validate_g_algebra(
    model: Model,
    sigma: CheckedCoherence | Mapping[frozenset, int],
    sp: CheckedSequential | SequentialProduct,
    probe_depth: int = 2,
    cap: int | None = None,
    states=None,
) -> GAlgebra:
    """Validate the compatibility law: collapse distributes over products.

    For every string of events in the window, collapsing the setwise product
    must agree with the product of the collapses.  The interchange route
    (distribute to a string set, evaluate each string, collapse the set)
    gives nothing more: since prod(unit, y) = y, when every string of the
    word is defined the left fold of ``event_product`` over the word is
    {prod_string(s) : s in concat_product(word)}.

    The folds run on masks: x·b is built once per outcome x and factor b (an
    event, or the collapse of one) through ``products``, as -1 out of window,
    which every OR keeps, so each word gets the frozenset folds' verdict.
    """
    if probe_depth < 1:
        raise UsageError("probe depth must be at least 1")
    checked_sigma = (
        sigma if isinstance(sigma, CheckedCoherence) else validate_coherence(model, sigma, cap)
    )
    checked_sp = (
        sp
        if isinstance(sp, CheckedSequential)
        else validate_sequential(model, sp, probe_depth, cap, states=states)
    )
    prod = checked_sp.product
    table = checked_sigma.table
    events = sorted(table.keys(), key=event_key)
    check_cap_sum("event strings", (len(events) ** k for k in range(1, probe_depth + 1)), cap)
    n, size = model.space.n_outcomes, len(events)
    masks = [sum(1 << x for x in ev) for ev in events]
    collapse = dict(zip(masks, map(table.__getitem__, events)))
    if probe_depth > 1:  # a word of one entry needs no product
        cols = _product_masks(prod, n)
        times_event = list(zip(*(_joined(cols, m, n) for m in masks)))
        times_collapse = list(zip(*(cols[collapse[m]] for m in masks)))

    def words(k):  # (word, event product, product of collapses), iproduct order
        if k == 1:
            yield from (((i,), m, 1 << collapse[m]) for i, m in enumerate(masks))
            return
        for word, ev, out in words(k - 1):
            longer = ((*word, i) for i in range(size))
            yield from zip(longer, _joined(times_event, ev, size), _joined(times_collapse, out, size))

    checked = skipped = 0
    for k in range(1, probe_depth + 1):
        for word, ev_prod, out_prod in words(k):
            if ev_prod < 0 or out_prod < 0 or not (ev_prod or out_prod):
                skipped += 1
                continue
            if not ev_prod:
                problem = "collapsed product defined on an impossible event string"
            elif not out_prod:
                problem = "product of collapses undefined on a possible event string"
            elif (lhs := collapse.get(ev_prod)) is None:
                problem = "setwise product of events is not an event"
            elif out_prod != 1 << lhs:
                problem = "collapse is not multiplicative over the product"
            else:
                checked += 1
                continue
            raise NotGAlgebra(problem, witness=tuple(events[i] for i in word))
    commutative = _is_commutative(model, prod)
    return GAlgebra(model, checked_sigma, checked_sp, commutative, checked, skipped)


def _is_commutative(model: Model, prod: SequentialProduct) -> bool:
    n = model.space.n_outcomes
    return all(prod.prod(x, y) == prod.prod(y, x) for x in range(n) for y in range(x + 1, n))


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
            refined = prod.event_product(e, f)
            if refined is None:
                raise LawViolation("test product fell outside the window")
            if refined not in space.test_set:
                raise LawViolation("test product is not a common refinement test")
            for y in sorted(f):
                fiber = prod.event_product(e, frozenset([y]))
                if fiber is None or not space.is_perspective(frozenset([y]), fiber):
                    raise LawViolation("refinement fiber is not perspective to its outcome")
    logic = build_logic(space, cap)
    verdict = logic.is_boolean()
    if not verdict:
        raise LawViolation("commutative combined algebra with non-Boolean logic")
    return logic


# -- interference ---------------------------------------------------------------------


@dataclass(frozen=True)
class InterferenceWitness:
    state_index: int
    event: frozenset
    outcome: int
    coherent: object
    incoherent: object

    @property
    def gap(self):
        return self.coherent - self.incoherent


def find_interference(
    model: Model,
    sigma: Mapping[frozenset, int] | CheckedCoherence,
    prod: SequentialProduct | Callable[[int, int], int | None],
    states: Sequence[Weight] | None = None,
    tol: float | None = None,
    witnesses_from: Iterable[int] | None = None,
    cap: int | None = None,
) -> list[InterferenceWitness]:
    """Scan for states where collapsing an event changes follow-up statistics.

    For each state, event in the collapse table, and follow-up outcome, the
    mass of (collapsed event, then outcome) is compared with the member-wise
    sum.  Missing compounds follow ``defined_products``: pairs with one out of
    window are skipped, so the scan only evaluates what the model can
    express, and impossible ones count as zero mass.  A follow-up callable's
    missing compounds are out of window.  With a ``SequentialProduct`` the
    ``witnesses_from`` ids must be outcomes of the model.  The states default
    to ``model.state_vertices(cap)``, which raises past the cap.  A given
    ``tol`` must be finite and nonnegative.  The product lists do not depend on
    the state and are built once; an exact state is summed as int numerators
    over the lcm of its denominators, which give exactly its ``Fraction`` sums.
    """
    check_tolerance(tol)
    table = sigma.table if isinstance(sigma, CheckedCoherence) else dict(sigma)
    n = model.space.n_outcomes
    witness_pool = sorted(witnesses_from) if witnesses_from is not None else range(n)
    if isinstance(prod, SequentialProduct):
        if any(not 0 <= y < n for y in witness_pool):
            raise UsageError("witness ids must be outcomes of the model")
        products = prod.products
    else:
        products = partial(defined_products, prod, True)
    if states is None:
        states = model.state_vertices(cap)
    if tol is None:
        tol = 0.0 if model.exact else model.tol
    scan = []
    for a in sorted(table, key=event_key):
        for y in witness_pool:
            cy = products([(table[a], y)])
            members = products((x, y) for x in sorted(a))
            if cy is not None and members is not None:
                scan.append((a, y, cy, members))
    out: list[InterferenceWitness] = []
    for si, w in enumerate(states):
        vals = _summands(model, w)
        for a, y, cy, members in scan:
            gap = (vals[cy[0]] if cy else 0) - _mass(vals, members)
            if (model.exact and gap != 0) or (not model.exact and abs(gap) > tol):
                coherent = w[cy[0]] if cy else 0
                out.append(InterferenceWitness(si, a, y, coherent, _mass(w, members)))
    return out


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
            ay = prod.event_product(a, frozenset([y]))
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
            xa = prod.event_product(frozenset([x]), a)
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
            ev = sp.event_product(a, b)
            if ev is None or not ev:
                continue
            k = coarse.mask_outcome.get(space._mask_of(ev))
            if k is not None:
                table[(i, j)] = k
    return SequentialProduct(unit, table, undefined_means=sp.undefined_means)
