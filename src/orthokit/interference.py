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

The checks read events as masks.  A set of strings of one length is a mask over
their codes (``compounding.concat_masks``), and a setwise product a·b is the
OR of the outcome products x·y in one table (``compounding._product_masks``),
where -1 marks a product out of window and absorbs every OR.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain, product as iproduct
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

from ._record import Frozen
from .coarsening import CheckedCoherence, Coarsening, coarsen, validate_coherence
from .coarsening import _coarse_space, _outcome_of
from .compounding import (
    CheckedSequential,
    SequentialProduct,
    _joined,
    _mass,
    _product_masks,
    _summands,
    concat_masks,
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
from .morphisms import Morphism, _image_mask, validate_morphism
from .states import Model, Weight
from .testspace import PredicateResult, _ids, event_key


def _string_set(events: Iterable[int], n: int) -> int:
    """The concatenation product of a word of event masks over n outcomes, as a
    string-set mask (``concat_masks``)."""
    return reduce(lambda out, m: concat_masks(out, m, n), events, 1)


class DiagramReport(Frozen):
    __slots__ = ("multiplication_outer", "multiplication_inner", "unit_coarse", "unit_compound")


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
    events, _, coarse = _coarse_space(model.space, cap)  # events sorted by mask_key
    families = [  # each double-coarse outcome: its member outcomes and their union
        (_ids(d), reduce(or_, (events[i] for i in _ids(d))))
        for d in filter(None, coarse._checked_event_masks(cap))
    ]
    n = model.space.n_outcomes
    # One point per word of each square and triangle; a word of length k has
    # 2^(k-1) splits (one for k = 0).
    d, e = len(families), len(events)
    terms = (d**k + e**k * (2 ** (k - 1) if k else 1) + n**k for k in range(depth + 1))
    check_cap_sum("distributive diagrams", chain([e], terms), cap)

    # Each word of a square extends a shorter one by a letter, in iproduct order.
    def coarse_words(k):  # (string set of each member choice, string set of the unions)
        if not k:
            yield [1], 1
            return
        for choices, unions in coarse_words(k - 1):
            for members, union in families:
                longer = [concat_masks(s, events[i], n) for s in choices for i in members]
                yield longer, concat_masks(unions, union, n)

    # A split of a word is (its closed parts concatenated, its last part, that
    # part's length); the next letter extends the last part or starts a new one.
    def split_words(total):  # (string set of the word, its splits)
        if not total:
            yield 1, [(1, 1, 0)]
            return
        for flat, splits in split_words(total - 1):
            for m in events:
                longer = []
                for closed, last, k in splits:
                    longer.append((closed, concat_masks(last, m, n), k + 1))
                    if k:
                        longer.append((concat_masks(closed, last, n**k), m, 1))
                yield concat_masks(flat, m, n), longer

    # Square 1: strings of double-coarse outcomes; collapse inner unions
    # before or after distributing.
    sq1 = 0
    for k in range(depth + 1):
        for choices, unions in coarse_words(k):
            if reduce(or_, choices) != unions:
                raise LawViolation("distributive square over coarsening fails")
            sq1 += 1

    # Square 2: strings of strings of events; flatten before or after.
    sq2 = 0
    for total in range(depth + 1):
        for flat, splits in split_words(total):
            for closed, last, k in splits:
                if concat_masks(closed, last, n**k) != flat:
                    raise LawViolation("distributive square over flattening fails")
                sq2 += 1

    # Triangle 1: an event, viewed as a one-letter string, distributes to
    # its set of one-letter strings, whose codes are its outcomes.
    tri1 = 0
    for m in events:
        if _string_set([m], n) != m:
            raise LawViolation("coarse unit triangle fails")
        tri1 += 1

    # Triangle 2: a string of singletons distributes to the singleton of
    # the string, whose code is its index in iproduct order.
    tri2 = 0
    for k in range(depth + 1):
        for code, s in enumerate(iproduct(range(n), repeat=k)):
            if _string_set((1 << x for x in s), n) != 1 << code:
                raise LawViolation("compound unit triangle fails")
            tri2 += 1
    return DiagramReport(sq1, sq2, tri1, tri2)


class DistributiveCell(Frozen):
    """Materialized interchange morphism at a depth, with its interning."""

    # source: compounds of the coarsening; target: coarsening of the compound
    __slots__ = ("model", "depth", "source", "target", "morphism")


def distributive_ell(model: Model, depth: int, cap: int | None = None) -> DistributiveCell:
    """The interchange map as a validated embedding between materializations."""
    coarse = coarsen(model, cap)
    source = truncated_compound(coarse.model, depth, cap)
    compound = truncated_compound(model, depth, cap)
    target = coarsen(compound.model, cap)
    n, events = model.space.n_outcomes, coarse.outcome_mask
    mapping = []
    for s in source.strings:  # the length-k strings have the compound ids from that of (0,) * k on
        strings = _string_set((events[i] for i in s), n) << compound.id_of((0,) * len(s))
        mapping.append(_outcome_of(target.mask_outcome, strings))
    phi = validate_morphism(source.model, target.model, mapping, cap)
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
    src = phi.source.space
    events = [(m, _image_mask(phi.mapping, m)) for m in src._checked_event_masks(cap) if m]
    check_cap_sum("naturality points", (len(events) ** k for k in range(depth + 1)), cap)
    n, n_dst = src.n_outcomes, phi.target.space.n_outcomes

    def words(k):  # (string set, string set of the pushed word) per word, iproduct order
        if not k:
            yield 1, 1
            return
        for strings, pushed in words(k - 1):
            for m, fm in events:
                yield concat_masks(strings, m, n), concat_masks(pushed, fm, n_dst)

    points, push = 0, [0]  # push[c]: the code of the pushed string of code c, at length k
    for k in range(depth + 1):
        if k:
            push = [p * n_dst + fx for p in push for fx in phi.mapping]
        for strings, pushed in words(k):
            if _image_mask(push, strings) != pushed:
                raise LawViolation("interchange naturality fails")
            points += 1
    return points


# -- combined algebras -----------------------------------------------------------------


class GAlgebra(Frozen):
    """A model with a coherence multiplicative over its sequential product."""

    __slots__ = (
        "model",
        "coherence",
        "sequential",
        "commutative",
        "strings_checked",
        "strings_skipped",
    )

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
    word is defined the left fold of setwise products over the word is
    {prod_string(s) : s a string of the word's concatenation product}.

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
    n, tests = space.n_outcomes, space._test_masks
    rows = list(zip(*_product_masks(g.product, n)))  # rows[x][y] is x·y
    for e in tests:
        fibers = _joined(rows, e, n)  # e·y for each outcome y
        for f in tests:
            refined = reduce(or_, (fibers[y] for y in _ids(f)), 0)
            if refined < 0:
                raise LawViolation("test product fell outside the window")
            if refined not in tests:
                raise LawViolation("test product is not a common refinement test")
            for y in _ids(f):
                if fibers[y] < 0 or space._axis(1 << y, fibers[y]) is None:
                    raise LawViolation("refinement fiber is not perspective to its outcome")
    logic = build_logic(space, cap)
    verdict = logic.is_boolean()
    if not verdict:
        raise LawViolation("commutative combined algebra with non-Boolean logic")
    return logic


# -- interference ---------------------------------------------------------------------


class InterferenceWitness(Frozen):
    __slots__ = ("state_index", "event", "outcome", "coherent", "incoherent")

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
    n = space.n_outcomes
    rows = list(zip(*_product_masks(g.product, n)))  # rows[x][y] is x·y
    points = 0
    for a in sorted(g.sigma, key=event_key):
        for ay, cy in zip(_joined(rows, space._mask_of(a), n), rows[g.sigma[a]]):
            if ay <= 0 or cy <= 0:  # out of window, or impossible
                continue
            if space._axis(ay, cy) is None:
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
    """Weaker compatibility: left translation commutes with collapsing.

    Every key of ``sigma`` must be a set of outcome ids and every value an
    outcome id; UsageError refuses any other entry before a product is read.
    """
    table = sigma.table if isinstance(sigma, CheckedCoherence) else dict(sigma)
    space, n = model.space, model.space.n_outcomes
    entries = [(a, space._mask_of(a), table[a]) for a in sorted(table, key=event_key)]
    for a, m, c in entries:
        if m is None or space._mask_of([c]) is None:
            raise UsageError(f"not a σ entry of outcome ids: {sorted(a)} -> {c!r}")
    cols = _product_masks(prod, n)  # cols[y][x] is x·y
    collapse = {m: 1 << c for _, m, c in entries}
    for a, m, c in entries:
        for x, (xa, lhs) in enumerate(zip(_joined(cols, m, n), cols[c])):
            if xa <= 0 or lhs <= 0:  # out of window, or impossible
                continue
            if lhs != (collapse.get(xa) if xa & (xa - 1) else xa):  # a singleton is its collapse
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
    events = coarse.outcome_mask
    cols = _product_masks(sp, space.n_outcomes)
    right = list(zip(*(_joined(cols, b, space.n_outcomes) for b in events)))  # x·b_j
    table = {}
    for i, a in enumerate(events):
        for j, ab in enumerate(_joined(right, a, len(events))):
            k = coarse.mask_outcome.get(ab)  # none for -1 (out of window) and 0 (impossible)
            if k is not None:
                table[(i, j)] = k
    return SequentialProduct(unit, table, undefined_means=sp.undefined_means)
