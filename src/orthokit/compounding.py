"""Two-stage forward products and depth-truncated sequential compounding.

A forward product runs one test, then a pre-selected follow-up test per
outcome; its states are pairs of an initial state and a conditional-state
family.  Closing a model under such branching (with stopping) over the free
monoid of outcome strings gives the sequential compounding; the full
closure is infinite, so everything here is depth-truncated and every law is
checked on the window that fits the truncation.

Models carrying their own associative product (sequential models) are the
algebras of that construction; products are allowed to be partial, either
because a compound outcome is impossible (a classical product with empty
intersection) or because it falls outside the truncation window.  One rule,
``defined_products``, reads a missing product: under ``IMPOSSIBLE`` it carries
no mass and is dropped, under ``OUT_OF_WINDOW`` the whole collection it
belongs to is unknown.

The sequential checks read each product once per call, as none depends on
the state or the triple checked, and sum an exact state as int numerators
over the lcm of its denominators, which compare as its ``Fraction`` sums do;
float sums keep their member order, so every output is the per-state loops'.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from operator import add, and_, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import math

from ._record import Frozen
from .errors import (
    EnumerationCapExceeded,
    HypothesisUnmet,
    LawViolation,
    NotAMorphism,
    NotAState,
    NotSequential,
    NumericKindMismatch,
    UsageError,
    ZeroMarginal,
    check_cap,
    resolve_cap,
)
from .morphisms import Morphism, _image_mask, image_core, validate_morphism
from .states import Model, StateSpace, Weight, _require_positive
from .testspace import PredicateResult, TestSpace, _ids, mask_event, mask_key

EPSILON_LABEL = "ε"
JOIN = "·"

IMPOSSIBLE = "impossible"  # undefined products carry zero probability mass
OUT_OF_WINDOW = "out_of_window"  # undefined products fall outside a truncation


# -- forward products ----------------------------------------------------------


class ForwardProduct(Frozen):
    """Two-stage compound of two models, with pair interning."""

    __slots__ = ("left", "right", "model", "outcome_pair", "pair_id")

    def pair(self, x: int, y: int) -> int:
        return self.pair_id[(x, y)]

    def state(self, alpha: Weight, beta: Callable[[int], Weight] | Weight) -> Weight:
        """The state running ``alpha`` first and the ``beta`` family after."""
        beta_of = (lambda _x: beta) if isinstance(beta, Weight) else beta
        return _pair_weight(self.outcome_pair, alpha, beta_of)


def _pair_weight(outcome_pair, alpha: Weight, beta_of: Callable[[int], Weight]) -> Weight:
    return Weight(tuple(alpha[x] * beta_of(x)[y] for x, y in outcome_pair))


def _branch(first_tests, follow_ups, join) -> Iterator[int]:
    """Each first test with one follow-up per member, as a test mask.

    Tests are masks, and ``join(x, y)`` is the id of outcome y of the
    follow-up run after outcome x.  It yields ``_branch_count(first_tests,
    len(follow_ups))`` tests.
    """
    follow_ids = [_ids(f) for f in follow_ups]
    lift = {  # x -> each follow-up run after x, as a mask
        x: [sum(1 << join(x, y) for y in ys) for ys in follow_ids]
        for x in set().union(*map(_ids, first_tests))
    }
    for e in first_tests:
        # the parts after distinct first outcomes are disjoint: their sum is their union
        yield from map(sum, iproduct(*(lift[x] for x in _ids(e))))


def _branch_count(first_tests, n_follow_ups: int) -> int:
    return sum(n_follow_ups ** e.bit_count() for e in first_tests)


def _unique_hull(weights: Iterable[Weight]) -> StateSpace:
    """The hull of the weights, each repeat dropped after its first occurrence."""
    return StateSpace.hull(dict.fromkeys(weights))


def _rows_on_support(alpha: Weight, rgens: Sequence[Weight]) -> Iterator[list[Weight]]:
    """A follow-up row per outcome that ``alpha`` weighs, ``rgens[0]`` at the rest.

    A row where alpha[x] = 0 adds only zero pair weights, and the first of all
    n-tuples of rows to give a pair weight has ``rgens[0]`` there, so this
    gives the full product's weights in first-occurrence order.
    """
    support = [x for x in range(len(alpha)) if alpha[x] != 0]
    for chosen in iproduct(rgens, repeat=len(support)):
        rows = [rgens[0]] * len(alpha)
        for x, row in zip(support, chosen):
            rows[x] = row
        yield rows


def _forward_space(ls: TestSpace, rs: TestSpace, cap: int | None):
    """The outcome pairs, their ids and the two-stage tests of ``forward_product``."""
    lt, rt = ls._test_masks, rs._test_masks
    check_cap("forward-product tests", _branch_count(lt, len(rt)), cap)
    pairs = [(x, y) for x in range(ls.n_outcomes) for y in range(rs.n_outcomes)]
    pair_id = {p: i for i, p in enumerate(pairs)}
    labels = [f"{ls.labels[x]}{JOIN}{rs.labels[y]}" for x, y in pairs]
    return pairs, pair_id, TestSpace(labels, _branch(lt, rt, lambda x, y: pair_id[x, y]))


def _check_row_kind(left: Model, right: Model) -> None:
    """Refuse generator rows of another kind than the first factor's.

    Full models contribute exact vertices, so the rows are float exactly
    when some factor is a float generator model; two full models have none.
    """
    float_rows = any(not m.exact and not m.states.is_full for m in (left, right))
    if float_rows == left.exact and not (left.states.is_full and right.states.is_full):
        kind = "float" if float_rows else "exact"
        raise NumericKindMismatch(f"forward-product rows are {kind}, the first factor is not")


def forward_product(left: Model, right: Model, cap: int | None = None) -> ForwardProduct:
    """All two-stage tests: a first test, then a chosen follow-up per outcome.

    Pairs (x, y) and (u, v) share a test exactly when x ⊥ u in the first
    factor (follow-ups are chosen per outcome), or when x = u and y ⊥ v in
    the second; ``forward_unitality`` reads orthogonality this way.
    """
    pairs, pair_id, space = _forward_space(left.space, right.space, cap)
    _check_row_kind(left, right)
    if left.states.is_full and right.states.is_full:
        states = StateSpace.full()
    else:
        lgens = left.states.generators or tuple(left.state_vertices(cap))
        rgens = right.states.generators or tuple(right.state_vertices(cap))
        n_left = left.space.n_outcomes
        check_cap("forward-product generators", len(lgens) * len(rgens) ** n_left, cap)
        states = _unique_hull(
            _pair_weight(pairs, alpha, rows.__getitem__)
            for alpha in lgens
            for rows in _rows_on_support(alpha, rgens)
        )
    model = Model(space, states, exact=left.exact, tol=left.tol)
    return ForwardProduct(left, right, model, tuple(pairs), pair_id)


def fp_perspective_by_parts(fp: ForwardProduct, a, b) -> bool:
    """Perspectivity in a forward product, decided componentwise.

    Two product events are perspective exactly when their first-stage events
    are, their shared fibers are pairwise perspective, and every unshared
    fiber is a whole follow-up test.  This is the same relation as
    ``fp.model.space.is_perspective``, the direct common-complement search;
    acceptance criterion 2 compares the two.
    """
    (ao, afib), (bo, bfib) = (_stages(fp.outcome_pair, event) for event in (a, b))
    ls, rs = fp.left.space, fp.right.space
    if ls._axis(ao, bo) is None:
        return False
    if any(rs._axis(afib[z], bfib[z]) is None for z in _ids(ao & bo)):
        return False
    unshared, whole = {**afib, **bfib}, set(rs._test_masks)
    return all(unshared[x] in whole for x in _ids(ao ^ bo))


def _stages(outcome_pair, event: Iterable[int]) -> tuple[int, dict[int, int]]:
    """A product event as masks: its first-stage event, and each first outcome's fiber."""
    first, fibers = 0, {}
    for i in event:
        x, y = outcome_pair[i]
        first |= 1 << x
        fibers[x] = fibers.get(x, 0) | 1 << y
    return first, fibers


def pair_morphism(
    fp_src: ForwardProduct,
    fp_dst: ForwardProduct,
    phi: Morphism,
    psi: Mapping[int, Morphism] | Callable[[int], Morphism],
    cap: int | None = None,
) -> Morphism:
    """The stagewise map (x, y) to (phi(x), psi_x(y)) between forward products.

    This is a morphism exactly when psi_x preserves tests for every x whose
    image escapes the core of the image test family; the violating outcome
    is reported otherwise.
    """
    if phi.source is not fp_src.left or phi.target is not fp_dst.left:
        raise UsageError("first-stage morphism endpoints do not match the products")
    get_psi = psi if callable(psi) else psi.__getitem__
    core = image_core(phi)
    for x in range(fp_src.left.space.n_outcomes):
        if phi.mapping[x] not in core and not get_psi(x).test_preserving:
            raise NotAMorphism(
                "follow-up map must preserve tests off the image core",
                witness=x,
            )
    mapping = tuple(
        fp_dst.pair(phi.mapping[x], get_psi(x).mapping[y])
        for (x, y) in fp_src.outcome_pair
    )
    return validate_morphism(fp_src.model, fp_dst.model, mapping, cap)


def marginal_and_conditional(fp: ForwardProduct, w: Weight, x: int):
    """First-stage marginal and the conditional state after outcome x.

    The marginal at an outcome must not depend on which follow-up test is
    summed over; a dependence raises LawViolation.
    """
    model, rs = fp.model, fp.right.space
    sums = [w.of(fp.pair(x, y) for y in _ids(t)) for t in rs._test_masks]
    marg = sums[0]
    if not all(model._eq(s, marg) for s in sums[1:]):
        raise LawViolation("marginal depends on the follow-up test")
    if model._eq(marg, 0):
        raise ZeroMarginal(f"outcome {fp.left.space.labels[x]} has zero marginal")
    cond = Weight(tuple(w[fp.pair(x, y)] / marg for y in range(rs.n_outcomes)))
    return marg, cond


def marginal_weight(fp: ForwardProduct, w: Weight) -> Weight:
    t0 = _ids(fp.right.space._test_masks[0])
    return Weight([w.of(fp.pair(x, y) for y in t0) for x in range(fp.left.space.n_outcomes)])


def retrodictive_marginal(fp: ForwardProduct, w: Weight, first_test: frozenset) -> Weight:
    """Second-stage marginal relative to a chosen first test (test-dependent)."""
    ys = range(fp.right.space.n_outcomes)
    return Weight([w.of(fp.pair(x, y) for x in first_test) for y in ys])


# -- unit adjunction at the model level -------------------------------------------


def adjoin_unit_model(model: Model, label: str = "e") -> tuple[Model, int]:
    """Add a one-outcome test; states extend uniquely with weight 1 there."""
    space = model.space.adjoin_unit_test(label)
    new_id = space.n_outcomes - 1
    if model.states.is_full:
        states = StateSpace.full()
    else:
        one = Fraction(1) if model.exact else 1.0
        states = StateSpace.hull(
            [Weight(tuple(g.values) + (one,)) for g in model.states.generators]
        )
    return Model(space, states, exact=model.exact, tol=model.tol), new_id


# -- truncated compounding ----------------------------------------------------------


class TruncatedCompound(Frozen):
    """The depth-limited closure of a model under branching sequential tests."""

    __slots__ = ("base", "depth", "model", "strings", "string_id")

    def id_of(self, string: Sequence[int]) -> int:
        return self.string_id[tuple(string)]

    def tests_as_strings(self) -> set[frozenset]:
        return {
            frozenset(self.strings[i] for i in _ids(t)) for t in self.model.space._test_masks
        }


def string_label(base: TestSpace, string: tuple[int, ...]) -> str:
    if not string:
        return EPSILON_LABEL
    parts = []
    for x in string:
        lab = base.labels[x]
        # Bracket letters that could make joined strings ambiguous.
        parts.append(f"({lab})" if (JOIN in lab or lab == EPSILON_LABEL) else lab)
    return JOIN.join(parts)


# Most generators a compound of a generator model may have: one per
# assignment of generator rows to the proper prefixes, whatever the cap.
COMPOUND_GENERATOR_CAP = 4096


def _compound_test_bound(base_tests, depth: int, cap: int) -> int:
    """The non-root tests at ``depth``, or a lower bound once it exceeds ``cap``.

    With n_0 = 1 and n_k = 1 + sum_e n_{k-1}^|e| tests at depth k, the
    non-root count is sum_e n_{depth-1}^|e|.  The counts grow with k, so the
    first level over the cap already bounds the answer; stopping there keeps
    the integers small.
    """
    n, branched = 1, 0
    for _ in range(depth):
        branched = _branch_count(base_tests, n)
        if branched > cap:
            break
        n = 1 + branched
    return branched


def _prefix_product(row_of: Callable[[tuple], Weight], s: tuple, one):
    """Weight of string s when ``row_of(p)`` is the state run after prefix p."""
    v = one
    for i, x in enumerate(s):
        v = v * row_of(s[:i])[x]
    return v


def _compound_space(base: TestSpace, depth: int, cap: int | None):
    """The strings, their ids and the branch-and-stop tests of ``truncated_compound``."""
    if depth < 0:
        raise UsageError("depth must be nonnegative")
    check_cap("compound tests", _compound_test_bound(base._test_masks, depth, resolve_cap(cap)), cap)
    strings = [s for k in range(depth + 1) for s in iproduct(range(base.n_outcomes), repeat=k)]
    string_id = {s: i for i, s in enumerate(strings)}
    root = 1 << string_id[()]
    level = [root]
    for _ in range(depth):
        branched = _branch(base._test_masks, level, lambda x, i: string_id[(x,) + strings[i]])
        level = [root, *branched]
    return strings, string_id, TestSpace([string_label(base, s) for s in strings], level)


def truncated_compound(model: Model, depth: int, cap: int | None = None) -> TruncatedCompound:
    """The branch-and-stop tests up to the given depth, by the tower recursion.

    T_0 = {ε} and T_k = {ε} ∪ {⋃_{x∈e} x·t_x : e a base test, t_x ∈
    T_{k-1}}, which yields every test once; ``check_tower_recursion`` checks
    the same identity through forward products.  The cap bounds the non-root
    tests and is checked before any is built.  States are the depth-limited
    transition states; for generator models the generators are all
    assignments of generator rows to proper prefixes, at most
    ``COMPOUND_GENERATOR_CAP`` of them.

    A test holds no string and a proper prefix of it, and strings that part
    at k share a test exactly when their letters at k share a base test.  So
    distinct strings s, t are orthogonal exactly when they part at some k
    and s[k] ⊥ t[k] in the base; ``compound_unitality`` reads orthogonality
    this way.
    """
    strings, string_id, space = _compound_space(model.space, depth, cap)
    if model.states.is_full:
        states = StateSpace.full()
    else:
        gens = model.states.generators
        prefixes = [s for s in strings if len(s) < depth]
        check_cap("compound generators", len(gens) ** len(prefixes), COMPOUND_GENERATOR_CAP)
        one = Fraction(1) if model.exact else 1.0
        assignments = (dict(zip(prefixes, rows)) for rows in iproduct(gens, repeat=len(prefixes)))
        states = _unique_hull(
            Weight(tuple(_prefix_product(row.__getitem__, s, one) for s in strings))
            for row in assignments
        )
    compound_model = Model(space, states, exact=model.exact, tol=model.tol)
    return TruncatedCompound(model, depth, compound_model, tuple(strings), string_id)


def concat_masks(a: int, b: int, width: int) -> int:
    """The concatenations s·t, s in a and t in b, of two string sets as masks.

    A set of length-k strings over n outcomes is a mask over the n^k codes of
    its strings; the code of x_1...x_k is the base-n number x_1...x_k, so codes
    follow ``TruncatedCompound.strings`` within one length.  ``width`` is the
    number of codes of b's length, and the length-0 set {ε} is the mask 1.
    """
    return sum(b << s * width for s in _ids(a))


def transition_state(
    tc: TruncatedCompound, rows: Mapping[tuple[int, ...], Weight] | Callable
) -> Weight:
    """The state of the compound induced by per-prefix transition rows."""
    get = rows if callable(rows) else rows.__getitem__
    one = Fraction(1) if tc.base.exact else 1.0
    return Weight(tuple(_prefix_product(get, s, one) for s in tc.strings))


def check_unit_level(model: Model, cap: int | None = None) -> None:
    """Depth-one compounding coincides with the unit-test adjunction.

    The bijection sends the empty string to the adjoined unit and length-one
    strings to their base outcomes; tests and generators must correspond.
    """
    tc = truncated_compound(model, 1, cap)
    prime, unit = adjoin_unit_model(model, label="@unit@")
    base_n = model.space.n_outcomes
    translate = [s[0] if s else unit for s in tc.strings]
    tc_tests = {_image_mask(translate, t) for t in tc.model.space._test_masks}
    if tc_tests != set(prime.space._test_masks):
        raise LawViolation("depth-one compound tests differ from the unit adjunction")
    if not model.states.is_full:
        lhs = {
            tuple(g[tc.id_of((x,))] for x in range(base_n)) + (g[tc.id_of(())],)
            for g in tc.model.states.generators
        }
        rhs = {g.values for g in prime.states.generators}
        if lhs != rhs:
            raise LawViolation("depth-one compound states differ from the unit adjunction")


def check_tower_recursion(model: Model, depth: int, cap: int | None = None) -> int:
    """One more level of depth equals a forward product with the unit adjunction.

    The canonical collapse (unit, s) -> s and (x, s) -> x.s, 2-to-1 on short
    strings, carries the two-stage tests of (unit-adjoined space, depth-d
    compound) onto exactly the tests of the depth-(d+1) compound: a statement
    about test families, so no state is built.  Returns the tests matched.
    """
    base, unit = model.space, model.space.n_outcomes
    strings, _, space_n = _compound_space(base, depth, cap)
    _, string_id, space_n1 = _compound_space(base, depth + 1, cap)
    pairs, _, fp_space = _forward_space(base.adjoin_unit_test("@unit@"), space_n, cap)
    collapse = [string_id[strings[s] if x == unit else (x,) + strings[s]] for x, s in pairs]
    image = {_image_mask(collapse, t) for t in fp_space._test_masks}
    actual = set(space_n1._test_masks)
    if image != actual:
        raise LawViolation("tower recursion mismatch between depths")
    return len(actual)


def functor_compound(
    phi: Morphism, depth: int, cap: int | None = None
) -> Morphism:
    """Letterwise extension of a test-preserving morphism to the compounds."""
    if not phi.test_preserving:
        raise HypothesisUnmet("compound functor needs a test-preserving morphism")
    src = truncated_compound(phi.source, depth, cap)
    dst = truncated_compound(phi.target, depth, cap)
    mapping = tuple(
        dst.id_of(tuple(phi.mapping[x] for x in s)) for s in src.strings
    )
    out = validate_morphism(src.model, dst.model, mapping, cap)
    if not out.test_preserving:
        raise LawViolation("letterwise extension failed to preserve tests")
    return out


# -- sequential products --------------------------------------------------------------


def defined_products(prod: Callable, out_of_window: bool, pairs: Iterable[tuple]) -> list | None:
    """The defined products of ``pairs``, in order: the undefined-product rule.

    An undefined product is dropped when it is impossible and makes the answer
    None when it is out of window, so a sum over the list is the mass of the
    compound, with impossible parts counting zero.
    """
    out = []
    for x, y in pairs:
        p = prod(x, y)
        if p is not None:
            out.append(p)
        elif out_of_window:
            return None
    return out


class SequentialProduct(Frozen):
    """A (possibly partial) associative unital product on outcomes."""

    __slots__ = ("unit", "table", "undefined_means")
    _defaults = {"undefined_means": IMPOSSIBLE}

    def prod(self, x: int, y: int) -> int | None:
        if x == self.unit:
            return y
        if y == self.unit:
            return x
        return self.table.get((x, y))

    def prod_string(self, xs: Sequence[int]) -> int | None:
        acc = self.unit
        for x in xs:
            acc = self.prod(acc, x)
            if acc is None:
                return None
        return acc

    @property
    def out_of_window(self) -> bool:
        """Whether an undefined product falls outside the window (else it is impossible)."""
        return self.undefined_means == OUT_OF_WINDOW

    def products(self, pairs: Iterable[tuple]) -> list[int] | None:
        return defined_products(self.prod, self.out_of_window, pairs)


def concatenation_product(tc: TruncatedCompound) -> SequentialProduct:
    """String concatenation on a truncated compound, defined inside the window."""
    table = {}
    for i, s in enumerate(tc.strings):
        for j, t in enumerate(tc.strings):
            if len(s) + len(t) <= tc.depth:
                table[(i, j)] = tc.id_of(s + t)
    return SequentialProduct(
        tc.id_of(()), table, undefined_means=OUT_OF_WINDOW
    )


class SequentialReport(Frozen):
    __slots__ = (
        "unit_points",
        "associativity_checked",
        "associativity_skipped",
        "orthogonality_checked",
        "inductivity_checked",
        "inductivity_skipped",
        "state_candidates",
        "conditional_rows_checked",
        "evaluation_depth",
        "evaluation_domain",
        "evaluation_total",
    )


class CheckedSequential(Frozen):
    __slots__ = ("model", "product", "report")


def validate_sequential(
    model: Model,
    sp: SequentialProduct,
    probe_depth: int = 2,
    cap: int | None = None,
    states: Sequence[Weight] | None = None,
) -> CheckedSequential:
    """Validate a sequential structure on a model, within its defined window.

    Checks the monoid laws, compatibility of the product with orthogonality,
    closure of the test family under branch assignments, the state
    conditions (marginal and conditional states stay states), presence of
    the unit test, and that evaluating strings of the probe-depth compound
    lands test-preservingly back in the model.  The state conditions run on
    ``states`` when given, else on ``model.state_vertices(cap)``, which
    raises past the cap.  A product that is no outcome id fails after the unit law.

    Inductivity (for a test t = {x_1 < ... < x_k}, every assignment f of
    tests whose images are defined gives a test x_1·t_f(1) ∪ ... ∪ x_k·t_f(k))
    is decided exactly, with no cap.  Let I_i be the distinct defined images
    x_i·s over the tests s (empty ones included under ``IMPOSSIBLE``,
    undefined ones skipped under ``OUT_OF_WINDOW``) and R_i their union.  The
    orthogonality checks, which run first, make the R_i pairwise disjoint
    (x_i ⊥ x_j gives x_i·z ⊥ x_j·w, and ⊥ is irreflexive), so a union
    determines its tuple of images and every assignment gives a test exactly
    when #{u test : u ⊆ ∪R_i, u ∩ R_i ∈ I_i for all i} = Π_i |I_i|.  That
    costs O(|T|·Σ|u|·k) per test, not |T|^k.  The report counts
    ``inductivity_checked`` = Σ_t Π_i d_i, for d_i the tests with a defined
    image of x_i, and ``inductivity_skipped`` = Σ_t (|T|^k − Π_i d_i); a
    failure's witness is the first failing t with its lexicographically
    first failing f.

    Heads x ⊥ y pass when y's row mask lies in the orthocomplement of every
    entry of x's row; a failing block is rescanned in loop order for its witness.

    A conditional row w_x(y) = w(x·y)/w(x) is checked only for x whose
    products x·y are all in window.  Lemma: on an exact model, once the chain
    rule has passed for w, every test sum of w_x is exactly 1.  For each test
    t the chain rule compared the exact sum of w(x·y) over the possible
    products x·y, y in t, with w(x); the impossible ones are 0 in w_x, so
    Σ_{y in t} w_x(y) = w(x)/w(x) = 1.  There the row's entries (scalar kind,
    range) and, on a hull, its membership are all ``contains_state`` has
    left to decide; float models keep the full ``contains_state``.
    """
    if probe_depth < 1:
        raise UsageError("probe depth must be at least 1")
    space = model.space
    n = space.n_outcomes
    e = sp.unit

    for x in range(n):
        if sp.prod(e, x) != x or sp.prod(x, e) != x:
            raise NotSequential("unit law fails", witness=x)
    unit_points = n
    rows = [[sp.prod(x, y) for y in range(n)] for x in range(n)]
    image = [space._mask_of(p for p in row if p is not None) for row in rows]
    if None in image:
        raise NotSequential("product is not an outcome", witness=image.index(None))
    defined = [n - row.count(None) for row in rows]

    assoc_checked = 0
    for x, row in enumerate(rows):
        for y, xy in enumerate(row):
            for z, yz in enumerate(rows[y] if xy is not None else ()):
                lhs = rows[xy][z]
                if lhs is not None and yz is not None and row[yz] is not None:
                    if lhs != row[yz]:
                        raise NotSequential("associativity fails", witness=(x, y, z))
                    assoc_checked += 1
    assoc_skipped = n**3 - assoc_checked

    orth = space._orth_table()
    perp = [reduce(and_, (orth[p] for p in row if p is not None), ~0) for row in rows]
    left = [sum(1 << z for z in range(n) if rows[z][x] is not None) for x in range(n)]
    orth_checked = 0
    for x in range(n):
        for y in _ids(orth[x]):
            both = left[x] & left[y]
            for z in _ids(both):
                if not orth[rows[z][x]] >> rows[z][y] & 1:
                    raise NotSequential(
                        "left translation breaks orthogonality", witness=(z, x, y)
                    )
            if image[y] & ~perp[x]:
                xz = next(p for p in rows[x] if p is not None and image[y] & ~orth[p])
                yw = next(p for p in rows[y] if p is not None and not orth[xz] >> p & 1)
                z, w = rows[x].index(xz), rows[y].index(yw)
                raise NotSequential(
                    "products of orthogonal heads are not orthogonal", witness=(x, z, y, w)
                )
            orth_checked += both.bit_count() + defined[x] * defined[y]

    if space._mask_of([e]) not in space._test_masks:
        raise NotSequential("the unit must carry its own test", witness=e)

    # Inductivity, by counting distinct images (see the docstring); -1 is out of window.
    tests = space._test_masks
    cols = _product_masks(sp, n)
    branch = list(zip(*(_joined(cols, t, n) for t in tests)))  # branch[x][i] = x·tests[i]
    images = [set(row) - {-1} for row in branch]
    regions = [reduce(or_, distinct, 0) for distinct in images]
    ind_checked = ind_skipped = 0
    for t in tests:
        xs = _ids(t)
        covered = reduce(or_, (regions[x] for x in xs), 0)
        parts = [tuple(u & regions[x] for x in xs) for u in tests if not u & ~covered]
        parts = [p for p in parts if all(q in images[x] for q, x in zip(p, xs))]
        assigned = math.prod(len(tests) - branch[x].count(-1) for x in xs)
        ind_checked += assigned
        ind_skipped += len(tests) ** len(xs) - assigned
        if len(parts) == math.prod(len(images[x]) for x in xs):
            continue
        # the first failing choice: fix each position to the first test whose
        # image leaves fewer tests than completions of the later positions
        choice = []
        for i, x in enumerate(xs):
            completions = math.prod(len(images[y]) for y in xs[i + 1 :])
            for fi, image_mask in enumerate(branch[x]):
                matching = [p for p in parts if p[i] == image_mask]
                if image_mask != -1 and len(matching) < completions:
                    choice.append(fi)
                    parts = matching
                    break
        raise NotSequential(
            "branch assignment leaves the test family", witness=(mask_event(t), tuple(choice))
        )

    # States: marginals equal the state itself; conditionals stay states.
    candidates = list(states) if states is not None else model.state_vertices(cap)
    chain_rule = _chain_rule(model, sp)
    whole = [x for x in range(n) if all(col[x] != -1 for col in cols)]  # x·y all in window
    zero = Fraction(0) if model.exact else 0.0
    # the chain rule fixes each test sum of an exact conditional row (see above)
    member = model._contains_summed_state if model.exact else model.contains_state
    rows_checked = 0
    for w in candidates:
        verdict = chain_rule(w)
        if not verdict:
            raise NotSequential(
                "marginal over a follow-up test differs from the state", witness=verdict.witness
            )
        for x in whole:
            if model._eq(w[x], 0):
                continue
            cond = Weight(tuple(zero if p is None else w[p] / w[x] for p in rows[x]))
            rows_checked += 1
            if not member(cond):
                raise NotSequential("conditional state escapes the state space", witness=x)

    # Evaluation of short strings back into the model.
    strings, string_id, compound = _compound_space(space, probe_depth, cap)
    values = {sid: v for sid, v in enumerate(map(sp.prod_string, strings)) if v is not None}
    for x in range(n):
        if values.get(string_id[(x,)]) != x:
            raise NotSequential("string evaluation does not extend the identity", witness=x)
    dom = sum(1 << sid for sid in values)
    for t in compound._test_masks:
        live = _ids(t & dom)
        img = space._mask_of(values[i] for i in live)
        if img.bit_count() != len(live):
            raise NotSequential("string evaluation collapses a test", witness=mask_event(t))
        if img and (not sp.out_of_window or t & dom == t) and img not in tests:
            raise NotSequential("string evaluation does not preserve tests", witness=mask_event(t))
    report = SequentialReport(
        unit_points=unit_points,
        associativity_checked=assoc_checked,
        associativity_skipped=assoc_skipped,
        orthogonality_checked=orth_checked,
        inductivity_checked=ind_checked,
        inductivity_skipped=ind_skipped,
        state_candidates=len(candidates),
        conditional_rows_checked=rows_checked,
        evaluation_depth=probe_depth,
        evaluation_domain=len(values),
        evaluation_total=len(strings),
    )
    return CheckedSequential(model, sp, report)


def check_chain_rule(model: Model, sp: SequentialProduct, w: Weight) -> PredicateResult:
    """Compound probabilities factor as marginal times conditional.

    Concretely: the marginal of w over any in-window follow-up test equals w
    itself, which is exactly what makes w(xy) = w(x) * w_x(y) with the
    conditional w_x(y) = w(xy)/w(x).  Fails on weights that do not arise
    from transition data; the witness is the first (x, t), tests first.
    """
    return _chain_rule(model, sp)(w)


def _chain_rule(model: Model, sp: SequentialProduct) -> Callable[[Weight], PredicateResult]:
    """``check_chain_rule`` for any w, with each (test, outcome) product list
    built once; a test's members run in frozenset order, as the sums always did."""
    chain = []
    for t in map(mask_event, model.space._test_masks):
        for x in range(model.space.n_outcomes):
            defined = sp.products((x, y) for y in t)
            if defined is not None:
                chain.append((x, t, defined))

    def verdict(w: Weight) -> PredicateResult:
        if len(w) != model.space.n_outcomes:
            raise NotAState("weight length does not match outcome count")
        vals = _summands(model, w)
        for x, t, defined in chain:
            if not model._eq(_mass(vals, defined), vals[x]):
                return PredicateResult(False, (x, t))
        return PredicateResult(True)

    return verdict


def _summands(model: Model, w):
    """w, or for an exact w of ints and Fractions its numerators over the lcm of
    its denominators: their int sums compare exactly as the Fraction sums do."""
    vals = tuple(w)
    if model.exact and all(isinstance(v, (int, Fraction)) for v in vals):
        d = math.lcm(*(v.denominator for v in vals))
        return [v.numerator * (d // v.denominator) for v in vals]
    return w


def _mass(vals, ids):
    """0 + vals[i] + ... left to right over ``ids``, as the state loops always summed."""
    return reduce(add, map(vals.__getitem__, ids), 0)


def _product_masks(sp: SequentialProduct, n: int) -> list[list[int]]:
    """Column y holds x·y for each outcome x < n as a mask, by ``sp.products``: one
    bit, 0 when the product is impossible, -1 (which absorbs every OR) when out of window."""
    found = [[sp.products([(x, y)]) for x in range(n)] for y in range(n)]
    return [[-1 if d is None else sum(1 << p for p in d) for d in col] for col in found]


def _joined(rows: Sequence[Sequence[int]], m: int, width: int) -> list[int]:
    """The entrywise OR of rows[i] over the ids i of mask m (all -1 for m = -1)."""
    if m < 0:
        return [-1] * width
    return reduce(lambda out, i: list(map(or_, out, rows[i])), _ids(m), [0] * width)


def nonatomicity_report(tc: TruncatedCompound) -> list[tuple[tuple[int, ...], frozenset, frozenset]]:
    """Perspectivity witnesses showing no short string is atomic.

    For every string one shy of the depth limit or shorter, exhibits an axis
    between the singleton and its extension by a base test with at least two
    outcomes.  Raises HypothesisUnmet when every base test is a singleton.
    """
    base = tc.base.space
    wide = [t for t in base._test_masks if t.bit_count() >= 2]
    if not wide:
        raise HypothesisUnmet("nonatomicity needs a base test with two outcomes")
    target_test = _ids(min(wide, key=mask_key))
    space = tc.model.space
    out = []
    for sid, s in enumerate(tc.strings):
        if len(s) > tc.depth - 1:
            continue
        extension = sum(1 << tc.id_of(s + (x,)) for x in target_test)
        axis = space._axis(1 << sid, extension)
        if axis is None:
            raise LawViolation(f"string {string_label(base, s)} has no axis to its extension")
        out.append((s, mask_event(extension), mask_event(axis)))
    return out


# -- preservation suites ---------------------------------------------------------------


class PreservationReport(Frozen):
    # properties: name -> (input_holds, output_holds or None when skipped)
    __slots__ = ("construction", "properties", "skipped")

    def verified(self, name: str) -> bool:
        pair = self.properties.get(name)
        return bool(pair and pair[0] and pair[1])


_PROPERTY_ORDER = ("unital", "strongly_unital", "regular", "algebraic", "coherent")


def _model_properties(model: Model, cap: int | None):
    out = {}
    out["unital"] = model.check_unital().holds
    out["strongly_unital"] = model.check_strongly_unital().holds
    out["regular"] = bool(model.space.regular(cap))
    out["algebraic"] = bool(model.space.algebraic(cap))
    out["coherent"] = bool(model.space.coherent(cap))
    return out


def _witness_tables(model: Model):
    """The model's certainty and positivity witnesses per outcome, and its
    strong-unitality witnesses per pair (None where there is none).

    A model with an outcome that no state weighs breaks the standing
    positivity assumption: ``PositivityViolation`` names those outcomes.
    """
    _require_positive(model)
    outcomes = range(model.space.n_outcomes)
    return (
        [model.certainty_witness(x) for x in outcomes],
        [model.positive_witness(x) for x in outcomes],
        {(x, y): model.strong_witness(x, y) for x in outcomes for y in outcomes},
    )


def _certainty_test(tols: Sequence[float]) -> Callable[[object], bool]:
    """Whether a product of weights, each certain within its tolerance in
    ``tols``, is certain: within (1 + t1)(1 + t2)... - 1 of 1, 0 if exact."""
    bound = math.prod(1 + Fraction(t) for t in tols) - 1
    return (lambda v: abs(v - 1) <= bound) if bound else (lambda v: v == 1)


def compound_unitality(tc: TruncatedCompound):
    """``_compound_unitality`` of a built compound."""
    return _compound_unitality(tc.base, tc.strings)


def _compound_unitality(base: Model, strings: Sequence[tuple]):
    """Unitality and strong unitality of the compound of ``base``, by witness states.

    Transition rows are chosen independently per prefix, so a state certain
    of a string needs a certainty witness of the base model per letter, and
    a strong-unitality witness at the divergence point of a string pair; the
    base model's ``certainty_witness``, ``strong_witness`` and
    ``positive_witness`` supply them.  Every verdict is re-verified by
    evaluating the constructed transition state, to one tol per letter on
    float models.

    Pairs are orthogonal by the base (see ``truncated_compound``).  For s, t
    agreeing before k, the read on s depends on t only through (k, t[k]) and
    the read on t on s through (k, s[k]), or both on k alone when one string
    extends the other; each distinct read is checked once, in pair order.
    """
    certain, positive, strong = _witness_tables(base)
    certain_at = [_certainty_test((base.tol,) * k) for k in range(max(map(len, strings)) + 1)]

    def evaluate(rows: dict, s: tuple) -> object:
        return _prefix_product(rows.__getitem__, s, 1)

    unital_ok = True
    for s in strings:
        pins = {s[:i]: certain[x] for i, x in enumerate(s)}
        if any(w is None for w in pins.values()):
            unital_ok = False
        elif not certain_at[len(s)](evaluate(pins, s)):
            raise LawViolation(f"certainty witness fails on string {s}")
    su_ok = True
    orth = base.space._orth_table()
    t_seen = set()  # (j, k, s[k]) or (j, k) whose read on string j passed
    for i, s in enumerate(strings):
        s_seen = set()  # (k, t[k]) or k whose read on s passed
        for j, t in enumerate(strings):
            k = 0
            while k < len(s) and k < len(t) and s[k] == t[k]:
                k += 1
            diverge = k < len(s) and k < len(t)
            if i == j or diverge and orth[s[k]] >> t[k] & 1:
                continue
            s_key, t_key = ((k, t[k]), (j, k, s[k])) if diverge else (k, (j, k))
            if s_key in s_seen and t_key in t_seen:
                continue
            pins = {s[:idx]: certain[x] for idx, x in enumerate(s)}
            # diverging strings need a strong-unitality witness where they
            # part; when one extends the other, certainty along the shorter
            # chain rides for free on the longer one
            if diverge:
                pins[s[:k]] = strong[s[k], t[k]]
            if s_key not in s_seen:
                if any(w is None for w in pins.values()):
                    su_ok = False
                    continue
                if not certain_at[len(s)](evaluate(pins, s)):
                    raise LawViolation(f"strong-unitality witness fails on strings {s}, {t}")
                s_seen.add(s_key)
            if t_key not in t_seen:
                for idx in range(k, len(t)):
                    pins.setdefault(t[:idx], positive[t[idx]])
                if not evaluate(pins, t) > 0:
                    raise LawViolation(f"strong-unitality witness fails on strings {s}, {t}")
                t_seen.add(t_key)
    # with diagonal pairs included, strong unitality subsumes unitality
    return unital_ok, su_ok and unital_ok


def forward_unitality(fp: ForwardProduct):
    """``_forward_unitality`` of a built forward product."""
    return _forward_unitality(fp.left, fp.right, fp.outcome_pair)


def _forward_unitality(left: Model, right: Model, outcome_pair: Sequence[tuple[int, int]]):
    """Unitality predicates of the forward product of two models, by explicit pair states.

    Pairs are orthogonal by the factors (see ``forward_product``) and come in
    ``outcome_pair`` order, first outcome major.  With x = u both entries of
    (x, y), (u, v) read (x, y, v), which no other pair does; otherwise entry i
    reads (x, u, y) and entry j (x, u, v), and each distinct read is checked once.
    """
    certain_left, _, strong_left = _witness_tables(left)
    certain_right, positive_right, strong_right = _witness_tables(right)
    certain_pair = _certainty_test((left.tol, right.tol))
    unital_ok = all(
        certain_left[x] is not None and certain_right[y] is not None
        for (x, y) in outcome_pair
    )
    su_ok = True

    def violation(x, y, u, v) -> LawViolation:
        return LawViolation(f"strong-unitality witness fails on outcome pairs {(x, y)}, {(u, v)}")

    lorth, rorth = left.space._orth_table(), right.space._orth_table()
    outcomes_right = range(right.space.n_outcomes)
    j_seen = set()  # (x, u, v) with x ≠ u whose entry j passed
    for x, y in outcome_pair:
        for u in range(left.space.n_outcomes):
            if x == u:
                alpha = certain_left[x]
                for v in outcomes_right:
                    if v == y or rorth[y] >> v & 1:
                        continue
                    beta = strong_right[y, v]
                    if alpha is None or beta is None:
                        su_ok = False
                    elif not (certain_pair(alpha[x] * beta[y]) and alpha[x] * beta[v] > 0):
                        raise violation(x, y, u, v)
            elif not lorth[x] >> u & 1:
                # entry i reads alpha and beta, entry j alpha and gamma
                alpha, beta = strong_left[x, u], certain_right[y]
                i_ok = False
                for v in outcomes_right:
                    gamma = positive_right[v]
                    if alpha is None or beta is None or gamma is None:
                        su_ok = False
                        continue
                    if not (i_ok or certain_pair(alpha[x] * beta[y])) or (
                        (x, u, v) not in j_seen and not alpha[u] * gamma[v] > 0
                    ):
                        raise violation(x, y, u, v)
                    i_ok = True
                    j_seen.add((x, u, v))
    return unital_ok, su_ok and unital_ok


def _preservation(construction, inputs: list[Model], output: TestSpace, cap, unitality):
    # a square passes the same model twice; its properties are read once
    in_props = [_model_properties(m, cap) for m in dict.fromkeys(inputs)]
    read = dict(zip(_PROPERTY_ORDER, unitality))  # the unital and strongly_unital verdicts
    props = {}
    skipped = []
    for name in _PROPERTY_ORDER:
        # Strong unitality includes its diagonal pairs (hence unitality),
        # which is exactly what survives adding a unit outcome in compounds.
        premise = all(p[name] for p in in_props)
        try:
            got = read[name] if name in read else bool(getattr(output, name)(cap))
        except EnumerationCapExceeded:
            skipped.append(name)
            props[name] = (premise, None)
            continue
        if premise and not got:
            raise LawViolation(f"{construction} failed to preserve {name}")
        props[name] = (premise, got)
    return PreservationReport(construction, props, tuple(skipped))


def preservation_forward(
    left: Model, right: Model, cap: int | None = None
) -> PreservationReport:
    pairs, _, space = _forward_space(left.space, right.space, cap)
    _check_row_kind(left, right)
    unitality = _forward_unitality(left, right, pairs)
    return _preservation("forward product", [left, right], space, cap, unitality)


def preservation_compound(
    model: Model, depth: int, cap: int | None = None
) -> PreservationReport:
    strings, _, space = _compound_space(model.space, depth, cap)
    unitality = _compound_unitality(model, strings)
    return _preservation(f"compound depth {depth}", [model], space, cap, unitality)
