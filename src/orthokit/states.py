"""Probability weights, state spaces, and probabilistic models.

A model couples a test space with a state space: either the full polytope
of probability weights or the convex hull of finitely many generator
weights.  A model is exact (Fraction-valued weights) or float-valued with a
per-model tolerance; the two never mix inside one model.

Membership questions (is this weight a state?) route through the exact
simplex in ``linprog``.  Float models are rationalized on the way in and
re-validated against the model tolerance on the way out, because predicates
like "alpha(x) = 1 exactly" are brittle under floating point.

The state predicates (positivity, unitality, strong unitality) ask for
witness states.  A hull model scans its generators.  A full model scans
the vertices of its polytope, by this lemma:

- P = {w >= 0 : sum of w_x over t = 1 for every test t} is bounded (every
  outcome lies in a test, so w_x <= 1) and is the hull of its vertices.  So
  some state has w_x > 0 exactly when some vertex does.
- Since w_x <= 1 on P, F_x = P with w_x = 1 is a face, and its vertices are
  the vertices of P with v_x = 1.  So a state certain of x that weighs y
  exists exactly when such a vertex has v_y > 0.
- A float pin |w_x - 1| <= tol is feasible exactly when the largest v_x
  over the vertices is at least 1 - Fraction(tol).

An exact model thus decides all three by bit tests on per-vertex masks,
with no LP.  A float model decides positivity and the pin's feasibility the
same way, and a vertex that meets the pin and clears the floor (the
tolerance) is a witness; a target that no vertex clears under a feasible
pin gets an LP, because the slice of P with w_x >= 1 - tol has vertices
that are not vertices of P.  The vertices are enumerated once per space
under a budget of (n + 1)(2n + 1) rays for n outcomes, the most LPs the
LP cover (``Model._cover``) can pose on the space: n + 1 covers of at most
2n + 1 LPs each.  Past the budget the enumeration stops, and the space's
models answer through the LP cover.

Only the right-hand side and the pins change from one LP to the next, so
each constraint system is reduced once, when an LP first asks for it
(``linprog.factor``): the polytope rows (one 0/1 row per test, rhs 1) once
per test space, shared by its full models (``_Polytope``), and a hull
model's generator table, one per ``conic`` flag.  A query applies the
stored row operations to its right-hand side.

Hull membership tries a candidate mixture first: a float least-squares
mixture whose exact residual can confirm membership on its own (see
``Model._hull_membership``).  Only a query it cannot confirm poses the LP,
so the generator table is factored on the first such query, and a model
whose queries are all confirmed never builds it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from ._record import Frozen
from .errors import (
    NotAState,
    NumericKindMismatch,
    PositivityViolation,
    UsageError,
    check_tolerance,
    resolve_cap,
)
# ``solve_lp`` has no caller here; it stays importable as ``states.solve_lp``,
# the name the benchmark's traced run wraps.
from .linprog import ZERO, LPResult, enumerate_vertices, factor, solve_lp, vertices_within  # noqa: F401
from .testspace import TestSpace, _ids

FULL = "full"
GENERATORS = "generators"

DEFAULT_FLOAT_TOL = 1e-9


class Weight:
    """A function outcome-id -> scalar, stored densely."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence):
        self.values = tuple(values)

    def __getitem__(self, x: int):
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Weight({list(self.values)})"

    def of(self, event: Iterable[int]):
        """Total weight of an event (0 for the empty event)."""
        return sum((self.values[x] for x in event), start=0)


def weight_from_labels(space: TestSpace, assignment: Mapping[str, object]) -> Weight:
    vals = [0] * space.n_outcomes
    for lab, v in assignment.items():
        vals[space.outcome(lab)] = v
    return Weight(vals)


class StateSpace(Frozen):
    """Full polytope of probability weights, or a finite generator hull."""

    __slots__ = ("kind", "generators")
    _defaults = {"generators": ()}

    @staticmethod
    def full() -> "StateSpace":
        return StateSpace(FULL)

    @staticmethod
    def hull(weights: Iterable[Weight]) -> "StateSpace":
        gens = tuple(weights)
        if not gens:
            raise UsageError("generator state spaces need at least one weight")
        return StateSpace(GENERATORS, gens)

    @property
    def is_full(self) -> bool:
        return self.kind == FULL


class StateReport(Frozen):
    """Per-outcome (or per-pair) verdicts for a state-dependent predicate."""

    __slots__ = ("name", "holds", "failures")
    _defaults = {"failures": ()}


class _Polytope:
    """What the full models on one space share (``TestSpace._derived``): the
    reduced polytope rows, each kept LP optimum (in insertion order) with its
    support and weight-1 masks, and the vertices with the same masks.

    ``vertices`` is (the cap or budget they were enumerated under, the list),
    or (the budget, None) once an enumeration under it stopped; the list is
    then read by any cap at least that one.  The predicates enumerate under
    the budget (n + 1)(2n + 1) for n outcomes, once: past it they answer
    through the LP cover and never enumerate again.  The optima grow by each
    LP no vertex or kept optimum answered: past the budget, or a float
    target that no vertex clears (pinned optima at 1 - tol)."""

    __slots__ = ("system", "optima", "vertices")

    def __init__(self, space: TestSpace):
        n = space.n_outcomes
        self.system = factor([[t >> x & 1 for x in range(n)] for t in space._test_masks], n)
        self.optima: dict[Weight, tuple[int, int]] = {}
        self.vertices: tuple[int, list[Weight]] | None = None


class Model:
    """A test space together with a designated state space.

    Direct construction trusts its arguments: every generator is a
    probability weight of the model's scalar kind, and every outcome gets
    positive weight from some state (the standing positivity assumption).
    ``full_model`` and ``generator_model`` check both for data from outside;
    the constructions (coarsening, products, compounding, adjunctions) build
    models that satisfy them whenever their inputs do.

    A full model's polytope record (``_Polytope``) lives on its space, shared
    by every full model there: the test rows are exact equalities in every
    state LP, so a kept optimum meeting a model's pin and floor is feasible in
    its own LP.  The answers (``_covers``) depend on ``exact`` and ``tol``.
    """

    __slots__ = ("space", "states", "exact", "tol", "_systems", "_covers")

    def __init__(
        self,
        space: TestSpace,
        states: StateSpace,
        exact: bool = True,
        tol: float | None = None,
    ):
        self.space = space
        self.states = states
        self.exact = exact
        self.tol = DEFAULT_FLOAT_TOL if (tol is None and not exact) else (tol or 0.0)
        # a hull model's reduced tables by their ``conic`` flag, built when an LP
        # first asks, and its candidate mixtures' tables, ("mixture", conic)
        self._systems: dict = {}
        self._covers: dict[int | None, dict] = {}  # the answers of ``_cover``

    # -- scalar plumbing -------------------------------------------------------

    def _validate_weight(self, w: Weight) -> None:
        self._validate_entries(w)
        for t in map(_ids, self.space._test_masks):
            if not self._eq(w.of(t), 1):
                raise NotAState(f"weight sums to {w.of(t)} on test {self.space.labels_of(t)}")

    def _validate_entries(self, w: Weight) -> None:
        """The length, and each value's scalar kind and range [0, 1]."""
        if len(w) != self.space.n_outcomes:
            raise NotAState("weight length does not match outcome count")
        for v in w.values:
            if self.exact and not isinstance(v, (Fraction, int)):
                raise NumericKindMismatch(f"exact model got scalar {v!r}")
            if not self.exact and isinstance(v, Fraction):
                raise NumericKindMismatch("float model got a Fraction scalar")
            if not self._geq(v, 0) or not self._geq(1, v):
                raise NotAState(f"weight value {v} outside [0,1]")

    def _eq(self, a, b) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.tol

    def _geq(self, a, b) -> bool:
        if self.exact:
            return a >= b
        return a >= b - self.tol

    def _rationalize(self, v) -> Fraction:
        return v if isinstance(v, Fraction) else Fraction(v)

    # -- LP scaffolding ----------------------------------------------------------

    def _polytope(self) -> _Polytope:
        """The record of the full models on this model's space, built on first use."""
        derived = self.space._derived
        return derived.get("polytope") or derived.setdefault("polytope", _Polytope(self.space))

    def optimize_over_states(
        self, objective: Sequence, fix: Sequence[tuple[int, object]] = (), maximize=True
    ) -> LPResult:
        """Extremize a linear functional of the state over the full polytope.

        ``fix`` pins outcome weights to given values. For float models the
        pins are enforced up to the model tolerance.  Hull models pose no
        such LP: their predicates scan the generators (``UsageError``).
        """
        if not self.states.is_full:
            raise UsageError("hull models scan their generators; they pose no state LP")
        obj = [self._rationalize(v) for v in objective]
        slack = Fraction(0) if self.exact else Fraction(self.tol)
        base = self.space.n_outcomes
        extra = 0
        rows = []
        for x, val in fix:
            pin = [0] * base
            pin[x] = 1
            target = self._rationalize(val)
            if slack == 0:
                rows.append((pin, target))
            else:
                # row . v + s+ - s- = target with s+ + s- <= slack
                rows.append((pin + [0] * extra + [1, -1, 0], target))
                rows.append(([0] * (base + extra) + [1, 1, 1], slack))
                extra += 3
        ones = [1] * len(self.space._test_masks)
        return self._polytope().system.solve(ones, obj + [ZERO] * extra, maximize, rows)

    # -- membership --------------------------------------------------------------

    def is_probability_weight(self, w: Weight) -> bool:
        try:
            self._validate_weight(w)
        except (NotAState, NumericKindMismatch):
            return False
        return True

    def contains_state(self, w: Weight) -> bool:
        """Membership of a probability weight in the state space."""
        if not self.is_probability_weight(w):
            return False
        if self.states.is_full:
            return True
        return self._hull_membership(w, conic=False)

    def _contains_summed_state(self, w: Weight) -> bool:
        """``contains_state`` for a weight whose every test sum is known to be
        exactly 1: its entries are checked, its test sums are not added again."""
        try:
            self._validate_entries(w)
        except (NotAState, NumericKindMismatch):
            return False
        return self.states.is_full or self._hull_membership(w, conic=False)

    def contains_ray(self, w: Weight) -> bool:
        """Is ``w`` a nonnegative multiple of a state (zero included)?

        Like ``contains_state``, a weight of the other scalar kind, or with
        an entry that is not finite, is not one.
        """
        if len(w) != self.space.n_outcomes:
            raise NotAState("weight length does not match outcome count")
        if not all(map(self._of_kind, w.values)):
            return False
        if any(not self._geq(v, 0) for v in w.values):
            return False
        if self.states.is_full:
            sums = [w.of(_ids(t)) for t in self.space._test_masks]
            return all(self._eq(s, sums[0]) for s in sums)
        return self._hull_membership(w, conic=True)

    def _of_kind(self, v) -> bool:
        """A finite scalar of the model's kind: int or Fraction exact, else not Fraction."""
        if self.exact:
            return isinstance(v, (Fraction, int))
        return not isinstance(v, Fraction) and math.isfinite(v)

    def _hull_membership(self, w: Weight, conic: bool) -> bool:
        """Is ``w`` a mixture (``conic``: a nonnegative combination) of the generators?

        The LP: the table of generator columns is reduced once per model and
        per ``conic`` flag, G with a row of ones unless conic.  A float model
        adds residual columns +I and -I, minimizes their total and then
        re-validates each coordinate against the tolerance.

        A candidate mixture comes first (``_mixture``): weights λ̂ >= 0, with
        Σλ̂ = 1 unless conic, and B = Σ_x |(G λ̂)_x - w_x| computed exactly.
        Lemma: the float LP minimizes exactly this L1 residual over the same
        feasible set, so its optimum is at most B, and its optimum λ* has
        |(G λ*)_x - w_x| <= B at every x.  The re-validation rounds (G λ*)_x,
        at most |w_x| + B in size, to a float (relative error 2^-53; below
        the normal range the error is under half the spacing of the floats,
        which cannot carry a difference of floats past the float ``tol``) and
        rounds the difference once more.  So a float model whose
        (B + 2^-53·(2·max|w_x| + B))·(1 + 2^-53) <= tol passes at every x,
        and on an exact model B = 0 makes λ̂ a feasible point.  In both cases
        the answer is True with no LP; in every other case the LP decides,
        and its table is built only then.  The candidate never answers
        False, so every failure comes from the LP.
        """
        _, bound = self._mixture(w, conic)
        if bound == 0 if self.exact else _float_margin(bound, w) <= self.tol:
            return True
        gens = self.states.generators
        m = len(gens)
        n = self.space.n_outcomes
        system = self._systems.get(conic)
        if system is None:
            width = m if self.exact else m + 2 * n
            rows = [[self._rationalize(g[x]) for g in gens] + [0] * (width - m) for x in range(n)]
            if not self.exact:
                for x, row in enumerate(rows):
                    row[m + 2 * x], row[m + 2 * x + 1] = 1, -1
            if not conic:
                rows.append([1] * m + [0] * (width - m))
            system = self._systems[conic] = factor(rows, width)
        target = [self._rationalize(v) for v in w.values]
        rhs = target if conic else [*target, 1]
        if self.exact:
            return system.solve(rhs, [ZERO] * m).optimal
        # Float model: minimize the total residual, then re-validate per
        # coordinate against the tolerance.
        res = system.solve(rhs, [ZERO] * m + [Fraction(-1)] * (2 * n))
        if not res.optimal:
            return False
        lam = res.x[:m]
        for x in range(n):
            approx = sum((self._rationalize(g[x]) * l for g, l in zip(gens, lam)), ZERO)
            if abs(float(approx) - float(target[x])) > self.tol:
                return False
        return True

    def _mixture(self, w: Weight, conic: bool) -> tuple[list[Fraction], Fraction]:
        """The candidate mixture λ̂ of ``_hull_membership`` and its exact residual B.

        λ̂ is the float least-squares solution of G λ ≈ w, with the row
        Σλ = 1 unless ``conic``, from the normal equations (``_least_squares``);
        negative weights are clipped to 0, the rest taken exactly as
        ``Fraction``s and, unless conic, divided by their sum (λ̂ = e_1 when
        every weight was clipped), so Σλ̂ = 1 exactly.  The Gram matrix and G
        as integers over one common denominator are built once per model and
        per flag.
        """
        table = self._systems.get(("mixture", conic))
        if table is None:
            gens = self.states.generators
            cols = [[float(v) for v in g.values] for g in gens]
            ones = 0.0 if conic else 1.0
            gram = [[math.fsum(map(mul, a, b)) + ones for b in cols] for a in cols]
            exact = [[self._rationalize(g[x]) for g in gens] for x in range(self.space.n_outcomes)]
            den = math.lcm(*[v.denominator for row in exact for v in row])
            ints = [[v.numerator * (den // v.denominator) for v in row] for row in exact]
            table = self._systems[("mixture", conic)] = (cols, gram, ints, den)
        cols, gram, ints, den = table
        target = [self._rationalize(v) for v in w.values]
        b = [float(v) for v in w.values]
        ones = 0.0 if conic else 1.0
        lam = _least_squares(gram, [math.fsum(map(mul, col, b)) + ones for col in cols])
        # nonnegative weights as integers over a common power of two, then
        # over their sum when they must mix
        ratios = [v.as_integer_ratio() if 0 < v < math.inf else (0, 1) for v in lam]
        lam_den = max(q for _, q in ratios)
        nums = [p * (lam_den // q) for p, q in ratios]
        if not conic:
            lam_den = sum(nums)
            if not lam_den:
                nums[0] = lam_den = 1
        w_den = math.lcm(*[v.denominator for v in target])
        scale = den * lam_den
        residual = sum(
            abs(sum(map(mul, row, nums)) * w_den - v.numerator * (w_den // v.denominator) * scale)
            for row, v in zip(ints, target)
        )
        return [Fraction(p, lam_den) for p in nums], Fraction(residual, scale * w_den)

    # -- state-dependent predicates ---------------------------------------------------
    #
    # Positivity, unitality and strong unitality all ask for witness states.
    # A hull model scans its generators, which decides all three exactly on
    # an exact hull.  A state is a mixture of generators, positive at x
    # exactly when some generator it mixes is.  Every g[x] <= 1, so it is
    # certain of x exactly when every generator it mixes is; hence a state
    # certain of x with weight at y exists exactly when a generator certain
    # of x has weight at y.  Float hulls run the same scan with the model's
    # ``_eq`` and floor, one generator at a time.
    #
    # A full model finds witnesses by ``_cover``: a scan of its space's
    # vertices (the lemma in the module docstring), then of the LP optima kept
    # on its space's record, then LPs.  A vertex or kept optimum that meets a
    # query's pin is a feasible point of that query's LP, so a scan hit says
    # "holds" only where the model's own LP would.  A failure comes from the
    # vertex scan where the lemma decides, else from the model's own LP.

    def _indicator(self, *outcomes: int) -> list[Fraction]:
        obj = [ZERO] * self.space.n_outcomes
        for x in outcomes:
            obj[x] = Fraction(1)
        return obj

    def _kept_optimum(self, objective, fix=()) -> tuple[Weight, tuple[int, int]] | None:
        """An LP optimum and its (support, certain) masks, kept on the space's record."""
        res = self.optimize_over_states(objective, fix=fix)
        if not res.optimal:
            return None
        w = Weight(res.x[: self.space.n_outcomes])
        masks = _masks(w)
        self._polytope().optima.setdefault(w, masks)
        return w, masks

    def _enumerate(self, run, cap: int) -> list[tuple[Weight, tuple[int, int]]] | None:
        """The space's vertices with their masks by ``run`` (``enumerate_vertices``
        or ``vertices_within``) under ``cap``, kept on its record when found."""
        record = self._polytope()
        rows = record.system.reduced([1] * len(self.space._test_masks))
        verts = [] if rows is None else run([r[:-1] for r, _ in rows], [r[-1] for r, _ in rows], cap)
        if verts is not None:
            verts = [(w, _masks(w)) for w in map(Weight, verts)]
        record.vertices = (cap, verts)
        return verts

    def _vertex_scan(self) -> list[tuple[Weight, tuple[int, int]]] | None:
        """The space's vertices with their masks, enumerated once under the
        budget if none are kept; None past it."""
        kept = self._polytope().vertices
        if kept is not None:
            return kept[1]
        n = self.space.n_outcomes
        return self._enumerate(vertices_within, (n + 1) * (2 * n + 1))

    def _cover(self, certain: int | None) -> dict:
        """Map each target outcome to a witness state, or to None where none exists.

        With ``certain`` None the targets are all outcomes and a witness puts
        positive weight there.  Otherwise the states are pinned certain of
        that outcome (within the tolerance on float models), the targets are
        it and every outcome not orthogonal to it, and a witness puts weight
        above a floor there: 0 on exact models, the tolerance on float ones.

        The space's vertices that meet the pin come first, by bit tests where
        they decide.  With a zero floor, or with no vertex meeting the pin
        (the pin is infeasible), they decide every target.  Otherwise (a
        float floor under a feasible pin), and on a space past the vertex
        budget, the LP cover goes on: the kept optima that meet the pin, from
        a snapshot of the space's record, then one LP that maximizes the
        total weight of the open targets: if the pin is infeasible, or the
        total is at most the floor, no open target can clear it (weights are
        nonnegative); otherwise its optimum covers some and the loop goes on.
        Only the float floor can leave every open target at or below it while
        their total clears it; then each gets its own LP.  One cover poses at
        most 2n + 1 LPs for n outcomes: at most one total LP per target and
        one more, then at most one LP per target.
        """
        if certain in self._covers:
            return self._covers[certain]
        n = self.space.n_outcomes
        vertices = self._vertex_scan()
        kept = list(self._polytope().optima.items())  # siblings may add while this scans
        if certain is None:
            fix, targets, floor = (), range(n), 0
        else:
            fix = ((certain, 1),)
            targets = [y for y in range(n) if not self.space.orthogonal(certain, y)]
            floor, slack = (0 if self.exact else self.tol), Fraction(self.tol)
            bit = 1 << certain  # weight exactly 1 by its bit, else within the tolerance

            def pinned(entries):
                return [(w, m) for w, m in entries if m[1] & bit or slack and abs(w[certain] - 1) <= slack]

            kept = pinned(kept)
            vertices = None if vertices is None else pinned(vertices)

        def hit(entry, y):
            return _clears(entry[0][y], floor) if floor else entry[1][0] >> y & 1

        decided = vertices is not None and not (floor and vertices)
        found = dict.fromkeys(targets)
        todo = list(targets)
        entries = iter(vertices if decided else [*(vertices or ()), *kept])
        while todo:
            entry = next(entries, None)
            if entry is None:
                if decided:
                    break
                entry = self._kept_optimum(self._indicator(*todo), fix)
                if entry is None or not _clears(sum(entry[0][y] for y in todo), floor):
                    break
                if not any(hit(entry, y) for y in todo):
                    for y in todo:
                        entry = self._kept_optimum(self._indicator(y), fix)
                        found[y] = entry[0] if entry is not None and hit(entry, y) else None
                    break
            for y in todo:
                if hit(entry, y):
                    found[y] = entry[0]
            todo = [y for y in todo if found[y] is None]
        self._covers[certain] = found
        return found

    def positive_witness(self, x: int) -> Weight | None:
        """A state with positive weight at x, or None."""
        if not self.states.is_full:
            return next((g for g in self.states.generators if g[x] > 0), None)
        return self._cover(None)[x]

    def certainty_witness(self, x: int) -> Weight | None:
        """A state certain of x, or None.

        A hull model scans its generators with the model's ``_eq``: a
        mixture can reach weight 1 where no generator is within tolerance.
        """
        if not self.states.is_full:
            return next((g for g in self.states.generators if self._eq(g[x], 1)), None)
        return self._cover(x)[x]

    def strong_witness(self, x: int, y: int) -> Weight | None:
        """A state certain of x with weight above the floor at y (0, or the
        tolerance on float models), or None; an orthogonal pair has none.

        A hull model returns the first generator certain of x (by ``_eq``)
        that clears the floor at y.
        """
        if not self.states.is_full:
            if self.space.orthogonal(x, y):
                return None
            floor = 0 if self.exact else self.tol
            return next(
                (g for g in self.states.generators if self._eq(g[x], 1) and _clears(g[y], floor)),
                None,
            )
        return self._cover(x).get(y)

    def positivity_failures(self) -> list[int]:
        return [x for x in range(self.space.n_outcomes) if self.positive_witness(x) is None]

    def check_unital(self) -> StateReport:
        """Every outcome is certain under some state."""
        failures = tuple(
            x for x in range(self.space.n_outcomes) if self.certainty_witness(x) is None
        )
        return StateReport("unital", not failures, failures)

    def check_strongly_unital(self) -> StateReport:
        """Certainty at x leaves positive weight available at non-orthogonal y.

        The diagonal pair is included: a strongly unital model is in
        particular unital, which is what the downstream regularity and
        preservation facts actually need.
        """
        n = self.space.n_outcomes
        failures = tuple(
            (x, y)
            for x in range(n)
            for y in range(n)
            if not self.space.orthogonal(x, y) and self.strong_witness(x, y) is None
        )
        return StateReport("strongly_unital", not failures, failures)

    def _eq_float_ok(self, value, target) -> bool:
        if self.exact:
            return value == target
        return abs(float(value) - target) <= self.tol

    def min_event_weight(self, a: Iterable[int]):
        """Minimum of alpha(a) over the state space (exact Fraction)."""
        a = frozenset(a)
        n = self.space.n_outcomes
        obj = [ZERO] * n
        for x in a:
            obj[x] = Fraction(1)
        if self.states.is_full:
            res = self.optimize_over_states(obj, maximize=False)
            if not res.optimal:
                raise PositivityViolation("state polytope is empty")
            return res.value
        return min(
            sum((self._rationalize(g[x]) for x in a), ZERO) for g in self.states.generators
        )

    def certain_event_is_test(self, a: Iterable[int]) -> bool:
        """If every state is certain of the event, it must be a whole test.

        Returns whether the hypothesis (certainty under all states) held;
        raises PositivityViolation if it held for a non-test, which a
        positive model cannot produce.
        """
        a = frozenset(a)
        if not self.space.is_event(a):
            raise UsageError("argument must be an event")
        lo = self.min_event_weight(a)
        hypothesis = self._eq_float_ok(lo, 1)
        if hypothesis and self.space._mask_of(a) not in self.space._test_masks:
            raise PositivityViolation(
                f"event {self.space.labels_of(a)} is certain but is not a test"
            )
        return hypothesis

    # -- vertex access ------------------------------------------------------------------

    def state_vertices(self, cap: int | None = None) -> list[Weight]:
        """Vertices of the state space (generators for hull models), as a new list.

        A full model reads its space's list if this cap is at least the cap or
        budget it was enumerated under, else enumerates again under this cap:
        every refusal is fresh.  A space whose budgeted enumeration stopped
        enumerates under every cap until one succeeds."""
        if self.states.kind == GENERATORS:
            return list(self.states.generators)
        cap = resolve_cap(cap)
        kept = self._polytope().vertices
        verts = kept[1] if kept is not None and cap >= kept[0] else None
        if verts is None:
            verts = self._enumerate(enumerate_vertices, cap)
        return [w for w, _ in verts]


_HALF_ULP = Fraction(1, 2**53)


def _float_margin(bound: Fraction, w: Weight) -> Fraction:
    """(B + 2^-53·(2·max|w_x| + B))·(1 + 2^-53): the largest value the float
    re-validation of ``_hull_membership`` can compute from a residual of at most B."""
    big = Fraction(max(map(abs, w.values), default=0))
    return (bound + _HALF_ULP * (2 * big + bound)) * (1 + _HALF_ULP)


def _least_squares(gram: list[list[float]], rhs: list[float]) -> list[float]:
    """A float solution of the normal equations gram·λ = rhs.

    Elimination with partial pivoting, column by column; a column whose best
    pivot is at most 1e-12 of the largest diagonal entry depends on the
    earlier ones, and its weight is 0.
    """
    m = len(rhs)
    rows = [[*row, v] for row, v in zip(gram, rhs)]
    tiny = 1e-12 * max((gram[i][i] for i in range(m)), default=0.0)
    free = list(range(m))
    pivots = []
    for col in range(m):
        r = max(free, key=lambda i: abs(rows[i][col]), default=None)
        if r is None or not abs(rows[r][col]) > tiny:
            continue
        free.remove(r)
        p = rows[r]
        for i in free:
            f = rows[i][col] / p[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        pivots.append((r, col))
    lam = [0.0] * m
    for r, col in reversed(pivots):
        row = rows[r]
        lam[col] = (row[m] - math.fsum(row[j] * lam[j] for j in range(col + 1, m))) / row[col]
    return lam


def _masks(w: Weight) -> tuple[int, int]:
    """The (support, weight exactly 1) masks of an exact state."""
    support = sum(1 << x for x, v in enumerate(w.values) if v > 0)
    return support, sum(1 << x for x, v in enumerate(w.values) if v == 1)


def _clears(v, floor) -> bool:
    """Whether a weight is above a floor; a zero floor compares exactly."""
    return float(v) > floor if floor else v > 0


def _require_positive(model: Model) -> Model:
    dead = model.positivity_failures()
    if dead:
        labels = [model.space.labels[x] for x in dead]
        raise PositivityViolation(f"no state is positive at {labels}")
    return model


def full_model(space: TestSpace, exact: bool = True, tol: float | None = None) -> Model:
    """The model of all probability weights on ``space``, checked for positivity.

    A given ``tol`` must be finite and nonnegative (``UsageError``).
    """
    check_tolerance(tol)
    return _require_positive(Model(space, StateSpace.full(), exact=exact, tol=tol))


def generator_model(
    space: TestSpace,
    weights: Iterable[Weight],
    exact: bool = True,
    tol: float | None = None,
) -> Model:
    """The hull of ``weights``, validated as input from outside.

    Each weight must be a probability weight of the model's scalar kind
    (``NotAState``, ``NumericKindMismatch``), and the hull must be positive
    (``PositivityViolation``).  A given ``tol`` must be finite and
    nonnegative (``UsageError``).
    """
    check_tolerance(tol)
    model = Model(space, StateSpace.hull(weights), exact=exact, tol=tol)
    for g in model.states.generators:
        model._validate_weight(g)
    return _require_positive(model)


def adjoin_failure_outcome(model: Model, label: str = "*") -> Model:
    """Pointed extension: add a common failure outcome to every test.

    The new state space is the truncated cone over the old one with apex at
    the point mass on the failure outcome.
    """
    space = model.space
    fail = 1 << space.n_outcomes
    new_space = TestSpace(space.labels + (label,), [t | fail for t in space._test_masks])
    if model.states.is_full:
        states = StateSpace.full()
    else:
        zero = Fraction(0) if model.exact else 0.0
        one = Fraction(1) if model.exact else 1.0
        gens = [Weight(tuple(g.values) + (zero,)) for g in model.states.generators]
        delta = Weight((zero,) * space.n_outcomes + (one,))
        states = StateSpace.hull(gens + [delta])
    return Model(new_space, states, exact=model.exact, tol=model.tol)
