"""Probability weights, state spaces, and probabilistic models.

A model couples a test space with a state space: either the full polytope
of probability weights or the convex hull of finitely many generator
weights.  A model is exact (Fraction-valued weights) or float-valued with a
per-model tolerance; the two never mix inside one model.

Membership questions (is this weight a state?) and, on full models, the
state predicates (does some state put weight 1 on x?) route through the
exact simplex in ``linprog``; hull models answer the predicates by scanning
their generators.  Float models are rationalized on the way in and
re-validated against the model tolerance on the way out, because predicates
like "alpha(x) = 1 exactly" are brittle under floating point.

Only the right-hand side and the pins change from one LP of a model to the
next, so each model reduces each of its constraint systems once, when an
LP first asks for it (``linprog.factor``): the polytope rows (one 0/1 row
per test, rhs 1) for the state LPs and ``state_vertices``, and the
generator table of hull membership, one per ``conic`` flag.  A query
applies the stored row operations to its right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    NotAState,
    NumericKindMismatch,
    PositivityViolation,
    UsageError,
    check_tolerance,
)
# ``solve_lp`` has no caller here; it stays importable as ``states.solve_lp``,
# the name the benchmark's traced run wraps.
from .linprog import ZERO, LPResult, enumerate_vertices, factor, solve_lp  # noqa: F401
from .testspace import TestSpace

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


@dataclass(frozen=True)
class StateSpace:
    """Full polytope of probability weights, or a finite generator hull."""

    kind: str
    generators: tuple[Weight, ...] = ()

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


@dataclass(frozen=True)
class StateReport:
    """Per-outcome (or per-pair) verdicts for a state-dependent predicate."""

    name: str
    holds: bool
    failures: tuple = ()


class Model:
    """A test space together with a designated state space.

    Direct construction trusts its arguments: every generator is a
    probability weight of the model's scalar kind, and every outcome gets
    positive weight from some state (the standing positivity assumption).
    ``full_model`` and ``generator_model`` check both for data from outside;
    the constructions (coarsening, products, compounding, adjunctions) build
    models that satisfy them whenever their inputs do.
    """

    __slots__ = ("space", "states", "exact", "tol", "_systems", "_witnesses", "_covers")

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
        # reduced constraint systems: "polytope", and the hull tables by
        # their ``conic`` flag; built when an LP first asks
        self._systems: dict = {}
        # LP optima kept as witness states, in insertion order, and the
        # memoised answers of ``_cover``
        self._witnesses: dict[Weight, None] = {}
        self._covers: dict[int | None, dict] = {}

    # -- scalar plumbing -------------------------------------------------------

    def _validate_weight(self, w: Weight) -> None:
        if len(w) != self.space.n_outcomes:
            raise NotAState("weight length does not match outcome count")
        for v in w.values:
            if self.exact and not isinstance(v, (Fraction, int)):
                raise NumericKindMismatch(f"exact model got scalar {v!r}")
            if not self.exact and isinstance(v, Fraction):
                raise NumericKindMismatch("float model got a Fraction scalar")
            if not self._geq(v, 0) or not self._geq(1, v):
                raise NotAState(f"weight value {v} outside [0,1]")
        for t in self.space.tests:
            if not self._eq(w.of(t), 1):
                raise NotAState(
                    f"weight sums to {w.of(t)} on test {self.space.labels_of(t)}"
                )

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

    def _polytope(self):
        """The reduced polytope rows: one 0/1 row per test, rhs 1."""
        system = self._systems.get("polytope")
        if system is None:
            n = self.space.n_outcomes
            rows = [[t >> x & 1 for x in range(n)] for t in self.space._test_masks]
            system = self._systems["polytope"] = factor(rows, n)
        return system

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
        return self._polytope().solve(ones, obj + [ZERO] * extra, maximize, rows)

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
            sums = [w.of(t) for t in self.space.tests]
            return all(self._eq(s, sums[0]) for s in sums)
        return self._hull_membership(w, conic=True)

    def _of_kind(self, v) -> bool:
        """A finite scalar of the model's kind: int or Fraction exact, else not Fraction."""
        if self.exact:
            return isinstance(v, (Fraction, int))
        return not isinstance(v, Fraction) and math.isfinite(v)

    def _hull_membership(self, w: Weight, conic: bool) -> bool:
        """Is ``w`` a mixture (``conic``: a nonnegative combination) of the generators?

        The table of generator columns is reduced once per model and per
        ``conic`` flag: G, with a row of ones unless conic.  A float model
        adds residual columns +I and -I, minimizes their total and then
        re-validates each coordinate against the tolerance.
        """
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
    # A full model finds witnesses by ``_cover``.  Every LP optimum it solves
    # is kept on the model.  A kept optimum that meets a query's pin is a
    # feasible point of that query's LP, so a scan hit says "holds" only
    # where the LP would, and every failure comes from an LP.

    def _indicator(self, *outcomes: int) -> list[Fraction]:
        obj = [ZERO] * self.space.n_outcomes
        for x in outcomes:
            obj[x] = Fraction(1)
        return obj

    def _kept_optimum(self, objective, fix=()) -> Weight | None:
        res = self.optimize_over_states(objective, fix=fix)
        if not res.optimal:
            return None
        w = Weight(res.x[: self.space.n_outcomes])
        self._witnesses[w] = None
        return w

    def _cover(self, certain: int | None) -> dict:
        """Map each target outcome to a witness state, or to None where none exists.

        With ``certain`` None the targets are all outcomes and a witness puts
        positive weight there.  Otherwise the states are pinned certain of
        that outcome (within the tolerance on float models), the targets are
        it and every outcome not orthogonal to it, and a witness puts weight
        above a floor there: 0 on exact models, the tolerance on float ones.

        Kept optima that meet the pin come first.  Then one LP maximizes the
        total weight of the open targets: if the pin is infeasible, or the
        total is at most the floor, no open target can clear it (weights are
        nonnegative); otherwise its optimum covers some of them and the loop
        goes on.  Only the float floor can leave every open target at or below
        it while their total clears it; then each gets its own LP.
        """
        if certain in self._covers:
            return self._covers[certain]
        n = self.space.n_outcomes
        if certain is None:
            fix, targets, floor = (), range(n), 0
        else:
            fix = ((certain, 1),)
            targets = [y for y in range(n) if not self.space.orthogonal(certain, y)]
            floor = 0 if self.exact else self.tol
        slack = 0 if self.exact else Fraction(self.tol)
        found = dict.fromkeys(targets)
        todo = list(targets)
        kept = iter([w for w in self._witnesses if all(abs(w[x] - v) <= slack for x, v in fix)])
        while todo:
            w = next(kept, None)
            if w is None:
                w = self._kept_optimum(self._indicator(*todo), fix)
                if w is None or not _clears(sum(w[y] for y in todo), floor):
                    break
                if not any(_clears(w[y], floor) for y in todo):
                    for y in todo:
                        w = self._kept_optimum(self._indicator(y), fix)
                        found[y] = w if w is not None and _clears(w[y], floor) else None
                    break
            for y in todo:
                if _clears(w[y], floor):
                    found[y] = w
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
        if hypothesis and a not in self.space.test_set:
            raise PositivityViolation(
                f"event {self.space.labels_of(a)} is certain but is not a test"
            )
        return hypothesis

    # -- vertex access ------------------------------------------------------------------

    def state_vertices(self, cap: int | None = None) -> list[Weight]:
        """Vertices of the state space (generators for hull models)."""
        if self.states.kind == GENERATORS:
            return list(self.states.generators)
        rows = self._polytope().reduced([1] * len(self.space._test_masks))
        if rows is None:
            return []
        a = [nums[:-1] for nums, _ in rows]
        return [Weight(v) for v in enumerate_vertices(a, [nums[-1] for nums, _ in rows], cap)]


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
