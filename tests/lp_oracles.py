"""Per-query LP reference implementations of the state predicates.

These are the straightforward versions of ``Model.positivity_failures``,
``Model.check_unital`` and ``Model.check_strongly_unital``: one fresh LP per
outcome or per non-orthogonal pair, with nothing remembered between LPs.
The library answers the same queries from cached witness states first; the
oracle tests require both to report the same verdict and the same ordered
failures.
"""

from __future__ import annotations

from fractions import Fraction

from orthokit.linprog import ZERO
from orthokit.states import StateReport


def _indicator(n, x):
    obj = [ZERO] * n
    obj[x] = Fraction(1)
    return obj


def positivity_failures(model):
    dead = []
    n = model.space.n_outcomes
    for x in range(n):
        if model.states.is_full:
            res = model.optimize_over_states(_indicator(n, x))
            ok = res.optimal and res.value > 0
        else:
            ok = any(float(g[x]) > 0 for g in model.states.generators)
        if not ok:
            dead.append(x)
    return dead


def check_unital(model):
    failures = []
    n = model.space.n_outcomes
    for x in range(n):
        if model.states.is_full:
            res = model.optimize_over_states(_indicator(n, x))
            ok = res.optimal and model._eq_float_ok(res.value, 1)
        else:
            ok = any(model._eq(g[x], 1) for g in model.states.generators)
        if not ok:
            failures.append(x)
    return StateReport("unital", not failures, tuple(failures))


def check_strongly_unital(model):
    failures = []
    n = model.space.n_outcomes
    for x in range(n):
        for y in range(n):
            if x != y and model.space.orthogonal(x, y):
                continue
            res = model.optimize_over_states(_indicator(n, y), fix=[(x, 1)])
            ok = res.optimal and float(res.value) > (0 if model.exact else model.tol)
            if not ok:
                failures.append((x, y))
    return StateReport("strongly_unital", not failures, tuple(failures))
