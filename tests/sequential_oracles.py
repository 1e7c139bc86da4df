"""Frozenset reference versions of the sequential-product checks.

These are the straightforward versions of ``validate_sequential``,
``check_chain_rule``, ``validate_g_algebra`` and ``find_interference``: every
product is asked of ``sp.prod`` or ``sp.products`` inside the state, triple
and word loops, events and tests are frozensets, and exact masses are summed
as ``Fraction``s.  The library builds each product row, image mask and
product list once per call and sums exact states as integer numerators; the
oracle tests require both sides to agree on reports, counts, witness lists,
exception class, message and witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import product as iproduct
from typing import Callable, Iterable, Mapping, Sequence

from orthokit.coarsening import CheckedCoherence, validate_coherence
from orthokit.compounding import (
    IMPOSSIBLE,
    CheckedSequential,
    SequentialProduct,
    SequentialReport,
    defined_products,
    truncated_compound,
)
from orthokit.errors import (
    NotAState,
    NotGAlgebra,
    NotSequential,
    UsageError,
    check_cap_sum,
    check_tolerance,
)
from orthokit.interference import GAlgebra, InterferenceWitness, _is_commutative
from orthokit.states import Model, Weight
from orthokit.testspace import PredicateResult, _ids, event_key
from frozenset_oracles import event_product


def validate_sequential(
    model: Model,
    sp: SequentialProduct,
    probe_depth: int = 2,
    cap: int | None = None,
    states: Sequence[Weight] | None = None,
) -> CheckedSequential:
    """The per-state, per-triple loops of ``compounding.validate_sequential``."""
    if probe_depth < 1:
        raise UsageError("probe depth must be at least 1")
    space = model.space
    n = space.n_outcomes
    e = sp.unit

    for x in range(n):
        if sp.prod(e, x) != x or sp.prod(x, e) != x:
            raise NotSequential("unit law fails", witness=x)
    unit_points = n

    assoc_checked = assoc_skipped = 0
    for x in range(n):
        for y in range(n):
            xy = sp.prod(x, y)
            for z in range(n):
                yz = sp.prod(y, z)
                lhs = sp.prod(xy, z) if xy is not None else None
                rhs = sp.prod(x, yz) if yz is not None else None
                if lhs is None or rhs is None:
                    assoc_skipped += 1
                    continue
                if lhs != rhs:
                    raise NotSequential("associativity fails", witness=(x, y, z))
                assoc_checked += 1

    orth_checked = 0
    orth = space._orth_table()
    for x in range(n):
        for y in _ids(orth[x]):
            for z in range(n):
                zx, zy = sp.prod(z, x), sp.prod(z, y)
                if zx is not None and zy is not None:
                    orth_checked += 1
                    if not orth[zx] >> zy & 1:
                        raise NotSequential(
                            "left translation breaks orthogonality", witness=(z, x, y)
                        )
            for z in range(n):
                for w in range(n):
                    xz, yw = sp.prod(x, z), sp.prod(y, w)
                    if xz is not None and yw is not None:
                        orth_checked += 1
                        if not orth[xz] >> yw & 1:
                            raise NotSequential(
                                "products of orthogonal heads are not orthogonal",
                                witness=(x, z, y, w),
                            )

    if frozenset([e]) not in space.test_set:
        raise NotSequential("the unit must carry its own test", witness=e)

    # Inductivity, by counting distinct images (see the docstring).
    tests = space.tests
    rows = [[event_product(sp, (x,), s) for s in tests] for x in range(n)]
    images = [set(row) - {None} for row in rows]
    regions = [frozenset().union(*distinct) for distinct in images]
    ind_checked = ind_skipped = 0
    for t in tests:
        xs = sorted(t)
        covered = frozenset().union(*(regions[x] for x in xs))
        parts = [tuple(u & regions[x] for x in xs) for u in tests if u <= covered]
        parts = [p for p in parts if all(q in images[x] for q, x in zip(p, xs))]
        defined = math.prod(len(tests) - rows[x].count(None) for x in xs)
        ind_checked += defined
        ind_skipped += len(tests) ** len(xs) - defined
        if len(parts) == math.prod(len(images[x]) for x in xs):
            continue
        # the first failing choice: fix each position to the first test whose
        # image leaves fewer tests than completions of the later positions
        choice = []
        for i, x in enumerate(xs):
            completions = math.prod(len(images[y]) for y in xs[i + 1 :])
            for fi, image in enumerate(rows[x]):
                matching = [p for p in parts if p[i] == image]
                if image is not None and len(matching) < completions:
                    choice.append(fi)
                    parts = matching
                    break
        raise NotSequential(
            "branch assignment leaves the test family", witness=(t, tuple(choice))
        )

    # States: marginals equal the state itself; conditionals stay states.
    candidates = list(states) if states is not None else model.state_vertices(cap)
    zero = Fraction(0) if model.exact else 0.0
    rows_checked = 0
    for w in candidates:
        verdict = check_chain_rule(model, sp, w)
        if not verdict:
            raise NotSequential(
                "marginal over a follow-up test differs from the state", witness=verdict.witness
            )
        for x in range(n):
            if model._eq(w[x], 0) or sp.products((x, y) for y in range(n)) is None:
                continue
            row = [sp.prod(x, y) for y in range(n)]
            cond = Weight(tuple(zero if p is None else w[p] / w[x] for p in row))
            rows_checked += 1
            if not model.contains_state(cond):
                raise NotSequential("conditional state escapes the state space", witness=x)

    # Evaluation of short strings back into the model.
    tc = truncated_compound(model, probe_depth, cap)
    domain = []
    values = {}
    for sid, s in enumerate(tc.strings):
        v = sp.prod_string(s)
        if v is not None:
            domain.append(sid)
            values[sid] = v
    dom = frozenset(domain)
    for x in range(n):
        if values.get(tc.id_of((x,))) != x:
            raise NotSequential("string evaluation does not extend the identity", witness=x)
    cspace = tc.model.space
    for t in cspace.tests:
        live = sorted(t & dom)
        img = frozenset(values[i] for i in live)
        if len(img) != len(live):
            raise NotSequential("string evaluation collapses a test", witness=t)
        if sp.undefined_means == IMPOSSIBLE or len(live) == len(t):
            if img and img not in space.test_set:
                raise NotSequential(
                    "string evaluation does not preserve tests", witness=t
                )
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
        evaluation_domain=len(domain),
        evaluation_total=len(tc.strings),
    )
    return CheckedSequential(model, sp, report)


def check_chain_rule(
    model: Model, sp: SequentialProduct, w: Weight
) -> PredicateResult:
    """``compounding.check_chain_rule``, one ``sp.products`` call per (test, outcome)."""
    n = model.space.n_outcomes
    if len(w) != n:
        raise NotAState("weight length does not match outcome count")
    for t in model.space.tests:
        for x in range(n):
            defined = sp.products((x, y) for y in t)
            if defined is None:
                continue
            total = 0
            for p in defined:
                total = total + w[p]
            if not model._eq(total, w[x]):
                return PredicateResult(False, (x, t))
    return PredicateResult(True)



def validate_g_algebra(
    model: Model,
    sigma: CheckedCoherence | Mapping[frozenset, int],
    sp: CheckedSequential | SequentialProduct,
    probe_depth: int = 2,
    cap: int | None = None,
    states=None,
) -> GAlgebra:
    """``interference.validate_g_algebra``, folding frozenset event products."""
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

    def fold(factors):  # None out of window, empty when impossible
        acc = factors[0]
        for nxt in factors[1:]:
            acc = event_product(prod, acc, nxt)
            if acc is None:
                break
        return acc

    checked = skipped = 0
    for k in range(1, probe_depth + 1):
        for word in iproduct(events, repeat=k):
            ev_prod = fold(word)
            # the product of the collapses, as an event of at most one outcome
            out_prod = fold([frozenset([table[ev]]) for ev in word])
            if ev_prod is None or out_prod is None or not (ev_prod or out_prod):
                skipped += 1
                continue
            if not ev_prod:
                raise NotGAlgebra(
                    "collapsed product defined on an impossible event string", witness=word
                )
            if not out_prod:
                raise NotGAlgebra(
                    "product of collapses undefined on a possible event string",
                    witness=word,
                )
            lhs = table.get(ev_prod)
            if lhs is None:
                raise NotGAlgebra(
                    "setwise product of events is not an event", witness=word
                )
            if out_prod != {lhs}:
                raise NotGAlgebra(
                    "collapse is not multiplicative over the product", witness=word
                )
            checked += 1
    commutative = _is_commutative(model, prod)
    return GAlgebra(model, checked_sigma, checked_sp, commutative, checked, skipped)



def find_interference(
    model: Model,
    sigma: Mapping[frozenset, int] | CheckedCoherence,
    prod: SequentialProduct | Callable[[int, int], int | None],
    states: Sequence[Weight] | None = None,
    tol: float | None = None,
    witnesses_from: Iterable[int] | None = None,
    cap: int | None = None,
) -> list[InterferenceWitness]:
    """``interference.find_interference``, with the product lists rebuilt per state."""
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
    scan_events = sorted(table, key=event_key)
    out: list[InterferenceWitness] = []
    for si, w in enumerate(states):
        for a in scan_events:
            collapsed = table[a]
            for y in witness_pool:
                cy = products([(collapsed, y)])
                members = products((x, y) for x in sorted(a))
                if cy is None or members is None:
                    continue
                coherent = w[cy[0]] if cy else 0
                incoherent = 0
                for xy in members:
                    incoherent = incoherent + w[xy]
                gap = coherent - incoherent
                if (model.exact and gap != 0) or (not model.exact and abs(gap) > tol):
                    out.append(InterferenceWitness(si, a, y, coherent, incoherent))
    return out
