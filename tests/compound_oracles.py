"""Reference constructions and pool scans for forward products and compounds.

``worklist_compound`` grows the tests of a truncated compound as a fixed
point: starting from the root test, every test branches each of its strings
that is shorter than the depth into a base test (or lets it stop), and every
new union is queued until nothing new appears.  ``enumerated_forward_product``
lists the two-stage tests one follow-up choice at a time and de-duplicates
the product generators with a seen set; it builds a pair row for every
choice of follow-up rows, also at outcomes the first state does not weigh,
where the library keeps the first row.  The library builds both by the tower
recursion on one branching kernel; the oracle tests require the two sides to
agree on strings, labels, tests (in order) and generators (in order), and on
where the test caps raise.

The pool scans decide unitality and strong unitality by enumerating spanning
weights of the state space: the vertices of a full model, the generators of
a hull.  ``pool_witnesses`` scans a base model's pool for certainty,
positivity and strong-unitality witnesses; the library asks the model's
``certainty_witness``, ``positive_witness`` and ``strong_witness``, which
solve covering LPs and enumerate no vertex.  ``pair_state_forward_unitality``
reads the two entries it checks off a whole pair state; the library
evaluates only those two.  ``pair_loop_compound_unitality`` reads the pairs
off the compound's orthogonality table and evaluates both reads of every
pair; the library decides orthogonality from the base and evaluates each
distinct read once.

``exhaustive_inductivity`` tries every branch assignment of every test, all
|T|^k of them for a test of k outcomes; the library decides the same by
counting the tests made of distinct images.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from orthokit.compounding import (
    ForwardProduct,
    JOIN,
    SequentialProduct,
    TruncatedCompound,
    _certainty_test,
    _prefix_product,
    _witness_tables,
    string_label,
    transition_state,
)
from orthokit.errors import CapCounter, EnumerationCapExceeded, LawViolation, UsageError
from orthokit.states import Model, StateSpace, Weight
from orthokit.testspace import TestSpace
from frozenset_oracles import event_product


def worklist_compound(
    model: Model, depth: int, cap: int | None = None, generator_cap: int = 4096
) -> TruncatedCompound:
    """Close the one-stage tests under branch-and-stop up to the given depth."""
    if depth < 0:
        raise UsageError("depth must be nonnegative")
    base = model.space
    strings: list[tuple[int, ...]] = [()]
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for x in range(base.n_outcomes):
                nxt.append(s + (x,))
        strings.extend(nxt)
        frontier = nxt
    strings.sort(key=lambda s: (len(s), s))
    string_id = {s: i for i, s in enumerate(strings)}
    counter = CapCounter("compound tests", cap)
    root = frozenset([string_id[()]])
    tests = {root}
    work = [root]
    while work:
        t = work.pop()
        members = sorted(t)
        options = []
        for sid in members:
            s = strings[sid]
            opts = [None]
            if len(s) < depth:
                opts.extend(range(len(base.tests)))
            options.append(opts)
        for choice in iproduct(*options):
            if all(c is None for c in choice):
                continue
            counter.tick()
            new = set()
            for sid, c in zip(members, choice):
                if c is None:
                    new.add(sid)
                else:
                    s = strings[sid]
                    for x in base.tests[c]:
                        new.add(string_id[s + (x,)])
            ft = frozenset(new)
            if ft not in tests:
                tests.add(ft)
                work.append(ft)
    labels = tuple(string_label(base, s) for s in strings)
    space = TestSpace(labels, [sum(1 << i for i in t) for t in tests])
    if model.states.is_full:
        states = StateSpace.full()
    else:
        gens = model.states.generators
        prefixes = [s for s in strings if len(s) < depth]
        total = len(gens) ** len(prefixes) if prefixes else 1
        if total > generator_cap:
            raise EnumerationCapExceeded("compound generators", generator_cap, total)
        out = []
        for assign in iproduct(range(len(gens)), repeat=len(prefixes)):
            row = {p: gens[g] for p, g in zip(prefixes, assign)}
            vals = []
            for s in strings:
                v = Fraction(1) if model.exact else 1.0
                for i in range(len(s)):
                    v = v * row[s[:i]][s[i]]
                vals.append(v)
            out.append(Weight(tuple(vals)))
        seen = set()
        uniq = [g for g in out if not (g.values in seen or seen.add(g.values))]
        states = StateSpace.hull(uniq)
    compound_model = Model(space, states, exact=model.exact, tol=model.tol)
    return TruncatedCompound(model, depth, compound_model, tuple(strings), string_id)


def worklist_choices(space: TestSpace, depth: int) -> int:
    """The candidate choices ``worklist_compound`` makes, without running it.

    Each test is popped once and makes (N + 1)^short - 1 choices, N the
    number of base tests and ``short`` its strings below the depth.  With
    g_0 = 1, g_k = (N + 1) + sum_e g_{k-1}^|e| (the tests weighted by
    (N + 1)^short) and n_k the same with 1 for N + 1 (the test count), the
    total is g_depth - n_depth.
    """
    weight, count = 1, 1
    for _ in range(depth):
        weight = len(space.tests) + 1 + sum(weight ** len(e) for e in space.tests)
        count = 1 + sum(count ** len(e) for e in space.tests)
    return weight - count


def enumerated_forward_product(
    left: Model, right: Model, cap: int | None = None
) -> ForwardProduct:
    """All two-stage tests: a first test, then a chosen follow-up per outcome."""
    ls, rs = left.space, right.space
    pairs = [(x, y) for x in range(ls.n_outcomes) for y in range(rs.n_outcomes)]
    pair_id = {p: i for i, p in enumerate(pairs)}
    labels = [f"{ls.labels[x]}{JOIN}{rs.labels[y]}" for x, y in pairs]
    counter = CapCounter("forward-product tests", cap)
    tests = []
    for e in ls.tests:
        members = sorted(e)
        for choice in iproduct(range(len(rs.tests)), repeat=len(members)):
            counter.tick()
            t = frozenset(
                pair_id[(x, y)]
                for x, fi in zip(members, choice)
                for y in rs.tests[fi]
            )
            tests.append(t)
    space = TestSpace(labels, [sum(1 << i for i in t) for t in tests])
    if left.states.is_full and right.states.is_full:
        states = StateSpace.full()
    else:
        lgens = left.states.generators or tuple(left.state_vertices(cap))
        rgens = right.states.generators or tuple(right.state_vertices(cap))
        gens = []
        counter2 = CapCounter("forward-product generators", cap)
        for alpha in lgens:
            for assign in iproduct(range(len(rgens)), repeat=ls.n_outcomes):
                counter2.tick()
                gens.append(
                    Weight(
                        tuple(alpha[x] * rgens[assign[x]][y] for x, y in pairs)
                    )
                )
        seen = set()
        uniq = []
        for g in gens:
            if g.values not in seen:
                seen.add(g.values)
                uniq.append(g)
        states = StateSpace.hull(uniq)
    model = Model(space, states, exact=left.exact, tol=left.tol)
    return ForwardProduct(left, right, model, tuple(pairs), pair_id)


# -- pool scans ----------------------------------------------------------------------


def vertex_or_generator_pool(model: Model, pool_cap: int) -> list[Weight]:
    if model.states.is_full:
        return model.state_vertices(cap=pool_cap)
    return list(model.states.generators)


def pool_witnesses(model: Model, pool_cap: int = 20_000):
    """Certainty, positivity and strong-unitality witnesses found in the pool.

    Returns three dicts: outcome -> certain state, outcome -> positive state,
    and (x, y) -> state certain of x and positive at y for every pair that
    is not orthogonal (the diagonal included); None where the pool has none.
    """
    pool = vertex_or_generator_pool(model, pool_cap)
    n = model.space.n_outcomes
    unital = {x: next((w for w in pool if model._eq(w[x], 1)), None) for x in range(n)}
    positive = {x: next((w for w in pool if w[x] > 0), None) for x in range(n)}
    strong = {
        (x, y): next((w for w in pool if model._eq(w[x], 1) and w[y] > 0), None)
        for x in range(n)
        for y in range(n)
        if x == y or not model.space.orthogonal(x, y)
    }
    return unital, positive, strong


def transition_vertex_pool(
    tc: TruncatedCompound, pool_cap: int = 20_000
) -> list[Weight] | None:
    """Spanning weights of a compound's state space, via extreme rows.

    Every state is a transition state, mixtures of rows mix the induced
    states multilinearly, so assigning extreme base states to the proper
    prefixes spans the whole state space.  Returns None when the assignment
    count would exceed the cap.
    """
    base_pool = vertex_or_generator_pool(tc.base, pool_cap)
    prefixes = [s for s in tc.strings if len(s) < tc.depth]
    if len(base_pool) ** max(len(prefixes), 1) > pool_cap:
        return None
    out = []
    for assign in iproduct(range(len(base_pool)), repeat=len(prefixes)):
        rows = {p: base_pool[g] for p, g in zip(prefixes, assign)}
        out.append(transition_state(tc, rows))
    return out


def forward_vertex_pool(fp: ForwardProduct, pool_cap: int = 20_000) -> list[Weight] | None:
    """Spanning weights of a forward product's state space."""
    left_pool = vertex_or_generator_pool(fp.left, pool_cap)
    right_pool = vertex_or_generator_pool(fp.right, pool_cap)
    n = fp.left.space.n_outcomes
    if len(left_pool) * len(right_pool) ** n > pool_cap:
        return None
    out = []
    for alpha in left_pool:
        for assign in iproduct(range(len(right_pool)), repeat=n):
            out.append(fp.state(alpha, lambda x: right_pool[assign[x]]))
    return out


def _pool_unital(model: Model, pool) -> bool:
    return all(
        any(model._eq(w[x], 1) for w in pool) for x in range(model.space.n_outcomes)
    )


def _pool_strongly_unital(model: Model, pool) -> bool:
    space = model.space
    for x in range(space.n_outcomes):
        ones = [w for w in pool if model._eq(w[x], 1)]
        for y in range(space.n_outcomes):
            if x != y and space.orthogonal(x, y):
                continue
            if not any(w[y] > 0 for w in ones):
                return False
    return True


def pair_state_forward_unitality(fp: ForwardProduct):
    """``forward_unitality`` building the whole pair state for every checked pair."""
    left, right = fp.left, fp.right
    space = fp.model.space
    unital_ok = all(
        left.certainty_witness(x) is not None and right.certainty_witness(y) is not None
        for (x, y) in fp.outcome_pair
    )
    # entry i multiplies a left and a right weight, each certain within its tol
    slack = (1 + Fraction(left.tol)) * (1 + Fraction(right.tol)) - 1
    su_ok = True
    for i, (x, y) in enumerate(fp.outcome_pair):
        for j, (u, v) in enumerate(fp.outcome_pair):
            if i == j or space.orthogonal(i, j):
                continue
            if x == u:
                alpha, beta = left.certainty_witness(x), right.strong_witness(y, v)
                ok = alpha is not None and beta is not None
                if ok:
                    state = fp.state(alpha, beta)
            else:
                alpha = left.strong_witness(x, u)
                betas = (right.certainty_witness(y), right.positive_witness(v))
                ok = alpha is not None and all(b is not None for b in betas)
                if ok:
                    # entries i and j never read the rows after other outcomes
                    table = {x: betas[0], u: betas[1]}
                    state = fp.state(alpha, lambda z: table.get(z, betas[0]))
            if not ok:
                su_ok = False
                continue
            if not (abs(state[i] - 1) <= slack and state[j] > 0):
                raise LawViolation(
                    f"strong-unitality witness fails on outcome pairs {(x, y)}, {(u, v)}"
                )
    return unital_ok, su_ok and unital_ok


def pair_loop_compound_unitality(tc: TruncatedCompound):
    """``compound_unitality`` over every pair of strings that the compound's
    own orthogonality table does not exclude, both reads evaluated per pair."""
    base = tc.base
    certain, positive, strong = _witness_tables(base)
    certain_at = [_certainty_test((base.tol,) * k) for k in range(max(map(len, tc.strings)) + 1)]

    def evaluate(rows: dict, s: tuple) -> object:
        return _prefix_product(rows.__getitem__, s, 1)

    unital_ok = True
    for s in tc.strings:
        pins = {s[:i]: certain[x] for i, x in enumerate(s)}
        if any(w is None for w in pins.values()):
            unital_ok = False
        elif not certain_at[len(s)](evaluate(pins, s)):
            raise LawViolation(f"certainty witness fails on string {s}")
    su_ok = True
    n = len(tc.strings)
    orth = tc.model.space._orth_table()
    for i in range(n):
        s = tc.strings[i]
        for j in range(n):
            t = tc.strings[j]
            if i == j or orth[i] >> j & 1:
                continue
            k = 0
            while k < len(s) and k < len(t) and s[k] == t[k]:
                k += 1
            pins = {s[:idx]: certain[x] for idx, x in enumerate(s)}
            # diverging strings need a strong-unitality witness where they
            # part; when one extends the other, certainty along the shorter
            # chain rides for free on the longer one
            if k < len(s) and k < len(t):
                pins[s[:k]] = strong[s[k], t[k]]
            if any(w is None for w in pins.values()):
                su_ok = False
                continue
            for idx in range(k, len(t)):
                pins.setdefault(t[:idx], positive[t[idx]])
            if not (certain_at[len(s)](evaluate(pins, s)) and evaluate(pins, t) > 0):
                raise LawViolation(f"strong-unitality witness fails on strings {s}, {t}")
    # with diagonal pairs included, strong unitality subsumes unitality
    return unital_ok, su_ok and unital_ok


def exhaustive_inductivity(space: TestSpace, sp: SequentialProduct):
    """Every branch assignment, in ``iproduct`` order: (checked, skipped, witness).

    The witness is the first (test, choice) whose union of images is not a
    test, or None; the counts stop there.
    """
    checked = skipped = 0
    for t in space.tests:
        members = sorted(t)
        for choice in iproduct(range(len(space.tests)), repeat=len(members)):
            image = set()
            for x, fi in zip(members, choice):
                branch = event_product(sp, (x,), space.tests[fi])
                if branch is None:
                    image = None
                    break
                image |= branch
            if image is None:
                skipped += 1
                continue
            checked += 1
            if frozenset(image) not in space.test_set:
                return checked, skipped, (t, choice)
    return checked, skipped, None
