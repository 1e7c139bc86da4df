"""Frozenset reference implementations of the test-space predicates.

These are the straightforward event-by-event versions of ``events``,
``is_event``, ``complements``, ``perspective``, ``orthocomplement``, the
complement buckets, ``algebraic``, ``regular`` and ``coherent``, the
pairwise antichain scan, the classes, sum table and atomic outcomes of
the logic, the four morphism conditions with the derived flags and the
image core, the componentwise perspectivity, marginals, unit-level and
tower checks and nonatomicity witnesses of forward products and compounds,
the closed sets of the ortho-closure lattice, and ``event_product``, the
setwise product of two events under a sequential product, which the oracles
of the other modules use.  The library decides the
same questions on integer bitmasks; the oracle tests require both to agree
on verdict, witness and whether the cap is exceeded.  ``support_by_perspectivity`` is a second
criterion for ``TestSpace.is_support``, which decides supports by traces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from orthokit.compounding import (
    adjoin_unit_model,
    forward_product,
    string_label,
    truncated_compound,
)
from orthokit.errors import (
    CapCounter,
    HypothesisUnmet,
    ImageNotEvent,
    ImagesNotPerspective,
    LawViolation,
    NotLocallyInjective,
    NumericKindMismatch,
    UsageError,
    ZeroMarginal,
)
from orthokit.morphisms import Morphism, _check_state_condition
from orthokit.states import Weight
from orthokit.testspace import PredicateResult, event_key

# Work cap of ``support_by_perspectivity``: the complement-bucket pass
# (sum of 2^|t| over tests t) it will run.
SUPPORT_WORK_CAP = 50_000


def events(space, cap=None):
    """All events, each exactly once, the empty event included."""
    counter = CapCounter("events", cap)
    if space.tests and 2 ** max(len(t) for t in space.tests) > counter.cap:
        counter.tick(counter.cap + 1)
    seen = set()
    for t in space.tests:
        members = sorted(t)
        for r in range(len(members) + 1):
            for combo in combinations(members, r):
                a = frozenset(combo)
                if a in seen:
                    continue
                counter.tick()
                seen.add(a)
                yield a


def is_event(space, a):
    a = frozenset(a)
    return any(a <= t for t in space.tests)


def complements(space, a):
    a = frozenset(a)
    return tuple(sorted((t - a for t in space.tests if a <= t), key=event_key))


def perspective(space, a, b):
    """The lexicographically least common complement of a and b, or None."""
    ca = set(complements(space, a))
    common = [c for c in complements(space, b) if c in ca]
    return min(common, key=event_key) if common else None


@lru_cache(maxsize=64)
def _neighbours(tests):
    """Per outcome, the outcomes sharing a test with it, itself excepted."""
    shared = {}
    for t in tests:
        for x in t:
            shared[x] = shared.get(x, frozenset()) | t
    return {x: others - {x} for x, others in shared.items()}


def orthocomplement(space, a):
    """Outcomes orthogonal to each x in a: those sharing a test with x, x itself excepted."""
    got = frozenset(range(space.n_outcomes))
    neighbours = _neighbours(space.tests)
    for x in a:
        got &= neighbours.get(x, frozenset())
    return got


def complement_buckets(space, cap=None):
    """Map each complement event to the list of events it complements."""
    counter = CapCounter("complement buckets", cap)
    total = sum(2 ** len(t) for t in space.tests)
    if total > counter.cap:
        counter.tick(total)
    buckets = {}
    for t in space.tests:
        members = sorted(t)
        for r in range(len(members) + 1):
            for combo in combinations(members, r):
                counter.tick()
                a = frozenset(combo)
                buckets.setdefault(t - a, []).append(a)
    return buckets


def algebraic(space, cap=None):
    for evs in complement_buckets(space, cap).values():
        key0 = None
        for b in evs:
            kb = frozenset(complements(space, b))
            if key0 is None:
                key0 = kb
                first = b
            elif kb != key0:
                if kb - key0:
                    a, bb, extra = first, b, kb - key0
                else:
                    a, bb, extra = b, first, key0 - kb
                return PredicateResult(False, (a, bb, min(extra, key=event_key)))
    return PredicateResult(True)


def coherent(space, cap=None):
    evs = list(events(space, cap))
    counter = CapCounter("coherence pairs", cap)
    counter.tick(len(evs) * len(evs))
    for b in sorted(evs, key=event_key):
        if not b:
            continue
        perp = orthocomplement(space, b)
        for a in sorted(evs, key=event_key):
            if a and a <= perp and not space.events_orthogonal(a, b):
                return PredicateResult(False, (a, b))
    return PredicateResult(True)


def regular(space, cap=None):
    for evs in complement_buckets(space, cap).values():
        p0 = None
        for b in evs:
            pb = orthocomplement(space, b)
            if p0 is None:
                p0, first = pb, b
            elif pb != p0:
                return PredicateResult(False, (first, b))
    return PredicateResult(True)


def is_antichain(sets):
    """The first (small, large) proper-subset pair in size-then-lexicographic order."""
    family = sorted(set(sets), key=lambda s: (len(s), event_key(s)))
    for i, small in enumerate(family):
        for large in family[i + 1 :]:
            if small < large:
                return small, large
    return None


def support_by_perspectivity(space, s, buckets=None):
    """Support by perspectivity: a ~ b and a disjoint from S force b disjoint from S.

    Perspective events are the events of one complement bucket.  Returns
    None when the bucket pass would exceed ``SUPPORT_WORK_CAP``.  Pass the
    space's ``complement_buckets`` to reuse them across subsets.
    """
    if sum(2 ** len(t) for t in space.tests) > SUPPORT_WORK_CAP:
        return None
    if buckets is None:
        buckets = complement_buckets(space, SUPPORT_WORK_CAP)
    s = frozenset(s)
    for evs in buckets.values():
        hit = [bool(a & s) for a in evs]
        if any(hit) and not all(hit):
            return False
    return True


def logic(space):
    """(reps, class_of, oplus) of the logic of an algebraic space.

    Events in ``event_key`` order fall into classes keyed by their complement
    sets, each represented by its first event; ``oplus`` records each split of
    each test, in test order, into two disjoint events.  Raises ``ValueError``
    when a sum of classes is ambiguous.
    """
    key_to_class, reps, class_of = {}, [], {}
    for a in sorted(events(space, 10**12), key=event_key):
        cls = key_to_class.setdefault(frozenset(complements(space, a)), len(reps))
        if cls == len(reps):
            reps.append(a)
        class_of[a] = cls
    oplus = {}
    for t in space.tests:
        members = sorted(t)
        for split in product((0, 1, 2), repeat=len(members)):
            a = frozenset(x for x, side in zip(members, split) if side == 1)
            b = frozenset(x for x, side in zip(members, split) if side == 2)
            s = oplus.setdefault((class_of[a], class_of[b]), class_of[a | b])
            if s != class_of[a | b]:
                raise ValueError(f"sum of classes {class_of[a]}, {class_of[b]} is ambiguous")
    return reps, class_of, oplus


def outcome_is_atomic(space, x):
    """Every test holding a complement c of {x} leaves exactly one outcome outside c."""
    for c in complements(space, {x}):
        for t in space.tests:
            if c <= t and len(t - c) != 1:
                return False
    return True


def validate_morphism(source, target, mapping, cap=None):
    """The four morphism conditions, with each test image built as a frozenset."""
    if source.exact != target.exact:
        raise NumericKindMismatch("a morphism joins two exact or two float models")
    src, dst = source.space, target.space
    if callable(mapping):
        mapping = tuple(mapping(x) for x in range(src.n_outcomes))
    elif isinstance(mapping, dict):
        if any(x not in mapping for x in range(src.n_outcomes)):
            raise UsageError("mapping must be total on the source outcomes")
        mapping = tuple(mapping[x] for x in range(src.n_outcomes))
    else:
        mapping = tuple(mapping)
    if len(mapping) != src.n_outcomes:
        raise UsageError("mapping must be total on the source outcomes")
    for fx in mapping:
        if not (isinstance(fx, int) and 0 <= fx < dst.n_outcomes):
            raise UsageError(f"image id {fx!r} outside the target outcome range")
    for t in src.tests:
        members = sorted(t)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if not dst.orthogonal(mapping[x], mapping[y]):
                    raise NotLocallyInjective(
                        f"{src.labels[x]},{src.labels[y]} are orthogonal but their "
                        "images are not",
                        witness=(x, y),
                    )
    images = [frozenset(mapping[x] for x in t) for t in src.tests]
    for t, img in zip(src.tests, images):
        if not dst.is_event(img):
            raise ImageNotEvent(f"image of test {src.labels_of(t)} is not an event", witness=t)
    test_preserving, embedding = flags(src, dst, mapping)
    if not test_preserving:
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if not dst.is_perspective(images[i], images[j]):
                    raise ImagesNotPerspective(
                        "test images are not perspective", witness=(src.tests[i], src.tests[j])
                    )
    d_status = _check_state_condition(source, target, mapping, cap)
    return Morphism(source, target, mapping, test_preserving, embedding, d_status)


def flags(src, dst, mapping):
    """(test_preserving, embedding) of an outcome map between two spaces."""
    test_preserving = all(frozenset(mapping[x] for x in t) in dst.test_set for t in src.tests)
    return test_preserving, test_preserving and len(set(mapping)) == len(mapping)


def image_core(phi):
    """The outcomes common to the image of every source test."""
    images = [phi.image(t) for t in phi.source.space.tests]
    out = images[0]
    for img in images[1:]:
        out &= img
    return out


# -- forward products, compounds and the closure lattice ------------------------------


def decompose(fp, event):
    """A product event's first-stage event and its fiber after each first outcome."""
    first = {}
    for i in event:
        x, y = fp.outcome_pair[i]
        first.setdefault(x, set()).add(y)
    return frozenset(first), {x: frozenset(ys) for x, ys in first.items()}


def fp_perspective_by_parts(fp, a, b):
    """Perspective first stages, perspective shared fibers, whole unshared fibers."""
    ao, afib = decompose(fp, frozenset(a))
    bo, bfib = decompose(fp, frozenset(b))
    ls, rs = fp.left.space, fp.right.space
    if perspective(ls, ao, bo) is None:
        return False
    if not all(perspective(rs, afib[z], bfib[z]) is not None for z in ao & bo):
        return False
    return all(afib[x] in rs.test_set for x in ao - bo) and all(
        bfib[y] in rs.test_set for y in bo - ao
    )


def marginal_and_conditional(fp, w, x):
    """The first-stage marginal at x, summed over each follow-up test, and the
    conditional state after x."""
    model, rs = fp.model, fp.right.space
    sums = [sum((w[fp.pair(x, y)] for y in t), start=0) for t in rs.tests]
    for s in sums[1:]:
        if not model._eq(s, sums[0]):
            raise LawViolation("marginal depends on the follow-up test")
    marg = sums[0]
    if model._eq(marg, 0):
        raise ZeroMarginal(f"outcome {fp.left.space.labels[x]} has zero marginal")
    return marg, Weight(tuple(w[fp.pair(x, y)] / marg for y in range(rs.n_outcomes)))


def marginal_weight(fp, w):
    t0 = fp.right.space.tests[0]
    return Weight(
        [sum((w[fp.pair(x, y)] for y in t0), start=0) for x in range(fp.left.space.n_outcomes)]
    )


def event_product(sp, a, b):
    """The setwise product of events a and b; None when a needed pair is out of window."""
    out = sp.products(product(a, b))
    return None if out is None else frozenset(out)


def tests_as_strings(tc):
    return {frozenset(tc.strings[i] for i in t) for t in tc.model.space.tests}


def check_unit_level(model, cap=None):
    """The depth-one compound's tests and generators, each string sent to its
    letter and the empty string to the adjoined unit, are the unit adjunction's."""
    tc = truncated_compound(model, 1, cap)
    prime, unit = adjoin_unit_model(model, label="@unit@")

    def translate(sid):
        s = tc.strings[sid]
        return unit if not s else s[0]

    tc_tests = {frozenset(translate(i) for i in t) for t in tc.model.space.tests}
    if tc_tests != set(prime.space.tests):
        raise LawViolation("depth-one compound tests differ from the unit adjunction")
    if not model.states.is_full:
        n = model.space.n_outcomes
        lhs = {
            tuple(g[tc.id_of((x,))] for x in range(n)) + (g[tc.id_of(())],)
            for g in tc.model.states.generators
        }
        if lhs != {g.values for g in prime.states.generators}:
            raise LawViolation("depth-one compound states differ from the unit adjunction")


def check_tower_recursion(model, depth, cap=None):
    """The two-stage tests of (unit-adjoined model, depth-d compound), each
    (unit, s) sent to s and (x, s) to x·s, are the depth-(d+1) tests."""
    tc_n = truncated_compound(model, depth, cap)
    tc_n1 = truncated_compound(model, depth + 1, cap)
    prime, unit = adjoin_unit_model(model, label="@unit@")
    fp = forward_product(prime, tc_n.model, cap)
    image = set()
    for t in fp.model.space.tests:
        out = set()
        for i in t:
            x, sid = fp.outcome_pair[i]
            s = tc_n.strings[sid]
            out.add(s if x == unit else (x,) + s)
        image.add(frozenset(tc_n1.id_of(s) for s in out))
    actual = set(tc_n1.model.space.tests)
    if image != actual:
        raise LawViolation("tower recursion mismatch between depths")
    return len(actual)


def nonatomicity_report(tc):
    """(string, its extension by the least wide base test, their axis) for each
    string shorter than the depth."""
    base = tc.base.space
    wide = [t for t in base.tests if len(t) >= 2]
    if not wide:
        raise HypothesisUnmet("nonatomicity needs a base test with two outcomes")
    target_test = min(wide, key=event_key)
    out = []
    for sid, s in enumerate(tc.strings):
        if len(s) > tc.depth - 1:
            continue
        extension = frozenset(tc.id_of(s + (x,)) for x in target_test)
        axis = perspective(tc.model.space, frozenset([sid]), extension)
        if axis is None:
            raise LawViolation(f"string {string_label(base, s)} has no axis to its extension")
        out.append((s, extension, axis))
    return out


def closed_set_lattice(space, cap=None):
    """The ortho-closed sets: the whole outcome set and the intersections of the
    outcomes' orthocomplements, in ``event_key`` order."""
    counter = CapCounter("closed sets", cap)
    gens = {orthocomplement(space, {x}) for x in range(space.n_outcomes)}
    closed = {frozenset(range(space.n_outcomes))} | gens
    frontier = list(closed)
    while frontier:
        s = frontier.pop()
        for g in gens:
            t = s & g
            if t not in closed:
                counter.tick()
                closed.add(t)
                frontier.append(t)
    return tuple(sorted(closed, key=event_key))
