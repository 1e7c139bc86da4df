"""Finite test spaces and their event combinatorics.

A test space is a finite antichain of nonempty outcome sets (tests); its
outcome space is the union of the tests.  Events are subsets of tests.  Two
events are orthogonal when they are disjoint and their union is still an
event, complementary when they partition a test, and perspective when they
share a complement (an "axis").  On top of these relations sit the
structural predicates (algebraic, coherent, regular, projective), supports,
the core, and the ortho-closure lattice.

Outcomes are interned to dense integer ids.  Inside this module events are
``int`` bitmasks (bit x set when outcome x is in the event), and each
outcome has the bitset of the tests holding it: a set is an event when the
AND of its outcomes' bitsets is nonzero.  At the public API events are
frozensets of ids.  ``build_test_space`` validates; constructions pass
masks to the trusted constructor.  All objects are immutable after
construction but for memos of what depends on the tests alone, read from
snapshots where they grow, and every operation is a pure function, so
concurrent use is safe.  Witness-producing predicates break ties
lexicographically on sorted id sequences so results are reproducible, and
check their cap bound before they enumerate.

Ties are broken on masks.  At the least outcome d in just one of two masks,
the holder of d has the smaller id sequence unless the other's is a prefix.
Lemma 1 (events, :func:`mask_key`): so do the digits from outcome 0 up, 0 and
1 swapped, as strings, prefixes first.  Lemma 2 (tests): an antichain has no
prefixes, so n-bit integers with outcome 0 on top, sorted descending, do too.

``regular`` and ``algebraic`` ask the events of each complement bucket (the
events t∖c over the tests t ⊇ c) to agree, on their orthocomplements or on
their sets of complements; they check only the buckets of intersections of
two tests.  For tests s, t with I = s∩t and c ⊆ I, s∖c is s∖I and I∖c
disjointly.  Lemma 3 (regular): so (s∖c)^⊥ = (s∖I)^⊥ ∩ (I∖c)^⊥, and if s and
t agree at I they agree at every c ⊆ I.  Any two holders of a bucket meet in
such an I, so the space is regular exactly when the bucket of every
intersection of two tests agrees, the empty intersection included.  Lemma 4
(algebraic): e ↦ (I∖c) ∪ e maps the complements of s∖c onto those of s∖I that
hold I∖c, so the same holds with complement sets.  Lemma 5 (witness): the
full pass meets bucket c first at its first holder i, so buckets come in the
order of their first holder, then of i's submasks.  In the first failing
bucket some later holder t disagrees with test i, so by lemma 3 or 4 the
bucket of (test i)∩t fails, and its first holder is i; no failing bucket has
an earlier first holder.  So the first test whose intersections with later
tests include a failing one is i, and a scan of its submasks in enumeration
order finds the witness of the full pass.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt
from typing import Callable, Iterable, Iterator, Sequence

from ._record import Frozen
from .errors import (
    CapCounter,
    EmptyTest,
    LabelCollision,
    LawViolation,
    RedundantTests,
    UncoveredOutcome,
    UnknownLabel,
    UsageError,
    check_cap,
    resolve_cap,
)

Event = frozenset  # events are frozensets of outcome ids
_SWAP = str.maketrans("01", "10")  # the digit swap of mask_key
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


def event_key(a: Iterable[int]) -> tuple[int, ...]:
    """Deterministic sort key for events: the sorted id sequence."""
    return tuple(sorted(a))


def _ids(m: int) -> list[int]:
    """The outcome ids of a mask, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def mask_key(m: int) -> str:
    """Sort key of an event mask that orders like its id sequence (lemma 1)."""
    return bin(m)[:1:-1].translate(_SWAP) if m else ""


def mask_event(m: int) -> frozenset:
    """The event (frozenset of outcome ids) of a mask."""
    return frozenset(_ids(m))


def _submasks(test: int) -> Iterator[int]:
    """Every submask of a test mask, by size and then lexicographically on ids.

    This is the order of ``itertools.combinations`` over the sorted members,
    which fixes the event order and hence which witness is found first.
    """
    bits = [1 << x for x in _ids(test)]
    for r in range(len(bits) + 1):
        yield from map(sum, combinations(bits, r))


class PredicateResult(Frozen):
    """Boolean verdict plus a counterexample witness when it fails."""

    __slots__ = ("holds", "witness")
    _defaults = {"witness": None}

    def __bool__(self) -> bool:
        return self.holds


def _is_antichain(sets: Iterable[frozenset]) -> tuple[frozenset, frozenset] | None:
    """Return a violating (small, large) pair, or None if an antichain.

    Sets are sorted by size, then lexicographically; the pair is the first
    set with a proper superset and the lowest such superset after it.  The
    supersets of a set are the AND of its members' bitsets of set indices
    (every index for the empty set); only later indices can be proper
    supersets, because equal sets are merged and equal sizes cannot nest.
    """
    family = sorted(set(sets), key=lambda s: (len(s), event_key(s)))
    holders: dict[int, int] = {}
    for j, s in enumerate(family):
        for x in s:
            holders[x] = holders.get(x, 0) | 1 << j
    everything = (1 << len(family)) - 1
    for i, s in enumerate(family):
        sup = everything
        for x in s:
            sup &= holders[x]
        sup >>= i + 1
        if sup:
            return family[i], family[i + (sup & -sup).bit_length()]
    return None


class TestSpace:
    """Immutable interned test space.

    The constructor is trusted: it takes test masks that already form an
    antichain of nonempty tests covering every outcome, sorts them into
    canonical order (lemma 2) and checks nothing.  Constructions build their
    outputs this way; data from outside goes through :func:`build_test_space`.
    """

    __slots__ = (
        "labels",
        "label_id",
        "_test_masks",
        "_orth_masks",
        "_tests",
        "_test_set",
        "_holders",
        "_events_cache",
        "_event_masks",
        "_perp_masks",
        "_derived",
    )

    def __init__(self, labels: Sequence[str], test_masks: Iterable[int]):
        self.labels = tuple(labels)
        self.label_id = {lab: i for i, lab in enumerate(self.labels)}
        n, nb = len(self.labels), (len(self.labels) + 7) // 8

        def key(m: int) -> int:  # lemma 2: the masks' n bits reversed, descending
            return int.from_bytes(m.to_bytes(nb, "little").translate(_REV8), "big") >> 8 * nb - n

        self._test_masks = tuple(sorted(test_masks, key=key, reverse=True))
        self._orth_masks: tuple[int, ...] | None = None
        self._tests: tuple[frozenset, ...] | None = None
        self._test_set: frozenset | None = None
        self._holders: tuple[int, ...] | None = None
        self._events_cache: list[frozenset] | None = None
        self._event_masks: list[int] | None = None
        self._perp_masks: dict[int, int] = {}
        self._derived: dict = {}  # by layer: ``states._Polytope``, ``_coarse_space``'s family

    # -- basics ---------------------------------------------------------------

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)

    @property
    def tests(self) -> tuple[frozenset, ...]:
        """The tests as events, in canonical order, built on first use."""
        if self._tests is None:
            self._tests = tuple(map(mask_event, self._test_masks))
        return self._tests

    @property
    def test_set(self) -> frozenset:
        """The tests as a set of events, built on first use."""
        if self._test_set is None:
            self._test_set = frozenset(self.tests)
        return self._test_set

    def __repr__(self) -> str:
        shown = [sorted(self.labels[x] for x in t) for t in self.tests]
        return f"TestSpace({shown})"

    def outcome(self, label: str) -> int:
        try:
            return self.label_id[label]
        except KeyError:
            raise UnknownLabel(f"no outcome labelled {label!r}") from None

    def event_of(self, labels: Iterable[str]) -> frozenset:
        return frozenset(self.outcome(lab) for lab in labels)

    def labels_of(self, event: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.labels[x] for x in sorted(event))

    def orthogonal(self, x: int, y: int) -> bool:
        orth = self._orth_masks or self._orth_table()
        return 0 <= x < len(orth) and 0 <= y and orth[x] >> y & 1 == 1

    def _orth_table(self) -> tuple[int, ...]:
        """Per outcome, the mask of the outcomes orthogonal to it, built on first use."""
        if self._orth_masks is None:
            orth = [0] * len(self.labels)
            for m in self._test_masks:
                for x in _ids(m):
                    orth[x] |= m
            self._orth_masks = tuple(m & ~(1 << x) for x, m in enumerate(orth))
        return self._orth_masks

    def is_event(self, a: Iterable[int]) -> bool:
        m = self._mask_of(a)
        return m is not None and self._tests_holding(m) != 0

    def _mask_of(self, a: Iterable[int]) -> int | None:
        """The mask of ``a``, or None when an id is not an outcome (checked first:
        ``1 << x`` raises on a negative x, and a table indexed by x wraps)."""
        m, n = 0, len(self.labels)
        for x in a:
            if not (isinstance(x, int) and 0 <= x < n):
                return None
            m |= 1 << x
        return m

    def _tests_holding(self, a: int) -> int:
        """Bitset of the indices of the tests that contain the event mask ``a``."""
        holders = self._holder_bits()
        held = (1 << len(self._test_masks)) - 1
        for x in _ids(a):
            held &= holders[x]
        return held

    def _holder_bits(self) -> tuple[int, ...]:
        """Per outcome, the bitset of the indices of the tests holding it, built
        on first use (many constructed spaces are never queried)."""
        if self._holders is None:
            holders = [0] * len(self.labels)
            for i, t in enumerate(self._test_masks):
                for x in _ids(t):
                    holders[x] |= 1 << i
            self._holders = tuple(holders)
        return self._holders

    # -- event enumeration ------------------------------------------------------

    def events(self, cap: int | None = None) -> Iterator[frozenset]:
        """All events, each exactly once, the empty event included."""
        yield from self.events_list(cap)

    def events_list(self, cap: int | None = None) -> list[frozenset]:
        """All events as a list; computed once per space whatever the cap.

        Raises ``EnumerationCapExceeded`` when the largest test alone has
        more than ``cap`` subsets, or when there are more than ``cap`` events.
        """
        masks = self._checked_event_masks(cap)
        if self._events_cache is None:
            self._events_cache = [mask_event(m) for m in masks]
        return self._events_cache

    def _checked_event_masks(self, cap: int | None = None) -> list[int]:
        """Mask form of :meth:`events_list`, with the same two cap checks; past the
        cap the count reads cap + 1, where a first listing stops, on every call."""
        top = 1 << max(m.bit_count() for m in self._test_masks)
        cap = check_cap("events", top, cap)
        masks = self._event_mask_list(cap)
        check_cap("events", min(len(masks), cap + 1), cap)
        return masks

    def _event_mask_list(self, limit: int) -> list[int]:
        """All event masks in enumeration order, or the first ``limit + 1``.

        A list longer than ``limit`` means there are more than ``limit``
        events; only a complete list is cached.
        """
        if self._event_masks is not None:
            return self._event_masks
        seen: dict[int, None] = {}
        for test in self._test_masks:
            for a in _submasks(test):
                if a not in seen:
                    seen[a] = None
                    if len(seen) > limit:
                        return list(seen)
        self._event_masks = list(seen)
        return self._event_masks

    # -- orthogonality, complements, perspectivity -------------------------------

    def events_orthogonal(self, a: Iterable[int], b: Iterable[int]) -> bool:
        a, b = frozenset(a), frozenset(b)
        return not (a & b) and self.is_event(a | b)

    def complementary(self, a: Iterable[int], b: Iterable[int]) -> bool:
        a, b = frozenset(a), frozenset(b)
        return not (a & b) and (a | b) in self.test_set

    def complements(self, a: Iterable[int]) -> tuple[frozenset, ...]:
        """All complements of an event: the test remainders over tests containing it."""
        m = self._mask_of(a)
        if m is None:
            return ()
        return tuple(map(mask_event, sorted(self._complement_masks(m), key=mask_key)))

    def _complement_masks(self, a: int) -> list[int]:
        """Mask form of :meth:`complements`, in test order."""
        return [self._test_masks[i] ^ a for i in _ids(self._tests_holding(a))]

    def _complement_set(self, a: int) -> frozenset[int]:
        """The complements of an event mask, as a set of masks."""
        return frozenset(self._complement_masks(a))

    def perspective(self, a: Iterable[int], b: Iterable[int]) -> frozenset | None:
        """Lexicographically least common complement of a and b, or None."""
        ma, mb = self._mask_of(a), self._mask_of(b)
        axis = None if ma is None or mb is None else self._axis(ma, mb)
        return None if axis is None else mask_event(axis)

    def is_perspective(self, a: Iterable[int], b: Iterable[int]) -> bool:
        return self.perspective(a, b) is not None

    def _axis(self, a: int, b: int) -> int | None:
        """Mask form of :meth:`perspective`."""
        ca = set(self._complement_masks(a))
        common = [c for c in self._complement_masks(b) if c in ca]
        return min(common, key=mask_key) if common else None

    def orthocomplement(self, a: Iterable[int]) -> frozenset:
        """Outcomes orthogonal to every outcome of ``a`` (all of X for the empty set)."""
        m = self._mask_of(a)
        if m is None:
            raise UnknownLabel("orthocomplement of ids that are not all outcomes")
        return mask_event(self._perp_mask(m))

    def _perp_mask(self, a: int) -> int:
        """Mask form of :meth:`orthocomplement`."""
        got = self._perp_masks.get(a)
        if got is None:
            orth = self._orth_masks or self._orth_table()
            got = (1 << self.n_outcomes) - 1
            for x in _ids(a):
                got &= orth[x]
            self._perp_masks[a] = got
        return got

    # -- structural predicates ----------------------------------------------------

    def algebraic(self, cap: int | None = None) -> PredicateResult:
        """Perspectivity transfers complements: a ~ b oc c implies a oc c.

        Equivalent to: any two events sharing a complement have identical
        complement sets.  Witness on failure is a triple (a, b, c) with
        a ~ b, b oc c but not a oc c.
        """
        split = self._first_split_bucket(self._complement_set, cap)
        if split is None:
            return PredicateResult(True)
        a, b = split
        ka, kb = self._complement_set(a), self._complement_set(b)
        if kb - ka:
            extra = kb - ka
        else:
            a, b, extra = b, a, ka - kb
        c = min(extra, key=mask_key)
        return PredicateResult(False, (mask_event(a), mask_event(b), mask_event(c)))

    def coherent(self, cap: int | None = None) -> PredicateResult:
        """Events inside an event's orthocomplement are orthogonal to it.

        The scan compares every pair of events, so it needs E^2 <= cap for E
        events; enumeration stops as soon as isqrt(cap) + 1 events are seen.
        """
        limit = isqrt(resolve_cap(cap))
        masks = self._event_mask_list(limit)
        check_cap("coherence pairs", min(len(masks), limit + 1) ** 2, cap)
        is_event = set(masks)
        evs = sorted(filter(None, masks), key=mask_key)
        for b in evs:
            perp = self._perp_mask(b)
            for a in evs:
                # a inside b's orthocomplement is disjoint from b, so a and b
                # are orthogonal exactly when their union is an event
                if a & perp == a and a | b not in is_event:
                    return PredicateResult(False, (mask_event(a), mask_event(b)))
        return PredicateResult(True)

    def regular(self, cap: int | None = None) -> PredicateResult:
        """Perspective events have equal orthocomplements."""
        split = self._first_split_bucket(self._perp_mask, cap)
        if split is None:
            return PredicateResult(True)
        return PredicateResult(False, tuple(map(mask_event, split)))

    def _first_split_bucket(
        self, key: Callable[[int], object], cap: int | None
    ) -> tuple[int, int] | None:
        """The first complement bucket whose events differ on ``key``, as
        (its first event, its first event that differs), or None (lemmas 3-5).

        Each event is keyed once per pass: a dict local to the pass maps its
        mask to a class id, one per distinct key, and buckets compare ids.
        The cap bounds the full bucket pass, sum of 2^|t|, that this replaces.
        """
        check_cap("complement buckets", sum(1 << m.bit_count() for m in self._test_masks), cap)
        tests = self._test_masks
        class_of: dict[int, int] = {}
        interned: dict[object, int] = {}

        def cls(a: int) -> int:
            c = class_of.get(a)
            if c is None:
                c = class_of[a] = interned.setdefault(key(a), len(interned))
            return c

        for i, inter in self._intersections():
            rests = [tests[j] ^ inter for j in _ids(self._tests_holding(inter))]
            k0 = cls(rests[0])
            if any(cls(r) != k0 for r in rests[1:]):
                break
        else:
            return None
        # the buckets test i shares with earlier tests do not split (lemma 5)
        s = tests[i]
        for a in _submasks(s):
            c = s ^ a
            k0 = cls(a)
            for j in _ids(self._tests_holding(c) >> i + 1):
                b = tests[i + 1 + j] ^ c
                if cls(b) != k0:
                    return a, b
        raise LawViolation(f"no split bucket in test {i}, against lemma 5")

    def _intersections(self) -> Iterator[tuple[int, int]]:
        """(i, I) for each distinct intersection I of test i with a later test, in
        test order, each I at the first test that yields it.

        The later tests are split by which outcomes of test i they hold; those
        holding none give I = 0.  No pair of tests is visited.
        """
        tests, holders = self._test_masks, self._holder_bits()
        everything = (1 << len(tests)) - 1
        seen: set[int] = set()
        for i, s in enumerate(tests):
            later = everything >> i + 1 << i + 1
            groups = [(0, later)] if later else []
            for x in _ids(s):
                h = holders[x]
                if h & later:
                    parts = []
                    for inter, members in groups:
                        inside = members & h
                        if inside:
                            parts.append((inter | 1 << x, inside))
                        if inside != members:
                            parts.append((inter, members ^ inside))
                    groups = parts
            for inter, _ in groups:
                if inter not in seen:
                    seen.add(inter)
                    yield i, inter

    def projective(self) -> PredicateResult:
        """Perspective outcomes are equal."""
        for x in range(self.n_outcomes):
            for y in range(x + 1, self.n_outcomes):
                if self._axis(1 << x, 1 << y) is not None:
                    return PredicateResult(False, (x, y))
        return PredicateResult(True)

    # -- supports, core, adjunctions -----------------------------------------------

    def is_support(self, s: Iterable[int]) -> bool:
        """True when the test traces {t & S} stay an antichain.

        Equivalently, perspective events meet S together or not at all;
        the tests check that second criterion against this one.
        """
        s = frozenset(s)
        if not s <= frozenset(range(self.n_outcomes)):
            raise UnknownLabel("support candidates must be outcome subsets")
        return _is_antichain({t & s for t in self.tests}) is None

    def core(self) -> frozenset:
        """Intersection of all tests."""
        out = self._test_masks[0]
        for t in self._test_masks[1:]:
            out &= t
        return mask_event(out)

    def adjoin_unit_test(self, label: str) -> "TestSpace":
        """Add a fresh outcome carrying its own singleton test."""
        if label in self.label_id:
            raise LabelCollision(f"label {label!r} already present")
        return TestSpace(self.labels + (label,), self._test_masks + (1 << self.n_outcomes,))

    def restrict_to_support(self, s: Iterable[int]) -> tuple["TestSpace", dict[int, int]]:
        """The trace space on a support, with the old-id to new-id map."""
        s = frozenset(s)
        if not self.is_support(s):
            raise UsageError("restriction target is not a support")
        keep = sum(1 << x for x in s)
        traces = {t & keep for t in self._test_masks} - {0}
        if not traces:
            raise EmptyTest("support meets no test")
        # every outcome lies in a test, so the traces cover the whole support
        kept = _ids(keep)
        old_to_new = {x: i for i, x in enumerate(kept)}
        tests = [sum(1 << old_to_new[x] for x in _ids(t)) for t in traces]
        return TestSpace([self.labels[x] for x in kept], tests), old_to_new

    # -- ortho-closure lattice --------------------------------------------------------

    def closed_set_lattice(self, cap: int | None = None) -> "ClosedSetLattice":
        """All ortho-closed outcome sets, as a complete ortholattice."""
        counter = CapCounter("closed sets", cap)
        full = (1 << self.n_outcomes) - 1
        gens = {self._perp_mask(1 << x) for x in range(self.n_outcomes)}
        closed = {full} | gens
        frontier = list(closed)
        while frontier:
            s = frontier.pop()
            for g in gens:
                t = s & g
                if t not in closed:
                    counter.tick()
                    closed.add(t)
                    frontier.append(t)
        return ClosedSetLattice(self, tuple(map(mask_event, sorted(closed, key=mask_key))))


class ClosedSetLattice:
    """Ortho-closed subsets ordered by inclusion.

    Meet is intersection, join is the double-orthocomplement of the union,
    and the orthocomplement operation is the lattice complement.
    """

    def __init__(self, space: TestSpace, elements: tuple[frozenset, ...]):
        self.space = space
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, s) -> bool:
        return frozenset(s) in self.index

    def closure(self, s: Iterable[int]) -> frozenset:
        return self.space.orthocomplement(self.space.orthocomplement(s))

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return self.closure(a | b)

    def ortho(self, a: frozenset) -> frozenset:
        return self.space.orthocomplement(a)


def build_test_space(
    tests: Iterable[Iterable[str]], labels: Sequence[str] | None = None
) -> TestSpace:
    """Construct a test space from label-level tests: the one validator.

    It raises, in this order: ``EmptyTest`` (no tests), ``LabelCollision``,
    ``UnknownLabel``, then, with repeated tests merged, ``EmptyTest``,
    ``RedundantTests`` and ``UncoveredOutcome``.  Without ``labels`` the
    outcomes are the sorted union of the test members, so ids are canonical.
    """
    tests = [list(t) for t in tests]
    if not tests:
        raise EmptyTest("need at least one test")
    if labels is None:
        labels = sorted({lab for t in tests for lab in t})
    label_id = {}
    for i, lab in enumerate(labels):
        if lab in label_id:
            raise LabelCollision(f"duplicate label {lab!r}")
        label_id[lab] = i
    id_tests = set()
    for t in tests:
        for lab in t:
            if lab not in label_id:
                raise UnknownLabel(f"test member {lab!r} not among outcome labels")
        id_tests.add(frozenset(label_id[lab] for lab in t))
    if frozenset() in id_tests:
        raise EmptyTest("tests must be nonempty")
    bad = _is_antichain(id_tests)
    if bad is not None:
        raise RedundantTests(f"test {sorted(bad[0])} is contained in {sorted(bad[1])}")
    missing = set(range(len(labels))).difference(*id_tests)
    if missing:
        raise UncoveredOutcome(f"outcomes {sorted(missing)} appear in no test")
    return TestSpace(labels, [sum(1 << x for x in t) for t in id_tests])
