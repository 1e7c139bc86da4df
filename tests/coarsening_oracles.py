"""Reference versions of the coarsening monad laws and coherence checks.

These write the union collapse (the monad multiplication) out by hand at each
use, build the double coarsening as a model wherever its outcomes are read,
special-case singleton collapses, and read every event as a frozenset: the
outcomes of a coarsening through ``to_event``, the tests of a space through
``tests`` and ``test_set``, and morphisms through the frozenset
``frozenset_oracles.validate_morphism``.  ``validate_coherence`` reads its
table through ``CoherenceMap``, a callable wrapper the library no longer has,
and ``sharp_logic_iso`` walks the singleton map class by class where the
library transports classes along the unit with ``induced_logic_map``.  The
library goes through one ``Coarsening.collapse`` and reads events only as
masks; the oracle tests require both sides to agree on reports, point
counts, exception class, message and witness.
"""

from __future__ import annotations

from itertools import product as iproduct

from orthokit.coarsening import CheckedCoherence, MonadLawReport, coarsen
from orthokit.compounding import (
    IMPOSSIBLE,
    OUT_OF_WINDOW,
    CheckedSequential,
    validate_sequential,
)
from orthokit.errors import (
    CapCounter,
    LawViolation,
    MorphismError,
    NotCoherence,
    NotGAlgebra,
    UsageError,
)
from orthokit.interference import DiagramReport, GAlgebra, _is_commutative
from orthokit.logic import OrthoMap, build_logic
from orthokit.testspace import PredicateResult, event_key
from frozenset_oracles import event_product, validate_morphism
from interchange_oracles import compositions, concat_product, concat_string_sets


def outcome_events(coarse):
    """The base event of each outcome of a coarsening, in outcome order."""
    return [coarse.to_event(i) for i in range(len(coarse.outcome_mask))]


def _nonempty_subsets(members):
    n = len(members)
    for mask in range(1, 1 << n):
        yield frozenset(members[i] for i in range(n) if mask >> i & 1)


def functor_sharp(phi, source_coarse, target_coarse, cap=None):
    mapping = tuple(
        target_coarse.to_coarse(phi.image(ev)) for ev in outcome_events(source_coarse)
    )
    return validate_morphism(source_coarse.model, target_coarse.model, mapping, cap)


def mult_mu(coarse, double, cap=None):
    if double.base is not coarse.model:
        raise UsageError("second argument must be the coarsening of the first's model")
    mapping = []
    for ev in outcome_events(double):
        union = frozenset().union(*(coarse.to_event(i) for i in ev))
        mapping.append(coarse.to_coarse(union))
    mu = validate_morphism(double.model, coarse.model, tuple(mapping), cap)
    if not mu.test_preserving:
        raise LawViolation("the union collapse must be test-preserving")
    return mu


def check_monad_laws_sharp(model, cap=None):
    coarse = coarsen(model, cap)
    double = coarsen(coarse.model, cap)
    mu1 = [coarse.to_coarse(frozenset().union(*(coarse.to_event(i) for i in ev)))
           for ev in outcome_events(double)]
    counter = CapCounter("triple-coarsening outcomes", cap)
    points = 0
    for t in double.model.space.tests:
        members = sorted(t)
        for sub in _nonempty_subsets(members):
            counter.tick()
            points += 1
            via_functor = frozenset(mu1[b] for b in sub)
            union1 = frozenset().union(*(coarse.to_event(i) for i in via_functor))
            left = coarse.to_coarse(union1)
            merged = frozenset().union(*(double.to_event(b) for b in sub))
            union2 = frozenset().union(*(coarse.to_event(i) for i in merged))
            right = coarse.to_coarse(union2)
            if left != right:
                raise LawViolation(f"associativity square fails at {sorted(sub)}")
    unit_points = 0
    for i, ev in enumerate(outcome_events(coarse)):
        singletons = frozenset(coarse.to_coarse(frozenset([x])) for x in ev)
        union = frozenset().union(*(coarse.to_event(j) for j in singletons))
        if coarse.to_coarse(union) != i:
            raise LawViolation("left unit triangle fails")
        if coarse.to_coarse(frozenset(ev)) != i:
            raise LawViolation("right unit triangle fails")
        unit_points += 1
    return MonadLawReport(points, unit_points)


class CoherenceMap:
    """Total map from nonempty events to outcomes of the same model: a
    callable, or a mapping whose keys are read as frozensets."""

    def __init__(self, fn):
        if callable(fn):
            self._fn = fn
        else:
            table = {frozenset(k): v for k, v in fn.items()}
            self._fn = table.__getitem__

    def __call__(self, event):
        return self._fn(frozenset(event))


def validate_coherence(model, sigma, cap=None, coarse=None):
    if not isinstance(sigma, CoherenceMap):
        sigma = CoherenceMap(sigma)
    coarse = coarse if coarse is not None else coarsen(model, cap)
    space = model.space
    events = outcome_events(coarse)
    table = {ev: sigma(ev) for ev in events}
    for x in range(space.n_outcomes):
        if table[frozenset([x])] != x:
            raise NotCoherence(f"singleton {space.labels[x]} is not fixed", witness=x)
    try:
        phi = validate_morphism(coarse.model, model, tuple(table[ev] for ev in events), cap)
    except MorphismError as exc:
        raise NotCoherence(f"structure map is not a morphism: {exc}", witness=exc.witness)
    counter = CapCounter("coherence families", cap)
    for t in coarse.model.space.tests:
        for fam in _nonempty_subsets(sorted(t)):
            counter.tick()
            blocks = [coarse.to_event(i) for i in fam]
            union = frozenset().union(*blocks)
            inner = frozenset(table[b] for b in blocks)
            if inner not in events and len(inner) > 1:
                raise NotCoherence(
                    "member-wise collapse of a jointly orthogonal family is not an event",
                    witness=fam,
                )
            rhs = table[inner] if len(inner) > 1 else next(iter(inner))
            if table[union] != rhs:
                raise NotCoherence("grouped refinement identity fails", witness=(union, inner))
    if not phi.test_preserving:
        raise LawViolation("a coherence must be test-preserving")
    for t in space.tests:
        for sub in _nonempty_subsets(sorted(t)):
            patched = (t - sub) | {table[sub]}
            if patched not in space.test_set:
                raise LawViolation("substituting the collapse into its test must give a test")
            if not space.is_perspective(frozenset([table[sub]]), sub):
                raise LawViolation("an event must be perspective to its collapse")
    return CheckedCoherence(model, coarse, phi, table)


def is_cohesion(checked, cap=None):
    """Each table entry against each test holding its collapse, on frozensets."""
    space = checked.model.space
    pairs = [(ev, cx, t) for ev, cx in checked.table.items() for t in space.tests if cx in t]
    counter = CapCounter("cohesion pairs", cap)
    counter.tick(len(pairs))
    for ev, cx, t in pairs:
        if (t - {cx}) | ev not in space.test_set:
            return PredicateResult(False, (t, ev))
    return PredicateResult(True)


def check_sharp_algebra_laws(checked, cap=None):
    coarse = checked.coarse
    double = coarsen(coarse.model, cap)
    points = 0
    for ev in outcome_events(double):
        blocks = [coarse.to_event(i) for i in ev]
        union = frozenset().union(*blocks)
        inner = frozenset(checked.table[b] for b in blocks)
        via_member = checked.table[inner] if len(inner) > 1 else next(iter(inner))
        if checked.table[union] != via_member:
            raise LawViolation("coarsening-algebra associativity fails")
        points += 1
    return points


def check_distributive_diagrams(model, depth, cap=None):
    counter = CapCounter("distributive diagrams", cap)
    coarse = coarsen(model, cap)
    double = coarsen(coarse.model, cap)
    double_outcomes = [
        frozenset(coarse.to_event(i) for i in ev) for ev in outcome_events(double)
    ]
    sq1 = 0
    for k in range(depth + 1):
        for word in iproduct(double_outcomes, repeat=k):
            counter.tick()
            via_member = frozenset()
            for choice in iproduct(*[sorted(fam, key=event_key) for fam in word]):
                via_member |= concat_product(choice)
            unions = [frozenset().union(*fam) for fam in word]
            if via_member != concat_product(unions):
                raise LawViolation("distributive square over coarsening fails")
            sq1 += 1
    events = sorted(outcome_events(coarse), key=event_key)
    sq2 = 0
    for total in range(depth + 1):
        for word in iproduct(events, repeat=total):
            for split in compositions(total):
                counter.tick()
                chunks = []
                start = 0
                for part in split:
                    chunks.append(word[start : start + part])
                    start += part
                nested = concat_string_sets([concat_product(c) for c in chunks])
                if nested != concat_product(word):
                    raise LawViolation("distributive square over flattening fails")
                sq2 += 1
    tri1 = 0
    for ev in events:
        counter.tick()
        if concat_product([ev]) != frozenset((x,) for x in ev):
            raise LawViolation("coarse unit triangle fails")
        tri1 += 1
    tri2 = 0
    n = model.space.n_outcomes
    for k in range(depth + 1):
        for s in iproduct(range(n), repeat=k):
            counter.tick()
            if concat_product([frozenset([x]) for x in s]) != frozenset([s]):
                raise LawViolation("compound unit triangle fails")
            tri2 += 1
    return DiagramReport(sq1, sq2, tri1, tri2)


def validate_g_algebra(model, sigma, sp, probe_depth=2, cap=None, states=None):
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
    counter = CapCounter("event strings", cap)
    checked = skipped = 0
    for k in range(1, probe_depth + 1):
        for word in iproduct(events, repeat=k):
            counter.tick()
            ev_prod = word[0]
            for nxt in word[1:]:
                ev_prod = event_product(prod, ev_prod, nxt)
                if ev_prod is None:
                    break
            out_prod = prod.prod_string([table[ev] for ev in word])
            if ev_prod is None:
                skipped += 1
                continue
            if not ev_prod:
                if out_prod is not None and prod.undefined_means == IMPOSSIBLE:
                    raise NotGAlgebra(
                        "collapsed product defined on an impossible event string",
                        witness=word,
                    )
                skipped += 1
                continue
            if out_prod is None:
                if prod.undefined_means == OUT_OF_WINDOW:
                    skipped += 1
                    continue
                raise NotGAlgebra(
                    "product of collapses undefined on a possible event string",
                    witness=word,
                )
            lhs = table.get(ev_prod)
            if lhs is None:
                raise NotGAlgebra("setwise product of events is not an event", witness=word)
            if lhs != out_prod:
                raise NotGAlgebra(
                    "collapse is not multiplicative over the product", witness=word
                )
            strings = concat_product(word)
            evaluated = frozenset(prod.prod_string(s) for s in strings)
            if None not in evaluated:
                via_ell = table.get(frozenset(evaluated))
                if via_ell is None and len(evaluated) > 1:
                    raise NotGAlgebra("evaluated string set is not an event", witness=word)
                via_ell = next(iter(evaluated)) if len(evaluated) == 1 else via_ell
                if via_ell != lhs:
                    raise NotGAlgebra(
                        "interchange route disagrees with direct collapse", witness=word
                    )
            checked += 1
    commutative = _is_commutative(model, prod)
    return GAlgebra(model, checked_sigma, checked_sp, commutative, checked, skipped)


def sharp_logic_iso(model, cap=None):
    """Both logics built, and the singleton map walked class by class."""
    coarse = coarsen(model, cap)
    src_logic = build_logic(model.space, cap)
    dst_logic = build_logic(coarse.model.space, cap)
    table = [None] * len(src_logic)
    for a, cls in src_logic.class_of.items():
        if not a:
            image_cls = dst_logic.zero
        else:
            image_cls = dst_logic.class_of[frozenset([coarse.to_coarse(a)])]
        if table[cls] is None:
            table[cls] = image_cls
        elif table[cls] != image_cls:
            raise LawViolation("singleton logic map is ill-defined")
    if len(set(table)) != len(table) or len(src_logic) != len(dst_logic):
        raise LawViolation("logics of the model and its coarsening are not in bijection")
    for (p, q), s in src_logic.oplus.items():
        if dst_logic.oplus.get((table[p], table[q])) != table[s]:
            raise LawViolation("singleton logic map does not preserve sums")
    return OrthoMap(src_logic, dst_logic, tuple(table))
