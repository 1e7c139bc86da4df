"""Coarse-graining: construction, functor and monad laws, coherences, cohesions."""

from fractions import Fraction as F
from importlib import resources

import pytest

from coarsening_oracles import outcome_events
from orthokit import coarsening, testspace
from orthokit.errors import EnumerationCapExceeded, HypothesisUnmet, NotCoherence, UsageError
from orthokit.coarsening import (
    _bell_numbers,
    CheckedCoherence,
    check_monad_laws_sharp,
    check_sharp_algebra_laws,
    classify_projectivity,
    coarsen,
    check_regular_cohesive_logic,
    functor_sharp,
    is_cohesion,
    lift_weight,
    mult_mu,
    set_partitions,
    sharp_logic_iso,
    unit_eta,
    validate_coherence,
)
from orthokit.corpus import corpus_models, named
from orthokit.document import load_document
from orthokit.morphisms import (
    check_retraction_test_preserving,
    compose,
    identity_morphism,
    morphisms_equal,
    validate_morphism,
)
from orthokit.quantum import classical_model
from orthokit.states import Model, Weight, full_model, generator_model
from orthokit.testspace import build_test_space, mask_event


def union_collapse_table(coarse):
    """The free coarsening-algebra structure: collapse an event by union.

    Keys are the nonempty events of the coarsened model; values collapse a
    jointly orthogonal block family to the block of its union.
    """
    table = {}
    for ev in coarse.model.space.events_list():
        if not ev:
            continue
        union = frozenset().union(*(coarse.to_event(i) for i in ev))
        table[ev] = coarse.to_coarse(union)
    return table


class TestConstruction:
    def test_binary_test(self):
        c = coarsen(full_model(build_test_space([["a", "b"]])))
        assert c.model.space.n_outcomes == 3
        assert len(c.model.space.tests) == 2

    def test_ternary_test_partition_count(self):
        c = coarsen(full_model(build_test_space([["a", "b", "c"]])))
        assert len(c.model.space.tests) == 5  # set partitions of a 3-set
        assert c.model.space.n_outcomes == 7

    def test_partition_generator_matches_bell(self):
        assert len(list(set_partitions([1, 2, 3, 4]))) == 15

    def test_wright_contains_loop_coarsening(self):
        m = named("wright")
        c = coarsen(m)
        blocks = frozenset(
            [c.to_coarse(m.space.event_of(["x", "y"])), c.to_coarse(m.space.event_of(["z"]))]
        )
        assert blocks in c.model.space.test_set

    def test_generator_states_lift_by_event_weight(self):
        s = build_test_space([["a", "b"]])
        g = Weight([F(1, 3), F(2, 3)])
        m = generator_model(s, [g, Weight([F(1), F(0)])])
        c = coarsen(m)
        lifted = lift_weight(outcome_events(c), g)
        assert lifted[c.to_coarse(frozenset([0, 1]))] == 1
        assert lifted in c.model.states.generators

    def test_algebraic_iff_coarsening_algebraic(self):
        for m in corpus_models(4, 3):
            assert bool(m.space.algebraic()) == bool(
                coarsen(m).model.space.algebraic()
            ), repr(m.space)

    @pytest.mark.parametrize(
        "ids", [[], [0, 1], [4], [64], [-1], [0, -1], [3, 4], ["q"], [1.5]], ids=str
    )
    def test_to_coarse_rejects_what_is_not_a_nonempty_event(self, ids):
        """wright's outcomes are q, x, y, z (ids 0-3); q and x share no test."""
        c = coarsen(named("wright"))
        with pytest.raises(UsageError):
            c.to_coarse(frozenset(ids))
        with pytest.raises(UsageError):
            c.to_coarse(ids)

    @pytest.mark.parametrize("bad", ["-1", "n", "n + 5"])
    def test_collapse_and_to_event_reject_out_of_range_ids(self, bad):
        """Ids outside range(n) raise UsageError; -1 used to wrap round to the last outcome."""
        c = coarsen(named("wright"))
        n = len(c.outcome_mask)
        i = {"-1": -1, "n": n, "n + 5": n + 5}[bad]
        with pytest.raises(UsageError):
            c.collapse([i])
        with pytest.raises(UsageError):
            c.collapse([0, i])
        with pytest.raises(UsageError):
            c.to_event(i)
        assert c.to_event(n - 1) == mask_event(c.outcome_mask[-1])
        assert c.collapse([n - 1]) == n - 1


class TestCoarsenCap:
    """``coarsen`` bounds the set partitions it would enumerate, B(|t|) summed
    over tests t, after the event-list check and before enumerating any."""

    def test_bell_numbers_count_set_partitions(self):
        assert _bell_numbers(7) == [len(list(set_partitions(list(range(n))))) for n in range(8)]

    def test_cap_at_the_bound(self, monkeypatch):
        cases = []
        for m in corpus_models(6, 3):
            # a fresh copy: a space keeps its coarse family once built, and
            # an earlier test may have built it
            m = Model(testspace.TestSpace(m.space.labels, m.space._test_masks), m.states)
            bound = sum(len(list(set_partitions(sorted(t)))) for t in m.space.tests)
            # below the bound, the event-list check must not fire first
            if max(len(m.space.events_list()), 2 ** max(map(len, m.space.tests))) < bound:
                cases.append((m, bound))
        assert len(cases) == 46
        calls = []

        def counting(members):
            calls.append(members)
            return set_partitions(members)

        monkeypatch.setattr(coarsening, "set_partitions", counting)
        for m, bound in cases:
            with pytest.raises(EnumerationCapExceeded) as info:
                coarsen(m, bound - 1)
            assert (info.value.what, info.value.bound) == ("coarsened tests", bound)
            assert calls == []
            assert coarsen(m, bound).model.space.tests == coarsen(m).model.space.tests
            calls.clear()

    def test_spin32_bound_without_enumerating(self, monkeypatch):
        path = resources.files("orthokit").joinpath("fixtures", "spin32.json")
        model = load_document(str(path)).model
        calls = []
        monkeypatch.setattr(coarsening, "set_partitions", lambda members: calls.append(members))
        with pytest.raises(EnumerationCapExceeded) as info:
            coarsen(model, 2_000_000)
        assert str(info.value) == (
            "coarsened tests: needs ≥ 4281898, enumeration exceeds cap 2000000"
        )
        assert calls == []


class TestLawLoopCaps:
    """The subset loops of ``check_monad_laws_sharp`` and ``validate_coherence``
    bound their work, the sum of 2^|t| - 1 over the tests t they walk, before
    they start: below the bound they raise without a single collapse, and the
    monad walk without a single outcome lookup."""

    @pytest.fixture
    def collapses(self, monkeypatch):
        calls = []
        collapse = coarsening.Coarsening.collapse

        def counting(self, outcomes):
            calls.append(outcomes)
            return collapse(self, outcomes)

        monkeypatch.setattr(coarsening.Coarsening, "collapse", counting)
        return calls

    @pytest.fixture
    def tables(self, monkeypatch):
        """The ``mask_outcome`` table of every coarsening built, each counting
        its lookups in ``calls``; only the walk looks up the double coarsening's."""
        made = []

        class Counting(dict):
            def __getitem__(self, m):
                self.calls.append(m)
                return dict.__getitem__(self, m)

        build = coarsening._coarse_space

        def counting(space, cap=None):
            masks, mask_outcome, coarse_space = build(space, cap)
            made.append(Counting(mask_outcome))
            made[-1].calls = []
            return masks, made[-1], coarse_space

        monkeypatch.setattr(coarsening, "_coarse_space", counting)
        return made

    @staticmethod
    def subset_bound(space):
        return sum(2 ** len(t) - 1 for t in space.tests)

    @pytest.mark.parametrize("name", ["wright", "triangle", "semiclassical-2x2"])
    def test_monad_laws_at_the_bound(self, name, tables):
        m = named(name)
        bound = self.subset_bound(coarsen(coarsen(m).model).model.space)
        tables.clear()  # the two coarsenings above are not the law check's
        with pytest.raises(EnumerationCapExceeded) as info:
            check_monad_laws_sharp(m, bound - 1)
        assert (info.value.what, info.value.bound) == ("triple-coarsening outcomes", bound)
        assert len(tables) == 2 and [t.calls for t in tables] == [[], []]
        report = check_monad_laws_sharp(m, bound)
        # the positive control: at the bound the walk looks up every point
        assert len(tables) == 4 and len(tables[-1].calls) == bound
        assert report == check_monad_laws_sharp(m)
        assert report.associativity_points == bound

    @pytest.mark.parametrize("n", [2, 3])
    def test_coherence_at_the_bound(self, n, collapses):
        cm = classical_model(n)
        c = coarsen(cm.model)
        bound = self.subset_bound(c.model.space)
        with pytest.raises(EnumerationCapExceeded) as info:
            validate_coherence(cm.model, cm.sigma, bound - 1, coarse=c)
        assert (info.value.what, info.value.bound) == ("coherence families", bound)
        assert collapses == []
        checked = validate_coherence(cm.model, cm.sigma, bound, coarse=c)
        assert checked.table == validate_coherence(cm.model, cm.sigma, coarse=c).table


class TestFunctor:
    def test_identity_lifts_to_identity(self):
        m = named("wright")
        c = coarsen(m)
        lifted = functor_sharp(identity_morphism(m), c, c)
        assert morphisms_equal(lifted, identity_morphism(c.model))

    def test_composition_law(self):
        c2, c3 = classical_model(2), classical_model(3)
        fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
        mapping = []
        for s in c2.subsets:
            preimage = frozenset().union(*(fibers[p] for p in s))
            mapping.append(c3.subset_id[preimage])
        phi = validate_morphism(c2.model, c3.model, tuple(mapping))
        sc, tc = coarsen(c2.model), coarsen(c3.model)
        lifted = functor_sharp(phi, sc, tc)
        ident = functor_sharp(identity_morphism(c3.model), tc, tc)
        assert morphisms_equal(compose(ident, lifted), lifted)

    def test_unit_naturality(self):
        small = full_model(build_test_space([["a", "b"]]))
        big = full_model(build_test_space([["a", "b", "w"], ["u", "w"]]))
        phi = validate_morphism(
            small, big, (big.space.outcome("a"), big.space.outcome("b"))
        )
        sc, tc = coarsen(small), coarsen(big)
        eta_s, eta_t = unit_eta(sc), unit_eta(tc)
        lifted = functor_sharp(phi, sc, tc)
        for x in range(small.space.n_outcomes):
            assert lifted(eta_s(x)) == eta_t(phi(x))

    def test_mult_naturality(self):
        small = full_model(build_test_space([["a", "b"]]))
        ident = identity_morphism(small)
        c = coarsen(small)
        cc = coarsen(c.model)
        mu = mult_mu(c, cc)
        lifted = functor_sharp(ident, c, c)
        lifted2 = functor_sharp(lifted, cc, cc)
        for b in range(cc.model.space.n_outcomes):
            assert lifted(mu(b)) == mu(lifted2(b))


class TestMonadLaws:
    def test_unit_and_mult_morphisms(self):
        m = named("wright")
        c = coarsen(m)
        eta = unit_eta(c)
        assert eta.embedding
        mu = mult_mu(c, coarsen(c.model))
        assert mu.test_preserving

    def test_mult_flattens(self):
        m = full_model(build_test_space([["a", "b"]]))
        c = coarsen(m)
        cc = coarsen(c.model)
        singles = frozenset(
            [c.to_coarse(frozenset([0])), c.to_coarse(frozenset([1]))]
        )
        b = cc.to_coarse(singles)
        mu = mult_mu(c, cc)
        assert mu(b) == c.to_coarse(frozenset([0, 1]))

    @pytest.mark.parametrize("name", ["single-2", "wright", "triangle", "semiclassical-2x2"])
    def test_laws_pointwise(self, name):
        rep = check_monad_laws_sharp(named(name))
        assert rep.associativity_points > 0 and rep.unit_points > 0

    def test_retraction_of_unit(self):
        cm = classical_model(2)
        c = coarsen(cm.model)
        checked = validate_coherence(cm.model, cm.sigma, coarse=c)
        eta = unit_eta(c)
        assert check_retraction_test_preserving(eta, checked.morphism)


class TestCoherences:
    def test_classical_union_is_coherence(self):
        cm = classical_model(3)
        checked = validate_coherence(cm.model, cm.sigma)
        assert checked.morphism.test_preserving

    def test_singleton_violation(self):
        cm = classical_model(2)
        bad = dict(cm.sigma)
        a = cm.subset_id[frozenset({1})]
        b = cm.subset_id[frozenset({2})]
        bad[frozenset([a])] = b
        with pytest.raises(NotCoherence):
            validate_coherence(cm.model, bad)

    def test_missing_entry_is_a_coherence_violation(self):
        """A table without a nonempty event names the first one it misses, in
        the coarsening's outcome order, instead of raising a bare KeyError."""
        cm = classical_model(3)
        kept = dict(list(cm.sigma.items())[:5])
        c = coarsen(cm.model)
        events = [c.to_event(i) for i in range(len(c.outcome_mask))]
        first = next(ev for ev in events if ev not in kept)
        with pytest.raises(NotCoherence, match="misses a nonempty event") as info:
            validate_coherence(cm.model, kept, coarse=c)
        assert info.value.witness == first

    def test_no_coherence_on_wright(self):
        m = named("wright")
        c = coarsen(m)
        sp = m.space
        table = {frozenset([x]): x for x in range(sp.n_outcomes)}
        q = sp.outcome("q")
        z = sp.outcome("z")
        for ev in outcome_events(c):
            if len(ev) > 1:
                table[ev] = q if ev == sp.event_of(["x", "y"]) else z
        with pytest.raises(NotCoherence):
            validate_coherence(m, table, coarse=c)

    def test_union_collapse_on_coarsening_is_coherence(self):
        """The union map is always a valid structure on a coarsened model."""
        base = classical_model(2).model
        c = coarsen(base)
        checked = validate_coherence(c.model, union_collapse_table(c))
        assert check_sharp_algebra_laws(checked) > 0

    def test_algebra_laws_for_classical(self):
        cm = classical_model(2)
        checked = validate_coherence(cm.model, cm.sigma)
        assert check_sharp_algebra_laws(checked) > 0


class TestCohesions:
    def test_classical_coherence_is_cohesion(self):
        cm = classical_model(3)
        checked = validate_coherence(cm.model, cm.sigma)
        assert is_cohesion(checked)

    def test_coherence_on_algebraic_model_is_cohesion(self):
        for n in (2, 3):
            cm = classical_model(n)
            assert cm.model.space.algebraic()
            assert is_cohesion(validate_coherence(cm.model, cm.sigma))

    def test_fabricated_non_substitution_detected(self):
        m = named("wright")
        sp = m.space
        table = {sp.event_of(["x", "y"]): sp.outcome("z")}
        fake = CheckedCoherence(m, coarsen(m), identity_morphism(m), table)
        verdict = is_cohesion(fake)
        assert not verdict
        test, ev = verdict.witness
        assert table[ev] in test

    def test_projectivity_classification_classical(self):
        cm = classical_model(3)
        checked = validate_coherence(cm.model, cm.sigma)
        out = classify_projectivity(checked)
        assert out.all_equal and out.algebraic_and_projective

    def test_projectivity_classification_coarsened(self):
        base = classical_model(2).model
        c = coarsen(base)
        checked = validate_coherence(c.model, union_collapse_table(c))
        out = classify_projectivity(checked)
        assert out.all_equal
        assert not out.algebraic_and_projective  # coarsenings lose projectivity

    def test_regular_cohesive_forces_omp(self):
        cm = classical_model(3)
        checked = validate_coherence(cm.model, cm.sigma)
        logic = check_regular_cohesive_logic(checked)
        assert logic.is_omp()

    def test_regular_hypothesis_gate(self):
        # fabricate a structure on a non-regular space
        s = build_test_space([["a", "b", "c"], ["b", "c", "d"]])
        if not s.regular():
            m = full_model(s)
            fake = CheckedCoherence(m, coarsen(m), identity_morphism(m), {})
            with pytest.raises(HypothesisUnmet):
                check_regular_cohesive_logic(fake)


class TestLogicTransport:
    def test_iso_on_algebraic_corpus_sample(self):
        count = 0
        for m in corpus_models(4, 2):
            if m.space.algebraic():
                iso = sharp_logic_iso(m)
                assert len(set(iso.table)) == len(iso.table)
                count += 1
        assert count >= 5

    def test_iso_preserves_sums(self):
        m = named("wright")
        iso = sharp_logic_iso(m)
        src, dst = iso.source, iso.target
        for (p, q), s in src.oplus.items():
            assert dst.oplus[(iso(p), iso(q))] == iso(s)


class TestSupportTransport:
    def test_supports_lift_to_coarsenings(self):
        """S a support makes {events meeting S} a support of the coarsening."""
        for m in corpus_models(4, 2):
            space = m.space
            c = coarsen(m)
            for mask in range(1 << space.n_outcomes):
                s = frozenset(i for i in range(space.n_outcomes) if mask >> i & 1)
                if not space.is_support(s):
                    continue
                lifted = frozenset(
                    i for i, ev in enumerate(outcome_events(c)) if ev & s
                )
                assert c.model.space.is_support(lifted), (repr(space), sorted(s))

    def test_coarse_supports_come_from_base_supports(self):
        """Every support of a coarsening is the lift of a base support."""
        m = named("wright")
        space = m.space
        c = coarsen(m)
        n = c.model.space.n_outcomes
        for mask in range(1 << n):
            t = frozenset(i for i in range(n) if mask >> i & 1)
            if not c.model.space.is_support(t):
                continue
            s = frozenset(
                x for x in range(space.n_outcomes)
                if c.to_coarse(frozenset([x])) in t
            )
            lifted = frozenset(i for i, ev in enumerate(outcome_events(c)) if ev & s)
            assert t == lifted, sorted(t)


def test_corpus_coherences_are_cohesive():
    """Exhaustive small-corpus search: every valid structure map substitutes.

    Also records that none of these spaces carries a structure map without
    being algebraic, so the substitution property always follows.
    """
    from itertools import product as iproduct

    from orthokit.errors import MorphismError

    found = 0
    for m in corpus_models(4, 3):
        space = m.space
        c = coarsen(m)
        events = [c.to_event(i) for i in range(len(c.outcome_mask))]
        cands = []
        for ev in events:
            if len(ev) == 1:
                cands.append([next(iter(ev))])
                continue
            cands.append(
                [x for x in range(space.n_outcomes)
                 if space.is_perspective(frozenset([x]), ev)]
            )
        if any(not cs for cs in cands):
            continue
        total = 1
        for cs in cands:
            total *= len(cs)
        if total > 512:
            continue
        for combo in iproduct(*cands):
            table = {ev: x for ev, x in zip(events, combo)}
            try:
                checked = validate_coherence(m, table, coarse=c)
            except (NotCoherence, MorphismError):
                continue
            found += 1
            assert space.algebraic()
            assert is_cohesion(checked)
    assert found >= 4
