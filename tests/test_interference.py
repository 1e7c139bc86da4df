"""Interchange law, combined algebras, and interference witnesses."""

import pytest

from coarsening_oracles import outcome_events
from frozenset_oracles import event_product
from orthokit.errors import HypothesisUnmet, NotGAlgebra, UsageError
from orthokit.coarsening import coarsen
from orthokit.compounding import (
    IMPOSSIBLE,
    OUT_OF_WINDOW,
    SequentialProduct,
    concat_masks,
    concatenation_product,
    truncated_compound,
    validate_sequential,
)
from orthokit.corpus import named
from orthokit.interference import (
    check_collapse_perspectivity,
    check_commutative_boolean,
    check_distributive_diagrams,
    check_ell_naturality,
    check_left_equivariance,
    coarse_setwise_product,
    distributive_ell,
    find_interference,
    validate_g_algebra,
)
from orthokit.morphisms import identity_morphism, validate_morphism
from orthokit.quantum import classical_model
from orthokit.states import full_model
from orthokit.testspace import build_test_space


def union_collapse_table(coarse):
    table = {}
    for ev in coarse.model.space.events_list():
        if not ev:
            continue
        union = frozenset().union(*(coarse.to_event(i) for i in ev))
        table[ev] = coarse.to_coarse(union)
    return table


@pytest.fixture(scope="module")
def binary():
    return full_model(build_test_space([["a", "b"]]))


class TestDiagrams:
    @pytest.mark.parametrize("name", ["single-2", "wright", "semiclassical-2x2"])
    def test_depth_two(self, name):
        rep = check_distributive_diagrams(named(name), 2)
        assert rep.multiplication_outer > 0
        assert rep.multiplication_inner > 0

    def test_depth_zero_trivial(self, binary):
        rep = check_distributive_diagrams(binary, 0)
        assert rep.unit_compound == 1

    def test_single_letter_restriction_is_eventwise(self, binary):
        """The one-letter strings of an event have its outcomes as codes."""
        for m in binary.space._checked_event_masks():
            assert concat_masks(1, m, binary.space.n_outcomes) == m


class TestInterchangeMorphism:
    def test_embedding(self, binary):
        cell = distributive_ell(binary, 2)
        assert cell.morphism.embedding

    def test_singleton_string_products(self, binary):
        cell = distributive_ell(binary, 1)
        src = cell.source
        # a one-letter string of a singleton event maps to the singleton
        # event of the one-letter string
        for sid, s in enumerate(src.strings):
            image = cell.morphism(sid)
            block = cell.target.to_event(image)
            events = [cell.source.base.space for _ in s]  # length witness only
            assert len(block) == 1 if all(
                len(coarsen(binary).to_event(i)) == 1 for i in s
            ) else len(block) >= 1

    def test_naturality_along_identity(self, binary):
        assert check_ell_naturality(identity_morphism(binary), 2) > 0

    def test_naturality_along_embedding(self):
        c2, c3 = classical_model(2), classical_model(3)
        fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
        mapping = []
        for s in c2.subsets:
            preimage = frozenset().union(*(fibers[p] for p in s))
            mapping.append(c3.subset_id[preimage])
        phi = validate_morphism(c2.model, c3.model, tuple(mapping))
        assert check_ell_naturality(phi, 2) > 0


class TestCombinedAlgebras:
    def test_classical_is_valid_and_commutative(self):
        for n in (2, 3):
            cm = classical_model(n)
            g = validate_g_algebra(cm.model, cm.sigma, cm.product, probe_depth=2)
            assert g.commutative

    def test_corrupted_collapse_rejected(self):
        cm = classical_model(2)
        bad = dict(cm.sigma)
        one = cm.subset_id[frozenset({1})]
        two = cm.subset_id[frozenset({2})]
        full = cm.subset_id[frozenset({1, 2})]
        # collapse the two-block family to a wrong outcome: not even a
        # coherence, so the combined validation refuses
        bad[frozenset([one, two])] = one
        with pytest.raises((NotGAlgebra, Exception)):
            validate_g_algebra(cm.model, bad, cm.product)

    def test_multiplicativity_failure_detected(self):
        cm = classical_model(2)
        table = dict(cm.product.table)
        one = cm.subset_id[frozenset({1})]
        table[(one, one)] = cm.subset_id[frozenset({2})]
        bad = SequentialProduct(cm.product.unit, table)
        with pytest.raises(Exception):
            validate_g_algebra(cm.model, cm.sigma, bad)

    def test_free_window_structure(self, binary):
        """Union collapse over concatenation on a compounded coarsening."""
        from orthokit.coarsening import lift_weight
        from compound_oracles import transition_vertex_pool

        tc = truncated_compound(binary, 2)
        coarse = coarsen(tc.model)
        sigma = union_collapse_table(coarse)
        pi = coarse_setwise_product(coarse, concatenation_product(tc))
        spanning = [lift_weight(outcome_events(coarse), w) for w in transition_vertex_pool(tc)]
        g = validate_g_algebra(coarse.model, sigma, pi, probe_depth=1, states=spanning)
        assert not g.commutative
        assert find_interference(
            coarse.model, g.sigma, g.product, states=spanning
        ) == []

    def test_boolean_for_commutative(self):
        cm = classical_model(3)
        g = validate_g_algebra(cm.model, cm.sigma, cm.product, probe_depth=2)
        logic = check_commutative_boolean(g)
        assert len(logic) == 8

    def test_boolean_gate_on_noncommutative(self, binary):
        from orthokit.coarsening import lift_weight
        from compound_oracles import transition_vertex_pool

        tc = truncated_compound(binary, 2)
        coarse = coarsen(tc.model)
        sigma = union_collapse_table(coarse)
        pi = coarse_setwise_product(coarse, concatenation_product(tc))
        spanning = [lift_weight(outcome_events(coarse), w) for w in transition_vertex_pool(tc)]
        g = validate_g_algebra(coarse.model, sigma, pi, probe_depth=1, states=spanning)
        with pytest.raises(HypothesisUnmet):
            check_commutative_boolean(g)


class TestGuards:
    @pytest.mark.parametrize("depth", [0, -1])
    def test_probe_depth_below_one_is_refused_for_checked_products(self, depth):
        """A checked product used to give a combined algebra with no word checked."""
        cm = classical_model(2)
        checked = validate_sequential(cm.model, cm.product)
        for sp in (checked, cm.product):
            with pytest.raises(UsageError, match="probe depth must be at least 1"):
                validate_g_algebra(cm.model, cm.sigma, sp, probe_depth=depth)

    @pytest.mark.parametrize("ids", [[-1], [99], [0, 3]])
    def test_witness_ids_outside_the_outcomes_are_refused(self, ids):
        cm = classical_model(2)
        with pytest.raises(UsageError, match="witness ids"):
            find_interference(cm.model, cm.sigma, cm.product, witnesses_from=ids)

    def test_follow_up_tokens_of_a_callable_are_not_outcome_ids(self):
        cm = classical_model(2)
        table = {(x, 99): x for x in range(cm.model.space.n_outcomes)}
        assert find_interference(
            cm.model, cm.sigma, lambda x, k: table.get((x, k)), witnesses_from=[99]
        ) == []


class TestMissingFollowUps:
    """σ(a)·y is defined while x·y is missing for a member x of a.

    On the classical two-point model with {1}·{1} deleted, a = {{1}, {2}}
    collapses to the unit, so σ(a)·{1} = {1}, but neither member has a
    product with {1}.
    """

    @pytest.fixture
    def case(self):
        cm = classical_model(2)
        one = cm.subset_id[frozenset({1})]
        table = {k: v for k, v in cm.product.table.items() if k != (one, one)}
        return cm, one, table

    def scan(self, cm, prod):
        return find_interference(cm.model, cm.sigma, prod)

    def test_skipped_out_of_window(self, case):
        cm, one, table = case
        sp = SequentialProduct(cm.product.unit, table, undefined_means=OUT_OF_WINDOW)
        assert self.scan(cm, sp) == []
        assert self.scan(cm, lambda x, y: sp.prod(x, y)) == []

    def test_reported_at_zero_mass_when_impossible(self, case):
        cm, one, table = case
        sp = SequentialProduct(cm.product.unit, table, undefined_means=IMPOSSIBLE)
        pair = frozenset({one, cm.subset_id[frozenset({2})]})
        [wit] = self.scan(cm, sp)
        assert (wit.event, wit.outcome, wit.coherent, wit.incoherent) == (pair, one, 1, 0)
        assert type(wit.incoherent) is int
        assert cm.model.state_vertices()[wit.state_index][one] == 1


class TestNoInterference:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_classical_shows_none(self, n):
        cm = classical_model(n)
        assert find_interference(cm.model, cm.sigma, cm.product) == []

    def test_collapse_perspectivity_identity(self):
        cm = classical_model(3)
        g = validate_g_algebra(cm.model, cm.sigma, cm.product, probe_depth=2)
        assert check_collapse_perspectivity(g) > 0

    def test_tolerance_filters_gaps(self):
        from orthokit.quantum import preset_qubit_interferometer

        bm = preset_qubit_interferometer()
        wits = find_interference(
            bm.model,
            bm.sigma,
            bm.path_product,
            states=[bm.model.states.generators[0]],
            witnesses_from=range(len(bm.witness_labels)),
            tol=1.0,
        )
        assert wits == []


class TestSequentialCoarsening:
    def test_blockwise_product_is_sequential(self):
        cm = classical_model(2)
        coarse = coarsen(cm.model)
        pi = coarse_setwise_product(coarse, cm.product)
        checked = validate_sequential(coarse.model, pi, probe_depth=1)
        assert checked.report.unit_points == coarse.model.space.n_outcomes

    def test_left_action_respects_perspectivity(self, binary):
        """a*b only depends on the class of b, and the reverse can fail."""
        tc = truncated_compound(binary, 3)
        sp = concatenation_product(tc)
        space = tc.model.space
        x = tc.id_of((0,))
        singleton = frozenset([x])
        extension = frozenset([tc.id_of((0, 0)), tc.id_of((0, 1))])
        assert space.is_perspective(singleton, extension)
        # left multiplication keeps them perspective
        left_a = event_product(sp, singleton, singleton)
        left_b = event_product(sp, singleton, extension)
        assert space.is_perspective(left_a, left_b)
        # right multiplication by the same event does not
        right_a = event_product(sp, singleton, singleton)
        right_b = event_product(sp, extension, singleton)
        assert not space.is_perspective(right_a, right_b)

    def test_left_equivariance_for_classical(self):
        cm = classical_model(3)
        assert check_left_equivariance(cm.model, cm.sigma, cm.product)


def test_left_products_respect_event_classes():
    """a*b is perspective to a*b' whenever b is perspective to b'."""
    from orthokit.corpus import named as named_model

    cm = classical_model(2)
    models = [(cm.model, cm.product)]
    binary = full_model(build_test_space([["a", "b"]]))
    tc = truncated_compound(binary, 3)
    models.append((tc.model, concatenation_product(tc)))
    for model, sp in models:
        space = model.space
        events = [e for e in space.events_list() if e]
        for b in events:
            for b2 in events:
                if b is b2 or not space.is_perspective(b, b2):
                    continue
                for a in events[:6]:
                    ab = event_product(sp, a, b)
                    ab2 = event_product(sp, a, b2)
                    if ab is None or ab2 is None or not ab or not ab2:
                        continue
                    assert space.is_perspective(ab, ab2), (a, b, b2)


def test_interference_product_lists_are_built_once():
    """Two ``products`` calls per (event, follow-up), however many states."""
    cm = classical_model(3)
    calls = []

    class Counting(SequentialProduct):
        def products(self, pairs):
            calls.append(pairs)
            return super().products(pairs)

    sp = Counting(cm.product.unit, cm.product.table)
    vertices = cm.model.state_vertices()
    for states in (vertices[:1], vertices * 3):
        calls.clear()
        assert find_interference(cm.model, cm.sigma, sp, states=states) == []
        assert len(calls) == 2 * len(cm.sigma) * cm.model.space.n_outcomes
