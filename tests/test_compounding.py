"""Forward products and truncated compounding: structure, states, algebras."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import orthokit
from orthokit.errors import (
    EnumerationCapExceeded,
    HypothesisUnmet,
    LawViolation,
    NotAMorphism,
    NotAState,
    NotSequential,
    OrthokitError,
    PositivityViolation,
    ZeroMarginal,
)
import lp_oracles
from compound_oracles import (
    _pool_strongly_unital,
    _pool_unital,
    forward_vertex_pool,
    pair_loop_compound_unitality,
    pair_state_forward_unitality,
    transition_vertex_pool,
)
from orthokit.compounding import (
    IMPOSSIBLE,
    OUT_OF_WINDOW,
    SequentialProduct,
    check_chain_rule,
    check_tower_recursion,
    check_unit_level,
    compound_unitality,
    concatenation_product,
    forward_product,
    forward_unitality,
    fp_perspective_by_parts,
    functor_compound,
    marginal_and_conditional,
    marginal_weight,
    nonatomicity_report,
    pair_morphism,
    preservation_compound,
    preservation_forward,
    retrodictive_marginal,
    transition_state,
    truncated_compound,
    validate_sequential,
)
from orthokit.corpus import corpus_models, named
from orthokit.interference import validate_g_algebra
from orthokit.morphisms import identity_morphism, validate_morphism
from orthokit.quantum import classical_model
from orthokit.states import (
    Model,
    StateSpace,
    Weight,
    full_model,
    generator_model,
    weight_from_labels,
)
from orthokit import compounding, testspace
from orthokit.testspace import build_test_space

# Corpus models whose compound and forward square cover every property
# checked, one skipped over the cap, and failed premises.
PRESERVATION_SAMPLE = (14, 35, 42)
OPTIMIZED_REPORTS = """
import json
from orthokit.compounding import preservation_compound, preservation_forward
from orthokit.corpus import corpus_models

assert False, "this script must run with asserts stripped"
models = list(corpus_models(6, 3))
out = []
for i in {sample}:
    for rep in (preservation_compound(models[i], 2, cap=100_000),
                preservation_forward(models[i], models[i], cap=100_000)):
        out.append([rep.construction, rep.properties, rep.skipped])
print(json.dumps(out))
"""


def tree_tests(base_tests, depth):
    """Independent oracle: run-and-stop trees as sets of outcome strings."""
    def grow(prefix, d):
        stopped = frozenset([prefix])
        if d == 0:
            return {stopped}
        out = {stopped}
        for t in base_tests:
            branches = [grow(prefix + (x,), d - 1) for x in sorted(t)]
            combos = [frozenset()]
            for options in branches:
                combos = [acc | pick for acc in combos for pick in options]
            out.update(combos)
        return out

    return grow((), depth)


@pytest.fixture(scope="module")
def binary():
    return full_model(build_test_space([["a", "b"]]))


@pytest.fixture(scope="module")
def disjoint_pair_models():
    small = full_model(build_test_space([["a", "b"], ["c", "d"]]))
    big = full_model(build_test_space([["a", "b", "w"], ["c", "d", "w"]]))
    return small, big


class TestForwardProduct:
    def test_test_count(self, binary):
        two = full_model(build_test_space([["u", "v"], ["s", "t"]]))
        fp = forward_product(binary, two)
        assert len(fp.model.space.tests) == 4  # one first test, 2^2 choices

    def test_single_outcome_first_stage(self):
        point = full_model(build_test_space([["a"]]))
        two = full_model(build_test_space([["u", "v"], ["s", "t"]]))
        fp = forward_product(point, two)
        assert fp.model.space.n_outcomes == two.space.n_outcomes
        assert len(fp.model.space.tests) == len(two.space.tests)

    def test_orthogonality_characterization(self, binary):
        wright = named("wright")
        fp = forward_product(binary, wright)
        space = fp.model.space
        for i, (x, y) in enumerate(fp.outcome_pair):
            for j, (u, v) in enumerate(fp.outcome_pair):
                expected = binary.space.orthogonal(x, u) or (
                    x == u and wright.space.orthogonal(y, v)
                )
                assert space.orthogonal(i, j) == expected

    def test_pair_state_values(self, binary):
        from orthokit.states import weight_from_labels

        wright = named("wright")
        fp = forward_product(binary, wright)
        alpha = Weight([F(1, 3), F(2, 3)])
        betas = {
            0: weight_from_labels(wright.space, {"x": F(1), "q": F(1)}),
            1: weight_from_labels(
                wright.space, {"x": F(1, 2), "z": F(1, 2), "q": F(1, 2)}
            ),
        }
        w = fp.state(alpha, lambda x: betas[x])
        assert fp.model.contains_state(w)
        for i, (x, y) in enumerate(fp.outcome_pair):
            assert w[i] == alpha[x] * betas[x][y]

    def test_generator_states(self):
        s = build_test_space([["a", "b"]])
        left = generator_model(s, [Weight([F(1), F(0)]), Weight([F(0), F(1)])])
        right = generator_model(s, [Weight([F(1, 2), F(1, 2)])])
        fp = forward_product(left, right)
        assert len(fp.model.states.generators) == 2


class TestForwardPerspectivity:
    def test_reflexive(self, binary):
        fp = forward_product(binary, binary)
        for t in fp.model.space.tests:
            assert fp_perspective_by_parts(fp, t, t)

    def test_matches_complement_search_everywhere(self, binary):
        wright = named("wright")
        fp = forward_product(binary, wright)
        events = fp.model.space.events_list()
        pairs = 0
        for i, a in enumerate(events):
            for b in events[i + 1 :: 7]:
                assert fp_perspective_by_parts(fp, a, b) == fp.model.space.is_perspective(a, b)
                pairs += 1
        assert pairs > 200

    def test_unshared_fiber_must_be_test(self, disjoint_pair_models):
        _, big = disjoint_pair_models
        fp = forward_product(big, big)
        e = big.space.event_of(["a", "b"])  # an event, not a test, of big
        f = big.space.event_of(["c", "d"])
        ee = frozenset(fp.pair(x, y) for x in e for y in e)
        ff = frozenset(fp.pair(x, y) for x in f for y in f)
        assert not fp_perspective_by_parts(fp, ee, ff)


class TestPairMorphism:
    def test_test_preserving_followups_work(self, binary):
        fp = forward_product(binary, binary)
        ident = identity_morphism(binary)
        out = pair_morphism(fp, fp, ident, lambda x: ident)
        assert out.test_preserving

    def test_inclusion_refused_off_core(self, disjoint_pair_models):
        small, big = disjoint_pair_models
        inc = validate_morphism(
            small, big, tuple(big.space.outcome(lab) for lab in small.space.labels)
        )
        fp_src = forward_product(small, small)
        fp_dst = forward_product(big, big)
        with pytest.raises(NotAMorphism) as err:
            pair_morphism(fp_src, fp_dst, inc, lambda x: inc)
        assert err.value.witness is not None

    def test_classical_first_stage_unconstrained(self, binary, disjoint_pair_models):
        small, big = disjoint_pair_models
        inc = validate_morphism(
            small, big, tuple(big.space.outcome(lab) for lab in small.space.labels)
        )
        first = validate_morphism(
            binary, big, (big.space.outcome("a"), big.space.outcome("b"))
        )
        fp_src = forward_product(binary, small)
        fp_dst = forward_product(big, big)
        out = pair_morphism(fp_src, fp_dst, first, lambda x: inc)
        assert not inc.test_preserving and out is not None


class TestMarginals:
    def test_product_state(self, binary):
        wright = named("wright")
        fp = forward_product(binary, wright)
        alpha = Weight([F(1, 4), F(3, 4)])
        beta = Weight([F(1, 2), F(1, 4), F(1, 4), F(1, 2)])
        assert wright.is_probability_weight(beta)
        w = fp.state(alpha, beta)
        assert marginal_weight(fp, w) == alpha
        for x in range(2):
            marg, cond = marginal_and_conditional(fp, w, x)
            assert marg == alpha[x]
            assert cond == beta

    def test_conditionals_recovered(self, binary):
        fp = forward_product(binary, binary)
        betas = {0: Weight([F(1), F(0)]), 1: Weight([F(1, 3), F(2, 3)])}
        w = fp.state(Weight([F(1, 2), F(1, 2)]), lambda x: betas[x])
        for x in (0, 1):
            _, cond = marginal_and_conditional(fp, w, x)
            assert cond == betas[x]

    def test_zero_marginal(self, binary):
        fp = forward_product(binary, binary)
        w = fp.state(Weight([F(1), F(0)]), Weight([F(1, 2), F(1, 2)]))
        with pytest.raises(ZeroMarginal):
            marginal_and_conditional(fp, w, 1)

    def test_retrodiction_depends_on_first_test(self):
        from orthokit.states import weight_from_labels

        wright = named("wright")
        binary = full_model(build_test_space([["a", "b"]]))
        fp = forward_product(wright, binary)
        betas = {
            wright.space.outcome("x"): Weight([F(1), F(0)]),
            wright.space.outcome("y"): Weight([F(0), F(1)]),
            wright.space.outcome("z"): Weight([F(1, 2), F(1, 2)]),
            wright.space.outcome("q"): Weight([F(0), F(1)]),
        }
        # all mass on the fine outcome x and the loop outcome q
        alpha = weight_from_labels(wright.space, {"x": F(1), "q": F(1)})
        w = fp.state(alpha, lambda x: betas[x])
        fine = wright.space.event_of(["x", "y", "z"])
        loop = wright.space.event_of(["q", "z"])
        assert retrodictive_marginal(fp, w, fine) != retrodictive_marginal(
            fp, w, loop
        )


class TestTruncation:
    def test_depth_zero(self, binary):
        tc = truncated_compound(binary, 0)
        assert tc.tests_as_strings() == {frozenset([()])}

    def test_depth_two_matches_tree_oracle(self, binary):
        tc = truncated_compound(binary, 2)
        oracle = tree_tests([frozenset([0, 1])], 2)
        assert tc.tests_as_strings() == oracle
        assert len(oracle) == 5

    def test_wright_depth_two_matches_tree_oracle(self):
        wright = named("wright")
        tc = truncated_compound(wright, 2)
        oracle = tree_tests(wright.space.tests, 2)
        assert tc.tests_as_strings() == oracle

    def test_depth_monotone_and_submodel(self, binary):
        small = truncated_compound(binary, 1)
        large = truncated_compound(binary, 2)
        inner = small.tests_as_strings()
        outer = large.tests_as_strings()
        assert inner <= outer
        bound = {s for s in large.strings if len(s) <= 1}
        assert inner == {t for t in outer if t <= bound}

    def test_unit_test_present_at_every_depth(self, binary):
        for depth in range(4):
            tc = truncated_compound(binary, depth)
            assert frozenset([()]) in tc.tests_as_strings()

    def test_unit_level_matches_adjunction(self, binary):
        check_unit_level(binary)
        check_unit_level(named("wright"))
        check_unit_level(classical_model(2).model)

    def test_tower_recursion(self, binary):
        assert check_tower_recursion(binary, 0) == 2
        assert check_tower_recursion(binary, 1) == 5
        assert check_tower_recursion(named("wright"), 0) == 3

    def test_generator_state_rows(self):
        s = build_test_space([["a", "b"]])
        g1, g2 = Weight([F(1), F(0)]), Weight([F(1, 2), F(1, 2)])
        m = generator_model(s, [g1, g2])
        tc = truncated_compound(m, 2)
        rows = {(): g2, (0,): g1, (1,): g2}
        w = transition_state(tc, rows)
        assert w[tc.id_of(())] == 1
        assert w[tc.id_of((0,))] == F(1, 2)
        assert w[tc.id_of((0, 0))] == F(1, 2)
        assert w[tc.id_of((0, 1))] == 0
        assert w[tc.id_of((1, 0))] == F(1, 4)
        assert tc.model.contains_state(w)


class TestHullTwins:
    """The tower check and the string-evaluation probe read test families only,
    so a model given as the hull of its vertices gets its full twin's answers,
    also where the compound of the hull would pass ``COMPOUND_GENERATOR_CAP``."""

    def test_sequential_and_g_algebra_reports(self):
        """(evaluation_total, strings_checked, strings_skipped) of classical(n)
        at probe depths 2, 2 and 1; the 3-point hull's compound needs 3^8
        generators."""
        counts = []
        for n, depth in ((2, 2), (3, 2), (4, 1)):
            cm = classical_model(n)
            hull = Model(cm.model.space, StateSpace.hull(cm.model.state_vertices()))
            report = validate_sequential(cm.model, cm.product, depth).report
            assert validate_sequential(hull, cm.product, depth).report == report
            g_algebras = [
                validate_g_algebra(m, cm.sigma, cm.product, depth) for m in (cm.model, hull)
            ]
            strings = {(g.strings_checked, g.strings_skipped) for g in g_algebras}
            assert len(strings) == 1
            counts.append((report.evaluation_total, *strings.pop()))
        assert counts == [(13, 18, 2), (57, 192, 18), (16, 51, 0)]

    def test_tower_recursion(self):
        """At depth 2 the hull's compound would need 2^13 generators."""
        full = full_model(build_test_space([["a", "b"], ["b", "c"]]))
        hull = Model(full.space, StateSpace.hull(full.state_vertices()[:2]))
        for model in (full, hull):
            assert [check_tower_recursion(model, depth) for depth in range(3)] == [3, 19, 723]


class TestCompoundFunctor:
    def test_identity(self, binary):
        for depth in (2, 3):
            lifted = functor_compound(identity_morphism(binary), depth)
            assert lifted.test_preserving and lifted.embedding

    def test_pullback_lifts(self):
        c2, c3 = classical_model(2), classical_model(3)
        fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
        mapping = []
        for s in c2.subsets:
            preimage = frozenset().union(*(fibers[p] for p in s))
            mapping.append(c3.subset_id[preimage])
        phi = validate_morphism(c2.model, c3.model, tuple(mapping))
        lifted = functor_compound(phi, 2)
        assert lifted.test_preserving
        src = truncated_compound(c2.model, 2)
        for sid, s in enumerate(src.strings):
            assert len(s) <= 2

    def test_concatenation_monad_at_truncation(self, binary):
        """Flattening strings of strings is associative with units, pointwise."""
        n = binary.space.n_outcomes
        letters = [(x,) for x in range(n)]
        strings = [()] + letters + [a + b for a in letters for b in letters]
        for outer in [(), *[(s,) for s in strings]]:
            flat = sum(outer, ())
            assert flat in strings
        for a in strings:
            for b in strings:
                if len(a) + len(b) <= 2:
                    assert a + b == tuple(list(a) + list(b))
                    assert a + () == a and () + a == a


class TestSequential:
    def test_trivial_model(self):
        m = full_model(build_test_space([["e"]]))
        sp = SequentialProduct(0, {(0, 0): 0})
        checked = validate_sequential(m, sp, probe_depth=2)
        assert checked.report.inductivity_checked == 1
        assert checked.report.inductivity_skipped == 0

    def test_truncation_window_probe(self, binary):
        tc = truncated_compound(binary, 3)
        sp = concatenation_product(tc)
        checked = validate_sequential(tc.model, sp, probe_depth=1)
        assert checked.report.associativity_checked > 0
        assert checked.report.inductivity_checked > 0

    def test_classical_intersection_product(self):
        cm = classical_model(2)
        checked = validate_sequential(cm.model, cm.product, probe_depth=2)
        assert checked.report.inductivity_skipped == 0

    def test_state_enumeration_reads_the_cap(self):
        """The states are ``state_vertices(cap)``: classical3's polytope needs
        5 rays, so cap 4 stops there, before the compound would."""
        cm = classical_model(3)
        with pytest.raises(EnumerationCapExceeded, match="polytope vertices: needs ≥ 5"):
            validate_sequential(cm.model, cm.product, cap=4)

    def test_corrupted_table_detected(self):
        cm = classical_model(2)
        table = dict(cm.product.table)
        one = cm.subset_id[frozenset({1})]
        two = cm.subset_id[frozenset({2})]
        table[(one, one)] = two  # {1} * {1} should be {1}
        bad = SequentialProduct(cm.product.unit, table)
        with pytest.raises(NotSequential):
            validate_sequential(cm.model, bad, probe_depth=1)

    @pytest.mark.parametrize("value", [-1, 3, 99, 1.0])
    def test_a_product_that_is_no_outcome_is_refused(self, value):
        """x·y must name an outcome; a table value outside them used to index the
        orthogonality table (wrapping at -1) or fail with IndexError later."""
        cm = classical_model(2)
        one = cm.subset_id[frozenset({1})]
        table = dict(cm.product.table)
        table[(one, one)] = value
        for semantics in (IMPOSSIBLE, OUT_OF_WINDOW):
            bad = SequentialProduct(cm.product.unit, table, undefined_means=semantics)
            with pytest.raises(NotSequential, match="product is not an outcome") as info:
                validate_sequential(cm.model, bad, probe_depth=1, states=[])
            assert info.value.witness == one

    def test_out_of_window_names_the_semantics(self):
        unit, table = 0, {(0, 0): 0}
        assert not SequentialProduct(unit, table).out_of_window
        assert not SequentialProduct(unit, table, undefined_means=IMPOSSIBLE).out_of_window
        assert SequentialProduct(unit, table, undefined_means=OUT_OF_WINDOW).out_of_window

    def test_products_are_read_once_per_call(self):
        """The state loop asks the product nothing: more states, same product calls."""
        cm = classical_model(3)
        calls = []

        class Counting(SequentialProduct):
            def prod(self, x, y):
                calls.append((x, y))
                return super().prod(x, y)

        sp = Counting(cm.product.unit, cm.product.table)
        vertices = cm.model.state_vertices()
        counts = []
        for states in (vertices[:1], vertices * 3):
            calls.clear()
            report = validate_sequential(cm.model, sp, probe_depth=1, states=states).report
            assert report.state_candidates == len(states)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_chain_rule(self):
        cm = classical_model(2)
        for w in cm.model.state_vertices():
            assert check_chain_rule(cm.model, cm.product, w)

    def test_chain_rule_rejects_non_transition_weight(self, binary):
        tc = truncated_compound(binary, 2)
        sp = concatenation_product(tc)
        vals = [F(0)] * tc.model.space.n_outcomes
        vals[tc.id_of(())] = F(1)
        vals[tc.id_of((0,))] = F(3, 5)
        vals[tc.id_of((1,))] = F(2, 5)
        vals[tc.id_of((0, 0))] = F(1, 5)
        vals[tc.id_of((0, 1))] = F(1, 5)  # branch mass 2/5 under a 3/5 parent
        vals[tc.id_of((1, 0))] = F(1, 5)
        vals[tc.id_of((1, 1))] = F(2, 5)
        verdict = check_chain_rule(tc.model, sp, Weight(vals))
        assert not verdict

    def test_validate_sequential_raises_the_chain_rule_witness(self, binary):
        """The state check of ``validate_sequential`` is ``check_chain_rule``: tests
        first, then outcomes, and the same first failing (x, t)."""
        tc = truncated_compound(binary, 2)
        sp = concatenation_product(tc)
        vals = [F(0)] * tc.model.space.n_outcomes
        for s, v in [((), 1), ((0,), F(3, 5)), ((1,), F(2, 5)), ((0, 0), F(1, 5))]:
            vals[tc.id_of(s)] = F(v)
        w = Weight(vals)
        a, b = tc.id_of((0,)), tc.id_of((1,))
        # outcomes first would give (ε, {a, b·a, b·b}) instead
        assert check_chain_rule(tc.model, sp, w).witness == (a, frozenset({a, b}))
        with pytest.raises(NotSequential, match="marginal") as info:
            validate_sequential(tc.model, sp, states=[w])
        assert info.value.witness == (a, frozenset({a, b}))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_chain_rule_refuses_a_weight_of_the_wrong_length(self, extra):
        cm = classical_model(2)
        values = cm.model.state_vertices()[0].values
        values = values[:-1] if extra < 0 else values + (F(0),)
        with pytest.raises(NotAState, match="weight length does not match outcome count"):
            check_chain_rule(cm.model, cm.product, Weight(values))

    # Recorded before the inductivity loop built its images with
    # ``event_product``: 37 entries under two semantics, 24 of them raising
    # "branch assignment leaves the test family" and the others reporting
    # their inductivity_checked / inductivity_skipped counts.  Re-pinned when
    # the report lost its ``states_exhaustive`` field, and again when it lost
    # ``inductivity_mode`` once inductivity was decided exactly by counting:
    # each time the previous 74 lines with that element (True, then
    # 'exhaustive', in every report) removed hash to this digest.
    ONE_ENTRY_DELETIONS_SHA256 = "d30246d7926c583af44ee5b7ad23f94ab70c085961e1f6352939f74e588056e0"

    def test_one_entry_deletions_are_byte_stable(self):
        """Each single entry of the classical 3-point product deleted, under both
        semantics: the exception (class, message, witness) or the report."""
        cm = classical_model(3)
        table = cm.product.table
        lines = []
        for semantics in (IMPOSSIBLE, OUT_OF_WINDOW):
            for key in sorted(table):
                rest = {k: v for k, v in table.items() if k != key}
                sp = SequentialProduct(cm.product.unit, rest, undefined_means=semantics)
                try:
                    report = validate_sequential(cm.model, sp).report
                    got = tuple(getattr(report, name) for name in report.__slots__)
                except OrthokitError as exc:
                    got = (type(exc).__name__, str(exc), getattr(exc, "witness", None))
                lines.append(f"{semantics} {key} {got!r}")
        assert len(lines) == 74
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.ONE_ENTRY_DELETIONS_SHA256


class TestNonatomicity:
    def test_depth_three_witnesses(self, binary):
        tc = truncated_compound(binary, 3)
        report = nonatomicity_report(tc)
        strings = {s for s, _, _ in report}
        assert strings == {s for s in tc.strings if len(s) <= 2}
        for s, extension, axis in report:
            sid = tc.id_of(s)
            assert tc.model.space.complementary(frozenset([sid]), axis)
            assert tc.model.space.complementary(extension, axis)

    def test_singleton_base_unmet(self):
        point = full_model(build_test_space([["a"]]))
        tc = truncated_compound(point, 2)
        with pytest.raises(HypothesisUnmet):
            nonatomicity_report(tc)


class TestPreservation:
    def test_forward_classical_pair(self):
        rep = preservation_forward(classical_model(2).model, classical_model(2).model)
        for name in ("unital", "strongly_unital", "regular", "algebraic", "coherent"):
            assert rep.verified(name), name

    def test_compound_depth_two(self, binary):
        rep = preservation_compound(binary, 2)
        assert rep.verified("unital") and rep.verified("algebraic")

    def test_witnesses_found_once_per_model(self, monkeypatch):
        """A repeated preservation check, and then the premise itself, solve no LP.

        The models answer through the LP cover (``lp_oracles.lp_cover``), as
        past the vertex budget.  The triangle is not unital, so every failure
        it reports needs an LP unless the model remembers the answer.
        """
        solved = []
        solve = Model.optimize_over_states

        def counting(self, *args, **kwargs):
            solved.append(self)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(Model, "optimize_over_states", counting)
        triangle = build_test_space([["a", "b"], ["a", "c"], ["b", "c"]])
        # fresh copies: ``named`` built the space's first model, and the full
        # models on one space share the LP optima each of them solves
        for space in (build_test_space([["a", "b"]]), named("wright").space, triangle):
            m = Model(lp_oracles.lp_cover(space), StateSpace.full())
            preservation_forward(m, m)
            assert m in solved
            solved.clear()
            preservation_forward(m, m)
            m.check_strongly_unital()
            assert m not in solved

    def test_preservation_enumerates_no_vertex(self, monkeypatch):
        """Neither suite asks for vertices at the caller's cap, not even of a
        full factor paired with the hull of its vertices, where
        ``forward_product`` needs them, and neither builds an output state.
        The premises enumerate a full input's vertices once, under its
        space's budget (n + 1)(2n + 1)."""
        def refuse(*args, **kwargs):
            raise LawViolation("a preservation check asked for state vertices or output states")

        spaces = [m.space for m in list(corpus_models(6, 3))[::8]]
        models = [Model(testspace.TestSpace(sp.labels, sp._test_masks), StateSpace.full()) for sp in spaces]
        hulls = [Model(sp, StateSpace.hull(full_model(sp).state_vertices())) for sp in spaces]
        monkeypatch.setattr(Model, "state_vertices", refuse)
        for name in ("forward_product", "truncated_compound", "_pair_weight", "transition_state"):
            monkeypatch.setattr(compounding, name, refuse)
        built = []
        init = Model.__init__
        monkeypatch.setattr(
            Model, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k)
        )
        for m, hull in zip(models, hulls):
            assert m._polytope().vertices is None
            preservation_compound(m, 2, cap=100_000)
            preservation_forward(m, m, cap=100_000)
            full_first = preservation_forward(m, hull, cap=100_000)
            assert preservation_forward(hull, m, cap=100_000) == full_first
            n = m.space.n_outcomes
            assert m._polytope().vertices[0] == (n + 1) * (2 * n + 1)
        assert built == []

    def test_float_witnesses_below_one_compound(self):
        """Float witnesses may sit up to tol below 1, and both constructions
        multiply them.

        The first generator puts 1 - 5e-10 on a and is the witness certain
        of a.  The compound's string (a, a) and the forward square's pairs
        (a, x), (a, y) multiply two such factors.  No generator certain of x
        puts weight on y, so (x, y) has no strong witness, as in the exact
        hull (a mixture could leave 1.5e-9 at y with x at 1 - tol).
        """
        space = build_test_space([["x", "z"], ["y", "p"], ["a", "q"]])
        rows = [
            {"x": 1.0, "z": 0.0, "y": 0.0, "p": 1.0, "a": 1 - 5e-10, "q": 5e-10},
            {"x": 2 / 3, "z": 1 / 3, "y": 0.5, "p": 0.5, "a": 1.0, "q": 0.0},
        ]

        def hull():
            gens = [weight_from_labels(space, r) for r in rows]
            return generator_model(space, gens, exact=False)

        m = hull()
        x, y, a = (space.outcome(lab) for lab in ("x", "y", "a"))
        assert m.certainty_witness(a)[a] < 1 and m.strong_witness(x, y) is None
        # z is certain under no state, so neither model is unital
        for rep in (preservation_compound(hull(), 2), preservation_forward(m, m)):
            assert rep.properties["unital"] == (False, False)
            assert rep.properties["strongly_unital"] == (False, False)

    def test_float_premises_are_the_model_checks(self):
        """Certainty of x forces weight 0 on y, but at x = 1 - tol, y can take
        2 tol, above the float floor.  So the float model is strongly unital and
        its exact twin is not, and the premises and the witnesses of both
        constructions follow ``check_strongly_unital`` in each.
        """
        space = build_test_space([["x", "a", "v"], ["x", "b", "u"], ["a", "b", "c"], ["c", "y"]])
        for exact in (True, False):
            m = full_model(space, exact=exact)
            su = m.check_strongly_unital().holds
            assert su is not exact
            for rep in (preservation_compound(m, 2), preservation_forward(m, m)):
                assert rep.properties["unital"] == (True, True)
                assert rep.properties["strongly_unital"] == (su, su)

    def test_non_positive_models_are_refused_before_any_pair(self):
        """A directly built hull of two vertices can leave outcomes that no state
        weighs: 12 of these 14 corpus hulls do.  Both constructions refuse them
        with ``PositivityViolation`` naming those outcomes, as ``generator_model``
        would, whichever factor of a forward product they are."""
        spaces = [m.space for m in corpus_models(6, 3)]
        refused = 0
        for i in range(0, 105, 8):
            full = full_model(spaces[i])
            m = Model(spaces[i], StateSpace.hull(full.state_vertices()[:2]))
            dead = [m.space.labels[x] for x in m.positivity_failures()]
            checks = [
                lambda: preservation_compound(m, 2),
                lambda: compound_unitality(truncated_compound(m, 2)),
                lambda: preservation_forward(m, m),
                lambda: preservation_forward(full, m),
                lambda: forward_unitality(forward_product(full, m)),
            ]
            for check in checks:
                if not dead:
                    check()
                    continue
                with pytest.raises(PositivityViolation) as info:
                    check()
                assert str(info.value) == f"no state is positive at {dead}"
            refused += bool(dead)
        assert refused == 12

    def test_vacuous_strong_unitality_gated(self):
        loops = full_model(build_test_space([["a", "b"], ["a", "c"], ["b", "c"]]))
        rep = preservation_compound(loops, 2)
        premise, got = rep.properties["strongly_unital"]
        assert not premise  # not unital, so no claim is made
        assert got is False  # and the compound indeed loses it

    def test_witness_unitality_matches_pool_scan(self, binary):
        wright = named("wright")
        for m in (binary, wright):
            tc = truncated_compound(m, 2)
            pool = transition_vertex_pool(tc)
            unital, su = compound_unitality(tc)
            assert unital == _pool_unital(tc.model, pool)
            assert su == _pool_strongly_unital(tc.model, pool)

    def test_witness_unitality_matches_pool_scan_forward(self, binary):
        loops = full_model(build_test_space([["a", "b"], ["a", "c"], ["b", "c"]]))
        for left, right in [(binary, binary), (loops, binary), (binary, loops)]:
            fp = forward_product(left, right)
            pool = forward_vertex_pool(fp)
            unital, su = forward_unitality(fp)
            assert unital == _pool_unital(fp.model, pool)
            assert su == _pool_strongly_unital(fp.model, pool)

    def test_forward_unitality_matches_whole_pair_states(self):
        for m in list(corpus_models(6, 3))[::4]:
            fp = forward_product(m, m, cap=100_000)
            assert forward_unitality(fp) == pair_state_forward_unitality(fp)

    def test_forward_unitality_violation_matches_whole_pair_states(self, monkeypatch):
        """Witnesses that are not certain at their outcome fail the same pair,
        in a forward square and in a depth-2 compound."""
        wright = named("wright")
        fp = forward_product(wright, wright)
        tc = truncated_compound(wright, 2)
        vertices = wright.state_vertices()
        uncertain = Weight([sum(col) / len(vertices) for col in zip(*vertices)])
        # Model has __slots__, so the accessors are patched on the class
        monkeypatch.setattr(Model, "certainty_witness", lambda self, x: uncertain)
        monkeypatch.setattr(Model, "strong_witness", lambda self, x, y: uncertain)
        for built, checks in (
            (fp, (forward_unitality, pair_state_forward_unitality)),
            (tc, (compound_unitality, pair_loop_compound_unitality)),
        ):
            messages = []
            for check in checks:
                with pytest.raises(LawViolation) as info:
                    check(built)
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_reports_identical_under_optimize(self):
        """Witness re-verification raises instead of asserting, so -O changes nothing."""
        script = OPTIMIZED_REPORTS.format(sample=list(PRESERVATION_SAMPLE))
        src = str(Path(orthokit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        models = list(corpus_models(6, 3))
        want = []
        for i in PRESERVATION_SAMPLE:
            for rep in (
                preservation_compound(models[i], 2, cap=100_000),
                preservation_forward(models[i], models[i], cap=100_000),
            ):
                want.append([rep.construction, rep.properties, rep.skipped])
        assert json.loads(proc.stdout) == json.loads(json.dumps(want))


class TestMoreTransport:
    def test_supports_lift_to_compounds(self):
        """Strings over a support form a support of the truncation."""
        for name in ("single-2", "wright"):
            m = named(name)
            space = m.space
            tc = truncated_compound(m, 2)
            for mask in range(1, 1 << space.n_outcomes):
                # the empty support is degenerate: its string monoid is just
                # the empty string, whose trace breaks the antichain
                s = frozenset(i for i in range(space.n_outcomes) if mask >> i & 1)
                if not space.is_support(s):
                    continue
                lifted = frozenset(
                    sid
                    for sid, string in enumerate(tc.strings)
                    if all(x in s for x in string)
                )
                assert tc.model.space.is_support(lifted), (name, sorted(s))

    def test_unit_adjunction_preserves_properties(self):
        from orthokit.compounding import _model_properties, adjoin_unit_model

        for m in corpus_models(4, 2):
            before = _model_properties(m, None)
            prime, _ = adjoin_unit_model(m)
            after = _model_properties(prime, None)
            for name, held in before.items():
                if held:
                    assert after[name], (repr(m.space), name)

    def test_semiclassical_window_logic_is_orthomodular(self):
        from orthokit.logic import build_logic

        m = named("semiclassical-2x2")
        tc = truncated_compound(m, 2)
        space = tc.model.space
        assert space.algebraic() and space.coherent()
        logic = build_logic(space)
        assert logic.is_omp()
        for s, _, _ in nonatomicity_report(tc):
            assert len(s) <= 1
