"""Morphism validation, composition, and transport properties."""

from fractions import Fraction as F
from itertools import product

import pytest

from orthokit.errors import (
    DomainMismatch,
    EnumerationCapExceeded,
    HypothesisUnmet,
    MorphismError,
    NotLocallyInjective,
    NumericKindMismatch,
    PullbackNotState,
)
from orthokit.corpus import named
from orthokit.morphisms import (
    Morphism,
    check_retraction_test_preserving,
    compose,
    identity_morphism,
    image_core,
    morphisms_equal,
    validate_morphism,
)
from orthokit.quantum import classical_model
from orthokit.states import Weight, full_model, generator_model
from orthokit.testspace import build_test_space


def all_morphisms(src, dst):
    """Exhaustive search over outcome maps; tiny models only."""
    found = []
    for mapping in product(range(dst.space.n_outcomes), repeat=src.space.n_outcomes):
        try:
            found.append(validate_morphism(src, dst, mapping))
        except MorphismError:
            pass
    return found


def check_preserves_perspectivity(phi):
    """Exhaustive check that perspective source events have perspective images.

    Holds for every validated morphism; the corrupted-map test probes it on
    a map that skipped validation.  Returns an (ok, witness) pair.
    """
    src, dst = phi.source.space, phi.target.space
    events = src.events_list()
    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            if src.is_perspective(a, b) and not dst.is_perspective(
                phi.image(a), phi.image(b)
            ):
                return False, (a, b)
    return True, None


def corrupt_mapping(phi, x: int, new_target: int) -> tuple[int, ...]:
    """A deliberately corrupted copy of the outcome map, for negative tests."""
    mapping = list(phi.mapping)
    mapping[x] = new_target
    return tuple(mapping)


def flags(phi):
    return phi.test_preserving, phi.embedding


@pytest.fixture(scope="module")
def fold_models():
    """A = [[a,b]], B = [[a,b],[c,d]] and C = [[x,y]], all full."""
    return tuple(
        full_model(build_test_space(tests))
        for tests in ([["a", "b"]], [["a", "b"], ["c", "d"]], [["x", "y"]])
    )


@pytest.fixture(scope="module")
def disjoint_pair():
    """Inclusion of two disjoint tests into their one-point pasting."""
    small = full_model(build_test_space([["a", "b"], ["c", "d"]]))
    big = full_model(build_test_space([["a", "b", "w"], ["c", "d", "w"]]))
    mapping = tuple(big.space.outcome(lab) for lab in small.space.labels)
    phi = validate_morphism(small, big, mapping)
    return small, big, phi


class TestValidation:
    def test_identity(self):
        m = named("wright")
        phi = identity_morphism(m)
        assert phi.test_preserving and phi.embedding

    def test_inclusion_not_test_preserving(self, disjoint_pair):
        _, _, phi = disjoint_pair
        assert not phi.test_preserving
        assert not phi.embedding

    def test_orthogonality_violation(self):
        m = named("wright")
        # collapse two outcomes of one test
        mapping = [0] * m.space.n_outcomes
        with pytest.raises(NotLocallyInjective):
            validate_morphism(m, m, mapping)

    def test_pullback_not_state(self):
        src = generator_model(
            build_test_space([["a", "b"]]), [Weight([F(1, 2), F(1, 2)])]
        )
        dst = full_model(build_test_space([["u", "v"]]))
        with pytest.raises(PullbackNotState):
            validate_morphism(src, dst, (0, 1))

    def test_pullback_state_condition_implied_for_full_sources(self, disjoint_pair):
        _, _, phi = disjoint_pair
        assert phi.d_status == "implied"

    def test_preserving_one_test_preserves_all(self):
        """Any validated map sending some test to a test sends every test to one."""
        wright = named("wright")
        single = full_model(build_test_space([["a", "b"]]))
        for src, dst in [(single, wright), (wright, wright)]:
            for phi in all_morphisms(src, dst):
                images = [phi.image(t) for t in src.space.tests]
                if any(img in dst.space.test_set for img in images):
                    assert phi.test_preserving


class TestClassicalPullbacks:
    def make_pullback(self, fibers, src, dst):
        """Pullback morphism of a point surjection between partition models."""
        mapping = []
        for s in src.subsets:
            preimage = frozenset().union(*(fibers[p] for p in s))
            mapping.append(dst.subset_id[preimage])
        return validate_morphism(src.model, dst.model, tuple(mapping))

    def test_pullback_is_embedding(self):
        c2, c3 = classical_model(2), classical_model(3)
        fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
        phi = self.make_pullback(fibers, c2, c3)
        assert phi.embedding

    def test_pullbacks_compose_contravariantly(self):
        c2, c3, c4 = classical_model(2), classical_model(3), classical_model(4)
        f32 = {1: frozenset({1}), 2: frozenset({2, 3})}  # f: 3 pts -> 2 pts
        g43 = {1: frozenset({1, 2}), 2: frozenset({3}), 3: frozenset({4})}
        phi = self.make_pullback(f32, c2, c3)
        psi = self.make_pullback(g43, c3, c4)
        composite = compose(psi, phi)
        gf = {
            p: frozenset().union(*(g43[q] for q in f32[p])) for p in f32
        }
        direct = self.make_pullback(gf, c2, c4)
        assert morphisms_equal(composite, direct)


class TestComposition:
    def test_identity_neutral(self):
        m = named("wright")
        ident = identity_morphism(m)
        assert morphisms_equal(compose(ident, ident), ident)

    def test_embeddings_compose(self):
        c2, c3 = classical_model(2), classical_model(3)
        fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
        phi = TestClassicalPullbacks().make_pullback(fibers, c2, c3)
        ident = identity_morphism(c3.model)
        assert compose(ident, phi).embedding

    def test_state_flag_is_implied_only_when_both_factors_are(self):
        space = build_test_space([["a", "b"]])
        full = full_model(space)
        hull = generator_model(space, [Weight([F(1), F(0)]), Weight([F(0), F(1)])])
        into_full = validate_morphism(hull, full, (0, 1))
        onto_hull = validate_morphism(full, hull, (0, 1))
        assert (into_full.d_status, onto_hull.d_status) == ("exact", "implied")
        assert compose(onto_hull, into_full).d_status == "exact"
        assert compose(into_full, onto_hull).d_status == "exact"
        assert compose(identity_morphism(full), identity_morphism(full)).d_status == "implied"

    def test_domain_mismatch(self):
        m1, m2 = named("wright"), named("single-2")
        with pytest.raises(DomainMismatch):
            compose(identity_morphism(m1), identity_morphism(m2))

    def test_embedding_then_fold_is_an_embedding(self, fold_models):
        """The flags of the factors do not decide the composite's."""
        a, b, c = fold_models
        phi = validate_morphism(a, b, (0, 1))  # the inclusion of the first test
        psi = validate_morphism(b, c, (0, 1, 0, 1))  # both tests onto one
        assert phi.embedding and not psi.embedding
        composite = compose(psi, phi)
        assert composite.mapping == (0, 1)
        assert composite.test_preserving and composite.embedding
        assert flags(composite) == flags(validate_morphism(a, c, composite.mapping))

    def test_composites_match_validation(self, fold_models):
        """Every composable pair of maps among A, B, C and wright (all but
        wright to itself, 7^7 candidate maps): the composite is a morphism
        whose mapping and flags are those ``validate_morphism`` gives it."""
        a, b, c = fold_models
        models = (a, b, c, named("wright"))
        maps = {
            (i, j): all_morphisms(x, y)
            for i, x in enumerate(models)
            for j, y in enumerate(models)
            if x.space.n_outcomes < 7 or y.space.n_outcomes < 7
        }
        composites = 0
        for (i, j), firsts in maps.items():
            for k in range(len(models)):
                for phi in firsts:
                    for psi in maps.get((j, k), ()):
                        composite = compose(psi, phi)
                        direct = validate_morphism(models[i], models[k], composite.mapping)
                        assert composite.mapping == direct.mapping
                        assert flags(composite) == flags(direct), (phi, psi)
                        composites += 1
        assert composites > 1_000


class TestPerspectivityTransport:
    def test_validated_morphisms_preserve_perspectivity(self, disjoint_pair):
        _, _, phi = disjoint_pair
        ok, witness = check_preserves_perspectivity(phi)
        assert ok, witness

    def test_exhaustively_on_small_pairs(self):
        wright = named("wright")
        single = full_model(build_test_space([["a", "b"]]))
        for phi in all_morphisms(single, wright):
            ok, _ = check_preserves_perspectivity(phi)
            assert ok

    def test_corrupted_map_detected(self, disjoint_pair):
        small, big, phi = disjoint_pair
        # Point one outcome somewhere that breaks perspectivity of images
        # but survives the raw record (bypassing validation).
        mapping = corrupt_mapping(phi, 0, big.space.outcome("w"))
        broken = Morphism(
            phi.source, phi.target, mapping, phi.test_preserving, phi.embedding, phi.d_status
        )
        ok, witness = check_preserves_perspectivity(broken)
        assert not ok and witness is not None


class TestRetraction:
    def test_identity_case(self):
        m = named("wright")
        ident = identity_morphism(m)
        assert check_retraction_test_preserving(ident, ident)

    def test_hypothesis_unmet(self, disjoint_pair):
        small, big, phi = disjoint_pair
        with pytest.raises(HypothesisUnmet):
            check_retraction_test_preserving(phi, phi)


def test_test_preserving_pullbacks_are_states():
    """For test-preserving maps, pullbacks are states, not just rays."""
    c2, c3 = classical_model(2), classical_model(3)
    fibers = {1: frozenset({1}), 2: frozenset({2, 3})}
    phi = TestClassicalPullbacks().make_pullback(fibers, c2, c3)
    assert phi.test_preserving
    for beta in c3.model.state_vertices():
        assert c2.model.contains_state(phi.pullback(beta))


def test_image_core():
    m = named("wright")
    phi = identity_morphism(m)
    assert image_core(phi) == m.space.event_of(["z"])


def test_sampled_state_condition_is_flagged():
    """Past the cap, the target's vertex enumeration raises; nothing is sampled."""
    src = generator_model(
        build_test_space([["a", "b"]]),
        [Weight([F(1), F(0)]), Weight([F(0), F(1)])],
    )
    dst = full_model(build_test_space([["u", "v"]]))
    with pytest.raises(EnumerationCapExceeded, match="polytope vertices"):
        validate_morphism(src, dst, (0, 1), cap=1)
    exact = validate_morphism(src, dst, (0, 1))
    assert exact.d_status == "exact"


def test_state_condition_cap_defaults_to_the_environment(monkeypatch):
    """``cap=None`` reads ORTHOKIT_CAP, as every other entry point does."""
    src = generator_model(
        build_test_space([["a", "b"]]),
        [Weight([F(1), F(0)]), Weight([F(0), F(1)])],
    )
    dst = full_model(build_test_space([["u", "v"]]))
    monkeypatch.setenv("ORTHOKIT_CAP", "1")
    with pytest.raises(EnumerationCapExceeded, match="cap 1"):
        validate_morphism(src, dst, (0, 1))
    monkeypatch.delenv("ORTHOKIT_CAP")
    assert validate_morphism(src, dst, (0, 1)).d_status == "exact"


def test_morphisms_join_models_of_one_scalar_kind():
    """An exact and a float model are never joined, in either direction; the
    float rows are not rationalized into an exact verdict."""
    space = build_test_space([["a", "b"]])
    corners = [(1, 0), (0, 1)]
    exact = generator_model(space, [Weight([F(v) for v in c]) for c in corners])
    floats = generator_model(space, [Weight([float(v) for v in c]) for c in corners], exact=False)
    for src, dst in ((exact, floats), (floats, exact), (full_model(space), floats)):
        with pytest.raises(NumericKindMismatch):
            validate_morphism(src, dst, (0, 1))
    assert validate_morphism(exact, exact, (0, 1)).d_status == "exact"
    assert validate_morphism(floats, floats, (0, 1)).d_status == "exact"


def test_float_hull_into_a_float_full_model():
    """The vertices of a float model's full polytope are exact rationals; the
    state condition pulls them back as floats, the source's kind."""
    space = build_test_space([["a", "b", "c"]])
    corners = [Weight([1.0, 0.0, 0.0]), Weight([0.0, 1.0, 0.0]), Weight([0.0, 0.0, 1.0])]
    src = generator_model(space, corners, exact=False)
    dst = full_model(build_test_space([["u", "v", "w"]]), exact=False)
    assert validate_morphism(src, dst, (0, 1, 2)).d_status == "exact"
    smaller = generator_model(space, [corners[0], Weight([0.0, 0.5, 0.5])], exact=False)
    with pytest.raises(PullbackNotState):
        validate_morphism(smaller, dst, (0, 1, 2))
