"""Model generators: partitions, Hilbert slices, iterated beam experiments."""

import math

import pytest

from orthokit import quantum
from orthokit.errors import DepthCapExceeded, NotAState, NotOrthonormal, UsageError
from orthokit.interference import find_interference
from orthokit.quantum import (
    SplitterPlan,
    beam_model,
    check_orthonormal,
    classical_model,
    hilbert_slice_model,
    mixed_density,
    preset_qubit_interferometer,
    preset_spin1,
    preset_spin32,
    pure_density,
    spin1_rotation,
    vdot,
)

SQ2 = math.sqrt(2.0)
TOL = 1e-9


def scan(bm, state_index=0):
    return find_interference(
        bm.model,
        bm.sigma,
        bm.path_product,
        states=[bm.model.states.generators[state_index]],
        witnesses_from=range(len(bm.witness_labels)),
    )


class TestClassicalGenerator:
    def test_point(self):
        cm = classical_model(1)
        assert len(cm.model.space.tests) == 1
        assert cm.model.space.n_outcomes == 1

    def test_three_points(self):
        cm = classical_model(3)
        assert len(cm.model.space.tests) == 5  # set partitions of a 3-set
        assert cm.model.space.n_outcomes == 7  # nonempty subsets

    def test_structure_maps_cover_all_events(self):
        cm = classical_model(3)
        events = [e for e in cm.model.space.events_list() if e]
        assert set(cm.sigma) == set(events)

    def test_invalid_size(self):
        with pytest.raises(UsageError):
            classical_model(0)


class TestHilbertSlices:
    def test_single_basis_point_state(self):
        z = ((1 + 0j, 0j), (0j, 1 + 0j))
        m = hilbert_slice_model(
            [z], [(1 + 0j, 0j), mixed_density(2)], labels=[["z0", "z1"]]
        )
        w = m.states.generators[0]
        assert abs(w[m.space.outcome("z0")] - 1.0) < TOL
        assert abs(w[m.space.outcome("z1")]) < TOL

    def test_positivity_failure_is_loud(self):
        z = ((1 + 0j, 0j), (0j, 1 + 0j))
        from orthokit.errors import PositivityViolation

        with pytest.raises(PositivityViolation):
            hilbert_slice_model([z], [(1 + 0j, 0j)], labels=[["z0", "z1"]])

    def test_two_bases_born_weights(self):
        z = ((1 + 0j, 0j), (0j, 1 + 0j))
        x = ((1 / SQ2 + 0j, 1 / SQ2 + 0j), (1 / SQ2 + 0j, -1 / SQ2 + 0j))
        m = hilbert_slice_model(
            [z, x],
            [(1 + 0j, 0j), mixed_density(2)],
            labels=[["z0", "z1"], ["x+", "x-"]],
        )
        w = m.states.generators[0]
        assert abs(w[m.space.outcome("z0")] - 1.0) < TOL
        assert abs(w[m.space.outcome("x+")] - 0.5) < TOL
        assert abs(w[m.space.outcome("x-")] - 0.5) < TOL

    def test_born_weights_normalize_per_test(self):
        from orthokit.corpus import named

        m = named("qubit-zx")
        for g in m.states.generators:
            for t in m.space.tests:
                assert abs(g.of(t) - 1.0) < 1e-8

    def test_not_orthonormal(self):
        bad = ((1 + 0j, 0j), (1 / SQ2 + 0j, 1 / SQ2 + 0j))
        with pytest.raises(NotOrthonormal):
            hilbert_slice_model([bad], [(1 + 0j, 0j)])

    def test_unnormalized_state(self):
        z = ((1 + 0j, 0j), (0j, 1 + 0j))
        with pytest.raises(NotAState):
            hilbert_slice_model([z], [(2 + 0j, 0j)])

    def test_density_matrix_state(self):
        z = ((1 + 0j, 0j), (0j, 1 + 0j))
        m = hilbert_slice_model([z], [mixed_density(2)], labels=[["z0", "z1"]])
        w = m.states.generators[0]
        assert abs(w[0] - 0.5) < TOL and abs(w[1] - 0.5) < TOL

    def test_label_reuse_requires_same_vector(self):
        z = ((1 + 0j, 0j), (0j, 1 + 0j))
        x = ((1 / SQ2 + 0j, 1 / SQ2 + 0j), (1 / SQ2 + 0j, -1 / SQ2 + 0j))
        with pytest.raises(UsageError):
            hilbert_slice_model([z, x], [(1 + 0j, 0j)], labels=[["a", "b"], ["a", "c"]])


def qubit_oracle():
    """Amplitude arithmetic from scratch for the balanced interferometer."""
    psi = (1 / SQ2, 1 / SQ2)
    basis1 = ((1.0, 0.0), (0.0, 1.0))
    plus = (1 / SQ2, 1 / SQ2)
    # coherent: loop both beams, i.e. project onto their whole span (identity)
    coh = abs(plus[0] * psi[0] + plus[1] * psi[1]) ** 2
    # incoherent: detect, then reanalyze each collapsed beam
    inc = sum(
        (abs(b[0] * psi[0] + b[1] * psi[1]) ** 2)
        * (abs(plus[0] * b[0] + plus[1] * b[1]) ** 2)
        for b in basis1
    )
    return coh, inc


def spin1_oracle():
    """Amplitude oracle for the rotated three-beam experiment at a half turn."""
    r = (
        (0.5, -1 / SQ2, 0.5),
        (1 / SQ2, 0.0, -1 / SQ2),
        (0.5, 1 / SQ2, 0.5),
    )
    psi = (1.0, 0.0, 0.0)
    amps = [sum(r[i][k] * psi[k] for k in range(3)) for i in range(3)]
    projected = [amps[0] * r[0][k] + amps[1] * r[1][k] for k in range(3)]
    u = (1.0, 0.0, 0.0)
    coh = abs(sum(u[k] * projected[k] for k in range(3))) ** 2
    inc = sum(abs(amps[i]) ** 2 * abs(r[i][0]) ** 2 for i in range(2))
    return coh, inc


class TestBeamPresets:
    def test_qubit_interferometer_gap(self):
        bm = preset_qubit_interferometer()
        wits = scan(bm)
        coh, inc = qubit_oracle()
        assert abs(coh - 1.0) < TOL and abs(inc - 0.5) < TOL
        plus = bm.witness_labels.index("plus")
        hit = [w for w in wits if w.outcome == plus]
        assert len(hit) == 1
        assert abs(hit[0].coherent - coh) < TOL
        assert abs(hit[0].incoherent - inc) < TOL
        assert abs(hit[0].gap - 0.5) < TOL

    def test_spin1_gap_matches_oracle(self):
        bm = preset_spin1()
        wits = scan(bm)
        coh, inc = spin1_oracle()
        assert abs(coh - inc) > 1e-3  # the interference is real
        u = bm.witness_labels.index("u")
        hit = [w for w in wits if w.outcome == u]
        assert len(hit) == 1
        assert abs(hit[0].coherent - coh) < TOL
        assert abs(hit[0].incoherent - inc) < TOL
        assert abs(hit[0].gap - 0.25) < TOL

    def test_spin32_has_interference(self):
        wits = scan(preset_spin32())
        assert wits
        assert all(abs(w.gap) > 1e-6 for w in wits)

    def test_mixed_background_shows_no_gap_for_qubit(self):
        bm = preset_qubit_interferometer()
        assert scan(bm, state_index=1) == []

    def test_rotation_frames_are_orthonormal(self):
        for theta in (0.3, math.pi / 2, 2.0):
            check_orthonormal(spin1_rotation(theta))


Z0, Z1 = (1 + 0j, 0j), (0j, 1 + 0j)
PLUS, MINUS = (1 / SQ2 + 0j, 1 / SQ2 + 0j), (1 / SQ2 + 0j, -1 / SQ2 + 0j)
REANALYZE = SplitterPlan(basis=(PLUS, MINUS), labels=("plus", "minus"))
RESPLIT = SplitterPlan(basis=(Z0, Z1), labels=("s0", "s1"))


def deep_plan():
    plan = SplitterPlan(basis=(Z0, Z1), labels=("0", "1"))
    for _ in range(4):
        plan = SplitterPlan(basis=(Z0, Z1), labels=("0", "1"), fine_next={0: plan})
    return plan


# name -> (plan, initial vector): every plan the beam tests build, which
# test_quantum_oracles also hands to the reference builder
PLANS = {
    "no loops": (
        SplitterPlan(basis=(Z0, Z1), labels=("0", "1"), fine_next={0: REANALYZE, 1: REANALYZE}),
        PLUS,
    ),
    "singleton loop": (
        SplitterPlan(
            basis=(Z0, Z1),
            labels=("0", "1"),
            groups=(frozenset({0}),),
            group_labels=("q",),
            fine_next={0: REANALYZE, 1: REANALYZE},
            group_next={0: REANALYZE},
        ),
        PLUS,
    ),
    "same basis": (
        SplitterPlan(
            basis=(Z0, Z1),
            labels=("0", "1"),
            groups=(frozenset({0, 1}),),
            group_labels=("q",),
            fine_next={0: RESPLIT, 1: RESPLIT},
            group_next={0: RESPLIT},
        ),
        Z0,  # a basis state
    ),
    "too deep": (deep_plan(), Z0),
    "overlapping loops": (
        SplitterPlan(
            basis=(Z0, Z1),
            labels=("0", "1"),
            groups=(frozenset({0}), frozenset({0})),
            group_labels=("q", "r"),
        ),
        Z0,
    ),
    "fully blocked": (
        SplitterPlan(basis=(Z0, Z1), labels=("0", "1"), blocked=frozenset({0})),
        Z0,
    ),
}


class TestBeamSemantics:
    def test_no_loops_no_interference(self):
        bm = beam_model(*PLANS["no loops"])
        assert bm.sigma == {}
        assert scan(bm) == []

    def test_singleton_loop_no_gap(self):
        assert scan(beam_model(*PLANS["singleton loop"])) == []

    def test_reanalysis_in_same_basis_diagonal(self):
        assert scan(beam_model(*PLANS["same basis"])) == []

    def test_blocking_post_selects(self):
        bm = preset_spin32()
        w = bm.model.states.generators[0]
        for t in bm.model.space.tests:
            assert abs(w.of(t) - 1.0) < 1e-8

    def test_depth_cap(self):
        with pytest.raises(DepthCapExceeded):
            beam_model(*PLANS["too deep"])

    def test_group_validation(self):
        with pytest.raises(UsageError):
            beam_model(*PLANS["overlapping loops"])

    def test_fully_blocked_state_rejected(self):
        with pytest.raises(NotAState):
            beam_model(*PLANS["fully blocked"])


@pytest.fixture
def no_born_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("Born rule applied before the plan was checked")

    monkeypatch.setattr(quantum, "project_density", refuse)
    monkeypatch.setattr(quantum, "_born_weight", refuse)


@pytest.mark.usefixtures("no_born_rule")
class TestDimensions:
    """Frames, states and initial vectors share one dimension, checked before
    any Born weight or projection is computed."""

    def test_empty_basis(self):
        with pytest.raises(NotOrthonormal):
            check_orthonormal([])
        with pytest.raises(NotOrthonormal):
            hilbert_slice_model([()], [Z0])
        with pytest.raises(NotOrthonormal):
            beam_model(SplitterPlan(basis=(), labels=()), Z0)

    def test_initial_vector_of_another_dimension(self):
        plan, _ = PLANS["no loops"]
        with pytest.raises(NotAState, match="dimension 2"):
            beam_model(plan, (1 + 0j,))

    def test_follow_up_frame_of_another_dimension(self):
        e = [tuple(complex(i == j) for j in range(3)) for i in range(3)]
        wide = SplitterPlan(basis=tuple(e), labels=("a", "b", "c"))
        plan = SplitterPlan(basis=(Z0, Z1), labels=("0", "1"), fine_next={0: wide})
        with pytest.raises(NotOrthonormal, match="different dimensions"):
            beam_model(plan, Z0)

    @pytest.mark.parametrize(
        "state",
        [(0.6, 0.8, 0), (1 + 0j,), mixed_density(3), ((1 + 0j, 0j), (0j,))],
        ids=["long vector", "short vector", "wide matrix", "ragged matrix"],
    )
    def test_state_of_another_dimension(self, state):
        with pytest.raises(NotAState, match="dimension 2"):
            hilbert_slice_model([(Z0, Z1)], [Z0, state])


def z_stage(**fields):
    return SplitterPlan(basis=(Z0, Z1), labels=fields.pop("labels", ("0", "1")), **fields)


# name -> a z-frame plan with a mistake in one stage
BAD_PLANS = {
    "group past the frame": z_stage(groups=(frozenset({0, 5}),), group_labels=("q",)),
    "blocked past the frame": z_stage(blocked=frozenset({7})),
    "repeated beam label": z_stage(labels=("0", "0")),
    "loop label of a beam": z_stage(groups=(frozenset({0, 1}),), group_labels=("0",)),
    "follow-up past the frame": z_stage(fine_next={5: REANALYZE}),
    "follow-up after a blocked beam": z_stage(blocked=frozenset({1}), fine_next={1: REANALYZE}),
    "loop follow-up without loops": z_stage(group_next={0: REANALYZE}),
    "bad label in a follow-up": z_stage(fine_next={0: z_stage(labels=("a", "a"))}),
    # the unused stage is refused, not counted toward the depth cap
    "deep follow-up after a blocked beam": z_stage(
        blocked=frozenset({1}), fine_next={1: deep_plan()}
    ),
}


@pytest.mark.usefixtures("no_born_rule")
@pytest.mark.parametrize("name", BAD_PLANS)
def test_plan_mistakes_are_usage_errors(name):
    """Each is refused by the plan check, before any Born weight."""
    with pytest.raises(UsageError):
        beam_model(BAD_PLANS[name], (0.6 + 0j, 0.8 + 0j))


def test_pure_density_matches_vector_born():
    psi = (0.6 + 0j, 0.8j)
    w = pure_density(psi)
    probe = (1 / SQ2 + 0j, 1 / SQ2 + 0j)
    from orthokit.quantum import expectation

    direct = abs(vdot(probe, psi)) ** 2
    assert abs(expectation(w, probe) - direct) < TOL
