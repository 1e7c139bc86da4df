"""The one-pass beam builder agrees with its reference version.

``beam_model`` returns each stage's tests directly and computes each beam and
loop once, for the fine and the recombined readout alike;
``quantum_oracles.beam_model`` keeps the version that combined per-branch
option lists and recomputed every beam outside a loop once per readout.  Both
sides must give the same labels, test masks in order, generator values (``==``
on the floats), tolerance, paths, collapse table, witness labels and path
products, or the same exception class and message: on the three presets
(spin-1 at 24 angles across the benchmark's range), the plans of
``test_quantum``, a branch of tiny mass into a blocked follow-up, and random
plans of one dimension and depth at most 3.  The call counts of the Born-rule
helpers pin the one-pass rule.
"""

import cmath
import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import quantum_oracles as oracle
from orthokit import quantum
from orthokit.quantum import SplitterPlan, beam_model
from test_quantum import MINUS, PLANS, PLUS, Z0, Z1

# the benchmark draws its spin-1 angle from [pi/4, 2pi/3]
SPIN1_ANGLES = [math.pi / 4 + k * (2 * math.pi / 3 - math.pi / 4) / 23 for k in range(24)]


def outcome(build, *args):
    try:
        bm = build(*args)
    except Exception as e:  # compared by class and message
        return type(e).__name__, str(e)
    m = bm.model
    return (
        m.space.labels,
        m.space._test_masks,
        [g.values for g in m.states.generators],
        m.tol,
        bm.paths,
        list(bm.sigma.items()),
        bm.witness_labels,
        list(bm._products.items()),
    )


def same(plan, initial):
    got = outcome(beam_model, plan, initial)
    assert got == outcome(oracle.beam_model, plan, initial)
    return got


def preset_outcome(preset, monkeypatch, reference):
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(quantum, "beam_model", oracle.beam_model)
        return outcome(preset)


PRESETS = {
    "qubit": quantum.preset_qubit_interferometer,
    "spin1": quantum.preset_spin1,
    "spin32": quantum.preset_spin32,
    **{f"spin1 at {t:.3f}": partial(quantum.preset_spin1, t) for t in SPIN1_ANGLES},
}


@pytest.mark.parametrize("name", PRESETS)
def test_presets_match_oracle(name, monkeypatch):
    got = preset_outcome(PRESETS[name], monkeypatch, reference=False)
    assert not isinstance(got[0], str)
    assert got == preset_outcome(PRESETS[name], monkeypatch, reference=True)


@pytest.mark.parametrize("name", PLANS)
def test_quantum_plans_match_oracle(name):
    same(*PLANS[name])


def test_tiny_branch_into_blocked_stage_matches_oracle():
    """The pure state sends mass 1e-12, under the tolerance, into beam 1, whose
    follow-up blocks the minus beam.  There the pure state's passing mass is
    under the tolerance too, so the blocked stage zeroes its own copy of that
    mass; the path to beam 1 keeps its 1e-12, and the mixed background passes."""
    blocked = SplitterPlan(basis=(PLUS, MINUS), labels=("plus", "minus"), blocked=frozenset({1}))
    plan = SplitterPlan(basis=(Z0, Z1), labels=("0", "1"), fine_next={1: blocked})
    labels, _, (pure, _), *_ = same(plan, (complex(math.sqrt(1 - 1e-12)), 1e-6 + 0j))
    assert 0 < pure[labels.index("1")] < quantum.DEFAULT_QTOL


# -- random plans ------------------------------------------------------------------

ANGLES = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2.0)
PHASES = (1, -1, 1j, cmath.exp(0.7j))


@st.composite
def frames(draw, d):
    """Rows of a product of plane rotations, each row times a phase."""
    rows = [[complex(i == j) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            a = draw(st.sampled_from(ANGLES))
            c, s = math.cos(a), math.sin(a)
            for r in rows:
                r[i], r[j] = c * r[i] - s * r[j], s * r[i] + c * r[j]
    phases = [draw(st.sampled_from(PHASES)) for _ in rows]
    return tuple(tuple(x * ph for x in r) for r, ph in zip(rows, phases))


@st.composite
def stages(draw, d, follow_ups):
    """A stage with some beams blocked, up to two loops and follow-ups drawn
    from ``follow_ups`` after open beams and loops, so several branches may
    share one stage."""
    blocked = frozenset(i for i in range(d) if draw(st.integers(0, 4)) == 0)
    open_beams = [i for i in range(d) if i not in blocked]
    tags = [draw(st.sampled_from((None, 0, 1))) for _ in open_beams]
    groups = tuple(
        frozenset(i for i, t in zip(open_beams, tags) if t == g) for g in (0, 1) if g in tags
    )
    nxt = st.sampled_from((None, *follow_ups))
    return SplitterPlan(
        basis=draw(frames(d)),
        labels=tuple(draw(st.permutations("abcd"))[:d]),
        blocked=blocked,
        groups=groups,
        group_labels=("q", "r")[: len(groups)],
        fine_next={i: n for i in open_beams if (n := draw(nxt)) is not None},
        group_next={g: n for g in range(len(groups)) if (n := draw(nxt)) is not None},
    )


@st.composite
def plans(draw):
    d = draw(st.integers(1, 3))
    leaves = [draw(stages(d, ())) for _ in range(draw(st.integers(1, 2)))]
    middle = [draw(stages(d, leaves)) for _ in range(draw(st.integers(1, 2)))]
    root = draw(stages(d, middle + leaves))
    amps = [draw(st.sampled_from((0, 0, 1, -1, 1j, 0.5, 1e-6))) for _ in range(d)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return root, tuple(complex(a / norm) for a in amps) if norm else root.basis[0]


@settings(max_examples=250, deadline=None)
@given(plans())
def test_random_plans_match_oracle(plan_initial):
    same(*plan_initial)


# -- the one-pass rule ----------------------------------------------------------------

# preset -> (project_density, scale_density) calls per build: one pass, then the
# reference, which reads out every beam outside a loop once per readout
CALLS = {
    "qubit": ((18, 6), (18, 17)),
    "spin1": ((32, 8), (40, 38)),
    "spin32": ((42, 10), (52, 51)),
}


@pytest.mark.parametrize("name", CALLS)
def test_each_beam_is_computed_once(name, monkeypatch):
    real = {helper: getattr(quantum, helper) for helper in ("project_density", "scale_density")}
    got = []
    for module in (quantum, oracle):
        counts = dict.fromkeys(real, 0)
        with monkeypatch.context() as patch:
            for helper in real:
                def counted(*args, helper=helper):
                    counts[helper] += 1
                    return real[helper](*args)

                patch.setattr(module, helper, counted)
            patch.setattr(quantum, "beam_model", module.beam_model)
            PRESETS[name]()
        got.append((counts["project_density"], counts["scale_density"]))
    assert tuple(got) == CALLS[name]
