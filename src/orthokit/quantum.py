"""Concrete model generators: classical partitions, Hilbert slices, beam experiments.

The classical generator builds the partition test space of a finite set
with its canonical union-collapse and intersection-product structure.  The
Hilbert generators use hand-rolled finite-dimensional complex linear
algebra (no matrix library): frames become tests, Born evaluation gives the
weights.  The beam-experiment generator builds iterated splitter setups
with blocking, coherent recombination loops, and per-branch follow-up
stages; conditioning on a detected beam collapses to it, conditioning on a
recombined loop projects onto its span and renormalizes, which is exactly
what makes recombination interfere.  It builds in one pass: each stage
returns its run-and-stop tests as sets of path ids, and each beam and loop,
follow-up tests included, is computed once and shared by the fine and the
recombined readout.

Every frame, state vector, density matrix and initial vector of one model
must share a dimension; a mismatch is refused (``NotOrthonormal`` between
frames, ``NotAState`` for a state) before any Born weight or projection is
computed.
"""

from __future__ import annotations

import math
from itertools import combinations, product as iproduct
from typing import Sequence

from ._record import Frozen
from .coarsening import _bell_numbers, set_partitions
from .compounding import JOIN, SequentialProduct
from .errors import (
    DepthCapExceeded,
    NotAState,
    NotOrthonormal,
    UsageError,
    check_cap,
    check_cap_sum,
)
from .states import Model, Weight, full_model, generator_model
from .testspace import TestSpace, _ids, build_test_space, mask_event

Vec = tuple[complex, ...]
Matrix = tuple[tuple[complex, ...], ...]

DEFAULT_QTOL = 1e-9
MAX_PLAN_DEPTH = 3  # deepest splitter plan ``beam_model`` builds


# -- classical (partition) models -------------------------------------------------


class ClassicalModel(Frozen):
    """Partition test space of a finite set, with union and intersection data."""

    __slots__ = ("model", "points", "subset_id", "subsets", "sigma", "product")

    @property
    def unit(self) -> int:
        return self.product.unit


def classical_model(n: int, cap: int | None = None) -> ClassicalModel:
    """Tests are the set partitions of {1..n}; outcomes the nonempty subsets.

    States form the full polytope (finitely additive probability measures).
    The attached structure maps are union (collapsing a disjoint family)
    and intersection (running one partition after another), the latter
    partial: disjoint subsets have no common part.
    """
    if n < 1:
        raise UsageError("need at least one point")
    # The nonempty subsets, then the set partitions.  Counting the subsets by
    # size first stops a large n at the cap before 2^n or B(n) is formed.
    cap = check_cap_sum("classical model", (math.comb(n, r) for r in range(1, n + 1)), cap)
    check_cap("classical model", 2**n - 1 + _bell_numbers(n)[n], cap)
    points = list(range(1, n + 1))
    subsets = [frozenset(c) for r in range(1, n + 1) for c in combinations(points, r)]
    subset_id = {s: i for i, s in enumerate(subsets)}
    labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in subsets]
    tests = [sum(1 << subset_id[frozenset(b)] for b in bs) for bs in set_partitions(points)]
    space = TestSpace(labels, tests)
    model = full_model(space)
    # Union collapse on all nonempty events (pairwise disjoint families).
    sigma: dict[frozenset, int] = {}
    for m in space._checked_event_masks(cap):
        if m:
            sigma[mask_event(m)] = subset_id[frozenset().union(*(subsets[i] for i in _ids(m)))]
    table = {}
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            both = a & b
            if both:
                table[(i, j)] = subset_id[both]
    product = SequentialProduct(subset_id[frozenset(points)], table)
    return ClassicalModel(model, n, subset_id, tuple(subsets), sigma, product)


# -- complex vector helpers ----------------------------------------------------------


def vdot(u: Vec, v: Vec) -> complex:
    return sum(uc.conjugate() * vc for uc, vc in zip(u, v))


def vnorm2(v: Vec) -> float:
    return sum(abs(c) ** 2 for c in v)


def check_orthonormal(basis: Sequence[Vec], tol: float = DEFAULT_QTOL) -> None:
    if not basis:
        raise NotOrthonormal("a basis needs at least one vector")
    dim = len(basis[0])
    for v in basis:
        if len(v) != dim:
            raise NotOrthonormal("basis vectors have mixed dimensions")
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            want = 1.0 if i == j else 0.0
            if abs(vdot(u, v) - want) > tol:
                raise NotOrthonormal(f"vectors {i},{j} have inner product {vdot(u, v)}")


def pure_density(v: Vec) -> Matrix:
    return tuple(tuple(a * b.conjugate() for b in v) for a in v)


def mixed_density(dim: int) -> Matrix:
    return tuple(
        tuple((1.0 / dim if i == j else 0.0) for j in range(dim)) for i in range(dim)
    )


def expectation(w: Matrix, v: Vec) -> float:
    total = 0j
    for i, vi in enumerate(v):
        for j, vj in enumerate(v):
            total += vi.conjugate() * w[i][j] * vj
    return total.real


def project_density(w: Matrix, directions: Sequence[Vec]) -> tuple[Matrix, float]:
    """Compress a density matrix onto the span of orthonormal directions.

    Returns the unnormalized compressed matrix and its trace (the detection
    probability).
    """
    dim = len(w)
    k = len(directions)
    # inner = P W P expressed via the direction coefficients.
    coeff = [
        [
            sum(
                directions[a][i].conjugate() * w[i][j] * directions[b][j]
                for i in range(dim)
                for j in range(dim)
            )
            for b in range(k)
        ]
        for a in range(k)
    ]
    out = [[0j] * dim for _ in range(dim)]
    for a in range(k):
        for b in range(k):
            for i in range(dim):
                for j in range(dim):
                    out[i][j] += directions[a][i] * coeff[a][b] * directions[b][j].conjugate()
    trace = sum(out[i][i] for i in range(dim)).real
    return tuple(tuple(row) for row in out), trace


def scale_density(w: Matrix, factor: float) -> Matrix:
    return tuple(tuple(c * factor for c in row) for row in w)


# -- Hilbert slice models --------------------------------------------------------------


def hilbert_slice_model(
    bases: Sequence[Sequence[Vec]],
    states: Sequence[Vec | Matrix],
    labels: Sequence[Sequence[str]] | None = None,
    tol: float = DEFAULT_QTOL,
) -> Model:
    """A finite family of frames as tests, with Born-rule generator states.

    Outcomes are identified by label; reusing a label across bases requires
    the vectors to agree within tolerance.  States may be unit vectors or
    density matrices (checked hermitian, unit trace, nonnegative on every
    outcome direction).
    """
    if not bases:
        raise UsageError("need at least one basis")
    for basis in bases:
        check_orthonormal(basis, tol)
        if len(basis[0]) != len(bases[0][0]):
            raise NotOrthonormal("bases live in different dimensions")
    for st in states:
        _check_dimension(st, len(bases[0][0]), "state")
    if labels is None:
        labels = [
            [f"b{i}.{j}" for j in range(len(basis))] for i, basis in enumerate(bases)
        ]
    vec_of: dict[str, Vec] = {}
    for basis, labs in zip(bases, labels):
        for v, lab in zip(basis, labs):
            if lab in vec_of:
                if max(abs(a - b) for a, b in zip(vec_of[lab], v)) > tol:
                    raise UsageError(f"label {lab!r} reused for a different vector")
            else:
                vec_of[lab] = v
    space = build_test_space(labels, labels=sorted(vec_of))
    weights = []
    for st in states:
        w = _born_weight(space, vec_of, st, tol)
        weights.append(w)
    return generator_model(space, weights, exact=False, tol=tol)


def _is_density(state) -> bool:
    return isinstance(state, tuple) and bool(state) and isinstance(state[0], tuple)


def _check_dimension(state, dim: int, what: str) -> None:
    """Refuse a state vector or density matrix that does not live in ``dim``."""
    if len(state) != dim or _is_density(state) and any(len(row) != dim for row in state):
        raise NotAState(f"{what} does not have the frames' dimension {dim}")


def _born_weight(space: TestSpace, vec_of, state, tol) -> Weight:
    if _is_density(state):
        w = state
        dim = len(w)
        if any(abs(w[i][j] - w[j][i].conjugate()) > tol for i in range(dim) for j in range(dim)):
            raise NotAState("density matrix is not hermitian")
        trace = sum(w[i][i] for i in range(dim))
        if abs(trace - 1.0) > tol:
            raise NotAState(f"density matrix has trace {trace}")
        vals = []
        for lab in space.labels:
            p = expectation(w, vec_of[lab])
            if p < -tol:
                raise NotAState("density matrix is negative on an outcome direction")
            vals.append(max(p, 0.0))
        return Weight(vals)
    v = tuple(state)
    if abs(vnorm2(v) - 1.0) > tol:
        raise NotAState("state vector is not normalized")
    return Weight(tuple(abs(vdot(vec_of[lab], v)) ** 2 for lab in space.labels))


# -- iterated beam experiments ------------------------------------------------------------


class SplitterPlan(Frozen):
    """One analysis stage: a frame, beam blocking, loops, and continuations.

    ``groups`` lists disjoint recombination loops (index sets into the
    basis); ``group_labels`` names the recombined beams.  ``fine_next`` maps
    a basis index to the follow-up stage after detecting that beam;
    ``group_next`` maps a group position to the follow-up after its loop.
    """

    __slots__ = ("basis", "labels", "blocked", "groups", "group_labels", "fine_next", "group_next")
    _defaults = {
        "blocked": frozenset(),
        "groups": (),
        "group_labels": (),
        "fine_next": {},
        "group_next": {},
    }

    def depth(self) -> int:
        nxt = list(self.fine_next.values()) + list(self.group_next.values())
        return 1 + max((p.depth() for p in nxt), default=0)


class BeamModel(Frozen):
    """Compound beam-experiment model with collapse and path-product data."""

    __slots__ = ("model", "paths", "sigma", "witness_labels", "_products")

    def path_product(self, branch: int, witness: int) -> int | None:
        return self._products.get((branch, witness))

    def path_id(self, *labels: str) -> int:
        return self.paths.index(tuple(labels))


def beam_model(
    plan: SplitterPlan,
    initial: Vec,
    tol: float = DEFAULT_QTOL,
) -> BeamModel:
    """Build the compound model of an iterated splitter experiment.

    Tests are all run-and-stop strategies: at each stage either the fine
    frame (every surviving beam detected separately) or the coarse version
    (loops recombined) is read out, and each resulting beam either stops or
    continues into its planned follow-up stage.  The state family holds the
    Born path weights of the initial vector and of the maximally mixed
    background, so every operationally live path is positive; dead paths
    are pruned.  Every frame and the initial vector must share one dimension.
    """
    dim = _validate_plan(plan, tol)
    if plan.depth() > MAX_PLAN_DEPTH:
        raise DepthCapExceeded(f"plan depth {plan.depth()} exceeds {MAX_PLAN_DEPTH}")
    _check_dimension(initial, dim, "initial vector")
    if abs(vnorm2(initial) - 1.0) > tol:
        raise NotAState("initial vector is not normalized")
    states = [pure_density(initial), mixed_density(dim)]

    # First-visit order fixes the ids: path -> (id, mass under each state),
    # witness label -> id.
    paths: dict[tuple[str, ...], tuple[int, list[float]]] = {}
    witnesses: dict[str, int] = {}
    sigma_raw: list[tuple[frozenset, int]] = []
    products_raw: dict[tuple[int, int], int] = {}

    def tests_of(stage: SplitterPlan, conds: list[Matrix], probs: list[float], prefix):
        """The stage's run-and-stop tests, as sets of path ids.

        A beam's options are stopping (its own path) or one test of its
        follow-up stage; a readout takes one option per beam.  Each beam and
        loop is computed once, for both readouts.
        """
        open_beams = [i for i in range(len(stage.basis)) if i not in stage.blocked]
        if stage.blocked:
            # Blocking post-selects on passage: the surviving state is the
            # renormalized compression onto the open beams, at full mass.
            passed = [project_density(w, [stage.basis[i] for i in open_beams]) for w in conds]
            if any(tr <= tol < p for p, (_, tr) in zip(probs, passed)):
                raise NotAState("a live branch is fully blocked downstream")
            conds = [scale_density(c, 1.0 / tr) if tr > tol else c for c, tr in passed]
            probs = [p if tr > tol else 0.0 for p, (_, tr) in zip(probs, passed)]

        def beam(dirs: list[Vec], label: str, nxt: SplitterPlan | None):
            path = prefix + (label,)
            projected = [project_density(w, dirs) for w in conds]
            mass = [p * tr for p, (_, tr) in zip(probs, projected)]
            pid = paths.setdefault(path, (len(paths), mass))[0]
            options = [frozenset([pid])]
            if nxt is not None:
                sub = [scale_density(c, 1.0 / tr) if tr > tol else c for c, tr in projected]
                options += tests_of(nxt, sub, mass, path)
                for j, lab in enumerate(nxt.labels):
                    if j not in nxt.blocked:
                        wid = witnesses.setdefault(lab, len(witnesses))
                        products_raw[(pid, wid)] = paths[path + (lab,)][0]
            return pid, options

        fine = {i: beam([stage.basis[i]], stage.labels[i], stage.fine_next.get(i))
                for i in open_beams}
        loops = [beam([stage.basis[i] for i in sorted(g)], stage.group_labels[gi],
                      stage.group_next.get(gi)) for gi, g in enumerate(stage.groups)]
        for g, (q, _) in zip(stage.groups, loops):
            sigma_raw.append((frozenset(fine[i][0] for i in sorted(g)), q))
        readouts = [[options for _, options in fine.values()]]
        if stage.groups:
            grouped = set().union(*stage.groups)
            readouts.append([options for _, options in loops]
                            + [fine[i][1] for i in open_beams if i not in grouped])
        return [frozenset().union(*pick) for beams in readouts for pick in iproduct(*beams)]

    tests_raw = set(tests_of(plan, states, [1.0] * len(states), ()))

    # prune paths dead under every state
    alive = [(pid, p, mass) for p, (pid, mass) in paths.items() if any(m > tol for m in mass)]
    remap = {pid: new for new, (pid, _, _) in enumerate(alive)}
    names = [JOIN.join(path) for _, path, _ in alive]
    tests = [[names[remap[i]] for i in t if i in remap] for t in tests_raw]
    space = build_test_space(tests, labels=names)
    weights = [Weight(tuple(mass[k] for *_, mass in alive)) for k in range(len(states))]
    model = generator_model(space, weights, exact=False, tol=tol)
    sigma = {
        frozenset(remap[i] for i in ev): remap[q]
        for ev, q in sigma_raw
        if q in remap and all(i in remap for i in ev)
    }
    products = {
        (remap[b], wit): remap[p]
        for (b, wit), p in products_raw.items()
        if b in remap and p in remap
    }
    return BeamModel(model, tuple(p for _, p, _ in alive), sigma, tuple(witnesses), products)


def _validate_plan(plan: SplitterPlan, tol: float) -> int:
    """Check each distinct stage of a plan once, depth first, and return the
    dimension that all its frames must share.  Indices must name beams of the
    frame, follow-ups open beams or loops, and the labels of a stage differ."""
    dim = len(plan.basis[0]) if plan.basis else 0  # an empty frame fails check_orthonormal
    seen = set()

    def check(stage: SplitterPlan) -> None:
        if id(stage) in seen:
            return
        seen.add(id(stage))
        check_orthonormal(stage.basis, tol)
        if len(stage.basis[0]) != dim:
            raise NotOrthonormal("bases live in different dimensions")
        if len(stage.labels) != len(stage.basis):
            raise UsageError("stage needs one label per basis vector")
        beams = set(range(len(stage.basis)))
        if not beams.issuperset(set(stage.blocked).union(*stage.groups)):
            raise UsageError("blocked beams and loops must be indices into the frame")
        grouped = set()
        for g in stage.groups:
            if not g or g & grouped:
                raise UsageError("recombination groups must be nonempty and disjoint")
            if any(i in stage.blocked for i in g):
                raise UsageError("cannot recombine a blocked beam")
            grouped |= g
        if len(stage.group_labels) != len(stage.groups):
            raise UsageError("need one label per recombination group")
        names = (*stage.labels, *stage.group_labels)
        if len(set(names)) != len(names):
            raise UsageError(f"stage labels {list(names)} repeat a label")
        open_beams, loops = beams.difference(stage.blocked), set(range(len(stage.groups)))
        if not open_beams.issuperset(stage.fine_next) or not loops.issuperset(stage.group_next):
            raise UsageError("a follow-up must be keyed to an open beam or to a loop")
        for sub in (*stage.fine_next.values(), *stage.group_next.values()):
            check(sub)

    check(plan)
    return dim


# -- presets --------------------------------------------------------------------------


SQ2 = math.sqrt(2.0)


def preset_qubit_interferometer() -> BeamModel:
    """Balanced interferometer: split a qubit, recombine both beams, reanalyze.

    The initial state is the balanced superposition, the first frame is the
    computational basis with both beams in one loop, and every branch is
    reanalyzed in the balanced basis.
    """
    z0, z1 = (1.0 + 0j, 0j), (0j, 1.0 + 0j)
    plus, minus = (1 / SQ2 + 0j, 1 / SQ2 + 0j), (1 / SQ2 + 0j, -1 / SQ2 + 0j)
    second = SplitterPlan(basis=(plus, minus), labels=("plus", "minus"))
    plan = SplitterPlan(
        basis=(z0, z1),
        labels=("0", "1"),
        groups=(frozenset({0, 1}),),
        group_labels=("q",),
        fine_next={0: second, 1: second},
        group_next={0: second},
    )
    return beam_model(plan, (1 / SQ2 + 0j, 1 / SQ2 + 0j))


def spin1_rotation(theta: float) -> tuple[Vec, Vec, Vec]:
    """Rotated spin-1 frame: the standard real rotation of the three beams."""
    c, s = math.cos(theta), math.sin(theta)
    r = (
        ((1 + c) / 2, -s / SQ2, (1 - c) / 2),
        (s / SQ2, c, -s / SQ2),
        ((1 - c) / 2, s / SQ2, (1 + c) / 2),
    )
    basis = tuple(tuple(complex(x) for x in row) for row in r)
    check_orthonormal(basis)
    return basis


def preset_spin1(theta: float = math.pi / 2) -> BeamModel:
    """Spin-1 beam experiment: analyze at an angle, recombine two beams, reanalyze.

    The initial beam is the highest-weight reference state; the first stage
    splits along the rotated frame, loops the first two beams together, and
    reanalyzes every branch in the reference frame.
    """
    rotated = spin1_rotation(theta)
    zbasis = tuple(
        tuple(1.0 + 0j if i == j else 0j for j in range(3)) for i in range(3)
    )
    second = SplitterPlan(basis=zbasis, labels=("u", "v", "w"))
    plan = SplitterPlan(
        basis=rotated,
        labels=("x", "y", "z"),
        groups=(frozenset({0, 1}),),
        group_labels=("q",),
        fine_next={0: second, 1: second, 2: second},
        group_next={0: second},
    )
    return beam_model(plan, (1.0 + 0j, 0j, 0j))


SPIN32_HALF_TURN = (
    (1 / (2 * SQ2), -math.sqrt(3) / (2 * SQ2), math.sqrt(3) / (2 * SQ2), -1 / (2 * SQ2)),
    (math.sqrt(3) / (2 * SQ2), -1 / (2 * SQ2), -1 / (2 * SQ2), math.sqrt(3) / (2 * SQ2)),
    (math.sqrt(3) / (2 * SQ2), 1 / (2 * SQ2), -1 / (2 * SQ2), -math.sqrt(3) / (2 * SQ2)),
    (1 / (2 * SQ2), math.sqrt(3) / (2 * SQ2), math.sqrt(3) / (2 * SQ2), 1 / (2 * SQ2)),
)


def preset_spin32() -> BeamModel:
    """Four-beam splitter with one beam dumped, two looped, and reanalysis.

    Matches the three-surviving-beam setup: the fourth rotated beam is
    blocked, the first two are recombined into one loop, and each branch is
    reanalyzed in the reference frame.
    """
    rotated = tuple(tuple(complex(x) for x in row) for row in SPIN32_HALF_TURN)
    check_orthonormal(rotated)
    zbasis = tuple(
        tuple(1.0 + 0j if i == j else 0j for j in range(4)) for i in range(4)
    )
    second = SplitterPlan(basis=zbasis, labels=("u", "v", "w", "t"))
    plan = SplitterPlan(
        basis=rotated,
        labels=("x", "y", "z", "dump"),
        blocked=frozenset({3}),
        groups=(frozenset({0, 1}),),
        group_labels=("q",),
        fine_next={0: second, 1: second, 2: second},
        group_next={0: second},
    )
    return beam_model(plan, (1.0 + 0j, 0j, 0j, 0j))
