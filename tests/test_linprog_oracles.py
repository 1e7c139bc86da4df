"""The integer-row LP kernel gives exactly what the ``Fraction`` reference gives.

``solve_lp`` must match ``lp_oracles.fraction_solve_lp`` on status, value,
``x`` (compared by ``repr``, so entry types count) and ``pivots``, and so
must a ``factor``-ed system solved against each right-hand side;
``enumerate_vertices`` (double description, sorted) must return the sorted
list of ``fraction_enumerate_vertices`` (the basis scan); ``row_reduce``
must return ``fraction_row_reduce``'s rows.  The LPs are the ones the
library itself poses: every LP of building the 112 corpus models and their
float twins and of their per-query state predicates, hull membership on
the quantum presets, the vertex enumerations of
``state_vertices``, plus hypothesis-random LPs.  The state layer solves
against systems it reduced once, so each of its LPs is recorded as the
unreduced system it stands for and checked in that form.

The state polytopes of the corpus coarsenings and forward squares are
checked vertex by vertex instead, since most are beyond the scan.
"""

import math
import random
import signal
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracles as oracle
from orthokit import linprog, quantum, states
from orthokit.coarsening import coarsen
from orthokit.compounding import forward_product
from orthokit.corpus import enumerate_test_spaces
from orthokit.errors import EnumerationCapExceeded
from orthokit.states import Model, Weight, full_model


def outcome(res):
    return res.status, repr(res.value), repr(res.x), res.pivots


def assert_lp_agrees(a, b, c, maximize=True):
    got = linprog.solve_lp(a, b, c, maximize=maximize)
    want = oracle.fraction_solve_lp(a, b, c, maximize=maximize)
    assert outcome(got) == outcome(want), (a, b, c, maximize)
    return got


def assert_vertices_agree(a, b):
    got = linprog.enumerate_vertices(a, b)
    assert repr(got) == repr(sorted(oracle.fraction_enumerate_vertices(a, b))), (a, b)
    return got


@pytest.fixture(autouse=True)
def time_limit():
    """A kernel that stops terminating (a pivot rule that cycles) fails the test, not the run."""

    def expire(signum, frame):
        raise TimeoutError("the LP calls of this test ran past 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def unreduced(a, b, c, extra_rows=()):
    """The LP a reduced system's ``solve`` stands for, as ``solve_lp`` takes it."""
    width = len(c)
    rows = [[*row, *[0] * (width - len(row))] for row in a]
    rows += [[*coeffs, *[0] * (width - len(coeffs))] for coeffs, _ in extra_rows]
    return rows, [*b, *(rhs for _, rhs in extra_rows)], c


@pytest.fixture
def posed(monkeypatch):
    """Record every LP and state polytope the state layer poses, unreduced.

    The state layer reduces each constraint system once (``factor``) and
    solves each LP against it; such an LP is recorded as A, b plus the
    query's extra rows, c and the direction.  ``state_vertices`` asks the
    system for its rows at one right-hand side; that is recorded as (A, b),
    the model's own polytope, duplicate and dependent test rows included.
    """
    lps, polytopes = [], []

    class RecordingSystem:
        def __init__(self, a, n):
            self.a, self.inner = a, linprog.factor(a, n)

        def reduced(self, b):
            polytopes.append((self.a, b))
            return self.inner.reduced(b)

        def solve(self, b, c, maximize=True, extra_rows=()):
            lps.append((*unreduced(self.a, b, c, extra_rows), maximize))
            return self.inner.solve(b, c, maximize, extra_rows)

    def recording_solve_lp(a, b, c, maximize=True):
        lps.append((a, b, c, maximize))
        return linprog.solve_lp(a, b, c, maximize=maximize)

    monkeypatch.setattr(states, "factor", RecordingSystem)
    monkeypatch.setattr(states, "solve_lp", recording_solve_lp)
    return lps, polytopes


def assert_state_vertices_agree(model, polytopes):
    """``state_vertices`` returns the sorted scan of the model's unreduced polytope.

    The recorded system must be that polytope, and double description run
    on it directly must agree too.
    """
    verts = [w.values for w in model.state_vertices()]
    rows, rhs = oracle.polytope_rows(model)
    assert polytopes == [(rows, rhs)]
    want = [tuple(v) for v in assert_vertices_agree(rows, rhs)]
    assert repr(verts) == repr(want)
    return verts


def pose_state_lps(model):
    """Every LP of the per-query predicates, plus a minimization per test."""
    oracle.positivity_failures(model)
    oracle.check_unital(model)
    oracle.check_strongly_unital(model)
    for t in model.space.tests:
        model.min_event_weight(t)


# The spaces, not the models: building a model solves LPs, and those belong
# inside a test, under its time limit.
SPACES = list(enumerate_test_spaces(6, 3))


@pytest.mark.parametrize("index", range(len(SPACES)))
def test_corpus_model_lps_match_oracle(index, posed):
    lps, polytopes = posed
    model = full_model(SPACES[index])
    twin = full_model(model.space, exact=False)
    for m in (model, twin):
        pose_state_lps(m)
    assert lps
    for a, b, c, maximize in lps:
        assert_lp_agrees(a, b, c, maximize)
    assert_state_vertices_agree(model, polytopes)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_classical_model_vertices_match_oracle(n, posed):
    _, polytopes = posed
    full = Model(quantum.classical_model(n).model.space, states.StateSpace.full())
    assert len(assert_state_vertices_agree(full, polytopes)) > 1


# -- the closures: coarsenings and forward squares -----------------------------------

PRIME = 2**31 - 1
SCAN_LIMIT = 200  # bases the scan may try (each costs up to 1 ms)
TRANSVERSAL_CAP = 20_000


@lru_cache(maxsize=None)
def closure_models():
    """The full models of the 112 corpus coarsenings, then of the 112 forward squares."""
    models = [full_model(space) for space in SPACES]
    return [coarsen(m).model for m in models] + [forward_product(m, m).model for m in models]


def independent(columns) -> bool:
    """Whether integer vectors are linearly independent over the rationals.

    Independence mod a prime implies it over Q: a rational relation, scaled
    to coprime integers, stays nontrivial mod p.  Otherwise Fractions decide.
    """
    pivots = {}  # pivot index -> row; each row is zero at the earlier pivots
    for col in columns:
        v = [c % PRIME for c in col]
        for i, row in pivots.items():
            if v[i]:
                f = v[i]
                v = [(x - f * y) % PRIME for x, y in zip(v, row)]
        i = next((i for i, c in enumerate(v) if c), None)
        if i is None:
            a = [[F(c) for c in col] for col in columns]
            return len(oracle.fraction_row_reduce(a, [F(0)] * len(a))[0]) == len(a)
        inv = pow(v[i], -1, PRIME)
        pivots[i] = [c * inv % PRIME for c in v]
    return True


def check_closure_vertices(model) -> tuple[bool, bool]:
    """Check one polytope; return whether the 0/1 search and the scan ran on it."""
    verts = [w.values for w in model.state_vertices()]
    distinct = set(verts)
    assert verts and len(distinct) == len(verts)
    rows, rhs = oracle.polytope_rows(model)
    a, b, consistent = linprog.row_reduce(*linprog.dedupe_rows(rows, rhs))
    assert consistent
    int_rows = []
    for row, beta in zip(a, b):
        d = math.lcm(beta.denominator, *[v.denominator for v in row])
        int_rows.append(([int(v * d) for v in row], int(beta * d)))
    for x in verts:
        support = [j for j, v in enumerate(x) if v]
        d = math.lcm(*[x[j].denominator for j in support])
        scaled = {j: x[j].numerator * (d // x[j].denominator) for j in support}
        assert min(scaled.values()) > 0
        assert all(sum(row[j] * scaled[j] for j in support) == beta * d for row, beta in int_rows)
        assert independent([[row[j] for row, _ in int_rows] for j in support]), x
    try:
        zero_one = oracle.transversal_weights(model.space, cap=TRANSVERSAL_CAP)
    except EnumerationCapExceeded:
        zero_one = None
    if zero_one is not None:
        assert [w.values for w in zero_one] == [x for x in verts if set(x) <= {0, 1}]
    scanned = math.comb(len(rows[0]), len(a)) <= SCAN_LIMIT
    if scanned:
        assert verts == sorted(tuple(v) for v in oracle.fraction_enumerate_vertices(rows, rhs))
    return zero_one is not None, scanned


def test_closure_vertices_are_basic_feasible_and_complete():
    """The state vertices of all 224 corpus coarsenings and forward squares.

    Each vertex solves the rows and is nonnegative, and its support columns
    are independent; the rows are checked in reduced form, whose column
    relations are those of A.  No vertex repeats.  The 0/1 states of
    ``transversal_weights`` are exactly the 0/1 vertices, and that search
    stays under its cap on all 224 polytopes; the list is the sorted basis
    scan on the 49 where C(n, r) is at most ``SCAN_LIMIT``.
    """
    ran = [check_closure_vertices(model) for model in closure_models()]
    assert [sum(column) for column in zip(*ran)] == [224, 49]


@lru_cache(maxsize=None)
def preset_models():
    presets = (
        quantum.preset_qubit_interferometer,
        quantum.preset_spin1,
        quantum.preset_spin32,
    )
    return [p().model for p in presets]


@pytest.mark.parametrize("index", range(3))
def test_quantum_preset_lps_match_oracle(index, posed):
    """Hull membership of generators and seeded random mixtures, one LP each."""
    lps, _ = posed
    preset = preset_models()[index]
    model = Model(preset.space, preset.states, exact=preset.exact, tol=preset.tol)
    gens = model.states.generators
    rng = random.Random(index)
    mixtures = []
    for _ in range(3):
        lam = [rng.random() for _ in gens]
        total = sum(lam)
        mixtures.append(
            Weight(tuple(sum(l * g[x] for l, g in zip(lam, gens)) / total for x in range(len(gens[0]))))
        )
    for w in [*gens[:4], *mixtures]:
        assert model.contains_state(w)
    assert len(lps) == len(gens[:4]) + len(mixtures)
    for a, b, c, maximize in lps:
        assert_lp_agrees(a, b, c, maximize)


# -- boundary and random LPs -------------------------------------------------------------


SCALARS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.floats(-3, 3, allow_nan=False, allow_subnormal=True).map(F),
)


@st.composite
def random_lps(draw):
    """Small LPs of every shape: the statuses come from the data, not from a choice."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 6))
    a = [[draw(SCALARS) for _ in range(n)] for _ in range(m)]
    b = [draw(SCALARS) for _ in range(m)]
    shape = draw(st.sampled_from(("general", "degenerate", "redundant", "nonnegative")))
    if shape == "degenerate":
        b = [F(0)] * m
    elif shape == "redundant" and m:
        k = draw(st.integers(0, m - 1))
        f = draw(st.sampled_from((F(1), F(-2), F(1, 3))))
        a.append([f * v for v in a[k]])
        b.append(f * b[k])
    elif shape == "nonnegative":
        a = [[abs(v) for v in row] for row in a]
        b = [abs(v) for v in b]
    c = [draw(SCALARS) for _ in range(n)]
    return a, b, c, draw(st.booleans())


@given(random_lps())
@settings(max_examples=400, deadline=None)
def test_random_lps_match_oracle(lp):
    a, b, c, maximize = lp
    assert_lp_agrees(a, b, c, maximize)
    fa = [[F(v) for v in row] for row in a]
    fb = [F(v) for v in b]
    assert repr(linprog.row_reduce(fa, fb)) == repr(oracle.fraction_row_reduce(fa, fb))
    assert_vertices_agree(a, b)


@st.composite
def factored_lps(draw):
    """One A with duplicate, zero and dependent rows, in any order, and several
    right-hand sides for it: consistent ones from a point, and arbitrary ones,
    often inconsistent; each query may append rows over extra columns."""
    n = draw(st.integers(1, 5))
    base = [[draw(SCALARS) for _ in range(n)] for _ in range(draw(st.integers(0, 3)))]
    a = [row[:] for row in base]
    for kind in draw(st.lists(st.sampled_from(("duplicate", "zero", "dependent")), max_size=3)):
        if kind == "zero" or not base:
            a.append([F(0)] * n)
        elif kind == "duplicate":
            a.append(draw(st.sampled_from(base))[:])
        else:
            f, g = draw(SCALARS), draw(SCALARS)
            p, q = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            a.append([f * u + g * v for u, v in zip(p, q)])
    a = draw(st.permutations(a))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            point = [abs(draw(SCALARS)) for _ in range(n)]
            b = [sum((u * v for u, v in zip(row, point)), F(0)) for row in a]
        else:
            b = [draw(SCALARS) for _ in a]
        k = draw(st.integers(0, 2))
        extra = [
            ([draw(SCALARS) for _ in range(draw(st.integers(1, n + k)))], draw(SCALARS))
            for _ in range(draw(st.integers(0, 2)))
        ]
        c = [draw(SCALARS) for _ in range(n + k)]
        queries.append((b, c, draw(st.booleans()), extra))
    return a, n, queries


@given(factored_lps())
@settings(max_examples=300, deadline=None)
def test_factored_systems_match_solve_lp_and_oracle(lp):
    a, n, queries = lp
    system = linprog.factor(a, n)
    for b, c, maximize, extra in queries:
        rows, rhs, _ = unreduced(a, b, c, extra)
        got = system.solve(b, c, maximize, extra)
        assert outcome(got) == outcome(assert_lp_agrees(rows, rhs, c, maximize)), (a, b, extra)


def test_factored_system_checks_every_right_hand_side():
    """Duplicate and dependent rows leave left-null rows; a b off them is infeasible.

    Rows x + y, x + y, 2x + 2y: b = (1, 1, 2) is consistent and b = (1, 2, 2)
    or (1, 1, 3) is not, although the reduced row alone (x + y = 1) is
    feasible for every one of them.
    """
    a = [[1, 1], [1, 1], [2, 2]]
    system = linprog.factor(a, 2)
    assert len(system.rows) == 1 and len(system.null) == 2
    for b in ([1, 1, 2], [1, 2, 2], [1, 1, 3], [F(1, 3), F(1, 3), F(2, 3)]):
        for extra in ((), [([1, 0], F(1, 4))]):
            want = assert_lp_agrees(*unreduced(a, b, [1, 0], extra))
            assert outcome(system.solve(b, [1, 0], True, extra)) == outcome(want)
            assert want.optimal == (b[1] == b[0] and b[2] == 2 * b[0]), (b, extra)
    assert system.reduced([1, 2, 2]) is None
    assert system.reduced([2, 2, 4]) == [([1, 1, 2], 1)]


def test_random_lps_reach_every_status():
    """Seeded random integer LPs reach all three statuses, with pivots, and match the reference."""
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-3, 3)) for _ in range(m)]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        res = assert_lp_agrees(a, b, c, rng.random() < 0.5)
        seen.add((res.status, res.pivots > 0))
    assert {s for s, _ in seen} == {"optimal", "infeasible", "unbounded"}
    assert ("optimal", True) in seen and ("unbounded", True) in seen
