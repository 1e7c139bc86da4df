"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances and budgets are pinned here and nowhere else.
"""

import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

from orthokit.coarsening import (
    check_monad_laws_sharp,
    is_cohesion,
    check_regular_cohesive_logic,
    sharp_logic_iso,
    validate_coherence,
)
from orthokit.compounding import (
    forward_product,
    fp_perspective_by_parts,
    nonatomicity_report,
    preservation_compound,
    preservation_forward,
    truncated_compound,
)
from orthokit.corpus import corpus_models, enumerate_test_spaces, named
from orthokit.document import load_document
from orthokit.errors import EnumerationCapExceeded
from orthokit.interference import (
    check_distributive_diagrams,
    find_interference,
    validate_g_algebra,
)
from orthokit.logic import build_logic, orthopartition_round_trip
from orthokit.quantum import classical_model, preset_qubit_interferometer, preset_spin1
from orthokit.states import full_model
from orthokit.testspace import build_test_space

GAP_TOL = 1e-9
MONAD_BUDGET_S = 60.0
PRESERVATION_BUDGET_S = 300.0


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_sharp_monad_laws_whole_corpus():
    start = time.time()
    checked = 0
    for model in corpus_models(6, 3):
        check_monad_laws_sharp(model)  # exact; raises on any mismatch
        checked += 1
    elapsed = time.time() - start
    report(
        1,
        checked == 112 and elapsed < MONAD_BUDGET_S,
        f"coarsening monad laws exact on {checked} corpus spaces in {elapsed:.1f}s",
    )


def test_criterion_02_componentwise_perspectivity_oracle():
    pairs = 0
    disagreements = 0
    products = [
        forward_product(named("single-2"), named("single-2")),
        forward_product(named("single-2"), named("wright")),
        forward_product(named("semiclassical-2x2"), named("single-2")),
    ]
    for fp in products:
        events = fp.model.space.events_list()
        for i, a in enumerate(events):
            for b in events[i + 1 :: 11]:
                criterion = fp_perspective_by_parts(fp, a, b)
                oracle = fp.model.space.is_perspective(a, b)
                pairs += 1
                if criterion != oracle:
                    disagreements += 1
    report(
        2,
        pairs >= 500 and disagreements == 0,
        f"componentwise perspectivity equals complement search on {pairs} pairs, "
        f"{disagreements} disagreements",
    )


def test_criterion_03_distributive_diagrams_depth_two():
    checked = 0
    for space in enumerate_test_spaces(4, 3):
        check_distributive_diagrams(full_model(space), 2)  # raises on mismatch
        checked += 1
    report(3, checked > 0, f"interchange diagrams commute at depth 2 on {checked} bases")


def test_criterion_04_logic_pipeline():
    cube = build_logic(named("classical-3").space)
    ok = len(cube) == 8 and bool(cube.is_boolean())
    iso_count = 0
    omp_count = 0
    round_trips = 0
    for space in enumerate_test_spaces(6, 3):
        if not space.algebraic():
            continue
        sharp_logic_iso(full_model(space))  # raises if not an isomorphism
        iso_count += 1
        logic = build_logic(space)
        if space.coherent():
            ok = ok and bool(logic.is_omp())
            omp_count += 1
        if len(logic) <= 16:
            orthopartition_round_trip(logic)
            round_trips += 1
    report(
        4,
        ok and iso_count == 64 and round_trips > 0,
        f"partition logic is the Boolean cube; coarsening logic isomorphism on "
        f"{iso_count} algebraic spaces; orthomodularity on {omp_count} coherent ones; "
        f"{round_trips} orthopartition round trips",
    )


def _cohesive_corpus():
    out = []
    for n in (1, 2, 3):
        cm = classical_model(n)
        out.append((cm.model, cm.sigma))
    trivial = full_model(build_test_space([["e"]]))
    out.append((trivial, {frozenset([0]): 0}))
    return out


def test_criterion_05_regular_cohesive_and_strong_unitality():
    cohesive_checked = 0
    for model, sigma in _cohesive_corpus():
        checked = validate_coherence(model, sigma)
        if not model.space.regular():
            continue
        assert is_cohesion(checked)
        check_regular_cohesive_logic(checked)  # coherent + algebraic + OMP
        cohesive_checked += 1
    su_models = 0
    for model in corpus_models(6, 3):
        if model.check_strongly_unital().holds:
            assert model.space.regular(), repr(model.space)
            su_models += 1
    report(
        5,
        cohesive_checked >= 4 and su_models > 0,
        f"{cohesive_checked} regular cohesive models have orthomodular logics; "
        f"strong unitality forced regularity on {su_models} corpus models",
    )


def test_criterion_06_nonatomicity_and_unit_tests():
    binary = full_model(build_test_space([["a", "b"]]))
    tc3 = truncated_compound(binary, 3)
    witnesses = nonatomicity_report(tc3)
    strings = {s for s, _, _ in witnesses}
    want = {s for s in tc3.strings if len(s) <= 2}
    sizes = {len(ext) for _, ext, _ in witnesses}
    unit_ok = True
    for model in [binary, named("wright"), named("semiclassical-2x2")]:
        for depth in (0, 1, 2):
            tc = truncated_compound(model, depth)
            unit_ok = unit_ok and frozenset([()]) in tc.tests_as_strings()
    report(
        6,
        strings == want and sizes == {2} and unit_ok,
        f"{len(witnesses)} perspectivity witnesses at depth 3; the empty-string "
        "test is present in every truncation",
    )


def test_criterion_07_no_interference_for_combined_algebras():
    from orthokit.compounding import validate_sequential

    scanned = 0
    for n in (2, 3, 4):
        cm = classical_model(n)
        # the string-evaluation probe window shrinks as the model grows;
        # the multiplicativity law stays at depth 2 throughout
        sequential = validate_sequential(
            cm.model, cm.product, probe_depth=2 if n <= 3 else 1
        )
        galg = validate_g_algebra(cm.model, cm.sigma, sequential, probe_depth=2)
        witnesses = find_interference(cm.model, galg.sigma, galg.product)
        assert witnesses == [], f"classical({n}) shows interference"
        scanned += 1
    report(
        7,
        scanned == 3,
        "validated combined algebras show no interference (exact arithmetic)",
    )


def test_criterion_08_interference_reproduction():
    qubit = preset_qubit_interferometer()
    wits = find_interference(
        qubit.model,
        qubit.sigma,
        qubit.path_product,
        states=[qubit.model.states.generators[0]],
        witnesses_from=range(len(qubit.witness_labels)),
    )
    plus = qubit.witness_labels.index("plus")
    hit = next(w for w in wits if w.outcome == plus)
    qubit_ok = (
        abs(hit.coherent - 1.0) < GAP_TOL
        and abs(hit.incoherent - 0.5) < GAP_TOL
        and abs(hit.gap - 0.5) < GAP_TOL
    )
    # independent amplitude oracle for the rotated three-beam experiment
    import math

    sq2 = math.sqrt(2.0)
    r = ((0.5, -1 / sq2, 0.5), (1 / sq2, 0.0, -1 / sq2), (0.5, 1 / sq2, 0.5))
    psi = (1.0, 0.0, 0.0)
    amps = [sum(r[i][k] * psi[k] for k in range(3)) for i in range(3)]
    projected = [amps[0] * r[0][k] + amps[1] * r[1][k] for k in range(3)]
    coh = abs(projected[0]) ** 2
    inc = sum(abs(amps[i]) ** 2 * abs(r[i][0]) ** 2 for i in range(2))
    spin = preset_spin1()
    swits = find_interference(
        spin.model,
        spin.sigma,
        spin.path_product,
        states=[spin.model.states.generators[0]],
        witnesses_from=range(len(spin.witness_labels)),
    )
    u = spin.witness_labels.index("u")
    shit = next(w for w in swits if w.outcome == u)
    spin_ok = (
        abs(coh - inc) > 1e-3
        and abs(shit.coherent - coh) < GAP_TOL
        and abs(shit.incoherent - inc) < GAP_TOL
    )
    report(
        8,
        qubit_ok and spin_ok,
        f"qubit loop: coherent {hit.coherent:.3f} vs incoherent {hit.incoherent:.3f}; "
        f"three-beam loop gap {shit.gap:.4f} matches the amplitude oracle",
    )


def test_criterion_09_preservation_suites():
    """The skips split by premise: where every input has the property a law goes
    unchecked; where one lacks it the skipped verdict is on no law."""
    start = time.time()
    skipped = evaluated = unchecked_laws = 0
    open_by_name = {}  # skips with a true premise, by property
    for model in corpus_models(6, 3):
        for rep in (
            preservation_compound(model, 2, cap=100_000),
            preservation_forward(model, model, cap=100_000),
        ):
            skipped += len(rep.skipped)
            for name, (premise, got) in rep.properties.items():
                if got is not None:
                    evaluated += 1
                elif premise:
                    unchecked_laws += 1
                    open_by_name[name] = open_by_name.get(name, 0) + 1
    elapsed = time.time() - start
    by_name = ", ".join(f"{name} {count}" for name, count in open_by_name.items())
    report(
        9,
        elapsed < PRESERVATION_BUDGET_S,
        f"unitality, regularity, algebraicity, coherence preserved on products "
        f"and depth-2 compounds of all 112 corpus models "
        f"({evaluated} property checks, {skipped} skipped over cap: {unchecked_laws} "
        f"with a true premise ({by_name}), {skipped - unchecked_laws} with a false one) "
        f"in {elapsed:.0f}s",
    )


def test_criterion_10_cli_round_trip_and_verdicts():
    root = resources.files("orthokit").joinpath("fixtures")
    fixtures = sorted(str(p) for p in root.iterdir() if str(p).endswith(".json"))
    byte_stable = 0
    for path in fixtures:
        from orthokit.document import canonicalize_file

        assert canonicalize_file(path) == Path(path).read_text(encoding="utf-8")
        byte_stable += 1
    flags = ["--algebraic", "--coherent", "--regular", "--projective", "--unital"]
    matched = 0
    for path in fixtures:
        model = load_document(path).model
        for flag in flags:
            proc = subprocess.run(
                [sys.executable, "-m", "orthokit.cli", "check", path, flag],
                capture_output=True,
                text=True,
            )
            name = flag.lstrip("-")
            try:
                if name == "unital":
                    expected = model.check_unital().holds
                elif name == "projective":
                    expected = bool(model.space.projective())
                else:
                    expected = bool(getattr(model.space, name)())
            except EnumerationCapExceeded:
                assert proc.returncode == 2
                matched += 1
                continue
            verdict = json.loads(proc.stdout)[name]["holds"]
            assert verdict == expected and proc.returncode == (0 if expected else 1)
            matched += 1
    report(
        10,
        byte_stable == len(fixtures) and matched == len(fixtures) * len(flags),
        f"{byte_stable} fixtures round-trip byte-identically; "
        f"{matched} CLI verdicts match the library",
    )
