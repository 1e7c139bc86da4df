"""The four benchmark workloads: seeded inputs, jobs, and verdict checks.

Each workload generates its inputs from the workload seed during set-up and
hands the library only those inputs.  A job returns a plain-JSON verdict;
``check`` compares it with the references recorded at the seed commit
(``refs.json``) and returns the mismatches.  Every library call a job makes
sits inside a ``tracer.span("<layer>.<function>")``; with the null tracer
those spans cost one method call each.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from orthokit import coarsening, compounding, interference, states
from orthokit.coarsening import check_monad_laws_sharp, coarsen
from orthokit.compounding import (
    compound_unitality,
    forward_product,
    forward_unitality,
    preservation_compound,
    preservation_forward,
    truncated_compound,
    validate_sequential,
)
from orthokit.corpus import corpus_digest, enumerate_test_spaces
from orthokit.document import (
    DocumentBundle,
    bundle_to_document,
    canonicalize_file,
    dumps_canonical,
    load_document,
    save_document,
)
from orthokit.errors import EnumerationCapExceeded, NotAlgebraic
from orthokit.interference import find_interference, validate_g_algebra
from orthokit.linprog import dedupe_rows, row_reduce
from orthokit.logic import build_logic
from orthokit.quantum import (
    classical_model,
    preset_qubit_interferometer,
    preset_spin1,
    preset_spin32,
)
from orthokit.states import Weight, full_model
from orthokit.testspace import build_test_space

# Explicit caps: the library default for ordinary checks, and the cap the
# preservation criterion uses.  ORTHOKIT_CAP is cleared by run.py.
CAP = 2_000_000
PRES_CAP = 100_000
GAP_TOL = 1e-9
CORPUS = (6, 3)

# Round sizes.  A run executes whole rounds until --seconds have passed, and
# each round is sized to take longer than the benchmark's run_seconds on a
# 2-core Xeon, so a run is one round there and the job mix (hence the tail
# percentile) does not depend on where a deadline falls.
SWEEP_PASSES = 2  # relabelled copies of the corpus per round
BEAM_GROUPS = 5  # qubit, spin-3/2, three seeded spin-1 angles, classical 2..4
GENERATED_DOCS = 10  # seeded corpus documents beside the shipped fixtures

HERE = Path(__file__).resolve().parent


def load_refs():
    with open(HERE / "refs.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- seeded input generation -------------------------------------------------------


def relabel(tests, rng):
    """Fresh outcome labels, shuffled member and test order.

    Returns the relabelled tests and the map from new label to old label.
    """
    old = sorted({lab for t in tests for lab in t})
    fresh = set()
    while len(fresh) < len(old):
        fresh.add("".join(rng.choice("abcdefghijkmnpqrstuvwxyz") for _ in range(3)))
    new_labels = sorted(fresh)
    rng.shuffle(new_labels)
    forward = dict(zip(old, new_labels))
    out = []
    for t in tests:
        members = [forward[lab] for lab in t]
        rng.shuffle(members)
        out.append(members)
    rng.shuffle(out)
    return out, {v: k for k, v in forward.items()}


def space_tests(space):
    return [list(space.labels_of(t)) for t in space.tests]


def round_rng(seed, r):
    return random.Random(f"{seed}:{r}")


# -- tracing helpers ----------------------------------------------------------------


def note_space(tr, space):
    """Work bounds of a queried test space (traced runs only)."""
    if tr.enabled:
        tr.count("testspace.subset_bound", sum(2 ** len(t) for t in space.tests))
        tr.peak("testspace.tests_max", len(space.tests))


def note_built(tr, model):
    tr.count("compounding.tests_built", len(model.space.tests))
    tr.count("compounding.outcomes_built", model.space.n_outcomes)


def install_wrappers(tr):
    """Wrap the linprog and morphisms names that calling modules import.

    ``linprog`` is reached only through ``states``, and ``morphisms`` only
    through ``coarsening``, ``compounding`` and ``interference``; the
    wrappers record a span per call plus the work counts.  Returns an undo
    function.
    """
    originals = []

    def patch(module, name, wrapper):
        originals.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    solve_lp = states.solve_lp
    enumerate_vertices = states.enumerate_vertices

    def denominator_bits(*groups):
        bits = 0
        for group in groups:
            for row in group:
                for v in row if isinstance(row, (list, tuple)) else (row,):
                    d = Fraction(v).denominator.bit_length()
                    if d > bits:
                        bits = d
        return bits

    def traced_solve_lp(a_rows, b_rhs, c_obj, maximize=True):
        tr.peak("linprog.denominator_bits_max", denominator_bits(a_rows, b_rhs, c_obj))
        with tr.span("linprog.solve_lp"):
            return solve_lp(a_rows, b_rhs, c_obj, maximize=maximize)

    def traced_enumerate_vertices(a_rows, b_rhs, cap=None):
        tr.peak("linprog.denominator_bits_max", denominator_bits(a_rows, b_rhs))
        a = [[Fraction(v) for v in row] for row in a_rows]
        a, b, _ = row_reduce(*dedupe_rows(a, [Fraction(v) for v in b_rhs]))
        n = len(a_rows[0]) if a_rows else 0
        tr.count("linprog.vertex_bases", math.comb(n, len(a)))
        with tr.span("linprog.enumerate_vertices"):
            return enumerate_vertices(a_rows, b_rhs, cap)

    patch(states, "solve_lp", traced_solve_lp)
    patch(states, "enumerate_vertices", traced_enumerate_vertices)
    for module in (coarsening, compounding, interference):
        inner = module.validate_morphism

        def traced_validate_morphism(*args, _inner=inner, **kwargs):
            with tr.span("morphisms.validate_morphism"):
                return _inner(*args, **kwargs)

        patch(module, "validate_morphism", traced_validate_morphism)

    def undo():
        for module, name, fn in reversed(originals):
            setattr(module, name, fn)

    return undo


# -- shared job pieces ----------------------------------------------------------------


def build_model(tests, tr):
    with tr.span("testspace.build_test_space"):
        space = build_test_space(tests)
    with tr.span("states.full_model"):
        model = full_model(space)
    tr.count("states.models_built")
    note_space(tr, space)
    return space, model


def model_verdict(model, back, tr):
    labels = model.space.labels
    with tr.span("states.check_unital"):
        u = model.check_unital()
    with tr.span("states.check_strongly_unital"):
        su = model.check_strongly_unital()
    with tr.span("states.state_vertices"):
        vertices = len(model.state_vertices(CAP))
    return {
        "unital": [u.holds, sorted(back[labels[x]] for x in u.failures)],
        "strongly_unital": [
            su.holds,
            sorted([back[labels[x]], back[labels[y]]] for x, y in su.failures),
        ],
        "vertices": vertices,
    }


class Workload:
    """One seeded workload: set-up, per-round job lists, and checks."""

    name = ""

    def __init__(self, seed, tr, refs, root: Path):
        self.seed = seed
        self.refs = refs
        self.root = root
        self.rng = random.Random(seed)
        self.checks = 0
        self.skipped = 0
        self.round_trip_failures = []

    def close(self):
        """Remove what set-up wrote."""

    def jobs(self, r):
        """The jobs of round ``r``: the set-up inputs in a seeded order."""
        order = list(self.inputs)
        round_rng(self.seed, r).shuffle(order)
        return order


# -- corpus-sweep ---------------------------------------------------------------------


def corpus_spaces(tr, refs):
    with tr.span("corpus.enumerate_test_spaces"):
        spaces = list(enumerate_test_spaces(*CORPUS))
    with tr.span("corpus.corpus_digest"):
        digest = corpus_digest(*CORPUS)
    if digest != refs["corpus_digest"] or len(spaces) != refs["corpus_size"]:
        raise RuntimeError(f"corpus digest {digest} does not match the reference")
    return spaces


class CorpusSweep(Workload):
    """The per-model check pipeline over the relabelled 112-space corpus."""

    name = "corpus-sweep"

    def __init__(self, seed, tr, refs, root):
        super().__init__(seed, tr, refs, root)
        spaces = corpus_spaces(tr, refs)
        self.inputs = []
        for _ in range(SWEEP_PASSES):
            for i, space in enumerate(spaces):
                tests, back = relabel(space_tests(space), self.rng)
                self.inputs.append({"id": str(i), "tests": tests, "back": back})
        self.warmup = [self.inputs[0]]

    def run(self, job, tr):
        space, m = build_model(job["tests"], tr)
        back = job["back"]
        v = {}
        for pred in ("algebraic", "regular", "coherent"):
            with tr.span(f"testspace.{pred}"):
                v[pred] = getattr(space, pred)(CAP).holds
        with tr.span("testspace.projective"):
            v["projective"] = space.projective().holds
        with tr.span("testspace.closed_set_lattice"):
            v["closed_sets"] = len(space.closed_set_lattice(CAP))
        v["exact"] = model_verdict(m, back, tr)
        with tr.span("states.full_model"):
            twin = full_model(space, exact=False)
        tr.count("states.models_built")
        v["float"] = model_verdict(twin, back, tr)
        with tr.span("coarsening.coarsen"):
            c = coarsen(m, CAP).model
        v["coarse"] = [c.space.n_outcomes, len(c.space.tests)]
        with tr.span("coarsening.check_monad_laws_sharp"):
            law = check_monad_laws_sharp(m, CAP)
        v["monad_points"] = [law.associativity_points, law.unit_points]
        tr.count("coarsening.law_points", law.associativity_points + law.unit_points)
        if v["algebraic"]:
            with tr.span("logic.build_logic"):
                lg = build_logic(space, CAP)
            with tr.span("logic.is_omp"):
                v["logic"] = [len(lg), lg.is_omp().holds]
            tr.count("logic.elements", len(lg))
        with tr.span("compounding.forward_product"):
            fp = forward_product(m, m, CAP).model
        note_built(tr, fp)
        v["forward"] = [fp.space.n_outcomes, len(fp.space.tests)]
        self.checks += len(v) + 4  # the exact and float entries hold 3 checks each
        return v

    def check(self, job, v):
        bad = []
        if v["float"] != v["exact"]:
            bad.append(f"space {job['id']}: float twin {v['float']} != exact {v['exact']}")
        ref = self.refs["sweep"][job["id"]]
        if v != ref:
            bad.append(f"space {job['id']}: verdict {v} != reference {ref}")
        return bad


# -- compound-preservation ------------------------------------------------------------------


class CompoundPreservation(Workload):
    """Depth-2 compounds and forward squares of a fixed, relabelled corpus sample."""

    name = "compound-preservation"

    def __init__(self, seed, tr, refs, root):
        super().__init__(seed, tr, refs, root)
        spaces = corpus_spaces(tr, refs)
        plan = refs["compound"]
        # The sample is fixed: the middle job of each stratum of similar cost
        # (strata of 4 by cost rank at the seed commit) plus the 4 heaviest.
        # The seed relabels every space and orders the jobs.  A seed-chosen
        # member per stratum moved job_tail_ms by 24 % from seed to seed.
        keys = list(plan["fixed"]) + [s[len(s) // 2] for s in plan["strata"]]
        self.inputs = [self._job(spaces, key) for key in keys]
        self.warmup = [self._job(spaces, key) for key in ("0c", "0f")]

    def _job(self, spaces, key):
        tests, _ = relabel(space_tests(spaces[int(key[:-1])]), self.rng)
        return {"id": key, "kind": key[-1], "tests": tests}

    def run(self, job, tr):
        space, m = build_model(job["tests"], tr)
        compound = job["kind"] == "c"
        if not tr.enabled:
            rep = (
                preservation_compound(m, 2, cap=PRES_CAP)
                if compound
                else preservation_forward(m, m, cap=PRES_CAP)
            )
            props = {k: list(p) for k, p in rep.properties.items()}
            skipped = list(rep.skipped)
        else:
            props, skipped = self._split(space, m, compound, tr)
        self.checks += len(props)
        self.skipped += len(skipped)
        return {"properties": props, "skipped": skipped}

    def _split(self, space, m, compound, tr):
        """``preservation_*`` as its public steps, one span each."""
        if compound:
            with tr.span("compounding.truncated_compound"):
                built = truncated_compound(m, 2, PRES_CAP)
            with tr.span("compounding.compound_unitality"):
                unital, strong = compound_unitality(built)
        else:
            with tr.span("compounding.forward_product"):
                built = forward_product(m, m, PRES_CAP)
            with tr.span("compounding.forward_unitality"):
                unital, strong = forward_unitality(built)
        out = built.model
        note_built(tr, out)
        note_space(tr, out.space)
        with tr.span("states.check_unital"):
            premise = {"unital": m.check_unital().holds}
        with tr.span("states.check_strongly_unital"):
            premise["strongly_unital"] = m.check_strongly_unital().holds
        props = {"unital": [premise["unital"], unital],
                 "strongly_unital": [premise["strongly_unital"], strong]}
        skipped = []
        for name in ("regular", "algebraic", "coherent"):
            with tr.span(f"testspace.{name}"):
                held = getattr(space, name)(PRES_CAP).holds
            try:
                with tr.span(f"testspace.{name}"):
                    got = getattr(out.space, name)(PRES_CAP).holds
            except EnumerationCapExceeded:
                skipped.append(name)
                got = None
            props[name] = [held, got]
        return props, skipped

    def check(self, job, v):
        ref = self.refs["compound"]["verdicts"][job["id"]]
        if v != ref:
            return [f"job {job['id']}: verdict {v} != reference {ref}"]
        return []


# -- beam-interference ---------------------------------------------------------------------


def spin1_oracle(theta):
    """Coherent and incoherent mass of the recombined x,y loop read out at u.

    Amplitudes of the rotated spin-1 frame applied to the reference beam,
    written out from the rotation matrix independently of ``quantum``.
    """
    c, s = math.cos(theta), math.sin(theta)
    r = (
        ((1 + c) / 2, -s / math.sqrt(2), (1 - c) / 2),
        (s / math.sqrt(2), c, -s / math.sqrt(2)),
        ((1 - c) / 2, s / math.sqrt(2), (1 + c) / 2),
    )
    amps = [r[i][0] for i in range(3)]
    coherent = abs(amps[0] * r[0][0] + amps[1] * r[1][0]) ** 2
    incoherent = sum(abs(amps[i]) ** 2 * abs(r[i][0]) ** 2 for i in range(2))
    return coherent, incoherent


ORACLES = {
    # preset -> (witness label, oracle(theta) -> (coherent, incoherent))
    "qubit": ("plus", lambda theta: (1.0, 0.5)),
    "spin1": ("u", spin1_oracle),
}

PRESETS = {
    "qubit": lambda theta: preset_qubit_interferometer(),
    "spin1": preset_spin1,
    "spin32": lambda theta: preset_spin32(),
}


def beam_verdict(preset, theta, mixtures, tr):
    with tr.span(f"quantum.preset_{preset}"):
        beam = PRESETS[preset](theta)
    m = beam.model
    note_space(tr, m.space)
    gens = m.states.generators
    contains = True
    for g in gens:
        with tr.span("states.contains_state"):
            contains = m.contains_state(g) and contains
    mixed = True
    for lam in mixtures:
        w = Weight(tuple(sum(l * g[x] for l, g in zip(lam, gens)) for x in range(len(gens[0]))))
        with tr.span("states.contains_state"):
            mixed = m.contains_state(w) and mixed
    with tr.span("states.check_strongly_unital"):
        su = m.check_strongly_unital()
    with tr.span("interference.find_interference"):
        wits = find_interference(
            m, beam.sigma, beam.path_product, witnesses_from=range(len(beam.witness_labels))
        )
    tr.count("interference.witnesses", len(wits))
    rows = [
        [w.state_index, list(m.space.labels_of(w.event)), beam.witness_labels[w.outcome]]
        for w in wits
    ]
    v = {
        "contains": contains,
        "mixtures": mixed,
        "strongly_unital": [su.holds, len(su.failures)],
        "witnesses": rows,
    }
    return v, wits, beam


class BeamInterference(Workload):
    """Beam-splitter presets with a seeded spin-1 angle, plus combined algebras."""

    name = "beam-interference"

    def __init__(self, seed, tr, refs, root):
        super().__init__(seed, tr, refs, root)
        self.inputs = []
        for _ in range(BEAM_GROUPS):
            group = [{"id": "qubit", "preset": "qubit", "theta": None},
                     {"id": "spin32", "preset": "spin32", "theta": None}]
            for _ in range(3):
                theta = self.rng.uniform(math.pi / 4, 2 * math.pi / 3)
                group.append({"id": f"spin1@{theta!r}", "preset": "spin1", "theta": theta})
            for job in group:
                job["mixtures"] = [self._mixture() for _ in range(3)]
            group += [{"id": f"classical-{n}", "classical": n} for n in (2, 3, 4)]
            self.inputs += group
        self.warmup = [self.inputs[0], self.inputs[5]]

    def _mixture(self):
        lam = [self.rng.random() + 0.05 for _ in range(2)]
        total = sum(lam)
        return [x / total for x in lam]

    def run(self, job, tr):
        if "classical" in job:
            return self._classical(job["classical"], tr)
        v, wits, beam = beam_verdict(job["preset"], job["theta"], job["mixtures"], tr)
        self.checks += 4 + len(job["mixtures"])
        oracle = ORACLES.get(job["preset"])
        if oracle is not None:
            label, fn = oracle
            want = fn(job["theta"])
            hit = next(
                (w for w in wits if w.state_index == 0
                 and beam.witness_labels[w.outcome] == label),
                None,
            )
            got = None if hit is None else (hit.coherent, hit.incoherent)
            v["oracle"] = (
                got is not None
                and abs(got[0] - want[0]) < GAP_TOL
                and abs(got[1] - want[1]) < GAP_TOL
            )
        return v

    def _classical(self, n, tr):
        with tr.span("quantum.classical_model"):
            cm = classical_model(n, CAP)
        note_space(tr, cm.model.space)
        with tr.span("compounding.validate_sequential"):
            seq = validate_sequential(
                cm.model, cm.product, probe_depth=2 if n <= 3 else 1, cap=CAP
            )
        with tr.span("interference.validate_g_algebra"):
            g = validate_g_algebra(cm.model, cm.sigma, seq, probe_depth=2, cap=CAP)
        tr.count("interference.strings_checked", g.strings_checked)
        tr.count("interference.strings_skipped", g.strings_skipped)
        with tr.span("interference.find_interference"):
            wits = find_interference(cm.model, g.sigma, g.product)
        tr.count("interference.witnesses", len(wits))
        self.checks += 3
        return {
            "commutative": g.commutative,
            "strings": [g.strings_checked, g.strings_skipped],
            "witnesses": len(wits),
        }

    def check(self, job, v):
        if "classical" in job:
            ref = self.refs["beam"][job["id"]]
            return [] if v == ref else [f"{job['id']}: {v} != reference {ref}"]
        ref = dict(self.refs["beam"][job["preset"]])
        if job["preset"] in ORACLES:
            ref["oracle"] = True
        return [] if v == ref else [f"{job['id']}: {v} != reference {ref}"]


# -- cli-cold -------------------------------------------------------------------------------

PROBE = (
    "import sys, time\n"
    "t1 = time.perf_counter()\n"
    "import orthokit.cli as cli\n"
    "t2 = time.perf_counter()\n"
    "rc = cli.main(sys.argv[1:])\n"
    "t3 = time.perf_counter()\n"
    "sys.stderr.write('\\nPERFBENCH %r %r %r\\n' % (t1, t2, t3))\n"
    "sys.exit(rc)\n"
)

FIXTURES = ("classical3", "qubit-mz", "qubit-zx", "semiclassical-2x2", "single3",
            "spin1", "spin32", "triangle", "wright")
# Fixtures whose coarsening or logic takes seconds (spin1) or exceeds a
# per-job budget (spin32) are only checked, not transformed.
TRANSFORMED = ("classical3", "qubit-mz", "qubit-zx", "semiclassical-2x2", "single3",
               "triangle", "wright")
CHECK_SETS = (["--algebraic", "--regular", "--projective"], ["--coherent", "--unital"])
GENERATED_CHECK = ["--algebraic", "--coherent", "--regular", "--projective", "--unital"]


def child_env():
    env = dict(os.environ)
    env.pop("ORTHOKIT_CAP", None)
    return env


def expected_check(model, flags, tr):
    out = {}
    try:
        for flag in flags:
            name = flag[2:].replace("-", "_")
            if name == "unital":
                with tr.span("states.check_unital"):
                    out[name] = model.check_unital().holds
            elif name == "projective":
                with tr.span("testspace.projective"):
                    out[name] = model.space.projective().holds
            else:
                with tr.span(f"testspace.{name}"):
                    out[name] = getattr(model.space, name)(CAP).holds
    except EnumerationCapExceeded:
        return {"rc": 2}
    return {"rc": 0 if all(out.values()) else 1, "holds": out}


def expected_transform(bundle, kind, tr):
    model = bundle.model
    if kind == "coarsen":
        with tr.span("coarsening.coarsen"):
            coarse = coarsen(model, CAP).model
        with tr.span("document.bundle_to_document"):
            text = dumps_canonical(bundle_to_document(DocumentBundle(coarse)))
        return {"rc": 0, "sha": hashlib.sha256(text.encode()).hexdigest(),
                "size": [coarse.space.n_outcomes, len(coarse.space.tests)]}
    try:
        with tr.span("logic.build_logic"):
            lg = build_logic(model.space, CAP)
    except NotAlgebraic:
        return {"rc": 2}
    with tr.span("logic.classify"):
        return {"rc": 0, "size": len(lg), "omp": lg.is_omp().holds,
                "boolean": lg.is_boolean().holds}


def expected_interference(bundle, tr):
    model = bundle.model
    sigma = bundle.require_coherence()
    tokens, table = bundle.followups
    with tr.span("interference.find_interference"):
        wits = find_interference(
            model, sigma, lambda x, k: table.get((x, k)), witnesses_from=range(len(tokens))
        )
    return {"rc": 0, "witnesses": [
        [w.state_index, sorted(model.space.labels[x] for x in w.event), tokens[w.outcome],
         w.coherent, w.incoherent]
        for w in wits
    ]}


def parse_cli(kind, rc, stdout):
    """The verdict a CLI child reported, in the shape of the expected verdicts."""
    if rc == 2 or (rc != 0 and kind != "check"):
        return {"rc": rc}
    report = json.loads(stdout)
    if kind == "check":
        return {"rc": rc, "holds": {k.replace("-", "_"): e["holds"] for k, e in report.items()}}
    if kind == "coarsen":
        return {"rc": rc, "sha": hashlib.sha256(stdout.encode()).hexdigest(),
                "size": [len(report["outcomes"]), len(report["tests"])]}
    if kind == "logic":
        cls = report["classification"]
        return {"rc": rc, "size": report["size"], "omp": cls["omp"], "boolean": cls["boolean"]}
    return {"rc": rc, "witnesses": [
        [e["state"], e["event"], e["witness"], e["coherent"], e["incoherent"]] for e in report
    ]}


def same_verdict(got, want):
    """Equality, with interference masses compared to ``GAP_TOL``."""
    if "witnesses" not in want or "witnesses" not in got:
        return got == want
    if got["rc"] != want["rc"] or len(got["witnesses"]) != len(want["witnesses"]):
        return False
    for g, w in zip(got["witnesses"], want["witnesses"]):
        if g[:3] != w[:3] or abs(g[3] - w[3]) >= GAP_TOL or abs(g[4] - w[4]) >= GAP_TOL:
            return False
    return True


class CliCold(Workload):
    """One ``python -m orthokit.cli`` child per job, verdicts against the library."""

    name = "cli-cold"

    def __init__(self, seed, tr, refs, root):
        super().__init__(seed, tr, refs, root)
        self.env = child_env()
        self.bytes = 0
        fixtures = root / "src" / "orthokit" / "fixtures"
        out_dir = root / ".perfbench_out" / f"docs-{seed}-{os.getpid()}"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        docs = []
        for name in FIXTURES:
            docs.append((name, str(fixtures / f"{name}.json"), None))
        spaces = corpus_spaces(tr, refs)
        for k in range(GENERATED_DOCS):
            i = self.rng.randrange(len(spaces))
            tests, _ = relabel(space_tests(spaces[i]), self.rng)
            path = out_dir / f"generated-{k}.json"
            _, model = build_model(tests, tr)
            with tr.span("document.save_document"):
                save_document(DocumentBundle(model), str(path))
            docs.append((f"generated-{k}", str(path), str(i)))
        self.inputs = []
        for name, path, corpus_id in docs:
            text = Path(path).read_text(encoding="utf-8")
            self.bytes += len(text.encode())
            with tr.span("document.canonicalize_file"):
                if canonicalize_file(path) != text:
                    self.round_trip_failures.append(f"{name}: canonical form is not byte-stable")
            with tr.span("document.load_document"):
                bundle = load_document(path)
            rel = os.path.relpath(path, root)
            flag_sets = [GENERATED_CHECK] if corpus_id is not None else CHECK_SETS
            for flags in flag_sets:
                self._add(name, corpus_id, "check", ["check", rel, *flags],
                          expected_check(bundle.model, flags, tr), flags)
            if corpus_id is not None or name in TRANSFORMED:
                for kind in ("coarsen", "logic"):
                    self._add(name, corpus_id, kind, ["transform", rel, kind],
                              expected_transform(bundle, kind, tr))
        for preset in ("qubit-mz", "spin1", "spin32"):
            path = fixtures / f"{preset}.json"
            with tr.span("document.load_document"):
                bundle = load_document(str(path))
            self._add(preset, None, "interference", ["interference", preset],
                      expected_interference(bundle, tr))
        self.warmup = [next(j for j in self.inputs if j["id"] == "single3:check --coherent --unital")]

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _add(self, name, corpus_id, kind, argv, expected, flags=()):
        self.inputs.append({"id": " ".join([f"{name}:{kind}", *flags]), "corpus_id": corpus_id,
                            "kind": kind, "argv": argv, "expected": expected})

    def run(self, job, tr):
        argv = ["--cap", str(CAP), *job["argv"]]
        if tr.enabled:
            cmd = [sys.executable, "-c", PROBE, *argv]
        else:
            cmd = [sys.executable, "-m", "orthokit.cli", *argv]
        t0 = time.perf_counter()
        with tr.span("cli.main"):
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=120)
        if tr.enabled:
            marks = proc.stderr.rsplit("PERFBENCH ", 1)[1].split()
            t1, t2, t3 = (float(x) for x in marks)
            tr.count("cli.python_start_ms", 1000 * (t1 - t0))
            tr.count("cli.import_ms", 1000 * (t2 - t1))
            tr.count("cli.command_ms", 1000 * (t3 - t2))
            tr.count("cli.children")
        self.checks += 1
        if proc.returncode == 2 and "enumeration exceeds cap" in proc.stderr:
            self.skipped += 1
        return parse_cli(job["kind"], proc.returncode, proc.stdout)

    def check(self, job, v):
        bad = []
        if not same_verdict(v, job["expected"]):
            bad.append(f"{job['id']}: CLI {v} != library {job['expected']}")
        if job["corpus_id"] is None:
            ref = self.refs["cli"][job["id"]]
            if not same_verdict(v, ref):
                bad.append(f"{job['id']}: CLI {v} != reference {ref}")
        else:
            ref = self.refs["sweep"][job["corpus_id"]]
            if job["kind"] == "check":
                want = {k: (ref["exact"][k][0] if k == "unital" else ref[k])
                        for k in v.get("holds", {})}
                if v.get("holds") != want:
                    bad.append(f"{job['id']}: CLI {v} != reference {want}")
            elif job["kind"] == "coarsen" and v.get("size") != ref["coarse"]:
                bad.append(f"{job['id']}: coarse size {v.get('size')} != {ref['coarse']}")
            elif job["kind"] == "logic" and ref.get("logic", [None, None]) != [v.get("size"), v.get("omp")]:
                bad.append(f"{job['id']}: logic {v} != reference {ref.get('logic')}")
        return bad


WORKLOADS = {w.name: w for w in (CorpusSweep, CompoundPreservation, BeamInterference, CliCold)}
