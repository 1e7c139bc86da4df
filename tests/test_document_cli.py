"""Document round trips and the command-line surface."""

import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthokit.document import (
    DocumentBundle,
    bundle_to_document,
    canonicalize_file,
    document_to_bundle,
    dumps_canonical,
    load_document,
    save_document,
)
from orthokit import coarsening, interference
from orthokit.errors import (
    LawViolation,
    MissingStructure,
    NotAState,
    NotGAlgebra,
    ParseError,
    PositivityViolation,
)
from orthokit.cli import main
from orthokit.corpus import corpus_models, named
from orthokit.states import Weight, generator_model


def fixture_paths():
    root = resources.files("orthokit").joinpath("fixtures")
    return sorted(str(p) for p in root.iterdir() if str(p).endswith(".json"))


FIXTURES = fixture_paths()
CHECK_FLAGS = [
    "--algebraic",
    "--coherent",
    "--regular",
    "--projective",
    "--unital",
    "--strongly-unital",
]


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "orthokit.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestDocuments:
    @pytest.mark.parametrize("path", FIXTURES, ids=[Path(p).stem for p in FIXTURES])
    def test_round_trip_byte_identical(self, path):
        original = Path(path).read_text(encoding="utf-8")
        assert canonicalize_file(path) == original

    @pytest.mark.parametrize("path", FIXTURES, ids=[Path(p).stem for p in FIXTURES])
    def test_save_load_save(self, path, tmp_path):
        bundle = load_document(path)
        out = tmp_path / "copy.json"
        save_document(bundle, str(out))
        again = load_document(str(out))
        save_document(again, str(out))
        assert canonicalize_file(str(out)) == Path(path).read_text(encoding="utf-8")

    def test_rational_serialization(self, tmp_path):
        from fractions import Fraction as F

        from orthokit.states import Weight, generator_model
        from orthokit.testspace import build_test_space

        m = generator_model(
            build_test_space([["a", "b"]]),
            [Weight([F(1, 3), F(2, 3)]), Weight([F(1), F(0)])],
        )
        path = tmp_path / "m.json"
        save_document(DocumentBundle(m), str(path))
        doc = json.loads(path.read_text())
        entries = {frozenset(g.items()) for g in doc["states"]["generators"]}
        assert frozenset({("a", "1/3"), ("b", "2/3")}) in entries
        loaded = load_document(str(path))
        assert loaded.model.states.generators[0].values in {
            (F(1, 3), F(2, 3)),
            (F(1), F(0)),
        }

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_document(str(bad))
        bad.write_text(json.dumps({"format_version": "0"}))
        with pytest.raises(ParseError):
            load_document(str(bad))

    def test_missing_structure(self):
        bundle = load_document(FIXTURES[0])
        has_sigma = bundle.coherence is not None
        if not has_sigma:
            with pytest.raises(MissingStructure):
                bundle.require_coherence()

    def test_document_rejects_bad_product_semantics(self):
        doc = bundle_to_document(DocumentBundle(named("single-2")))
        doc["product"] = {"unit": "a", "semantics": "weird", "table": []}
        with pytest.raises(ParseError):
            document_to_bundle(doc)

    # Each entry a load would drop or overwrite, on the point masses of a test
    # {a, b}: the section it goes in, and the key the refusal names.
    DROPPED_ENTRIES = {
        "stray generator key": (
            {"states": {"kind": "generators", "generators": [{"a": "1", "x": "1"}, {"b": "1"}]}},
            "generator key 'x' is not an outcome",
        ),
        "repeated coherence event": (
            {"coherence": [[["a"], "a"], [["a"], "b"]]},
            "coherence event ['a'] appears twice",
        ),
        "repeated product pair": (
            {"product": {"unit": "a", "table": [["b", "b", "b"], ["b", "b", "a"]]}},
            "product pair ('b', 'b') appears twice",
        ),
        "repeated follow-up": (
            {"followups": {"tokens": ["t"], "table": [["a", "t", "b"], ["a", "t", "a"]]}},
            "followup entry ('a', 't') appears twice",
        ),
        "repeated token": (
            {"followups": {"tokens": ["t", "t"], "table": []}},
            "followup token 't' appears twice",
        ),
    }

    @pytest.mark.parametrize("case", DROPPED_ENTRIES)
    def test_entries_a_load_would_drop_are_refused(self, case, tmp_path, capsys):
        sections, message = self.DROPPED_ENTRIES[case]
        doc = {"format_version": "1", "outcomes": ["a", "b"], "tests": [["a", "b"]]}
        doc |= {"states": {"kind": "full"}, **sections}
        with pytest.raises(ParseError) as info:
            document_to_bundle(doc)
        assert str(info.value) == message
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path), "--algebraic"]) == 2
        assert message in capsys.readouterr().err


@lru_cache(maxsize=None)
def corpus_with_vertices():
    return [(m, tuple(m.state_vertices())) for m in corpus_models()]


def float_twin(model):
    """The same generators as floats."""
    gens = [Weight(tuple(float(v) for v in g.values)) for g in model.states.generators]
    return generator_model(model.space, gens, exact=False)


@st.composite
def corpus_derived_models(draw, kinds=("full", "exact", "float")):
    """A corpus model, an exact hull of a nonempty subset of its vertices, or
    the float twin of such a hull."""
    model, vertices = draw(st.sampled_from(corpus_with_vertices()))
    kind = draw(st.sampled_from(kinds))
    if kind == "full":
        return model
    gens = draw(st.lists(st.sampled_from(vertices), min_size=1, unique_by=lambda w: w.values))
    try:
        hull = generator_model(model.space, gens, exact=True)
    except PositivityViolation:
        assume(False)
    return float_twin(hull) if kind == "float" else hull


def save_text(model):
    return dumps_canonical(bundle_to_document(DocumentBundle(model)))


@settings(max_examples=80, deadline=None)
@given(corpus_derived_models())
def test_save_load_save_on_corpus_models(model):
    """Save, load and save again gives the same bytes and the same model."""
    text = save_text(model)
    loaded = document_to_bundle(json.loads(text)).model
    assert save_text(loaded) == text
    assert loaded.space.labels == model.space.labels
    assert loaded.space.tests == model.space.tests
    assert (loaded.exact, loaded.tol, loaded.states.kind) == (
        model.exact,
        model.tol,
        model.states.kind,
    )
    assert sorted(g.values for g in loaded.states.generators) == sorted(
        g.values for g in model.states.generators
    )


@settings(max_examples=80, deadline=None)
@given(corpus_derived_models(kinds=("exact",)))
def test_exact_and_float_twins_agree(model):
    """The exact and float state predicates give the same verdicts and the same
    failing outcomes on an exact hull and its float twin."""
    twin = float_twin(model)
    assert twin.positivity_failures() == model.positivity_failures()
    for check in ("check_unital", "check_strongly_unital"):
        exact, approx = getattr(model, check)(), getattr(twin, check)()
        assert (approx.holds, approx.failures) == (exact.holds, exact.failures), check


def wright_path():
    return next(p for p in FIXTURES if p.endswith("wright.json"))


def classical_path():
    return next(p for p in FIXTURES if p.endswith("classical3.json"))


class TestCheckCommand:
    def test_projective_true_exit_zero(self):
        code, out, err = run_cli(["check", wright_path(), "--projective"])
        assert code == 0
        assert json.loads(out)["projective"]["holds"] is True

    def test_coherent_false_with_witness_exit_one(self):
        triangle = next(p for p in FIXTURES if p.endswith("triangle.json"))
        code, out, _ = run_cli(["check", triangle, "--coherent"])
        assert code == 1
        report = json.loads(out)
        assert report["coherent"]["holds"] is False
        assert report["coherent"]["witness"]

    def test_malformed_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(["check", str(bad)])
        assert code == 2
        assert "error" in err

    def test_support_flag(self):
        code, out, _ = run_cli(["check", wright_path(), "--support", "q,x,y"])
        assert code == 0
        assert json.loads(out)["support"]["holds"] is True

    @pytest.mark.parametrize("path", FIXTURES, ids=[Path(p).stem for p in FIXTURES])
    @pytest.mark.parametrize("flag", CHECK_FLAGS)
    def test_matrix_matches_library(self, path, flag):
        from orthokit.errors import EnumerationCapExceeded

        code, out, _ = run_cli(["check", path, flag])
        name = flag.lstrip("-")
        bundle = load_document(path)
        model = bundle.model
        try:
            if name == "unital":
                expected = model.check_unital().holds
            elif name == "strongly-unital":
                expected = model.check_strongly_unital().holds
            elif name == "projective":
                expected = bool(model.space.projective())
            else:
                expected = bool(getattr(model.space, name)())
        except EnumerationCapExceeded:
            # the CLI must surface the same cap error as the library
            assert code == 2
            return
        report = json.loads(out)
        assert report[name]["holds"] == expected
        assert code == (0 if expected else 1)


class TestTransformCommand:
    def test_coarsen_ternary(self, tmp_path):
        single3 = next(p for p in FIXTURES if p.endswith("single3.json"))
        out_path = tmp_path / "c.json"
        code, _, _ = run_cli(
            ["transform", single3, "coarsen", "--out", str(out_path)]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["tests"]) == 5

    def test_logic_report(self):
        code, out, _ = run_cli(["transform", classical_path(), "logic"])
        assert code == 0
        report = json.loads(out)
        assert report["size"] == 8
        assert report["classification"] == {
            "orthoalgebra": True,
            "omp": True,
            "boolean": True,
        }

    def test_compound_depth_zero(self, tmp_path):
        single3 = next(p for p in FIXTURES if p.endswith("single3.json"))
        code, out, _ = run_cli(["transform", single3, "compound", "--depth", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["tests"] == [["ε"]]

    def test_product_and_closure(self, tmp_path):
        semiclassical = next(
            p for p in FIXTURES if p.endswith("semiclassical-2x2.json")
        )
        code, out, _ = run_cli(["transform", semiclassical, "product", semiclassical])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["outcomes"]) == 16
        code, out, _ = run_cli(["transform", wright_path(), "closure-lattice"])
        assert code == 0
        assert json.loads(out)["size"] >= 4

    def test_transform_output_reloads(self, tmp_path):
        out_path = tmp_path / "w2.json"
        code, _, _ = run_cli(
            ["transform", wright_path(), "coarsen", "--out", str(out_path)]
        )
        assert code == 0
        load_document(str(out_path))


class TestLawsCommand:
    def test_sharp_monad(self):
        code, out, _ = run_cli(["laws", wright_path(), "sharp-monad"])
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_distributive(self):
        code, out, _ = run_cli(
            ["laws", wright_path(), "distributive", "--depth", "2"]
        )
        assert code == 0

    def test_g_algebra(self):
        code, out, _ = run_cli(["laws", classical_path(), "g-algebra"])
        assert code == 0
        report = json.loads(out)
        assert report["holds"] and report["commutative"]

    def test_sequential(self):
        code, out, _ = run_cli(["laws", classical_path(), "sequential"])
        assert code == 0

    @pytest.mark.parametrize("suite", ["sequential", "g-algebra"])
    def test_hull_of_the_vertices_reports_like_the_full_model(self, suite, tmp_path, capsys):
        """classical3 with its states given as the hull of its vertices: the
        string-evaluation probe builds no compound state, so no generator limit
        refuses the document, and the report is the full model's."""
        bundle = load_document(classical_path())
        hull = generator_model(bundle.model.space, bundle.model.state_vertices())
        path = tmp_path / "c3hull.json"
        save_document(DocumentBundle(hull, bundle.coherence, bundle.product), str(path))
        assert main(["--cap", "100000000", "laws", classical_path(), suite]) == 0
        want = capsys.readouterr().out
        assert main(["--cap", "100000000", "laws", str(path), suite]) == 0
        assert capsys.readouterr().out == want

    def test_missing_structure_exit_two(self):
        code, _, err = run_cli(["laws", wright_path(), "g-algebra"])
        assert code == 2
        assert "coherence" in err


class TestInterferenceCommand:
    def test_qubit_preset_gap(self):
        code, out, _ = run_cli(["interference", "qubit-mz"])
        assert code == 0
        report = json.loads(out)
        gaps = {w["witness"]: w["gap"] for w in report if w["state"] == 0}
        assert abs(gaps["plus"] - 0.5) < 1e-9

    def test_classical_empty(self):
        code, out, _ = run_cli(["interference", classical_path()])
        assert code == 0
        assert json.loads(out) == []

    def test_tolerance_filters(self):
        code, out, _ = run_cli(["interference", "qubit-mz", "--tolerance", "1.0"])
        assert code == 0
        assert json.loads(out) == []

    def test_spin_presets(self):
        for preset in ("spin1", "spin32"):
            code, out, _ = run_cli(["interference", preset])
            assert code == 0
            assert json.loads(out)


class TestExitCodes:
    """The README contract: 1 for a violated law; 2 for usage, parse, cap and
    structural errors such as asking for the logic of a non-algebraic space."""

    @pytest.mark.parametrize(
        "suite, entry, error",
        [
            ("sharp-monad", "check_monad_laws_sharp", LawViolation("left unit triangle fails")),
            ("distributive", "check_distributive_diagrams", LawViolation("coarse unit triangle fails")),
            ("g-algebra", "validate_g_algebra", NotGAlgebra("collapse is not multiplicative over the product")),
        ],
    )
    def test_law_violation_exits_one(self, suite, entry, error, monkeypatch, capsys):
        """Each command imports its entry point when it runs, so patching the
        owning module reaches the command."""

        def violated(*args, **kwargs):
            raise error

        owner = coarsening if suite == "sharp-monad" else interference
        monkeypatch.setattr(owner, entry, violated)
        assert main(["laws", classical_path(), suite]) == 1
        assert str(error) in capsys.readouterr().err

    def test_sequential_violation_exits_one(self, tmp_path, capsys):
        doc = json.loads(Path(classical_path()).read_text(encoding="utf-8"))
        del doc["product"]["table"][0]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["laws", str(broken), "sequential"]) == 1
        assert json.loads(capsys.readouterr().out)["holds"] is False

    @pytest.mark.parametrize("corrupt", ["product", "coherence"])
    def test_g_algebra_on_invalid_structure_exits_one(self, corrupt, tmp_path, capsys):
        """A product that is not sequential, or a collapse that is not a
        coherence, violates the g-algebra suite just as it does the others."""
        doc = json.loads(Path(classical_path()).read_text(encoding="utf-8"))
        if corrupt == "product":
            del doc["product"]["table"][0]
        else:
            assert doc["coherence"][1] == [["{1,2}"], "{1,2}"]
            doc["coherence"][1][1] = "{1,3}"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["laws", str(broken), "g-algebra"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is False and report["violation"]

    def test_g_algebra_on_a_partial_coherence_exits_one(self, tmp_path, capsys):
        """classical3 cut to 5 of its 14 coherence entries: a JSON violation, no traceback."""
        doc = json.loads(Path(classical_path()).read_text(encoding="utf-8"))
        assert len(doc["coherence"]) == 14
        doc["coherence"] = doc["coherence"][:5]
        broken = tmp_path / "partial.json"
        broken.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["laws", str(broken), "g-algebra"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"holds": False, "violation": "structure map misses a nonempty event"}

    def test_logic_of_non_algebraic_space_exits_two(self, tmp_path):
        model = next(m for m in corpus_models(6, 3) if not m.space.algebraic())
        path = tmp_path / "non-algebraic.json"
        save_document(DocumentBundle(model), str(path))
        assert main(["transform", str(path), "logic"]) == 2

    def test_cap_exceeded_exits_two_and_names_the_cap(self, capsys):
        single3 = next(p for p in FIXTURES if p.endswith("single3.json"))
        assert main(["--cap", "2", "laws", single3, "sharp-monad"]) == 2
        # perfbench's cli-cold workload counts cap skips by this phrase
        assert "enumeration exceeds cap" in capsys.readouterr().err

    def test_interference_reads_the_cap(self, capsys):
        """The scan's states are ``state_vertices(--cap)``: 5 rays for classical3."""
        assert main(["--cap", "4", "interference", classical_path()]) == 2
        assert "polytope vertices: needs ≥ 5, enumeration exceeds cap 4" in capsys.readouterr().err
        assert main(["interference", classical_path()]) == 0

    def test_compound_cap_names_the_bound(self, capsys):
        """spin-1 at depth 2 needs 893,790,300 tests; the cap says so up front."""
        spin1 = fixture_path("spin1")
        assert main(["transform", spin1, "compound", "--depth", "2"]) == 2
        err = capsys.readouterr().err
        assert "needs ≥ 893790300, enumeration exceeds cap 2000000" in err

    def test_coarsen_cap_names_the_bound(self, capsys):
        """spin-3/2 has 4,281,898 set partitions of tests; the cap says so up front."""
        spin32 = fixture_path("spin32")
        assert main(["transform", spin32, "coarsen"]) == 2
        err = capsys.readouterr().err
        assert "needs ≥ 4281898, enumeration exceeds cap 2000000" in err

    def test_deep_distributive_window_exits_two(self, capsys):
        """wright has 9 coarse outcomes, so depth 5000 needs more than 18^5000 / 2
        points; the bound stops adding at the first partial sum over the cap."""
        assert main(["laws", wright_path(), "distributive", "--depth", "5000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: distributive diagrams: needs ≥ ")
        assert "enumeration exceeds cap 2000000" in err

    def test_negative_distributive_depth_exits_two(self, capsys):
        """A negative window holds no multiplication point; it is refused, not
        reported as a law that holds."""
        assert main(["laws", wright_path(), "distributive", "--depth", "-1"]) == 2
        assert "depth must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_interference_tolerance_exits_two(self, tolerance, capsys):
        """A negative tolerance reports zero gaps as witnesses and NaN hides the
        qubit loop's 0.5 gap; both are refused, as is an infinite one."""
        assert main(["interference", "qubit-mz", "--tolerance", tolerance]) == 2
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "coarse.json"
        assert main(["transform", wright_path(), "coarsen", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["coarsen", "compound"])
    def test_empty_out_exits_two(self, kind, capsys):
        """An empty ``--out`` is a path that cannot be written, not a request
        for stdout."""
        assert main(["transform", wright_path(), kind, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot write : ")

    @pytest.mark.parametrize("kind", ["logic", "closure-lattice"])
    def test_out_on_a_report_transform_exits_two(self, kind, tmp_path, capsys):
        """``--out`` takes a document; the report transforms refuse it rather
        than print to stdout and leave the file unwritten."""
        out = tmp_path / "report.json"
        assert main(["transform", wright_path(), kind, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --out ")
        assert not out.exists()

    def test_parse_and_usage_errors_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check", str(bad)]) == 2
        assert main(["laws", classical_path(), "no-such-suite"]) == 2


class TestOutsideInput:
    """Models are validated where they enter: at document load, whatever the
    command.  Constructions downstream trust what they are given."""

    @staticmethod
    def generator_document(generators):
        return {
            "format_version": "1",
            "outcomes": ["a", "b", "c"],
            "tests": [["a", "b"], ["b", "c"]],
            "states": {"kind": "generators", "scalar": "rational", "generators": generators},
        }

    @pytest.mark.parametrize(
        "generators, error",
        [
            ([{"a": "1/3", "b": "1/2", "c": "1/2"}, {"b": "1"}], NotAState),
            ([{"a": "3/2", "b": "-1/2", "c": "3/2"}, {"b": "1"}], NotAState),
            ([{"b": "1"}], PositivityViolation),
        ],
        ids=["sum-not-one", "outside-unit-interval", "dead-outcome"],
    )
    def test_bad_generator_document_exits_two(self, generators, error, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.generator_document(generators)), encoding="utf-8")
        with pytest.raises(error):
            load_document(str(path))
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_good_generator_document_loads(self, tmp_path):
        path = tmp_path / "good.json"
        doc = self.generator_document([{"a": "1/2", "b": "1/2", "c": "1/2"}, {"b": "1"}])
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert len(load_document(str(path)).model.states.generators) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"states": "full"},
            {"states": {"kind": "generators", "scalar": "rational", "generators": ["a"]}},
            {"product": {"unit": "a", "table": [["a", "b"]]}},
            {"followups": {"tokens": ["t"], "table": [["a", "t"]]}},
            {"outcomes": ["a", 1, "c"], "tests": [["a", 1], [1, "c"]]},
            {"coherence": 5},
            {"coherence": [[5, "a"]]},
            {"coherence": [[["a"], ["a"]]]},
            {"metadata": 5},
            {"followups": "x"},
            {"followups": {"tokens": 5}},
            {"followups": {"tokens": [["t"]]}},
            {"tests": [["a", ["b"]], ["b", "c"]]},
            *(
                {
                    "states": {
                        "kind": "generators",
                        "scalar": "float",
                        "tolerance": tolerance,
                        "generators": [{"a": 0.5, "b": 0.5, "c": 0.5}, {"b": 1.0}],
                    }
                }
                for tolerance in ("x", True, -1, float("nan"), float("inf"))
            ),
            {"outcomes": "abc"},
            {"tests": ["ab", "bc"]},
            {"coherence": {"ab": 0}},
            {"coherence": [["ab", "a"]]},
            {"coherence": ["ab"]},
            {"product": {"unit": "a", "table": {"bbc": 0}}},
            {"product": {"unit": "a", "table": ["bbc"]}},
            {"followups": {"tokens": "tu"}},
            {"followups": {"tokens": [1, "x"]}},
            {"followups": {"tokens": ["t"], "table": {"ata": 0}}},
            {"followups": {"tokens": ["t"], "table": ["ata"]}},
            {
                "states": {
                    "kind": "generators",
                    "scalar": "decimal",
                    "generators": [{"a": 0.5, "b": 0.5, "c": 0.5}, {"b": 1.0}],
                }
            },
        ],
        ids=[
            "states-string",
            "generator-string",
            "product-row",
            "followups-row",
            "label-not-string",
            "coherence-number",
            "coherence-event-number",
            "coherence-target-list",
            "metadata-number",
            "followups-string",
            "followup-tokens-number",
            "followup-token-list",
            "test-member-list",
            "tolerance-string",
            "tolerance-bool",
            "tolerance-negative",
            "tolerance-nan",
            "tolerance-inf",
            "outcomes-string",
            "tests-strings",
            "coherence-object",
            "coherence-event-string",
            "coherence-entry-string",
            "product-table-object",
            "product-row-string",
            "followup-tokens-string",
            "followup-token-number",
            "followups-table-object",
            "followups-row-string",
            "scalar-unknown",
        ],
    )
    def test_malformed_document_exits_two(self, change, tmp_path, capsys):
        doc = {**self.generator_document([]), "states": {"kind": "full"}, **change}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError):
            load_document(str(path))
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exact_full_product_with_float_generators_exits_two(self, capsys):
        assert main(["transform", wright_path(), "product", fixture_path("qubit-zx")]) == 2
        assert "error:" in capsys.readouterr().err


# A fresh interpreter runs one command and prints the orthokit modules it
# loaded.  Each command imports only the layers it runs.
IMPORT_PROBE = """
import contextlib, io, json, sys
from orthokit import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(sys.modules)]))
"""


def child_modules(args):
    """Every module loaded in a child process that ran ``cli.main(args)``, which exited 0."""
    src = str(Path(coarsening.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout)
    assert rc == 0
    return set(modules)


def loaded_modules(args):
    """The orthokit layers loaded in a child that ran ``cli.main(args)``."""
    return {m.removeprefix("orthokit.") for m in child_modules(args) if m.startswith("orthokit.")}


@pytest.mark.parametrize(
    "args, needed, unneeded",
    [
        (["check"], {"document", "testspace", "states", "linprog"},
         {"coarsening", "compounding", "interference", "logic", "morphisms", "quantum",
          "corpus"}),
        (["transform", "logic"], {"document", "logic"},
         {"coarsening", "compounding", "interference", "morphisms"}),
        (["transform", "coarsen"], {"document", "coarsening"},
         {"compounding", "interference"}),
    ],
    ids=["check", "transform-logic", "transform-coarsen"],
)
def test_each_command_imports_only_its_layers(args, needed, unneeded):
    command, *rest = args
    loaded = loaded_modules([command, wright_path(), *rest])
    assert needed <= loaded
    assert not loaded & unneeded, sorted(loaded & unneeded)


@pytest.mark.parametrize(
    "args",
    [["check", "wright"], ["transform", "wright", "coarsen"], ["transform", "wright", "logic"],
     ["interference", "qubit-mz"]],
    ids=["check", "transform-coarsen", "transform-logic", "interference"],
)
def test_commands_do_not_load_dataclasses(args):
    """``dataclasses`` and the ``inspect`` it imports cost a cold start more
    than many commands do; the records are plain slotted classes."""
    command, name, *rest = args
    path = wright_path() if name == "wright" else name
    loaded = child_modules([command, path, *rest])
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded & {"dataclasses", "inspect"})


def test_cap_env_override(tmp_path):
    single3 = next(p for p in FIXTURES if p.endswith("single3.json"))
    env = dict(os.environ, ORTHOKIT_CAP="2")
    proc = subprocess.run(
        [sys.executable, "-m", "orthokit.cli", "laws", single3, "sharp-monad"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "cap" in proc.stderr


@pytest.mark.parametrize("name", ["wright", "triangle"])
def test_unitality_checks_ignore_the_cap(name):
    """``check --unital --strongly-unital`` enumerates a full model's vertices
    under its space's own budget, never under the caller's cap, so cap 0, by
    flag or by ORTHOKIT_CAP, gives the exit code and report of no cap."""
    args = ["check", fixture_path(name), "--unital", "--strongly-unital"]
    env = {k: v for k, v in os.environ.items() if k != "ORTHOKIT_CAP"}

    def run(extra, **more):
        proc = subprocess.run(
            [sys.executable, "-m", "orthokit.cli", *extra, *args],
            capture_output=True,
            text=True,
            env={**env, **more},
        )
        return proc.returncode, proc.stdout, proc.stderr

    want = run([])
    assert want[0] == 0 and '"holds": true' in want[1]
    assert run(["--cap", "0"]) == want
    assert run([], ORTHOKIT_CAP="0") == want


def test_main_entry_usage_error():
    assert main(["transform", wright_path(), "product"]) == 2


def test_negative_env_cap_is_a_usage_error(monkeypatch):
    from orthokit.errors import UsageError, resolve_cap

    monkeypatch.setenv("ORTHOKIT_CAP", "-5")
    with pytest.raises(UsageError):
        resolve_cap()
    assert resolve_cap(7) == 7  # an explicit cap still wins
    assert main(["check", wright_path(), "--coherent"]) == 2


def fixture_path(name):
    return next(p for p in FIXTURES if Path(p).stem == name)


# SHA-256 of the transform output, recorded before compounds were built by the
# tower recursion; any change in tests, order, labels or generators shows here.
TRANSFORM_DIGESTS = [
    (("wright", "compound", "--depth", "2"),
     "0552733bafad8998b27dc200c5b80f92fcb42d9b8496fecf9321873b25da41e5"),
    (("classical3", "compound", "--depth", "2"),
     "0a8e8357e31bd3b44aceb48e9333f0f58827d4e4dbcd67ebda9858ddf3f09bbc"),
    (("qubit-zx", "compound", "--depth", "2"),
     "044da9f686c2cc4eb6e89a5375939638633ecc8d54909095ab78d21363aac699"),
    (("wright", "product", "wright"),
     "4464ec20a5b04f8f29d92e37c419a58f2a64929b9a985b6764fa785d58d74ad1"),
]


@pytest.mark.parametrize(
    "args, digest", TRANSFORM_DIGESTS, ids=["-".join(a[:2]) for a, _ in TRANSFORM_DIGESTS]
)
def test_transform_output_is_byte_stable(args, digest, capsys):
    name, kind, *rest = args
    if kind == "product":
        rest = [fixture_path(rest[0])]
    assert main(["transform", fixture_path(name), kind, *rest]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the logic report of each fixture the benchmark transforms,
# recorded while the order was a set of pairs; a change in the elements,
# sums, order, atoms or classification shows here.
LOGIC_DIGESTS = {
    "classical3": "0d72c8ab9aebdf3ce0daf7e3b31e0c0a6fb2bfbdc5f54444a153919e53ed49d9",
    "qubit-mz": "5cbe7818e420f8a404c08b0127cd836a4606a02205af674409a8c668fbad4c93",
    "qubit-zx": "50536068aa624d09899497987239ef0f4589c93ad7fdb93d9908a3d7743989a2",
    "semiclassical-2x2": "582cf33c1bc23e75b29b8ba2e237c3305f8578ee28fd62efe059a8e7e59ddebc",
    "single3": "20f74985b95835b1a4207c96f64de4bd4e8452abd8c8b81f5ea81016edf0dc61",
    "triangle": "5995978c82533b4cb2a01b4fe69907f5b077211536f41e5b7e9a1aa01214fa40",
    "wright": "91e9b5ae4726727ba83143292b36f29519537c590361e7962f7c62c456dd3d46",
}


@pytest.mark.parametrize("name", LOGIC_DIGESTS)
def test_logic_report_is_byte_stable(name, capsys):
    assert main(["transform", fixture_path(name), "logic"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LOGIC_DIGESTS[name]


# SHA-256 of the law-suite reports, recorded before the coarsening monad's
# multiplication got its single definition; point counts and key order show here.
LAWS_DIGESTS = [
    (("wright", "sharp-monad"),
     "fc3860d49bfebfd296ffb47539d99ff95b23d5d326ee2caffddd62ba45fa568c"),
    (("classical3", "sharp-monad"),
     "f1e9f64cf4d4e9e2e79aa54f4f2e150e5d0359c0664eede6b81481cd95305112"),
    (("wright", "distributive", "--depth", "2"),
     "a9253c8aad04c503a40434012ff7bb1e9fd5935aa69c60e1c4d0ecfd0e2f7f5e"),
    (("classical3", "g-algebra"),
     "af72d34598ace25d78b9af7fb72eeb28ef7e34a48b04b35796288383b074cc36"),
    # pinned when inductivity became exact: the earlier output less its
    # "inductivity_mode" and "partially_verified" keys
    (("classical3", "sequential"),
     "e2f09c988c7f2a2fd85e2620b1bf59521f57782874f680d6b9c20e66927b760e"),
]


@pytest.mark.parametrize(
    "args, digest", LAWS_DIGESTS, ids=["-".join(a[:2]) for a, _ in LAWS_DIGESTS]
)
def test_laws_output_is_byte_stable(args, digest, capsys):
    name, *rest = args
    assert main(["laws", fixture_path(name), *rest]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
