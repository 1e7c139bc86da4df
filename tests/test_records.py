"""The record classes keep the semantics they had as dataclasses.

Every record: construction by position and by keyword with the same field
order and defaults; ``==`` on the fields, false when one field differs and
between two classes holding the same values; the exact ``repr``; a copy
equal to the original; ``hash`` from the fields and no assignment for a
frozen record; and a mutable record (``LPResult``, ``DocumentBundle``) that
takes assignment and has no hash.  The one ``__init__`` they share binds
arguments as a ``def`` would.
"""

import copy
from fractions import Fraction as F

import pytest

from orthokit._record import Frozen, Record
from orthokit.coarsening import (
    CheckedCoherence,
    Coarsening,
    MonadLawReport,
    ProjectivityClassification,
)
from orthokit.compounding import (
    CheckedSequential,
    ForwardProduct,
    PreservationReport,
    SequentialProduct,
    SequentialReport,
    TruncatedCompound,
)
from orthokit.document import DocumentBundle
from orthokit.interference import (
    DiagramReport,
    DistributiveCell,
    GAlgebra,
    InterferenceWitness,
)
from orthokit.linprog import LPResult
from orthokit.logic import OrthoMap
from orthokit.morphisms import Morphism
from orthokit.quantum import BeamModel, ClassicalModel, SplitterPlan
from orthokit.states import StateReport, StateSpace, full_model
from orthokit.testspace import PredicateResult, build_test_space

SOURCE = full_model(build_test_space([["a", "b"]]))
TARGET = full_model(build_test_space([["x", "y"]]))

# class, field names in order, a value per field, the defaults, the repr of
# the record built from those values
RECORDS = [
    (PredicateResult, ("holds", "witness"), (False, (1, 2)), {"witness": None},
     "PredicateResult(holds=False, witness=(1, 2))"),
    (StateSpace, ("kind", "generators"), ("generators", (3,)), {"generators": ()},
     "StateSpace(kind='generators', generators=(3,))"),
    (StateReport, ("name", "holds", "failures"), ("unital", False, (0,)), {"failures": ()},
     "StateReport(name='unital', holds=False, failures=(0,))"),
    (LPResult, ("status", "value", "x", "pivots"), ("optimal", F(1, 2), [F(1)], 3),
     {"pivots": 0},
     "LPResult(status='optimal', value=Fraction(1, 2), x=[Fraction(1, 1)], pivots=3)"),
    (Morphism, ("source", "target", "mapping", "test_preserving", "embedding", "d_status"),
     (SOURCE, TARGET, (1, 0), True, True, "implied"), {},
     "Morphism(a->y, b->x)"),
    (OrthoMap, ("source", "target", "table"), ("src", "dst", (0, 2)), {},
     "OrthoMap(source='src', target='dst', table=(0, 2))"),
    (DocumentBundle, ("model", "coherence", "product", "followups", "metadata"),
     ("model", {"c": 1}, "product", ("t",), {"name": "m"}),
     {"coherence": None, "product": None, "followups": None, "metadata": {}},
     "DocumentBundle(model='model', coherence={'c': 1}, product='product', "
     "followups=('t',), metadata={'name': 'm'})"),
    (Coarsening, ("base", "model", "outcome_mask", "mask_outcome"),
     ("base", "model", (1, 2), "inverse"), {},
     "Coarsening(base='base', model='model', outcome_mask=(1, 2), mask_outcome='inverse')"),
    (MonadLawReport, ("associativity_points", "unit_points"), (7, 3), {},
     "MonadLawReport(associativity_points=7, unit_points=3)"),
    (CheckedCoherence, ("model", "coarse", "morphism", "table"),
     ("model", "coarse", "phi", "sigma"), {},
     "CheckedCoherence(model='model', coarse='coarse', morphism='phi', table='sigma')"),
    (ProjectivityClassification,
     ("cohesive_and_projective", "cohesive_and_collapse_constant", "algebraic_and_projective"),
     (True, False, True), {},
     "ProjectivityClassification(cohesive_and_projective=True, "
     "cohesive_and_collapse_constant=False, algebraic_and_projective=True)"),
    (ForwardProduct, ("left", "right", "model", "outcome_pair", "pair_id"),
     ("left", "right", "model", ((0, 1),), "ids"), {},
     "ForwardProduct(left='left', right='right', model='model', outcome_pair=((0, 1),), "
     "pair_id='ids')"),
    (TruncatedCompound, ("base", "depth", "model", "strings", "string_id"),
     ("base", 2, "model", ((), (0,)), "ids"), {},
     "TruncatedCompound(base='base', depth=2, model='model', strings=((), (0,)), "
     "string_id='ids')"),
    (SequentialProduct, ("unit", "table", "undefined_means"), (0, "table", "out_of_window"),
     {"undefined_means": "impossible"},
     "SequentialProduct(unit=0, table='table', undefined_means='out_of_window')"),
    (SequentialReport,
     ("unit_points", "associativity_checked", "associativity_skipped",
      "orthogonality_checked", "inductivity_checked", "inductivity_skipped",
      "state_candidates", "conditional_rows_checked", "evaluation_depth",
      "evaluation_domain", "evaluation_total"),
     tuple(range(1, 12)), {},
     "SequentialReport(unit_points=1, associativity_checked=2, associativity_skipped=3, "
     "orthogonality_checked=4, inductivity_checked=5, inductivity_skipped=6, "
     "state_candidates=7, conditional_rows_checked=8, evaluation_depth=9, "
     "evaluation_domain=10, evaluation_total=11)"),
    (CheckedSequential, ("model", "product", "report"), ("model", "product", "report"), {},
     "CheckedSequential(model='model', product='product', report='report')"),
    (PreservationReport, ("construction", "properties", "skipped"),
     ("compound", "properties", ("coherent",)), {},
     "PreservationReport(construction='compound', properties='properties', "
     "skipped=('coherent',))"),
    (DiagramReport,
     ("multiplication_outer", "multiplication_inner", "unit_coarse", "unit_compound"),
     (1, 2, 3, 4), {},
     "DiagramReport(multiplication_outer=1, multiplication_inner=2, unit_coarse=3, "
     "unit_compound=4)"),
    (DistributiveCell, ("model", "depth", "source", "target", "morphism"),
     ("model", 1, "source", "target", "phi"), {},
     "DistributiveCell(model='model', depth=1, source='source', target='target', "
     "morphism='phi')"),
    (GAlgebra,
     ("model", "coherence", "sequential", "commutative", "strings_checked", "strings_skipped"),
     ("model", "sigma", "sequential", False, 9, 0), {},
     "GAlgebra(model='model', coherence='sigma', sequential='sequential', "
     "commutative=False, strings_checked=9, strings_skipped=0)"),
    (InterferenceWitness, ("state_index", "event", "outcome", "coherent", "incoherent"),
     (0, frozenset({1}), 2, F(1, 2), 0), {},
     "InterferenceWitness(state_index=0, event=frozenset({1}), outcome=2, "
     "coherent=Fraction(1, 2), incoherent=0)"),
    (ClassicalModel, ("model", "points", "subset_id", "subsets", "sigma", "product"),
     ("model", 3, "ids", (frozenset({1}),), "sigma", "product"), {},
     "ClassicalModel(model='model', points=3, subset_id='ids', subsets=(frozenset({1}),), "
     "sigma='sigma', product='product')"),
    (SplitterPlan,
     ("basis", "labels", "blocked", "groups", "group_labels", "fine_next", "group_next"),
     ((0.0, 1.0), ("0", "1"), frozenset({1}), (frozenset({0, 1}),), ("g",), "fine",
      "group"),
     {"blocked": frozenset(), "groups": (), "group_labels": (), "fine_next": {},
      "group_next": {}},
     "SplitterPlan(basis=(0.0, 1.0), labels=('0', '1'), blocked=frozenset({1}), "
     "groups=(frozenset({0, 1}),), group_labels=('g',), fine_next='fine', "
     "group_next='group')"),
    (BeamModel, ("model", "paths", "sigma", "witness_labels", "_products"),
     ("model", (("a",),), "sigma", ("w",), "products"), {},
     "BeamModel(model='model', paths=(('a',),), sigma='sigma', witness_labels=('w',), "
     "_products='products')"),
]
MUTABLE = (LPResult, DocumentBundle)


def test_every_record_class_is_listed():
    assert len(RECORDS) == 24
    assert len({cls for cls, *_ in RECORDS}) == 24


@pytest.mark.parametrize(
    "cls, names, values, defaults, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(cls, names, values, defaults, text):
    record = cls(*values)
    assert [getattr(record, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    assert repr(record) == text

    required = [v for name, v in zip(names, values) if name not in defaults]
    bare = cls(*required)
    assert {name: getattr(bare, name) for name in defaults} == defaults
    for name, default in defaults.items():
        if isinstance(default, dict):  # a fresh dict per record, as a default factory gives
            assert getattr(bare, name) is not getattr(cls(*required), name)

    twin = cls(*values)
    assert twin == record and not twin != record
    for i, name in enumerate(names):
        changed = cls(*values[:i], ("changed", name), *values[i + 1:])
        assert changed != record and not changed == record, name
    assert record != tuple(values)
    assert copy.copy(record) == record
    for other, other_names, *_ in RECORDS:
        if other is not cls and len(other_names) == len(names):
            assert other(*values) != record and record != other(*values)

    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, names[-1], "assigned")
        assert getattr(record, names[-1]) == "assigned"
    else:
        assert hash(twin) == hash(record)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, "assigned")
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert [getattr(record, name) for name in names] == list(values)


@pytest.mark.parametrize(
    "cls, names, values, defaults", [r[:4] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS]
)
def test_binding_errors(cls, names, values, defaults):
    required = [v for name, v in zip(names, values) if name not in defaults]
    with pytest.raises(TypeError, match="missing"):
        cls(*required[:-1])
    with pytest.raises(TypeError, match="positional"):
        cls(*values, "surplus")
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("base", [Record, Frozen])
def test_a_default_must_not_precede_a_required_field(base):
    with pytest.raises(TypeError, match="'b'"):
        type("Bad", (base,), {"__slots__": ("a", "b", "c"), "_defaults": {"a": 0, "c": 0}})
    good = type("Good", (base,), {"__slots__": ("a", "b"), "_defaults": {"b": 0}})
    assert (good(1).a, good(1).b) == (1, 0)
