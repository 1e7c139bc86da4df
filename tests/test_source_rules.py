"""Rules on the library source itself.

It means the same under ``python -O``: that strips every ``assert`` and sets
``__debug__`` to False, so a check written with either runs in one mode only.
The source may use neither, and a subprocess under ``-O`` must report what
this process does.

It enforces caps one way: ``errors.check_cap`` raises before an enumeration
whose size is computed up front, so ``EnumerationCapExceeded`` is built only in
``errors.py``, and a ``CapCounter`` that counts as it goes appears only in
three enumerations whose size has no closed form: the orthopartitions, the
closed sets, and the rays of vertex enumeration, whose count depends on the
order in which double description meets the inequalities.  A cap error
propagates: below the CLI's top level, the only handler of
``EnumerationCapExceeded`` (or of a base class) is
``compounding._preservation``, whose report records each check it skips.

It validates test spaces one way: ``build_test_space`` is the only place in
``testspace.py`` that raises ``RedundantTests`` or ``UncoveredOutcome``, and
the trusted ``TestSpace.__init__`` raises nothing and calls neither
``_is_antichain`` nor ``mask_event``.

It decides without sampling: no module imports ``random``, so no verdict
rests on seeded draws.  And no module imports ``dataclasses``: it pulls in
``inspect``, and with the classes it builds it costs a cold CLI start more
than many commands do.

It keeps each rule in few places: only ``compounding.py`` compares against the
rules for undefined sequential products, and inside it ``undefined_means`` is
read only by ``SequentialProduct.out_of_window``, which ``products`` and the
string evaluation of ``validate_sequential`` both ask.

It keeps one event form: every module but ``testspace.py``, which builds
the views, reads a space's tests and events as masks, never through the
frozenset views ``tests``, ``test_set``, ``events_list``, ``events()`` or
``event_product``, and no coarsening carries an ``outcome_event`` table.
The module list is read from the directory, so a new module falls under it.

It checks test-family statements on test families: ``check_tower_recursion``
and ``validate_sequential`` build the compounds and the forward product they
compare as test spaces, ``check_monad_laws_sharp`` and
``check_distributive_diagrams`` the coarse spaces, and ``preservation_compound``
and ``preservation_forward`` the output space.  None of the six, in
``compounding.py``, ``coarsening.py`` or ``interference.py``, calls
``truncated_compound``, ``forward_product``, ``adjoin_unit_model``,
``coarsen``, ``lift_weight``, ``Model`` or ``StateSpace``, which build states
they never read.

It stores record fields one way: no ``Record`` or ``Frozen`` class writes an
``__init__``, since ``Record.__init__`` binds every record's fields from its
``__slots__``, and only ``_record.py`` names ``setfield`` or
``object.__setattr__``, the way past a frozen record's ``__setattr__``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import orthokit

SRC = Path(orthokit.__file__).resolve().parent


def debug_only_nodes(source, filename="<string>"):
    """(line, kind) of every ``assert`` statement and every use of ``__debug__``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
        elif isinstance(node, ast.Attribute) and node.attr == "__debug__":
            found.append((node.lineno, "__debug__"))
    return sorted(found)


def test_scanner_flags_assert_and_debug():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "import builtins\n"
        "def f(x):\n"
        "    if __debug__:\n"
        "        assert x, 'x'\n"
        "    return builtins.__debug__\n"
    )
    assert debug_only_nodes(source) == [(3, "__debug__"), (4, "assert"), (5, "__debug__")]


def test_src_has_no_assert_and_no_debug():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 14
    found = {}
    for path in paths:
        hits = debug_only_nodes(path.read_text(encoding="utf-8"), str(path))
        if hits:
            found[path.name] = hits
    assert not found, f"python -O would change these checks: {found}"


# One script, run here and in a child under -O.  ``results`` returns the
# composite flags next to those ``validate_morphism`` gives the composite
# mapping, ``is_support`` on every subset of every 8th corpus space, and
# ``fp_perspective_by_parts`` next to ``is_perspective`` on the pairs of
# acceptance criterion 2.
CHECKS = """
import json
from orthokit.compounding import forward_product, fp_perspective_by_parts
from orthokit.corpus import enumerate_test_spaces, named
from orthokit.morphisms import compose, validate_morphism
from orthokit.states import full_model
from orthokit.testspace import build_test_space


def results():
    a, b, c = (
        full_model(build_test_space(tests))
        for tests in ([["a", "b"]], [["a", "b"], ["c", "d"]], [["x", "y"]])
    )
    composite = compose(validate_morphism(b, c, (0, 1, 0, 1)), validate_morphism(a, b, (0, 1)))
    direct = validate_morphism(a, c, composite.mapping)
    flags = [
        [composite.test_preserving, composite.embedding],
        [direct.test_preserving, direct.embedding],
    ]
    supports = []
    for space in list(enumerate_test_spaces(6, 3))[::8]:
        n = space.n_outcomes
        supports.append([
            space.is_support(x for x in range(n) if m >> x & 1) for m in range(1 << n)
        ])
    perspective = []
    for left, right in (("single-2", "single-2"), ("single-2", "wright"),
                        ("semiclassical-2x2", "single-2")):
        fp = forward_product(named(left), named(right))
        events = fp.model.space.events_list()
        for i, e in enumerate(events):
            for f in events[i + 1 :: 11]:
                perspective.append(
                    [fp_perspective_by_parts(fp, e, f), fp.model.space.is_perspective(e, f)]
                )
    return {"compose": flags, "supports": supports, "perspective": perspective}
"""


def check_results(got):
    composite, direct = got["compose"]
    assert composite == direct == [True, True]
    assert len(got["supports"]) == 14
    assert len(got["perspective"]) >= 500
    assert all(by_parts == search for by_parts, search in got["perspective"])


def test_same_results_under_optimize():
    """A child under -O computes what this process computes, and both are right."""
    namespace = {}
    exec(CHECKS, namespace)
    want = json.loads(json.dumps(namespace["results"]()))
    check_results(want)
    script = (
        CHECKS
        + 'assert False, "this script must run with asserts stripped"\n'
        + "print(json.dumps(results()))\n"
    )
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    check_results(got)
    assert got == want


# -- cap enforcement -------------------------------------------------------------

CAP_CLASSES = ("EnumerationCapExceeded", "CapCounter")

COUNTED_ENUMERATIONS = {
    ("linprog.py", "enumerate_vertices"),
    ("logic.py", "orthopartition_space"),
    ("testspace.py", "closed_set_lattice"),
}


def cap_constructions(source, filename="<string>"):
    """(line, class, innermost enclosing function) of every call to a cap class."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in CAP_CLASSES:
                    found.append((child.lineno, name, function))
            visit(child, function)

    visit(ast.parse(source, filename=filename), None)
    return sorted(found)


def test_scanner_flags_cap_constructions():
    """The rules below cannot pass just because the scanner sees nothing."""
    source = (
        "from orthokit import errors\n"
        "def f(n):\n"
        "    counter = errors.CapCounter('f', n)\n"
        "    def g():\n"
        "        raise EnumerationCapExceeded('g', n, n + 1)\n"
        "    return counter, g\n"
        "EnumerationCapExceeded('top', 0, 1)\n"
    )
    assert cap_constructions(source) == [
        (3, "CapCounter", "f"),
        (5, "EnumerationCapExceeded", "g"),
        (7, "EnumerationCapExceeded", None),
    ]


def test_caps_are_enforced_one_way():
    raised, counted = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for _, name, function in cap_constructions(path.read_text(encoding="utf-8"), str(path)):
            (raised if name == "EnumerationCapExceeded" else counted).add((path.name, function))
    assert {name for name, _ in raised} == {"errors.py"}
    assert counted == COUNTED_ENUMERATIONS


# the preservation report, which records each check it skips, and the CLI's
# top level, which reports every library error and exits 2
CAP_HANDLERS = {("compounding.py", "_preservation"), ("cli.py", "main")}


def cap_handlers(source, filename="<string>"):
    """(line, innermost enclosing function) of every handler that catches a cap error.

    A handler catches it when its type, or a member of its tuple, is named
    ``EnumerationCapExceeded`` or one of its bases: a bare ``except``,
    ``Exception``, ``BaseException`` or ``OrthokitError``.
    """
    catching = {"EnumerationCapExceeded", "OrthokitError", "Exception", "BaseException"}
    found = []

    def names(node):
        if node is None:
            return {"BaseException"}
        if isinstance(node, ast.Tuple):
            return set().union(*(names(elt) for elt in node.elts))
        return {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and names(child.type) & catching:
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source, filename=filename), None)
    return sorted(found)


def test_scanner_flags_cap_handlers():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, errors.EnumerationCapExceeded):\n"
        "        pass\n"
        "    except KeyError:\n"
        "        pass\n"
        "    def g():\n"
        "        try:\n"
        "            pass\n"
        "        except OrthokitError:\n"
        "            pass\n"
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
    )
    assert cap_handlers(source) == [(4, "f"), (11, "g"), (15, None)]


def test_cap_errors_propagate():
    """No sampled or truncated fallback: the one handler records its skips."""
    handlers = set()
    for path in sorted(SRC.glob("*.py")):
        for _, function in cap_handlers(path.read_text(encoding="utf-8"), str(path)):
            handlers.add((path.name, function))
    assert handlers == CAP_HANDLERS


# -- no sampling, no dataclasses ----------------------------------------------------


def imported_modules(source, filename="<string>"):
    """(line, top-level module) of every ``import`` and ``from ... import``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return sorted(found)


def test_scanner_flags_imports():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "import math, random as r\n"
        "from .errors import UsageError\n"
        "def f():\n"
        "    from random import Random\n"
        "    return Random\n"
    )
    assert imported_modules(source) == [(1, "math"), (1, "random"), (4, "random")]


def imports_of(refused):
    """{file name: lines} of the library's imports of the module ``refused``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        hits = [line for line, module in imported_modules(path.read_text(encoding="utf-8"))
                if module == refused]
        if hits:
            found[path.name] = hits
    return found


def test_src_does_not_import_random():
    found = imports_of("random")
    assert not found, f"sampling in the library: {found}"


def test_src_does_not_import_dataclasses():
    found = imports_of("dataclasses")
    assert not found, f"dataclasses in the library: {found}"


# -- test-space validation -------------------------------------------------------

VALIDATION_ERRORS = ("RedundantTests", "UncoveredOutcome")
TRUSTED_CONSTRUCTOR = "TestSpace.__init__"
NOT_IN_CONSTRUCTOR = ("_is_antichain", "mask_event")


def scoped_nodes(source, filename="<string>"):
    """(node, enclosing qualified name) for every node below the module's classes
    and functions, which the qualified name joins with dots (None at top level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            yield child, scope
            yield from visit(child, scope)

    return visit(ast.parse(source, filename=filename), None)


def raises_and_calls(source, filename="<string>"):
    """(line, "raise" or "call", name, enclosing qualified name) of every raise and call.

    A raise is named by the exception it builds (None for a bare ``raise``).
    """
    found = []

    def name_of(node):
        if isinstance(node, ast.Call):
            node = node.func
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    for node, scope in scoped_nodes(source, filename):
        if isinstance(node, ast.Raise):
            exc = name_of(node.exc) if node.exc is not None else None
            found.append((node.lineno, "raise", exc, scope))
        elif isinstance(node, ast.Call):
            found.append((node.lineno, "call", name_of(node), scope))
    return sorted(found, key=lambda hit: (hit[0], hit[1]))


def test_scanner_flags_raises_and_calls():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "class TestSpace:\n"
        "    def __init__(self, tests):\n"
        "        if not tests:\n"
        "            raise errors.RedundantTests('x')\n"
        "        def inner():\n"
        "            raise\n"
        "        _is_antichain(tests)\n"
        "def build_test_space(tests):\n"
        "    raise UncoveredOutcome\n"
    )
    assert raises_and_calls(source) == [
        (4, "call", "RedundantTests", "TestSpace.__init__"),
        (4, "raise", "RedundantTests", "TestSpace.__init__"),
        (6, "raise", None, "TestSpace.__init__.inner"),
        (7, "call", "_is_antichain", "TestSpace.__init__"),
        (9, "raise", "UncoveredOutcome", "build_test_space"),
    ]


def test_test_spaces_are_validated_one_way():
    """``build_test_space`` is the one validator; the constructor trusts its masks."""
    hits = raises_and_calls((SRC / "testspace.py").read_text(encoding="utf-8"))
    in_constructor = [
        hit for hit in hits
        if f"{hit[3]}.".startswith(TRUSTED_CONSTRUCTOR + ".")
        if hit[1] == "raise" or hit[2] in NOT_IN_CONSTRUCTOR
    ]
    assert in_constructor == []
    validators = {scope for _, kind, name, scope in hits
                  if kind == "raise" and name in VALIDATION_ERRORS}
    assert validators == {"build_test_space"}


# -- undefined sequential products ----------------------------------------------------

UNDEFINED_RULE_NAMES = {"IMPOSSIBLE", "OUT_OF_WINDOW", "undefined_means"}
# the one reading outside compounding.py: a document's ``semantics`` string
UNDEFINED_RULE_READERS = {
    ("document.py", "semantics", "IMPOSSIBLE"),
    ("document.py", "semantics", "OUT_OF_WINDOW"),
}


def undefined_rule_comparisons(source, filename="<string>"):
    """(line, left operand, name, enclosing qualified name) of every comparison
    that involves a rule name.

    A rule name is ``IMPOSSIBLE``, ``OUT_OF_WINDOW`` or ``undefined_means``, as a
    name or an attribute, anywhere among the operands.
    """
    found = []
    for node, scope in scoped_nodes(source, filename):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left, *node.comparators]:
            for sub in ast.walk(operand):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in UNDEFINED_RULE_NAMES:
                    found.append((node.lineno, ast.unparse(node.left), name, scope))
    return sorted(found)


def test_scanner_flags_undefined_rule_comparisons():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "def f(prod, kind, semantics):\n"
        "    if prod.undefined_means == c.IMPOSSIBLE:\n"
        "        return kind != OUT_OF_WINDOW\n"
        "    return semantics not in (IMPOSSIBLE, OUT_OF_WINDOW), kind is IMPOSSIBLE\n"
    )
    assert undefined_rule_comparisons(source) == [
        (2, "prod.undefined_means", "IMPOSSIBLE", "f"),
        (2, "prod.undefined_means", "undefined_means", "f"),
        (3, "kind", "OUT_OF_WINDOW", "f"),
        (4, "kind", "IMPOSSIBLE", "f"),
        (4, "semantics", "IMPOSSIBLE", "f"),
        (4, "semantics", "OUT_OF_WINDOW", "f"),
    ]


def test_undefined_products_are_read_in_compounding_only():
    """``compounding.defined_products`` is the one rule for undefined products;
    other modules ask a ``SequentialProduct`` for its products."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "compounding.py":
            for _, left, name, _ in undefined_rule_comparisons(path.read_text(encoding="utf-8")):
                found.add((path.name, left, name))
    assert found == UNDEFINED_RULE_READERS


# inside compounding.py: the product's own rule, which ``products`` and
# ``validate_sequential``'s rule for whole strings both read
UNDEFINED_MEANS_READERS = {"SequentialProduct.out_of_window"}


def test_undefined_means_is_read_in_one_place():
    source = (SRC / "compounding.py").read_text(encoding="utf-8")
    scopes = {scope for _, _, name, scope in undefined_rule_comparisons(source)
              if name == "undefined_means"}
    assert scopes == UNDEFINED_MEANS_READERS


# -- one event form outside testspace.py --------------------------------------------------

MASK_ONLY = sorted(path.name for path in SRC.glob("*.py") if path.name != "testspace.py")
FROZENSET_VIEWS = {"tests", "test_set", "events_list", "outcome_event", "event_product"}


def frozenset_reads(source, filename="<string>"):
    """(line, name) of every attribute or name in ``FROZENSET_VIEWS`` and every
    call of an ``events`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute) and node.attr in FROZENSET_VIEWS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "outcome_event":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "events":
            found.append((node.lineno, "events"))
    return sorted(found)


def test_scanner_flags_frozenset_reads():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "class Coarsening:\n"
        "    outcome_event: tuple\n"
        "def f(space, c):\n"
        "    a = space.tests, space.test_set\n"
        "    b = space.events_list(3), list(space.events())\n"
        "    return c.outcome_event, space._test_masks, space.events\n"
        "def g(sp, a, b):\n"
        "    return sp.event_product(a, b)\n"
    )
    assert frozenset_reads(source) == [
        (2, "outcome_event"),
        (4, "test_set"),
        (4, "tests"),
        (5, "events"),
        (5, "events_list"),
        (6, "outcome_event"),
        (8, "event_product"),
    ]


def test_src_reads_events_as_masks():
    assert len(MASK_ONLY) >= 14
    found = {}
    for name in MASK_ONLY:
        hits = frozenset_reads((SRC / name).read_text(encoding="utf-8"))
        if hits:
            found[name] = hits
    assert not found, f"frozenset views of events read in: {found}"


# -- record fields -------------------------------------------------------------------

RECORD_BASES = {"Record", "Frozen"}


def record_field_writes(source, filename="<string>"):
    """(line, what) of every ``__init__`` of a class based on ``Record`` or
    ``Frozen``, every ``setfield`` (read or imported) and every
    ``object.__setattr__``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ClassDef):
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                     for b in node.bases}
            if bases & RECORD_BASES:
                found.extend(
                    (item.lineno, f"{node.name}.__init__") for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                )
        elif (isinstance(node, ast.Name) and node.id == "setfield"
              or isinstance(node, ast.alias) and node.name == "setfield"):
            found.append((node.lineno, "setfield"))
        elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
              and isinstance(node.value, ast.Name) and node.value.id == "object"):
            found.append((node.lineno, "object.__setattr__"))
    return sorted(found)


def test_scanner_flags_record_field_writes():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "from ._record import Frozen, setfield\n"
        "class Report(_record.Frozen):\n"
        "    __slots__ = ('holds',)\n"
        "    def __init__(self, holds):\n"
        "        setfield(self, 'holds', holds)\n"
        "class Space:\n"
        "    def __init__(self, n):\n"
        "        object.__setattr__(self, 'n', n)\n"
    )
    assert record_field_writes(source) == [
        (1, "setfield"),
        (4, "Report.__init__"),
        (5, "setfield"),
        (8, "object.__setattr__"),
    ]


def test_records_store_fields_in_record_only():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        hits = record_field_writes(path.read_text(encoding="utf-8"), str(path))
        if path.name == "_record.py":
            hits = [hit for hit in hits if hit[1].endswith("__init__")]
        if hits:
            found[path.name] = hits
    assert not found, f"record fields stored outside _record.py: {found}"


# -- test-family checks build no model ----------------------------------------------------

TEST_FAMILY_MODULES = ("compounding.py", "coarsening.py", "interference.py")
TEST_FAMILY_CHECKS = {
    "check_tower_recursion", "validate_sequential", "check_monad_laws_sharp",
    "check_distributive_diagrams", "preservation_compound", "preservation_forward",
}
MODEL_BUILDERS = {
    "truncated_compound", "forward_product", "adjoin_unit_model", "coarsen", "lift_weight",
    "Model", "StateSpace",
}


def model_builder_calls(source, filename="<string>"):
    """(line, name, function) of every call inside a ``TEST_FAMILY_CHECKS``
    function, nested scopes included, of a ``MODEL_BUILDERS`` name, of such an
    attribute, or of a method of one (``StateSpace.hull``)."""
    found = []
    for node, scope in scoped_nodes(source, filename):
        if not isinstance(node, ast.Call) or scope is None:
            continue
        if scope.split(".")[0] not in TEST_FAMILY_CHECKS:
            continue
        func = node.func
        names = [getattr(func, "id", None), getattr(func, "attr", None)]
        names.append(getattr(getattr(func, "value", None), "id", None))
        found += [(node.lineno, name, scope) for name in names if name in MODEL_BUILDERS]
    return sorted(found)


def test_scanner_flags_model_builder_calls():
    """The rule below cannot pass just because the scanner sees nothing."""
    source = (
        "def check_tower_recursion(model: Model, depth):\n"
        "    tc = truncated_compound(model, depth)\n"
        "    fp = compounding.forward_product(model, tc.model)\n"
        "    def inner():\n"
        "        return adjoin_unit_model(model)\n"
        "    return Model(model.space, StateSpace.hull([]))\n"
        "def validate_sequential(model, sp):\n"
        "    return StateSpace.full(), model.space\n"
        "def truncated_compound(model, depth):\n"
        "    return Model(model.space, StateSpace.full())\n"
        "def check_monad_laws_sharp(model):\n"
        "    return coarsening.coarsen(coarsen(model).model)\n"
        "def preservation_compound(model, depth):\n"
        "    return [lift_weight(events, g) for g in model.states.generators]\n"
    )
    assert model_builder_calls(source) == [
        (2, "truncated_compound", "check_tower_recursion"),
        (3, "forward_product", "check_tower_recursion"),
        (5, "adjoin_unit_model", "check_tower_recursion.inner"),
        (6, "Model", "check_tower_recursion"),
        (6, "StateSpace", "check_tower_recursion"),
        (8, "StateSpace", "validate_sequential"),
        (12, "coarsen", "check_monad_laws_sharp"),
        (12, "coarsen", "check_monad_laws_sharp"),
        (14, "lift_weight", "preservation_compound"),
    ]


def test_test_family_checks_build_no_model():
    defined, found = set(), {}
    for name in TEST_FAMILY_MODULES:
        source = (SRC / name).read_text(encoding="utf-8")
        tree = ast.parse(source)
        defined |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if hits := model_builder_calls(source, name):
            found[name] = hits
    assert TEST_FAMILY_CHECKS <= defined
    assert not found, f"test-family checks build states: {found}"
