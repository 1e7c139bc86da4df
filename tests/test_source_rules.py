"""Rules on the library source itself, checked by parsing it."""

import ast
from pathlib import Path

import orthokit

SRC = Path(orthokit.__file__).resolve().parent


def _debug_only_asserts(node, guarded=False):
    """Yield (assert node, guarded) for every assert below ``node``.

    An assert is guarded when some enclosing ``if`` tests exactly
    ``__debug__`` and the assert sits in that ``if``'s body.
    """
    if isinstance(node, ast.Assert):
        yield node, guarded
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "__debug__":
        for child in node.body:
            yield from _debug_only_asserts(child, True)
        for child in node.orelse:
            yield from _debug_only_asserts(child, guarded)
        return
    for child in ast.iter_child_nodes(node):
        yield from _debug_only_asserts(child, guarded)


def test_every_assert_is_debug_only():
    """No correctness check may rely on assert: ``python -O`` strips them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, guarded in _debug_only_asserts(tree):
            found.append((path.name, node.lineno, guarded))
    unguarded = [(name, line) for name, line, guarded in found if not guarded]
    assert not unguarded, f"assert outside `if __debug__:` at {unguarded}"
    assert found  # the scan sees the debug-only cross-checks
