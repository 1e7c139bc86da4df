"""Exception hierarchy and enumeration-cap plumbing.

Every potentially explosive enumeration in the package is guarded by an
explicit cap.  Exceeding a cap raises ``EnumerationCapExceeded``; nothing is
ever silently truncated.  The global default can be overridden with the
``ORTHOKIT_CAP`` environment variable.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

DEFAULT_CAP = 2_000_000
CAP_ENV_VAR = "ORTHOKIT_CAP"


class OrthokitError(Exception):
    """Base class for all orthokit errors."""


class UsageError(OrthokitError):
    """Bad arguments at the API or CLI boundary."""


class EnumerationCapExceeded(OrthokitError):
    """An enumeration would exceed its cap.

    ``bound`` is the computed quantity that tripped the cap: the work the
    enumeration needs is at least that much.
    """

    def __init__(self, what: str, cap: int, bound: int):
        super().__init__(f"{what}: needs ≥ {bound}, enumeration exceeds cap {cap}")
        self.what = what
        self.cap = cap
        self.bound = bound


# -- test-space construction -------------------------------------------------

class EmptyTest(OrthokitError):
    pass


class RedundantTests(OrthokitError):
    pass


class UnknownLabel(OrthokitError):
    pass


class LabelCollision(OrthokitError):
    pass


class UncoveredOutcome(OrthokitError):
    pass


# -- states ------------------------------------------------------------------

class NumericKindMismatch(OrthokitError):
    pass


class PositivityViolation(OrthokitError):
    pass


class NotAState(OrthokitError):
    pass


# -- morphisms ---------------------------------------------------------------

class MorphismError(OrthokitError):
    """Validation failure; carries a witness describing the violation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotLocallyInjective(MorphismError):
    pass


class ImageNotEvent(MorphismError):
    pass


class ImagesNotPerspective(MorphismError):
    pass


class PullbackNotState(MorphismError):
    pass


class DomainMismatch(OrthokitError):
    pass


class HypothesisUnmet(OrthokitError):
    pass


# -- logic / structure maps ----------------------------------------------------

class NotAlgebraic(OrthokitError):
    pass


class LawViolation(OrthokitError):
    pass


class NotCoherence(MorphismError):
    pass


class NotSequential(MorphismError):
    pass


class NotAMorphism(MorphismError):
    pass


class NotGAlgebra(MorphismError):
    pass


class ZeroMarginal(OrthokitError):
    pass


# -- quantum generators --------------------------------------------------------

class NotOrthonormal(OrthokitError):
    pass


class DepthCapExceeded(OrthokitError):
    pass


# -- cli / documents -----------------------------------------------------------

class ParseError(OrthokitError):
    pass


class MissingStructure(OrthokitError):
    pass


class UnknownName(OrthokitError):
    pass


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap, else ORTHOKIT_CAP from the environment, else the default."""
    if cap is not None:
        if cap < 0:
            raise UsageError("cap must be nonnegative")
        return cap
    raw = os.environ.get(CAP_ENV_VAR)
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise UsageError(f"bad {CAP_ENV_VAR} value: {raw!r}") from exc
        if cap < 0:
            raise UsageError(f"{CAP_ENV_VAR} must be nonnegative, got {raw!r}")
        return cap
    return DEFAULT_CAP


def check_tolerance(tol: float | None) -> None:
    """Refuse a given float tolerance that is negative or not finite."""
    if tol is not None and not 0 <= tol < math.inf:
        raise UsageError(f"tolerance must be finite and nonnegative, got {tol!r}")


def check_cap(what: str, bound: int, cap: int | None = None) -> int:
    """Raise before an enumeration of ``bound`` objects that exceeds the cap.

    Returns the cap in force.  An enumeration whose size is computed up
    front checks it here before any of the work; the others count as they
    go (``CapCounter``).
    """
    cap = resolve_cap(cap)
    if bound > cap:
        raise EnumerationCapExceeded(what, cap, bound)
    return cap


def check_cap_sum(what: str, terms: Iterable[int], cap: int | None = None) -> int:
    """``check_cap`` on the sum of nonnegative ``terms``, added only until it passes the cap.

    The partial sum that passes the cap is still a lower bound for the work,
    and stopping there keeps the integers small however long ``terms`` runs.
    """
    cap = resolve_cap(cap)
    total = 0
    for term in terms:
        total += term
        if total > cap:
            raise EnumerationCapExceeded(what, cap, total)
    return cap


class CapCounter:
    """Counts enumerated objects and raises once the cap would be exceeded."""

    __slots__ = ("cap", "count", "what")

    def __init__(self, what: str, cap: int | None = None):
        self.what = what
        self.cap = resolve_cap(cap)
        self.count = 0

    def tick(self, k: int = 1) -> None:
        self.count += k
        if self.count > self.cap:
            raise EnumerationCapExceeded(self.what, self.cap, self.count)
