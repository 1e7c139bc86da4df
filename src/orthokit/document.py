"""JSON document format for models and their structure maps.

A document stores a model (outcomes, tests, states) plus optional collapse
(coherence) data, an optional outcome product, and optional follow-up data
for interference scans on compound path models.  Rational scalars are
serialized as "p/q" strings so round trips are exact; floats use shortest
round-trip decimals.  Canonical form sorts outcomes by label, tests by
their sorted member lists, and all other sections by their keys, so
load / canonicalize / save is byte-stable.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

from ._record import Record
from .errors import MissingStructure, ParseError
from .states import Weight, full_model, generator_model
from .testspace import _ids, build_test_space

if TYPE_CHECKING:
    from .compounding import SequentialProduct

FORMAT_VERSION = "1"


class DocumentBundle(Record):
    """A loaded document: the model plus whatever structure it carried."""

    __slots__ = ("model", "coherence", "product", "followups", "metadata")
    _defaults = {"coherence": None, "product": None, "followups": None, "metadata": {}}

    def require_coherence(self) -> dict[frozenset, int]:
        if self.coherence is None:
            raise MissingStructure("document has no coherence section")
        return self.coherence

    def require_product(self) -> SequentialProduct:
        if self.product is None:
            raise MissingStructure("document has no product section")
        return self.product


def _scalar_to_str(v) -> str | float:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, int):
        return str(v)
    return float(v)


def _scalar_from(v, exact: bool):
    if exact:
        if isinstance(v, str):
            try:
                return Fraction(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational {v!r}") from exc
        if isinstance(v, int):
            return Fraction(v)
        raise ParseError(f"rational model holds non-rational value {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    raise ParseError(f"float model holds non-numeric value {v!r}")


def _once(what: str, entries) -> dict:
    """The dict of (key, value, shown) entries, refusing a repeated key as ``shown``."""
    out = {}
    for key, value, shown in entries:
        if key in out:
            raise ParseError(f"{what} {shown!r} appears twice")
        out[key] = value
    return out


def _list_of(kind: type, section: str, value) -> list:
    """``value`` if it is a list of ``kind`` items, else a ParseError naming ``section``."""
    if isinstance(value, list) and all(isinstance(v, kind) for v in value):
        return value
    raise ParseError(f"{section} must be a list of {'strings' if kind is str else 'lists'}")


def bundle_to_document(bundle: DocumentBundle) -> dict:
    """Serialize a bundle to a canonical plain-JSON document."""
    model = bundle.model
    space = model.space
    order = sorted(range(space.n_outcomes), key=lambda x: space.labels[x])
    outcomes = [space.labels[x] for x in order]
    tests = sorted(sorted(space.labels[x] for x in _ids(t)) for t in space._test_masks)
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "outcomes": outcomes,
        "tests": tests,
    }
    if model.states.is_full:
        doc["states"] = {"kind": "full"}
    else:
        gens = []
        for g in model.states.generators:
            entry = {
                space.labels[x]: _scalar_to_str(g[x])
                for x in range(space.n_outcomes)
                if g[x] != 0
            }
            gens.append(entry)
        gens.sort(key=lambda e: sorted(e.items()))
        doc["states"] = {
            "kind": "generators",
            "scalar": "rational" if model.exact else "float",
            "generators": gens,
        }
        if not model.exact:
            doc["states"]["tolerance"] = model.tol
    if bundle.coherence is not None:
        doc["coherence"] = sorted(
            [sorted(space.labels[x] for x in ev), space.labels[q]]
            for ev, q in bundle.coherence.items()
        )
    if bundle.product is not None:
        sp = bundle.product
        doc["product"] = {
            "unit": space.labels[sp.unit],
            "semantics": sp.undefined_means,
            "table": sorted(
                [space.labels[x], space.labels[y], space.labels[z]]
                for (x, y), z in sp.table.items()
                if x != sp.unit and y != sp.unit
            ),
        }
    if bundle.followups is not None:
        tokens, table = bundle.followups
        doc["followups"] = {
            "tokens": list(tokens),
            "table": sorted(
                [space.labels[x], tokens[k], space.labels[p]]
                for (x, k), p in table.items()
            ),
        }
    if bundle.metadata:
        doc["metadata"] = bundle.metadata
    return doc


def document_to_bundle(doc: dict) -> DocumentBundle:
    """Parse and validate a plain-JSON document into live objects."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    try:
        outcomes, tests, states = doc["outcomes"], doc["tests"], doc["states"]
    except KeyError as exc:
        raise ParseError(f"missing section: {exc}") from exc
    if not (isinstance(outcomes, list) and isinstance(tests, list)) or not all(
        isinstance(t, list) for t in tests
    ):
        raise ParseError("outcomes, tests and each test must be lists")
    if not all(isinstance(lab, str) for lab in chain(outcomes, *tests)):
        raise ParseError("outcome labels must be strings")
    if not isinstance(states, dict):
        raise ParseError("the states section must be an object")
    space = build_test_space(tests, labels=sorted(outcomes))
    kind = states.get("kind")
    if kind == "full":
        model = full_model(space)
    elif kind == "generators":
        scalar = states.get("scalar", "rational")
        if scalar not in ("rational", "float"):
            raise ParseError(f"unknown scalar {scalar!r}")
        exact = scalar == "rational"
        tol = states.get("tolerance")
        if tol is not None and (isinstance(tol, bool) or not isinstance(tol, (int, float))):
            raise ParseError(f"tolerance must be a number, got {tol!r}")
        if tol is not None and not 0 <= tol < math.inf:
            raise ParseError(f"tolerance must be finite and nonnegative, got {tol!r}")
        gens = []
        for entry in states.get("generators", []):
            if not isinstance(entry, dict):
                raise ParseError("generator entries must be objects")
            if stray := [lab for lab in entry if lab not in space.label_id]:
                raise ParseError(f"generator key {stray[0]!r} is not an outcome")
            vals = [
                _scalar_from(entry.get(lab, "0" if exact else 0.0), exact)
                for lab in space.labels
            ]
            gens.append(Weight(vals))
        if not gens:
            raise ParseError("generator state spaces need at least one generator")
        model = generator_model(space, gens, exact=exact, tol=tol)
    else:
        raise ParseError(f"unknown state kind {kind!r}")
    coherence = None
    if "coherence" in doc:
        try:
            coherence = _once("coherence event", [
                (space.event_of(_list_of(str, "each coherence event", ev)), space.outcome(target), ev)
                for ev, target in _list_of(list, "the coherence section", doc["coherence"])
            ])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"coherence entries must be [event, outcome]: {exc}") from exc
    product = None
    if "product" in doc:
        # compounding is the largest layer; only documents with a product load it
        from .compounding import IMPOSSIBLE, OUT_OF_WINDOW, SequentialProduct

        sec = doc["product"]
        try:
            unit = space.outcome(sec["unit"])
            semantics = sec.get("semantics", IMPOSSIBLE)
            if semantics not in (IMPOSSIBLE, OUT_OF_WINDOW):
                raise ParseError(f"unknown product semantics {semantics!r}")
            table = _once("product pair", [
                ((space.outcome(x), space.outcome(y)), space.outcome(z), (x, y))
                for x, y, z in _list_of(list, "product.table", sec["table"])
            ])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed product section: {exc}") from exc
        product = SequentialProduct(unit, table, undefined_means=semantics)
    followups = None
    if "followups" in doc:
        sec = doc["followups"]
        if not isinstance(sec, dict):
            raise ParseError("the followups section must be an object")
        try:
            tokens = tuple(_list_of(str, "followups.tokens", sec.get("tokens", [])))
            token_id = _once("followup token", [(t, i, t) for i, t in enumerate(tokens)])
            table = _once("followup entry", [
                ((space.outcome(x), token_id[tok]), space.outcome(p), (x, tok))
                for x, tok, p in _list_of(list, "followups.table", sec.get("table", []))
            ])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed followups section: {exc}") from exc
        followups = (tokens, table)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("the metadata section must be an object")
    return DocumentBundle(model, coherence, product, followups, dict(metadata))


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save_document(bundle: DocumentBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(bundle_to_document(bundle)))


def load_document(path: str) -> DocumentBundle:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return document_to_bundle(doc)


def canonicalize_file(path: str) -> str:
    """Load, re-canonicalize, and return the canonical text."""
    return dumps_canonical(bundle_to_document(load_document(path)))
