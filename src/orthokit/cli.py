"""Command-line surface: check predicates, transform models, run law suites.

All machine-readable output is JSON on stdout; one-line human summaries go
to stderr.  Exit code 0 means success (and "all requested properties hold"
for checks), 1 means a requested property failed or a law was violated, and
2 means usage, parse, or enumeration-cap errors.  The ORTHOKIT_CAP
environment variable overrides the global enumeration cap.

Each command imports the layers it runs inside its own branch, so a cold
``check`` loads only the document, test-space, state and LP layers, plus
the compounding and morphism layers when the document has a ``product``
section: ``document`` builds its ``SequentialProduct`` from ``compounding``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .document import (
    DocumentBundle,
    bundle_to_document,
    dumps_canonical,
    load_document,
)
from .errors import (
    LawViolation,
    MissingStructure,
    NotCoherence,
    NotGAlgebra,
    NotSequential,
    OrthokitError,
    UsageError,
)
from .states import Model

PRESETS = ("qubit-mz", "spin1", "spin32")

CHECK_FLAGS = ("algebraic", "coherent", "regular", "projective", "unital", "strongly_unital")


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False))
    print(summary, file=sys.stderr)


def _load(path: str) -> DocumentBundle:
    if path in PRESETS:
        from importlib import resources

        ref = resources.files("orthokit").joinpath("fixtures", f"{path}.json")
        with resources.as_file(ref) as real:
            return load_document(str(real))
    return load_document(path)


def _witness_json(model: Model, witness):
    if witness is None:
        return None

    def conv(item):
        if isinstance(item, frozenset):
            return sorted(model.space.labels[x] for x in item)
        if isinstance(item, int):
            return model.space.labels[item]
        if isinstance(item, tuple):
            return [conv(i) for i in item]
        return str(item)

    return conv(witness)


def cmd_check(args) -> int:
    bundle = _load(args.path)
    model = bundle.model
    requested = [f for f in CHECK_FLAGS if getattr(args, f)]
    if not requested and args.support is None:
        requested = list(CHECK_FLAGS)
    report = {}
    ok = True
    for flag in requested:
        if flag == "unital":
            res = model.check_unital()
            verdict, witness = res.holds, list(res.failures)
            witness = [model.space.labels[x] for x in witness]
        elif flag == "strongly_unital":
            res = model.check_strongly_unital()
            verdict = res.holds
            witness = [
                [model.space.labels[x], model.space.labels[y]] for x, y in res.failures
            ]
        elif flag == "projective":
            res = model.space.projective()
            verdict = res.holds
            witness = _witness_json(model, res.witness)
        else:
            res = getattr(model.space, flag)(args.cap)
            verdict = res.holds
            witness = _witness_json(model, res.witness)
        report[flag.replace("_", "-")] = {"holds": verdict, "witness": witness or None}
        ok = ok and verdict
    if args.support is not None:
        labels = [s for s in args.support.split(",") if s]
        subset = model.space.event_of(labels)
        verdict = model.space.is_support(subset)
        report["support"] = {"holds": verdict, "witness": None, "subset": sorted(labels)}
        ok = ok and verdict
    _emit(report, f"{args.path}: " + ", ".join(f"{k}={v['holds']}" for k, v in report.items()))
    return 0 if ok else 1


def cmd_transform(args) -> int:
    if args.out is not None and args.kind in ("logic", "closure-lattice"):
        raise UsageError(f"--out takes a document; {args.kind} writes a report to stdout")
    bundle = _load(args.path)
    model = bundle.model
    if args.kind == "coarsen":
        from .coarsening import coarsen

        out = DocumentBundle(coarsen(model, args.cap).model)
        return _write_doc(out, args)
    if args.kind == "product":
        from .compounding import forward_product

        if not args.other:
            raise UsageError("product needs a second document path")
        other = _load(args.other)
        out = DocumentBundle(forward_product(model, other.model, args.cap).model)
        return _write_doc(out, args)
    if args.kind == "compound":
        from .compounding import truncated_compound

        out = DocumentBundle(truncated_compound(model, args.depth, args.cap).model)
        return _write_doc(out, args)
    if args.kind == "logic":
        from .logic import atomic_outcomes, build_logic

        logic = build_logic(model.space, args.cap)
        report = {
            "elements": [
                {"id": p, "label": logic.labels[p], "representative": sorted(model.space.labels_of(logic.reps[p]))}
                for p in range(len(logic))
            ],
            "zero": logic.zero,
            "one": logic.one,
            "complement": list(logic.comp),
            "sum_table": sorted([p, q, s] for (p, q), s in logic.oplus.items()),
            "order": [[p, q] for p in range(len(logic)) for q in range(len(logic))
                      if logic.leq(p, q)],
            "atoms": logic.atoms(),
            "atomic_outcomes": [
                model.space.labels[x] for x in atomic_outcomes(model.space)
            ],
            "classification": {
                "orthoalgebra": True,
                "omp": bool(logic.is_omp()),
                "boolean": bool(logic.is_boolean()),
            },
            "size": len(logic),
        }
        _emit(report, f"logic: {len(logic)} elements")
        return 0
    if args.kind == "closure-lattice":
        lattice = model.space.closed_set_lattice(args.cap)
        elements = [sorted(model.space.labels_of(s)) for s in lattice.elements]
        report = {
            "closed_sets": elements,
            "orthocomplement": [
                sorted(model.space.labels_of(lattice.ortho(s))) for s in lattice.elements
            ],
            "size": len(lattice),
        }
        _emit(report, f"closure lattice: {len(lattice)} elements")
        return 0
    raise UsageError(f"unknown transform {args.kind!r}")


def _write_doc(bundle: DocumentBundle, args) -> int:
    text = dumps_canonical(bundle_to_document(bundle))
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _violated(suite: str, exc: Exception) -> int:
    """Report a law suite whose input structure fails validation: exit 1."""
    _emit({"holds": False, "violation": str(exc)}, f"{suite}: {exc}")
    return 1


def cmd_laws(args) -> int:
    bundle = _load(args.path)
    model = bundle.model
    if args.suite == "sharp-monad":
        from .coarsening import check_monad_laws_sharp

        rep = check_monad_laws_sharp(model, args.cap)
        _emit(
            {
                "holds": True,
                "associativity_points": rep.associativity_points,
                "unit_points": rep.unit_points,
            },
            "sharp-monad: ok",
        )
        return 0
    if args.suite == "distributive":
        from .interference import check_distributive_diagrams

        rep = check_distributive_diagrams(model, args.depth, args.cap)
        _emit(
            {
                "holds": True,
                "multiplication_outer": rep.multiplication_outer,
                "multiplication_inner": rep.multiplication_inner,
                "unit_coarse": rep.unit_coarse,
                "unit_compound": rep.unit_compound,
            },
            f"distributive depth {args.depth}: ok",
        )
        return 0
    if args.suite == "sequential":
        from .compounding import validate_sequential

        sp = bundle.require_product()
        try:
            checked = validate_sequential(model, sp, cap=args.cap)
        except NotSequential as exc:
            return _violated(args.suite, exc)
        rep = checked.report
        _emit(
            {
                "holds": True,
                "associativity_checked": rep.associativity_checked,
                "state_candidates": rep.state_candidates,
            },
            "sequential: ok",
        )
        return 0
    if args.suite == "g-algebra":
        from .interference import validate_g_algebra

        sigma = bundle.require_coherence()
        sp = bundle.require_product()
        try:
            galg = validate_g_algebra(model, sigma, sp, cap=args.cap)
        except (NotSequential, NotCoherence) as exc:
            return _violated(args.suite, exc)
        _emit(
            {
                "holds": True,
                "commutative": galg.commutative,
                "strings_checked": galg.strings_checked,
                "strings_skipped": galg.strings_skipped,
            },
            "g-algebra: ok",
        )
        return 0
    raise UsageError(f"unknown law suite {args.suite!r}")


def cmd_interference(args) -> int:
    from .interference import find_interference

    bundle = _load(args.path)
    model = bundle.model
    sigma = bundle.require_coherence()
    if bundle.followups is not None:
        tokens, table = bundle.followups
        witnesses = find_interference(
            model,
            sigma,
            lambda x, k: table.get((x, k)),
            tol=args.tolerance,
            witnesses_from=range(len(tokens)),
            cap=args.cap,
        )
        token_label = list(tokens)
    elif bundle.product is not None:
        witnesses = find_interference(
            model, sigma, bundle.product, tol=args.tolerance, cap=args.cap
        )
        token_label = list(model.space.labels)
    else:
        raise MissingStructure("document has neither followups nor a product section")
    report = [
        {
            "state": w.state_index,
            "event": sorted(model.space.labels[x] for x in w.event),
            "witness": token_label[w.outcome],
            "coherent": w.coherent,
            "incoherent": w.incoherent,
            "gap": w.gap,
        }
        for w in witnesses
    ]
    _emit(report, f"interference: {len(report)} witness(es)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthokit",
        description="Workbench for finite test spaces and probabilistic models.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="enumeration cap override; check --unital/--strongly-unital ignore it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate structural predicates")
    p_check.add_argument("path")
    for flag in CHECK_FLAGS:
        p_check.add_argument(f"--{flag.replace('_', '-')}", action="store_true")
    p_check.add_argument("--support", default=None, help="comma-separated outcome labels")
    p_check.set_defaults(fn=cmd_check)

    p_tr = sub.add_parser("transform", help="build derived models or reports")
    p_tr.add_argument("path")
    p_tr.add_argument(
        "kind", choices=["coarsen", "product", "compound", "logic", "closure-lattice"]
    )
    p_tr.add_argument("other", nargs="?", default=None, help="second document for product")
    p_tr.add_argument("--depth", type=int, default=1)
    p_tr.add_argument("--out", default=None)
    p_tr.set_defaults(fn=cmd_transform)

    p_laws = sub.add_parser("laws", help="run law suites")
    p_laws.add_argument("path")
    p_laws.add_argument(
        "suite", choices=["sharp-monad", "distributive", "g-algebra", "sequential"]
    )
    p_laws.add_argument(
        "--depth",
        type=int,
        default=2,
        help="window depth; only the distributive suite reads it",
    )
    p_laws.set_defaults(fn=cmd_laws)

    p_int = sub.add_parser("interference", help="scan for interference witnesses")
    p_int.add_argument("path", help=f"document path or preset: {list(PRESETS)}")
    p_int.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="finite, nonnegative gap threshold; defaults to the model tolerance",
    )
    p_int.set_defaults(fn=cmd_interference)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (LawViolation, NotGAlgebra) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except OrthokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
