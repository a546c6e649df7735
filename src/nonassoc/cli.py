"""Command-line frontend.

Subcommands: list-fixtures, verify-fixture, check, props, derive,
search-element.  Every command is pure input -> output: reports are
byte-identical for identical inputs and seeds, scalars are printed as exact
rationals (never decimals), and exit codes are 0 (pass/success), 1
(fail/mismatch/none found), 2 (error, e.g. malformed input files).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import fixtures as fx
from .algebra import Element
from .constructions import ConstructionSpec, derive
from .errors import NonassocError
from .identities import IDENTITY_NAMES, check_identity, check_identity_random
from .operators import (
    OperatorProperty,
    check_operator_property,
    left_multiplication_operator,
)
from .scalars import as_scalar, format_scalar
from .search import (
    LINEAR_KINDS,
    QUAD_KINDS,
    GridStrategy,
    LinearConstraint,
    QuadraticConstraint,
    UnivariateStrategy,
    find_special,
)
from .serial import (
    algebra_to_dict,
    load_algebra,
    load_element,
    load_embedding,
    load_grid,
    load_operator,
    save_algebra,
)
from .verdicts import Verdict


def _element_text(e: Element) -> str:
    return "(" + ", ".join(format_scalar(v) for v in e.coords) + ")"


def _element_json(e: Element) -> list:
    return [format_scalar(v) for v in e.coords]


def _witness_json(verdict: Verdict):
    if verdict.passed:
        return None
    w = verdict.witness
    return {  # custom:lin_dim compares dimensions, so its sides are ints
        "indices": list(w.indices),
        "inputs": [_element_json(x) for x in w.inputs],
        "lhs": _element_json(w.lhs) if isinstance(w.lhs, Element) else str(w.lhs),
        "rhs": _element_json(w.rhs) if isinstance(w.rhs, Element) else str(w.rhs),
    }


def _emit(args, text_lines: list[str], json_obj: dict) -> None:
    if args.json:
        print(json.dumps(json_obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _verdict_report(args, title: str, head: dict, keys: tuple[str, str], pairs) -> int:
    """Print (label, verdict) pairs as text under ``title``, or as JSON: ``head``,
    then the pairs listed under keys[0] with each label under keys[1].  Exit
    code 0 if every verdict passed, else 1."""
    ok = all(v.passed for _, v in pairs)
    lines = [title]
    for label, v in pairs:
        lines.append(f"{label}: {'PASS' if v.passed else 'FAIL'}")
        if not v.passed:
            w = v.witness
            lines.append(f"  witness indices: {w.indices}")
            lines += [f"  input[{i}] = {_element_text(x)}" for i, x in enumerate(w.inputs)]
            lines += [f"  lhs = {_element_text(w.lhs)}", f"  rhs = {_element_text(w.rhs)}"]
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    many, one = keys
    obj = {
        **head,
        many: [{one: label, "passed": v.passed, "witness": _witness_json(v)}
               for label, v in pairs],
        "passed": ok,
    }
    _emit(args, lines, obj)
    return 0 if ok else 1


def _parse_kv(spec: str, cast=str) -> dict:
    out = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise NonassocError(f"expected key=value, got {piece!r}")
        k, v = (part.strip() for part in piece.split("=", 1))
        if k in out:
            raise NonassocError(f"{k!r} is given twice")
        try:
            out[k] = cast(v)
        except (ValueError, TypeError) as exc:
            raise NonassocError(f"bad value {v!r} for {k!r}") from exc
    return out


def _spec_args(raw: str) -> list[str]:
    return [piece.strip() for piece in raw.split(",") if piece.strip()]


def cmd_list_fixtures(args) -> int:
    names = fx.list_fixtures()
    _emit(args, names, {"command": "list-fixtures", "fixtures": names})
    return 0


def _fixture_report_obj(report: fx.Report) -> dict:
    return {
        "fixture": report.fixture,
        "passed": report.passed,
        "rows": [
            {
                "check": r.check,
                "expect": "pass" if r.expected else "fail",
                "actual": "pass" if r.verdict.passed else "fail",
                "matched": r.matched,
                "witness": _witness_json(r.verdict),
            }
            for r in report.rows
        ],
    }


def _fixture_report_lines(report: fx.Report) -> list[str]:
    bundle = fx.load_fixture(report.fixture)
    lines = [f"fixture {report.fixture}: {bundle.description}"]
    for note in bundle.notes:
        lines.append(f"  note: {note}")
    for r in report.rows:
        mark = "ok" if r.matched else "MISMATCH"
        lines.append(
            f"  {r.check:55s} expect {'pass' if r.expected else 'fail':4s} "
            f"actual {'pass' if r.verdict.passed else 'fail':4s} {mark}"
        )
    lines.append(
        f"result: {'PASS' if report.passed else 'FAIL'} ({len(report.rows)} rows)"
    )
    return lines


def cmd_verify_fixture(args) -> int:
    names = fx.list_fixtures() if args.all else [args.name]
    reports = [fx.verify_fixture(n) for n in names]
    ok = all(r.passed for r in reports)
    if args.all:
        lines = [f"{r.fixture}: {'PASS' if r.passed else 'FAIL'} ({len(r.rows)} rows)"
                 for r in reports]
        lines.append(f"result: {'PASS' if ok else 'FAIL'} ({len(reports)} fixtures)")
        obj = {
            "command": "verify-fixture",
            "reports": [_fixture_report_obj(r) for r in reports],
            "passed": ok,
        }
    else:
        lines = _fixture_report_lines(reports[0])
        obj = {"command": "verify-fixture", **_fixture_report_obj(reports[0])}
    _emit(args, lines, obj)
    return 0 if ok else 1


def cmd_check(args) -> int:
    algebra = load_algebra(args.algebra)
    if args.identity not in IDENTITY_NAMES:
        raise NonassocError(
            f"unknown identity {args.identity!r}; choose from {', '.join(IDENTITY_NAMES)}"
        )
    checks = [("polarized", check_identity(algebra, args.identity))]
    if args.random:
        opts = _parse_kv(args.random, int)
        trials = opts.pop("trials", 100)
        seed = opts.pop("seed", 0)
        if opts:
            raise NonassocError(f"unknown --random options: {sorted(opts)}")
        checks.append((f"random(trials={trials}, seed={seed})",
                       check_identity_random(algebra, args.identity, trials, seed)))
    return _verdict_report(
        args, f"check: identity {args.identity} on {args.algebra} (dim {algebra.dim})",
        {"command": "check", "algebra": str(args.algebra), "identity": args.identity},
        ("checks", "mode"), checks,
    )


def _load_operator_for(args, algebra):
    if args.operator and args.from_u:
        raise NonassocError("give either --operator or --from-u, not both")
    if args.operator:
        return load_operator(args.operator, algebra)
    if args.from_u:
        if not args.embedding:
            raise NonassocError("--from-u requires --embedding")
        emb = load_embedding(args.embedding)
        u = load_element(args.from_u)
        r = left_multiplication_operator(emb, u)
        if r.dim != algebra.dim:
            raise NonassocError(
                f"induced operator has dimension {r.dim}, algebra has {algebra.dim}"
            )
        return r
    raise NonassocError("an operator is required: --operator FILE or --from-u FILE")


def cmd_props(args) -> int:
    algebra = load_algebra(args.algebra)
    operator = _load_operator_for(args, algebra)
    results = []
    for spec in args.property:
        kind, _, raw = spec.partition(":")
        prop = OperatorProperty.parse(kind.strip(), _spec_args(raw))
        results.append((prop.label(), check_operator_property(algebra, operator, prop)))
    return _verdict_report(
        args, f"props: operator on {args.algebra} (dim {algebra.dim})",
        {"command": "props", "algebra": str(args.algebra)}, ("properties", "property"), results,
    )


def cmd_derive(args) -> int:
    algebra = load_algebra(args.algebra)
    spec = ConstructionSpec.parse(args.construction, _spec_args(args.param or ""))
    operator = None
    if args.operator:
        operator = load_operator(args.operator, algebra)
    derived = derive(algebra, operator, spec)
    save_algebra(derived, args.out)
    lines = [
        f"derive: {args.construction} of {args.algebra} -> {args.out}",
        f"dim {derived.dim}; provenance {derived.meta}",
    ]
    obj = {
        "command": "derive",
        "construction": args.construction,
        "algebra": str(args.algebra),
        "out": str(args.out),
        "provenance": {k: str(v) for k, v in derived.meta.items()},
        "result": algebra_to_dict(derived),
    }
    _emit(args, lines, obj)
    return 0


def cmd_search_element(args) -> int:
    ambient = load_algebra(args.ambient)
    emb = load_embedding(args.embedding)
    if emb.ambient != ambient:
        raise NonassocError("embedding ambient differs from --ambient algebra")
    lin = [LinearConstraint(k.strip(), emb) for k in args.lin.split(",") if k.strip()]
    unit = load_element(args.unit) if args.unit else None
    quad = QuadraticConstraint.parse(
        args.quad, _spec_args(",".join(args.quad_param or [])), unit=unit
    )
    if args.strategy == "grid":
        if not args.grid:
            raise NonassocError("grid strategy requires --grid FILE")
        strategy = GridStrategy.of(load_grid(args.grid))
    else:
        pins = {}
        for spec in args.pin or []:
            for k, v in _parse_kv(spec, as_scalar).items():
                try:
                    i = int(k)
                except ValueError as exc:
                    raise NonassocError(f"bad --pin index {k!r}") from exc
                if i in pins:
                    raise NonassocError(f"--pin index {i} is given twice")
                pins[i] = v
        strategy = UnivariateStrategy.of(pins)
    result = find_special(ambient, lin, quad, strategy)
    lines = [
        f"search-element: {quad.label()} with "
        f"{','.join(c.kind for c in lin)} on {args.ambient}",
        f"found {len(result)} element(s)",
    ]
    for e in result:
        lines.append(f"  {_element_text(e)}")
    for note in result.notes:
        lines.append(f"note: {note}")
    obj = {
        "command": "search-element",
        "quad": quad.label(),
        "lin": [c.kind for c in lin],
        "found": [_element_json(e) for e in result],
        "notes": list(result.notes),
    }
    _emit(args, lines, obj)
    return 0 if len(result) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonassoc",
        description="exact construction and verification of operator-induced "
                    "non-associative algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-fixtures", help="list the example catalog")
    p.set_defaults(fn=cmd_list_fixtures)

    p = sub.add_parser("verify-fixture", help="re-derive a fixture and compare verdicts")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_verify_fixture)

    p = sub.add_parser("check", help="verify a polynomial identity of an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--random", metavar="trials=100,seed=7",
                   help="additionally corroborate at random rational elements")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("props", help="verify operator identities")
    p.add_argument("--algebra", required=True)
    p.add_argument("--operator", help="operator file (column-major matrix)")
    p.add_argument("--from-u", dest="from_u", help="ambient element file; operator is x -> u x")
    p.add_argument("--embedding", help="embedding file (required with --from-u)")
    p.add_argument("--property", action="append", required=True,
                   metavar="NAME[:k=v,...]",
                   help="e.g. endomorphism, rota_baxter:lam=1, "
                        "rota_baxter_weighted:lam=1,beta=2")
    p.set_defaults(fn=cmd_props)

    p = sub.add_parser("derive", help="materialize a derived product as a new algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--operator")
    p.add_argument("--construction", required=True)
    p.add_argument("--param", metavar="a=p/q")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("search-element",
                       help="find ambient elements satisfying side conditions")
    p.add_argument("--ambient", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--lin", required=True,
                   help="comma-separated: " + ",".join(LINEAR_KINDS))
    p.add_argument("--quad", required=True, choices=list(QUAD_KINDS))
    p.add_argument("--quad-param", dest="quad_param", action="append",
                   metavar="lam=1", help="e.g. gamma=6 or lam=1,beta=2")
    p.add_argument("--unit", help="ambient element file (rb_weighted only)")
    p.add_argument("--strategy", choices=["grid", "univariate"], default="grid")
    p.add_argument("--grid", help="grid file with coefficient tuples")
    p.add_argument("--pin", action="append", metavar="IDX=VALUE",
                   help="pin a free direction (univariate strategy)")
    p.set_defaults(fn=cmd_search_element)

    for p in sub.choices.values():  # last, so each -h lists it last
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-fixture" and args.all == (args.name is not None):
        parser.error("verify-fixture needs a fixture name or --all, not both")
    try:
        return args.fn(args)
    except NonassocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
