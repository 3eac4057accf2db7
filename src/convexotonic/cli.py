"""Command-line front end with JSON input and output.

Exit codes: 0 success / member / pass; 2 violation / exterior / fail;
3 inconclusive; 1 usage or I/O error. Exactly one JSON document is written to
stdout per successful or numerically-failed invocation; diagnostics go to
stderr only.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import resources

from . import jsonio
from .algebras import (
    algebra_closure, convexotonic_residual, pencil_structure_constants, structure_constants
)
from .domains import Spectraball, Spectrahedron, ball_membership, spec_membership
from .errors import DependentInput, DomainBreach, PencilError, SpanViolation, ZeroDirection
from .genericity import sv_probe
from .linalg import DEFAULT_TOL
from .maps import ConvexotonicMap, MapSign
from .verify import TheoremData, example_catalog, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_NUMERICAL_ERRORS = (DomainBreach, SpanViolation, DependentInput, ZeroDirection)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload) -> None:
    sys.stdout.write(jsonio.dumps(payload) + "\n")


def _load_tuple(path):
    return jsonio.obj_to_tuple(jsonio.load_document(path), where=str(path))


def _load_matrix(path):
    return jsonio.obj_to_matrix(jsonio.load_document(path), where=str(path))


def _cmd_member(args) -> int:
    point = _load_tuple(args.point)
    coeffs = _load_tuple(args.tuple)
    if args.kind == "ball":
        verdict = ball_membership(Spectraball(coeffs), point, args.tol)
    else:
        verdict = spec_membership(Spectrahedron(coeffs), point, args.tol)
    location = verdict.location.value
    _emit({"kind": args.kind, "location": location, "margin": verdict.margin, "tol": args.tol})
    return EXIT_OK if location != "exterior" else EXIT_FAIL


def _emit_constants(sc, **payload) -> int:
    """Emit xi with its residuals (the convexotonic one exact) and payload."""
    residuals = {"residual": sc.residual, "convexotonic_residual": convexotonic_residual(sc.xi)}
    _emit({"xi": jsonio.tuple_to_obj(sc.xi), **residuals, **payload})
    return EXIT_OK


def _cmd_xi(args) -> int:
    t = _load_tuple(args.tuple)
    payload = {}
    if args.closure:
        closure = algebra_closure(t, args.tol)
        payload["closure"] = {
            "appended_count": closure.appended_count,
            "orthonormalized": list(closure.orthonormalized),
        }
        t = closure.extended
    return _emit_constants(structure_constants(t, args.tol), **payload)


def _cmd_pencil_xi(args) -> int:
    t = _load_tuple(args.tuple)
    return _emit_constants(pencil_structure_constants(t, _load_matrix(args.middle), args.tol))


def _cmd_eval(args) -> int:
    xi = _load_tuple(args.xi)
    point = _load_tuple(args.point)
    cmap = ConvexotonicMap(xi, MapSign(args.sign))
    _emit({"image": jsonio.tuple_to_obj(cmap(point))})
    return EXIT_OK


def _cmd_inverse_check(args) -> int:
    xi = _load_tuple(args.xi)
    point = _load_tuple(args.point)
    q = ConvexotonicMap(xi, MapSign.PLUS)
    p = q.inverse()

    def roundtrip(first, second):
        return float(abs(second(first(point)).data - point.data).max())

    qp = roundtrip(q, p)
    pq = roundtrip(p, q)
    _emit({"qp_residual": qp, "pq_residual": pq, "round_trip_residual": max(qp, pq)})
    return EXIT_OK


def _cmd_sv_probe(args) -> int:
    t = _load_tuple(args.tuple)
    result = sv_probe(t, trials=args.trials, seed=args.seed, tol=args.tol)
    if result.status == "certified":
        _emit({"result": "certified", "certificate": jsonio.certificate_to_obj(result.certificate)})
        return EXIT_OK
    if result.status == "rejected":
        _emit({"result": "rejected", "reasons": list(result.conditions.reasons)})
        return EXIT_FAIL
    _emit({"result": "inconclusive", "reason": result.reason})
    return EXIT_INCONCLUSIVE


def _cmd_verify_theorem(args) -> int:
    data = TheoremData(
        ball_tuple=_load_tuple(args.e),
        target_tuple=_load_tuple(args.b),
        twist=_load_matrix(args.z),
        change_of_basis=_load_matrix(args.m),
    )
    report = verify_theorem(data, samples=args.samples, seed=args.seed, tol=args.tol)
    _emit(report.to_dict())
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_examples(args) -> int:
    report = example_catalog(seed=args.seed, samples=args.samples)
    _emit(report.to_dict())
    for warning in report.warnings:
        sys.stderr.write(f"warning: {warning}\n")
    return EXIT_OK if report.passed else EXIT_FAIL


def _at_least(low, kind=int):
    """Argparse type: a finite number of type kind, at least low (1 for counts,
    0 for seeds and, with kind float, for tolerances)."""
    def number(text: str):
        if not low <= (value := kind(text)) < math.inf:  # nan fails both comparisons
            raise argparse.ArgumentTypeError(f"must be finite and at least {low}, got {text}")
        return value
    return number


def _add_tol(parser) -> None:
    parser.add_argument("--tol", type=_at_least(0, float), default=DEFAULT_TOL, help="tolerance")


def build_parser() -> _Parser:
    parser = _Parser(prog="convexotonic", description=__doc__)
    parser.add_argument(
        "--schema",
        action="store_true",
        help="print the JSON schema for tuple and matrix payloads and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("member", help="spectraball or spectrahedron membership")
    p.add_argument("--kind", choices=["ball", "spec"], required=True)
    p.add_argument("--tuple", required=True, help="coefficient tuple JSON file")
    p.add_argument("--point", required=True, help="point tuple JSON file")
    _add_tol(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("xi", help="structure constants of a spanning tuple")
    p.add_argument("--tuple", required=True)
    p.add_argument("--closure", action="store_true", help="close to an algebra first")
    _add_tol(p)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("pencil-xi", help="structure constants with a middle factor")
    p.add_argument("--tuple", required=True)
    p.add_argument("--middle", required=True, help="middle factor matrix JSON file")
    _add_tol(p)
    p.set_defaults(func=_cmd_pencil_xi)

    p = sub.add_parser("eval", help="evaluate a convexotonic map at a point")
    p.add_argument("--xi", required=True, help="convexotonic tuple JSON file")
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inverse-check", help="round-trip residual of the map pair")
    p.add_argument("--xi", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_inverse_check)

    p = sub.add_parser("sv-probe", help="probe a tuple for sv-genericity")
    p.add_argument("--tuple", required=True)
    p.add_argument("--trials", type=_at_least(1), default=10_000)
    p.add_argument("--seed", type=_at_least(0), default=42)
    _add_tol(p)
    p.set_defaults(func=_cmd_sv_probe)

    p = sub.add_parser("verify-theorem", help="check theorem conclusions on data")
    p.add_argument("--e", required=True, help="spectraball coefficient tuple")
    p.add_argument("--b", required=True, help="target spectrahedron tuple")
    p.add_argument("--z", required=True, help="twist unitary matrix")
    p.add_argument("--m", required=True, help="change-of-basis unitary matrix")
    p.add_argument("--samples", type=_at_least(1), default=20)
    p.add_argument("--seed", type=_at_least(0), default=42)
    _add_tol(p)
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("examples", help="run the worked-example catalog")
    p.add_argument("--seed", type=_at_least(0), default=42)
    p.add_argument("--samples", type=_at_least(1), default=25)
    p.set_defaults(func=_cmd_examples)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        schema = resources.files("convexotonic.schemas").joinpath("tuple.schema.json")
        sys.stdout.write(schema.read_text())
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: a subcommand is required\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except (jsonio.JsonFormatError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as err:
        payload = {"error": {"type": type(err).__name__, "message": str(err)}}
        residual = getattr(err, "residual", None)
        if residual is not None:
            payload["error"]["residual"] = float(residual)
        _emit(payload)
        return EXIT_FAIL
    except (PencilError, ValueError) as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
