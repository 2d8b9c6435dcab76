"""Command-line front end.

Exit codes: 0 all checks passed, 1 a verified property was violated
(a witness is printed), 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from .embeddings import (
    is_quadratic_embedding,
    is_regular,
    load_point_map,
    reconstruct_kappa,
    save_point_map,
    save_semilinear,
)
from .errors import NotRegular, PgtoolError, SpaceMismatch, UsageError, VerificationFailed
from .fields import create_field, element_ops
from .generate import generate_embedding, space_for
from .quadrics import quadratic_closure
from .suites import run_suite
from .arcs import segre_scan
from .veronese import veronese_for


def _dump(data, fh=None) -> None:
    """The one indented-JSON writer: indent 2, sorted keys and a trailing
    newline, to stdout or to the open file `fh`."""
    fh = fh or sys.stdout
    json.dump(data, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _as_list(value, what: str) -> list:
    """A parsed JSON value that must be a list; anything else is bad input."""
    if type(value) is not list:
        raise SpaceMismatch(f"{what} must be a JSON list, got {json.dumps(value)}")
    return value


def _json_arg(text: str, what: str):
    """A JSON command-line value; an integer past the int digit limit is
    bad input, and text that is not JSON raises json.JSONDecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise SpaceMismatch(f"cannot decode {what}: {exc}") from exc


def _cmd_field(args) -> int:
    field = create_field(args.p, args.k)
    out = field.descriptor()
    out["automorphism_exponents"] = list(field.automorphism_exponents())
    if args.op:
        out["result"] = element_ops(field, args.op, args.a, args.b)
    _dump(out)
    return 0


def _cmd_enum(args) -> int:
    space = space_for(args.n, args.q)
    points = [list(p) for p in space.points()]
    _dump({"space": [args.n, args.q], "count": space.point_count, "points": points})
    return 0


def _cmd_veronese(args) -> int:
    ver = veronese_for(space_for(args.n, args.q))
    if args.point is not None:
        point = tuple(_as_list(_json_arg(args.point, "--point"), "--point"))
        _dump({"point": list(point), "image": list(ver.apply(point))})
    else:
        _dump({
            "n": args.n, "q": args.q, "n_prime": ver.target.n,
            "pairs": [[list(p), list(r)] for p, r in zip(ver.source.points(), ver.image())],
        })
    return 0


def _cmd_closure(args) -> int:
    space = space_for(args.n, args.q)
    pts = [tuple(_as_list(p, "a point")) for p in _as_list(_json_arg(args.points, "--points"), "--points")]
    closed = quadratic_closure(space, pts)
    _dump({
        "input": sorted(list(p) for p in pts),
        "closure": sorted(list(p) for p in closed.points),
        "certificate": [list(f.coeffs) for f in closed.certificate],
    })
    return 0


def _cmd_gen(args) -> int:
    pm = generate_embedding(args.kind.replace("-", "_"), args.n, args.q, args.seed)
    save_point_map(pm, args.out)
    print(f"wrote {args.out}: {len(pm.table)} pairs into PG({pm.target.n},{pm.target.field.q})")
    return 0


def _cmd_verify(args) -> int:
    nu = load_point_map(args.map)
    report = is_quadratic_embedding(nu, mode=args.mode)
    body = {
        "mode": report.mode,
        "path": report.path,
        "is_embedding": report.is_embedding,
        "span_condition": report.span_condition,
        "violated_set": sorted(list(p) for p in report.violated_set)
        if report.violated_set is not None
        else None,
    }
    _dump(body)
    return 0 if report.is_embedding else 1


def _cmd_regular(args) -> int:
    nu = load_point_map(args.map)
    regular = is_regular(nu)
    _dump({"is_regular": regular})
    return 0 if regular else 1


def _cmd_reconstruct(args) -> int:
    nu = load_point_map(args.map)
    try:
        rec = reconstruct_kappa(nu)
    except (VerificationFailed, NotRegular) as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        point = getattr(exc, "point", None)  # the first mismatch of a VerificationFailed
        _dump({
            "refusal": type(exc).__name__,
            "message": str(exc),
            "point": None if point is None else list(point),
        })
        return 1
    if args.out:
        save_semilinear(rec.kappa, args.out)
    _dump({
        "alpha_exponent": rec.alpha,
        "points_checked": rec.points_checked,
        "certificate": "passed",
        "matrix": [list(r) for r in rec.kappa.matrix],
    })
    return 0


def _cmd_segre(args) -> int:
    report = segre_scan(args.q)
    _dump(report.to_dict())
    return 0 if not report.non_conic_ovals else 1


def _cmd_suite(args) -> int:
    results = run_suite("all" if args.id is None else args.id)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.suite} [{res.anchor}] ({res.seconds:.2f}s)")
        if not res.passed:
            for w in res.witnesses[:3]:
                print(f"  witness: {w}")
    if args.json:
        with open(args.json, "w") as fh:
            _dump([r.body() for r in results], fh)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgtool",
        description="Exact toolkit for quadratic embeddings of finite projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def space_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("field", help="describe GF(p^k); optionally run one operation")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--op", choices=["add", "mul", "inv", "pow"])
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("enum", help="list the points of PG(n,q)")
    space_args(p)
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("veronese", help="apply the degree-2 monomial map")
    space_args(p)
    p.add_argument("--point", help="JSON list of coordinate codes")
    p.set_defaults(fn=_cmd_veronese)

    p = sub.add_parser("closure", help="quadratic closure of a point set")
    space_args(p)
    p.add_argument("--points", required=True, help="JSON list of points")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("gen", help="write a candidate map file")
    p.add_argument("--kind", required=True,
                   choices=["veronese", "veronese-kappa", "frame-injection", "broken"])
    space_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="check the closure-transfer identity")
    p.add_argument("--map", required=True)
    p.add_argument("--mode", default="reduced", choices=["exhaustive", "reduced"])
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("regular", help="test tangent-uniqueness on every line image")
    p.add_argument("--map", required=True)
    p.set_defaults(fn=_cmd_regular)

    p = sub.add_parser("reconstruct", help="factor the map through the Veronese map")
    p.add_argument("--map", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("segre", help="oval census of PG(2,q) for prime powers q <= 9")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_segre)

    p = sub.add_parser("suite", help="run verification suites")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--id")
    which.add_argument("--all", action="store_true", help="run every suite (the default)")
    p.add_argument("--json", help="write the comparable report body to this file")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PgtoolError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
