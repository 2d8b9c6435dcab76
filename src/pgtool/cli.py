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
from .errors import PgtoolError, UsageError, VerificationFailed, NotRegular
from .fields import create_field, element_ops
from .generate import generate_embedding, space_for
from .quadrics import quadratic_closure
from .suites import run_suite
from .arcs import segre_scan
from .veronese import veronese_for


def _dump(data) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


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
    _dump({"space": [args.n, args.q], "count": space.point_count,
           "points": [list(p) for p in space.points()]})
    return 0


def _cmd_veronese(args) -> int:
    ver = veronese_for(space_for(args.n, args.q))
    if args.point:
        point = tuple(json.loads(args.point))
        _dump({"point": list(point), "image": list(ver.apply(point))})
    else:
        _dump({
            "n": args.n, "q": args.q, "n_prime": ver.target.n,
            "pairs": [[list(p), list(ver.apply(p))] for p in ver.source.points()],
        })
    return 0


def _cmd_closure(args) -> int:
    space = space_for(args.n, args.q)
    pts = [tuple(p) for p in json.loads(args.points)]
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
    report = is_quadratic_embedding(nu, mode=args.mode, seed=args.seed, trials=args.trials)
    body = {
        "mode": report.mode,
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
    target = args.id if args.id else "all"
    results = run_suite(target)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.suite} [{res.anchor}] ({res.seconds:.2f}s)")
        if not res.passed:
            for w in res.witnesses[:3]:
                print(f"  witness: {w}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.body() for r in results], fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgtool",
        description="Exact toolkit for quadratic embeddings of finite projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="describe GF(p^k); optionally run one operation")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--op", choices=["add", "mul", "inv", "pow"])
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("enum", help="list the points of PG(n,q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("veronese", help="apply the degree-2 monomial map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--point", help="JSON list of coordinate codes")
    p.set_defaults(fn=_cmd_veronese)

    p = sub.add_parser("closure", help="quadratic closure of a point set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--points", required=True, help="JSON list of points")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("gen", help="write a candidate map file")
    p.add_argument("--kind", required=True,
                   choices=["veronese", "veronese-kappa", "frame-injection", "broken"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="check the closure-transfer identity")
    p.add_argument("--map", required=True)
    p.add_argument("--mode", default="reduced", choices=["exhaustive", "reduced", "sampled"])
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("regular", help="test tangent-uniqueness on every line image")
    p.add_argument("--map", required=True)
    p.set_defaults(fn=_cmd_regular)

    p = sub.add_parser("reconstruct", help="factor the map through the Veronese map")
    p.add_argument("--map", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("segre", help="exhaustive oval census of PG(2,q)")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_segre)

    p = sub.add_parser("suite", help="run verification suites")
    p.add_argument("--id")
    p.add_argument("--all", action="store_true")
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
