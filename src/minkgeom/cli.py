"""Command line interface: JSON in, JSON out, meaningful exit codes.

Exit status 0 means the requested computation succeeded and every pass/fail
item in the produced report passed; 1 means the report ran but something
failed its check (an incomplete body, an invalid witness, a failed
verification item); 2 means the computation itself could not run (bad input,
size gates, degenerate bodies); 3 means an internal certificate or invariant
check failed (CertificateError), a bug rather than an answer.  Errors are
emitted as a JSON object with an "error" field so scripts never have to parse
prose.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .completeness import is_complete, search_reduction_witness, verify_reduction_witness
from .constructions import tetrahedron_k, verify_claims_dim3, verify_proposition, walsh_simplex
from .errors import CertificateError, GeometryError
from .metrics import THICKNESS_MODES, metrics_report
from .norms import custom_ball, l1_ball, linf_ball
from .polytope import VPolytope, body_from_obj, body_to_obj, halfspace_from_obj
from .walsh import walsh_matrix


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_body(path) -> VPolytope:
    body = body_from_obj(_read_json(path))
    if not isinstance(body, VPolytope):
        raise ValueError("this command needs a body in vertex form")
    return body


def _load_ball(spec, dim):
    if spec == "l1":
        return l1_ball(dim)
    if spec == "linf":
        return linf_ball(dim)
    obj = _read_json(spec)
    if not isinstance(obj, dict) or not {"dim", "vertices", "facets"} <= obj.keys():
        raise ValueError("a custom ball file needs 'dim', 'vertices' and 'facets'")
    ball_v = body_from_obj({"dim": obj["dim"], "vertices": obj["vertices"]})
    ball_h = body_from_obj({"dim": obj["dim"], "facets": obj["facets"]})
    return custom_ball(ball_v, ball_h)


def _emit(obj, output):
    text = json.dumps(obj, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_walsh(args):
    mat = walsh_matrix(args.k)
    obj = {
        "k": args.k,
        "order": len(mat),
        "rows": [[str(x) for x in row] for row in mat],
    }
    return obj, 0


def _cmd_construct(args):
    if args.shape == "tetra":
        body = tetrahedron_k()
    else:
        if args.n is None:
            raise ValueError("construct simplex needs --n")
        body = walsh_simplex(args.n)
    return body_to_obj(body), 0


def _cmd_metrics(args):
    body = _load_body(args.body)
    ball = _load_ball(args.ball, body.dim)
    report = metrics_report(body, ball, args.mode)
    return report.to_obj(), 0


def _cmd_complete(args):
    body = _load_body(args.body)
    ball = _load_ball(args.ball, body.dim)
    report = is_complete(body, ball)
    return report.to_obj(), 0 if report.complete else 1


def _cmd_witness(args):
    body = _load_body(args.body)
    ball = _load_ball(args.ball, body.dim)
    if args.cut:
        cut = halfspace_from_obj(_read_json(args.cut))
        witness = verify_reduction_witness(body, cut, ball)
        return witness.to_obj(), 0 if witness.valid else 1
    witness = search_reduction_witness(body, ball)
    if witness is None:
        return {"witness": None, "note": "no valid cut in the candidate family"}, 1
    return witness.to_obj(), 0


def _cmd_verify(args):
    report = verify_claims_dim3() if args.claims3 else verify_proposition(args.prop)
    return report.to_obj(), 0 if report.ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minkgeom",
        description="Exact polytope metrics under polyhedral Minkowski norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walsh", help="print a Walsh matrix of order 2^k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_walsh)

    p = sub.add_parser("construct", help="emit a built-in body as JSON")
    p.add_argument("shape", choices=("tetra", "simplex"))
    p.add_argument("--n", type=int, help="simplex size parameter (dimension 2^n - 1)")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("metrics", help="diameter, thickness, inscribed scale")
    p.add_argument("--body", required=True, help="body JSON file (vertex form)")
    p.add_argument("--ball", required=True, help="l1, linf, or a custom ball JSON file")
    p.add_argument(
        "--mode",
        choices=THICKNESS_MODES,
        default="exact_lp",
        help="thickness algorithm",
    )
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("complete", help="decide diametric completeness")
    p.add_argument("--body", required=True)
    p.add_argument("--ball", required=True)
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("witness", help="verify or search a reduction witness")
    p.add_argument("--body", required=True)
    p.add_argument("--ball", required=True)
    p.add_argument("--cut", help="halfspace JSON file; omitted means search")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("verify", help="run a built-in verification report")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--claims3", action="store_true", help="dimension-3 tetrahedron report")
    group.add_argument("--prop", type=int, help="Walsh simplex report for this n")
    p.set_defaults(fn=_cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("-o", "--output", help="write JSON here instead of stdout")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        obj, code = args.fn(args)
    except (GeometryError, ValueError, OSError, json.JSONDecodeError, CertificateError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, getattr(args, "output", None))
        return 3 if isinstance(exc, CertificateError) else 2
    _emit(obj, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
