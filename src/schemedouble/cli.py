"""Command line surface.

Subcommands: build, verify, double, quotient, enumerate, blocks, appendix.  All outputs are canonical JSON (or DOT for diagrams), so identical
inputs give bit-identical artifacts.  Exit codes: 0 success, 1 verification
failure or an output that cannot be written, 2 schema error, 3 budget
exhaustion.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys

from .appendix import appendix_report
from .doubles import (
    drinfeld_double,
    is_factorizable,
    is_triangular,
    verify_quasitriangular,
    verify_ribbon,
)
from .errors import (
    BudgetExceeded,
    SchemaError,
    SchemeDoubleError,
    VerificationFailure,
)
from .fields import parse_field_token
from .hopf import LinMap, verify_hopf
from .lattice import block_data, enumerate_triples, hasse_dot
from .quotients import (
    build_quotient,
    kept_triple,
    quotient_r_and_v,
    theta_kernel_matches_ideal,
    trivial_hopf_map,
)
from .serialize import (
    cells_to_json,
    dump,
    field_to_json,
    group_from_spec,
    hopf_from_json,
    hopf_to_json,
    linmap_to_json,
    load,
    matrix_from_json,
    subgroup_from_spec,
    tensor_to_json,
)


def _load_group(args):
    spec = load(args.group)
    F = parse_field_token(args.field)
    return group_from_spec(spec, F), F


def _load_triple(args):
    spec = load(args.triple)
    F = parse_field_token(args.field)
    if not isinstance(spec, dict) or "group" not in spec:
        raise SchemaError("triple file needs a 'group' entry")
    G = group_from_spec(spec["group"], F)
    K = subgroup_from_spec(G, spec.get("K", "full"))
    H = subgroup_from_spec(G, spec.get("H", "trivial"))
    if "B" in spec:
        B = LinMap(H.own.group_algebra, K.own.coordinate_algebra,
                   matrix_from_json(F, spec["B"], (K.order, H.order)))
    else:
        B = trivial_hopf_map(H, K)
    return kept_triple(G, K, H, B)


def _stdout():
    """sys.stdout; Python sets it to None when the process starts with it
    closed, and writing there then fails as on a closed pipe."""
    if sys.stdout is None:
        raise BrokenPipeError("standard output is closed")
    return sys.stdout


def _emit(args, data):
    """Write data (a text, or a document streamed as JSON by ``dump``) and
    a final newline to the -o path, else to stdout."""
    if not isinstance(data, str):
        dump(data, args.output or _stdout())
    elif args.output:
        with open(args.output, "w") as fh:
            fh.write(data + "\n")
    else:
        print(data, file=_stdout())


def _report_lines(rep):
    print(f"report: {rep.subject}", *rep.lines(), sep="\n", file=_stdout())


def cmd_build(args):
    G, F = _load_group(args)
    data = {
        "schema_version": 1,
        "field": field_to_json(F),
        "order": G.order,
        "order_connected": G.connected_order(),
        "order_points": G.points_order(),
        "group_algebra": hopf_to_json(G.group_algebra),
        "coordinate_algebra": hopf_to_json(G.coordinate_algebra),
    }
    _emit(args, data)
    return 0


def cmd_verify(args):
    H = hopf_from_json(load(args.hopf))
    rep = verify_hopf(H)
    if args.format == "text":
        _report_lines(rep)
    else:
        _emit(args, rep.as_dict())
    return 0 if rep.ok else 1


def cmd_double(args):
    G, F = _load_group(args)
    dd = drinfeld_double(G)
    hopf_rep = verify_hopf(dd.D)
    qt = dd.qt
    qt_rep = verify_quasitriangular(qt)
    rib_rep = verify_ribbon(qt)
    data = {
        "schema_version": 1,
        "double": hopf_to_json(dd.D),
        "R": tensor_to_json(F, qt.R),
        "V": tensor_to_json(F, qt.V),
        "reports": {
            "hopf": hopf_rep.as_dict(),
            "quasitriangular": qt_rep.as_dict(),
            "ribbon": rib_rep.as_dict(),
        },
        "triangular": is_triangular(qt),
        "factorizable": is_factorizable(qt),
    }
    if args.format == "text":
        for rep in (hopf_rep, qt_rep, rib_rep):
            _report_lines(rep)
        print(f"triangular = {data['triangular']}",
              f"factorizable = {data['factorizable']}", sep="\n", file=_stdout())
    else:
        _emit(args, data)
    return 0 if hopf_rep.ok and qt_rep.ok and rib_rep.ok else 1


def cmd_quotient(args):
    triple = _load_triple(args)
    F = triple.G.field
    qp = build_quotient(triple)
    qt_rep = verify_quasitriangular(qp.qt)
    rib_rep = verify_ribbon(qp.qt)
    data = {
        "schema_version": 1,
        "dim": qp.D.dim,
        "fp_dimension": triple.fp_dimension(),
        "quotient_hopf": hopf_to_json(qp.D),
        "sigma": cells_to_json(F, qp.sigma),
        "tau": cells_to_json(F, qp.tau),
        "R": tensor_to_json(F, qp.qt.R),
        "V": tensor_to_json(F, qp.qt.V),
        "reports": {
            "quasitriangular": qt_rep.as_dict(),
            "ribbon": rib_rep.as_dict(),
        },
    }
    ok = qt_rep.ok and rib_rep.ok
    if not args.skip_theta:
        theta = qp.theta
        quotient_r_and_v(qp)
        kernel_ok = theta_kernel_matches_ideal(qp)
        data["theta"] = linmap_to_json(F, theta)
        data["theta_kernel_matches_ideal"] = kernel_ok
        ok = ok and kernel_ok
    if args.format == "text":
        for rep in (qt_rep, rib_rep):
            _report_lines(rep)
    else:
        _emit(args, data)
    return 0 if ok else 1


def cmd_enumerate(args):
    G, F = _load_group(args)
    nodes, edges = enumerate_triples(G)
    data = {
        "schema_version": 1,
        "group_order": G.order,
        "count": len(nodes),
        "nodes": [n.as_dict() for n in nodes],
        "edges": edges,
    }
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(hasse_dot(nodes, edges) + "\n")
    _emit(args, hasse_dot(nodes, edges) if args.format == "dot" else data)
    return 0


def cmd_blocks(args):
    triple = _load_triple(args)
    blocks = block_data(triple)
    data = {
        "schema_version": 1,
        "fp_dimension": triple.fp_dimension(),
        "blocks": [b.as_dict() for b in blocks],
    }
    _emit(args, data)
    return 0


def _golden_path(p):
    return importlib.resources.files("schemedouble").joinpath(
        f"data/appendix_p{p}.json")


def cmd_appendix(args):
    """Without --regenerate the golden is read first, so a p with none
    exits 1 before the report is computed."""
    if args.regenerate:
        path = _golden_path(args.p)
        dump(appendix_report(args.p), str(path))
        print(f"wrote {path}", file=_stdout())
        return 0
    try:
        expected = json.loads(_golden_path(args.p).read_text())
    except FileNotFoundError:
        print(f"no golden file for p={args.p}", file=sys.stderr)
        return 1
    report = appendix_report(args.p)
    if report == expected:
        print(f"appendix p={args.p}: reproduction matches, diff empty", file=_stdout())
        return 0
    diffs = [k for k in sorted(set(report) | set(expected)) if report.get(k) != expected.get(k)]
    print(f"appendix p={args.p}: MISMATCH in {diffs}", file=sys.stderr)
    return 1


def make_parser():
    ap = argparse.ArgumentParser(
        prog="schemedouble",
        description="Exact computations with finite group schemes, their "
                    "Drinfeld doubles, and braided quotient lattices.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=None):
        p.add_argument("--group", required=True, help="group build spec (JSON)")
        p.add_argument("--field", required=True,
                       help="field token: q, p2, p3, p2^2, ...")
        p.add_argument("-o", "--output", help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("build", help="construct a group scheme")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a serialized Hopf algebra")
    p.add_argument("--hopf", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("double", help="Drinfeld double with R and V")
    common(p, ["json", "text"])
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("quotient", help="quotient pair from a triple file")
    p.add_argument("--triple", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--skip-theta", action="store_true",
                   help="skip building D(G) and the surjection")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("enumerate", help="enumerate all triples with Hasse diagram")
    common(p, ["json", "dot"])
    p.add_argument("--dot", help="also write the Hasse diagram here")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("blocks", help="block data of a triple (constant groups)")
    p.add_argument("--triple", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("appendix", help="golden reproduction for a prime")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--regenerate", action="store_true",
                   help="rewrite the committed golden file")
    p.set_defaults(func=cmd_appendix)
    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        if sys.stdout is not None:  # stdout to devnull, so the shutdown flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the output was written", file=sys.stderr)
        return 1
    except OSError as exc:  # an -o or --dot path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except SchemeDoubleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
