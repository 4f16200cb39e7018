"""Command line front end: study runners, CSV/SVG output, self checks.

Configuration comes from ``key = value`` files (# comments allowed) and
command-line flags; flags win on conflict.  No environment variables are
consulted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .assembly import (
    CoefficientField,
    ElementTables,
    assemble_hdg,
    assemble_norm_gram,
    assemble_wg,
)
from .experiments import (
    manufactured_case,
    run_convergence_study,
    run_infsup_study,
    run_rho_limit_study,
)
from .linalg import SingularMatrixError, write_matrix
from .mesh import build_structured_mesh
from .norms import compute_error_norm, consistency_residual, dg_identity_residual
from .spaces import SpaceCase, build_space_triple

_REGIME_ALIASES = {"rho-h": "rho_h", "rho_h": "rho_h", "inv": "inv"}


def _fmt(value):
    if isinstance(value, float):
        return "{:.17g}".format(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_svg(path, points_xy, title):
    """Minimal log-log polyline plot; decoration only, never parsed back."""
    width, height, margin = 480, 360, 40
    xs = [math.log10(x) for x, _ in points_xy if x > 0]
    ys = [math.log10(y) for _, y in points_xy if y > 0]
    if not xs or not ys:
        return
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    sx = (width - 2 * margin) / max(xhi - xlo, 1e-12)
    sy = (height - 2 * margin) / max(yhi - ylo, 1e-12)
    pts = " ".join(
        "{:.2f},{:.2f}".format(
            margin + (x - xlo) * sx, height - margin - (y - ylo) * sy
        )
        for x, y in zip(xs, ys)
    )
    with open(path, "w") as fh:
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
            '<rect width="{w}" height="{h}" fill="white"/>'
            '<text x="{m}" y="20" font-size="12">{t}</text>'
            '<polyline points="{p}" fill="none" stroke="black"/>'
            "</svg>\n".format(w=width, h=height, m=margin, t=title, p=pts)
        )


def _load_config(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(
                    "{}:{}: expected 'key = value'".format(path, lineno)
                )
            key, val = text.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _parse_rhos(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_levels(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _build_parser():
    parser = argparse.ArgumentParser(prog="hdgwg")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--outdir", default=".")
        p.add_argument("--svg", action="store_true",
                       help="also write a log-log SVG plot")

    pc = sub.add_parser("converge", help="mesh-refinement error study")
    common(pc)
    pc.add_argument("--method", choices=("hdg", "wg"))
    pc.add_argument("--regime", choices=tuple(_REGIME_ALIASES))
    pc.add_argument("--k", type=int, default=0)
    pc.add_argument("--rho", type=float, default=1.0)
    pc.add_argument("--levels", type=int, default=5)
    pc.add_argument("--first-level", type=int, default=2, dest="first_level")
    pc.add_argument("--case", default="sine")
    pc.add_argument("--trace-degree", type=int, default=None, dest="trace_degree")
    pc.add_argument("--dump-matrix", default=None, dest="dump_matrix",
                    help="write the first-level system matrix (coordinate text)")

    pl = sub.add_parser("limit", help="rho -> 0 distance to the conforming limit")
    common(pl)
    pl.add_argument("--method", choices=("hdg", "wg"))
    pl.add_argument("--k", type=int, default=0)
    pl.add_argument("--level", type=int, default=3)
    pl.add_argument("--rhos", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    pl.add_argument("--case", default="sine")

    pi = sub.add_parser("infsup", help="discrete inf-sup constant sweep")
    common(pi)
    pi.add_argument("--method", choices=("hdg", "wg"))
    pi.add_argument("--regime", choices=tuple(_REGIME_ALIASES))
    pi.add_argument("--k", type=int, default=0)
    pi.add_argument("--rhos", default="1,1e-2,1e-4")
    pi.add_argument("--level-list", default="1,2,3", dest="level_list")
    pi.add_argument("--trace-degree", type=int, default=None, dest="trace_degree")

    pk = sub.add_parser("check", help="identity / consistency / Gram self checks")
    common(pk)
    pk.add_argument("--seed", type=int, default=0,
                    help="seed of the random solution vectors")
    subparsers.update(converge=pc, limit=pl, infsup=pi, check=pk)
    return parser, subparsers


def _cmd_converge(args):
    regime = _REGIME_ALIASES[args.regime]
    table = run_convergence_study(
        args.method, regime, args.k, args.rho,
        levels=args.levels, case_name=args.case,
        first_level=args.first_level, trace_degree=args.trace_degree,
    )
    path = "{}/convergence.csv".format(args.outdir)
    _write_csv(path, table.header, table.rows)
    if args.svg:
        pts = [(row[1], row[3] + row[4]) for row in table.rows]
        _write_svg("{}/convergence.svg".format(args.outdir), pts,
                   "error vs h ({} {})".format(args.method, regime))
    if args.dump_matrix:
        prob = manufactured_case(args.case)
        mesh = build_structured_mesh(2**args.first_level)
        case = SpaceCase(method=args.method, regime=regime, k=args.k,
                         rho=args.rho, trace_degree=args.trace_degree)
        dofs = build_space_triple(mesh, case)
        assemble = assemble_hdg if args.method == "hdg" else assemble_wg
        system = assemble(mesh, dofs, case,
                          CoefficientField(alpha=prob.alpha), prob.f)
        with open(args.dump_matrix, "w") as fh:
            write_matrix(system.matrix, fh)
    print("wrote {}".format(path))
    return 0


def _cmd_limit(args):
    table = run_rho_limit_study(args.method, args.k, level=args.level,
                                rhos=_parse_rhos(args.rhos),
                                case_name=args.case)
    path = "{}/limit.csv".format(args.outdir)
    _write_csv(path, table.header, table.rows)
    if args.svg:
        pts = [(row[0], row[1] + row[2]) for row in table.rows]
        _write_svg("{}/limit.svg".format(args.outdir), pts,
                   "distance vs rho ({})".format(args.method))
    print("wrote {} (slope {:.3f})".format(path, table.slope))
    return 0


def _cmd_infsup(args):
    regime = _REGIME_ALIASES[args.regime]
    table = run_infsup_study(args.method, regime, args.k,
                             _parse_rhos(args.rhos),
                             levels=_parse_levels(args.level_list),
                             trace_degree=args.trace_degree)
    path = "{}/infsup.csv".format(args.outdir)
    _write_csv(path, table.header, table.rows)
    if args.svg:
        pts = [(row[0], row[2]) for row in table.rows]
        _write_svg("{}/infsup.svg".format(args.outdir), pts,
                   "beta vs h ({} {})".format(args.method, regime))
    print("wrote {}".format(path))
    return 0


class _ZeroExact:
    def u(self, xy):
        return np.zeros(len(xy))

    def grad_u(self, xy):
        return np.zeros((len(xy), 2))

    p = grad_u

    def f(self, xy):
        return np.zeros(len(xy))


def _cmd_check(args):
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name, value, bound):
        nonlocal failures
        ok = value <= bound
        failures += 0 if ok else 1
        print("{:<44s} {:>12.3e} <= {:.0e} {}".format(
            name, value, bound, "ok" if ok else "FAIL"))

    mesh = build_structured_mesh(4)
    prob = manufactured_case("poly")
    zero = _ZeroExact()
    for method in ("hdg", "wg"):
        for regime in ("rho_h", "inv"):
            case = SpaceCase(method=method, regime=regime, k=1, rho=0.5)
            dofs = build_space_triple(mesh, case)
            tables = ElementTables(mesh, case)
            x = rng.standard_normal(dofs.total)
            scale = max(1.0, np.linalg.norm(x) ** 2)
            report("dg identity {}/{}".format(method, regime),
                   dg_identity_residual(mesh, dofs, x, tables) / scale, 1e-12)
            # degree 9 integrates the polynomial exact solution's terms exactly
            report("consistency {}/{}".format(method, regime),
                   consistency_residual(mesh, dofs, prob,
                                        tables=ElementTables(mesh, case, 9)),
                   1e-10)
            gram = assemble_norm_gram(mesh, dofs, tables=tables)
            quad_ef, quad_es = compute_error_norm(mesh, dofs, x, zero,
                                                  tables=tables)
            via_quad = math.hypot(quad_ef, quad_es)
            via_gram = math.sqrt(x @ (gram @ x))
            report("gram cross-check {}/{}".format(method, regime),
                   abs(via_quad - via_gram) / via_gram, 1e-11)
    print("self-check: {}".format("pass" if failures == 0 else
                                  "{} failure(s)".format(failures)))
    return 0 if failures == 0 else 1


def main(argv=None):
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults: argparse then
            # applies the types, and any flag given on the command line wins
            sub = subparsers[args.command]
            cfg = _load_config(args.config)
            known = {action.dest for action in sub._actions}
            for key in cfg:
                if key not in known:
                    raise ValueError("unknown config key {!r}".format(key))
            sub.set_defaults(**cfg)
            args = parser.parse_args(argv)
        if args.command in ("converge", "limit", "infsup"):
            os.makedirs(args.outdir, exist_ok=True)
        if args.command in ("converge", "infsup"):
            if args.method is None or args.regime is None:
                raise ValueError("--method and --regime are required")
        if args.command == "limit" and args.method is None:
            raise ValueError("--method is required")
        if args.command == "converge":
            return _cmd_converge(args)
        if args.command == "limit":
            return _cmd_limit(args)
        if args.command == "infsup":
            return _cmd_infsup(args)
        return _cmd_check(args)
    except SingularMatrixError as exc:
        print("numerical failure: {}".format(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("invalid configuration: {}".format(exc), file=sys.stderr)
        return 2


def entry():
    sys.exit(main())
