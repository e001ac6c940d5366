"""Command-line front end; every subcommand is a thin shell over the
library.

Subcommands:
  eval            point values: hermite-q | kernel | bargmann-kernel | psi
  verify          run an identity suite and print its JSON report
  transform       apply the level-k Segal-Bargmann transform
  table           closed-form vs quadrature tables
  spectrum-probe  radial mass probe of an eigenvalue candidate

Quaternion literals follow the grammar w+xi+yj+zk with optional terms:
"1", "-i", "2.5j", "1-2i+3k".  Point files are headerless CSV, one
w,x,y,z quadruple per row; sample files for `transform` hold t,value
rows on the quadrature nodes.

Output schemas (stable, golden-tested):
  eval hermite-q / psi / bargmann-kernel   one w,x,y,z row per point
  eval kernel      pw,px,py,pz,qw,qx,qy,qz,w,x,y,z,method,tail
  transform        qw,qx,qy,qz,w,x,y,z
  table norms         header then n,j,closed,quadrature,residual
  table hermite-gram  header then m,n,closed,quadrature,residual
  table laguerre-sum  header then x,sum_L0,L1_closed,residual
  verify, spectrum-probe   JSON documents carrying "schema": 1

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import qarray
from .bargmann import (IMAG_LIMIT, REAL_LIMIT, HermiteLine, SampledLine, b2_grid,
                       transform_batch)
from .config import Config, load_config
from .kernels import KernelSpec, kernel_value, kernel_value_tail
from .poly import DEGREE_CAP, KummerConvergenceError, laguerre
from .quad import (SliceQuadrature, check_slice_degree, gauss_hermite, norm_sq_full,
                   norm_sq_slice)
from .quat import format_quaternion, parse_quaternion
from .series import coeff_stack, hermite_series
from .spectral import (PROBE_R_MAX, PROBE_WINDOWS, Eigenfunction, psi, psi_norm_sq,
                       spectrum_probe)
from .verify import SUITE_ORDER, run_all, run_suite

__all__ = ["main", "build_parser"]


def _fmt(x) -> str:
    return repr(float(x))


def _csv_rows(block) -> list[str]:
    """CSV text of the rows of an (N, C) float array, cells as _fmt prints them."""
    return [",".join(map(repr, row)) for row in np.asarray(block, dtype=float).tolist()]


def _write_lines(lines) -> None:
    """All output rows in one write; no rows write nothing."""
    sys.stdout.write("".join(line + "\n" for line in lines))


def _finite_float(text: str) -> float:
    """argparse type: a float option that must be finite."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return v


def _nonnegative_int(text: str) -> int:
    """argparse type: a grid size or degree that must be >= 0."""
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return v


def _read_csv(path: str, columns: str) -> np.ndarray:
    """Rows of a headerless CSV of finite numbers, shape (N, C), where
    `columns` names the C fields, e.g. "w,x,y,z"; blank lines are skipped."""
    width = len(columns.split(","))
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} columns {columns}, got {len(row)}")
            try:
                vals = [float(c) for c in row]
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric entry in {row!r}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{path}:{lineno}: non-finite entry in {row!r}")
            rows.append(vals)
    return np.array(rows, dtype=float).reshape(-1, width)


def _target_points(args) -> np.ndarray:
    """The (N, 4) evaluation points from --points or --q, not both."""
    if args.points is not None and args.q is not None:
        raise ValueError("give --q or --points, not both")
    if args.points is not None:
        return _read_csv(args.points, "w,x,y,z")
    if args.q is None:
        raise ValueError("need --q or --points")
    return qarray.from_quaternion(parse_quaternion(args.q))[None, :]


# -- eval ----------------------------------------------------------------


def cmd_eval(args, config: Config) -> int:
    batch = _target_points(args)
    if args.target == "hermite-q":
        with np.errstate(over="ignore", invalid="ignore"):
            values = hermite_series(args.m, args.n).eval_many(batch)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"H_{{{args.m},{args.n}}} leaves double range on this batch")
        # summed from 0.0, so a value -0.0 prints as 0.0
        rows = _csv_rows(0.0 + values)
    elif args.target == "psi":
        rows = _csv_rows(psi(parse_quaternion(args.mu), args.j, batch))
    elif args.target == "bargmann-kernel":
        # B_{1,n} is the sum of the level kernels through n, added in level order
        levels = range(args.level + 1) if args.kind == 1 else (args.level,)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in levels:
                total = total + b2_grid(k, [args.t], batch)[:, 0]
        bad = ~np.isfinite(total).all(axis=1)
        if bad.any():
            n = int(np.argmax(bad))
            q = format_quaternion(qarray.to_quaternion(batch[n]))
            raise ValueError(f"bargmann-kernel row {n + 1} (q = {q}) leaves double range "
                             f"at t = {args.t!r}")
        rows = _csv_rows(total)
    else:  # kernel
        terms = args.terms
        if terms is None:
            terms = config.series_terms if args.method == "series" else config.star_terms
        spec = KernelSpec(kind="second" if args.kind == 2 else "first", level=args.level,
                          method=args.method, terms=terms)
        p = parse_quaternion(args.p)
        values, tails = kernel_value_tail(spec, p, batch)
        finite = np.isfinite(values).all(axis=1) & np.isfinite(tails)
        if not finite.all():
            n = int(np.argmin(finite))
            row = f"kernel row {n + 1} (q = {format_quaternion(qarray.to_quaternion(batch[n]))})"
            # where the value and the closed form are in range, the truncation fails
            with np.errstate(over="ignore", invalid="ignore"):
                closed = kernel_value(replace(spec, method="closed", terms=None), p, batch[n:n + 1])
            cause = (" leaves double range" if not np.isfinite([values[n], closed[0]]).all() else
                     f": {spec.method} sum not converged, its terms still grow at the "
                     f"truncation terms = {spec.terms}")
            raise ValueError(f"{row}{cause}: {spec.method} value "
                             f"{_csv_rows(values[n:n + 1])[0]}, tail {float(tails[n])!r}")
        block = np.hstack([np.broadcast_to(qarray.from_quaternion(p), batch.shape), batch, values])
        rows = [f"{row},{spec.method},{tail!r}"
                for row, tail in zip(_csv_rows(block), tails.tolist())]
    _write_lines(rows)
    return 0


# -- verify --------------------------------------------------------------

_MAX_DEGREE_KW = {
    "orthogonality": "index_max",
    "eigen": "j_max",
    "reproduce": "degree_max",
    "transform-basis": "j_max",
    "isometry": "j_max",
    "norms": "j_max",
    "decomposition": "degree",
}
_LEVELS_KW = {
    "eigen": "k_max",
    "kernel-dual": "level_max",
    "reproduce": "level_max",
    "transform-basis": "k_max",
    "isometry": "k_max",
    "norms": "n_max",
    "decomposition": "level_max",
}


def cmd_verify(args, config: Config) -> int:
    grid = {}
    for flag, value, table in (("--max-degree", args.max_degree, _MAX_DEGREE_KW),
                               ("--levels", args.levels, _LEVELS_KW)):
        if value is None:
            continue
        if args.suite not in table:
            raise ValueError(f"suite {args.suite!r} does not take {flag}")
        grid[table[args.suite]] = value
    if args.suite == "all":
        reports = run_all(config)
        doc = {
            "schema": 1,
            "suites": [r.to_dict() for r in reports],
            "passed": all(r.passed for r in reports),
            "max_residual": float(np.max([r.max_residual for r in reports])),
        }
        print(json.dumps(doc, indent=2))
        return 0 if doc["passed"] else 1
    rep = run_suite(args.suite, config, **grid)
    print(rep.to_json())
    return 0 if rep.passed else 1


# -- transform -----------------------------------------------------------


def cmd_transform(args, config: Config) -> int:
    rule = gauss_hermite(config.line_nodes)
    if args.phi.startswith("h:"):
        try:
            j = int(args.phi[2:])
        except ValueError:
            raise ValueError(
                f"bad basis spec {args.phi!r}; expected h:<j> with integer j") from None
        if j < 0 or j > DEGREE_CAP:
            raise ValueError(f"basis index {j} outside [0, {DEGREE_CAP}]")
        phi = HermiteLine(j)
    else:
        samples = _read_csv(args.phi, "t,value")
        phi = SampledLine(samples[:, 0], samples[:, 1])
    pts = _target_points(args)
    z = qarray.to_slice(pts)[0]
    for part, size, limit in (("Re", np.abs(z.real), REAL_LIMIT), ("Im", z.imag, IMAG_LIMIT)):
        if np.any(size > limit):
            raise ValueError(f"target point with |{part} q| = {size.max():.6g} beyond {limit}, "
                             "where the line quadrature loses accuracy")
    _write_lines(_csv_rows(np.hstack([pts, transform_batch(args.level, phi, pts, rule)])))
    return 0


# -- table ---------------------------------------------------------------


def cmd_table(args, config: Config) -> int:
    if args.table == "norms":
        funcs = [Eigenfunction(args.n, j) for j in range(args.jmax + 1)]
        # |psi_{n,j}|^2 has degree 2(level + degree): refuse a large --n or --jmax before any work
        check_slice_degree((2 * (f.level + f.degree) for f in funcs), config.slice_nodes)
        print("n,j,closed,quadrature,residual")
        for f in funcs:
            closed = psi_norm_sq(args.n, f.j)
            num = norm_sq_full(f, config.slice_nodes)
            print(f"{args.n},{f.j},{_fmt(closed)},{_fmt(num)},"
                  f"{_fmt(abs(num - closed) / closed)}")
    elif args.table == "hermite-gram":
        idx = [(m, n) for m in range(args.max + 1) for n in range(args.max + 1)]
        # |H_{m,n}|^2 has degree 2(m + n): refuse a large --max before any work
        check_slice_degree((2 * (m + n) for m, n in idx), config.slice_nodes)
        Q = SliceQuadrature(config.slice_nodes)
        # the diagonal of the Gram of one coefficient stack, without the pairs off it
        nums = norm_sq_slice(coeff_stack([hermite_series(m, n) for m, n in idx]), Q).tolist()
        print("m,n,closed,quadrature,residual")
        for (m, n), num in zip(idx, nums):
            closed = math.pi * math.factorial(m) * math.factorial(n)
            print(f"{m},{n},{_fmt(closed)},{_fmt(num)},"
                  f"{_fmt(abs(num - closed) / closed)}")
    else:  # laguerre-sum
        # every row before the header, so a refused --n prints nothing
        rows = []
        for i in range(1, 11):
            x = 0.5 * i
            lhs = sum(laguerre(k, 0, x) for k in range(args.n + 1))
            rhs = laguerre(args.n, 1, x)
            rows.append(f"{_fmt(x)},{_fmt(lhs)},{_fmt(rhs)},{_fmt(abs(lhs - rhs))}")
        _write_lines(["x,sum_L0,L1_closed,residual"] + rows)
    return 0


# -- spectrum probe ------------------------------------------------------


def cmd_spectrum_probe(args, config: Config) -> int:
    mu = parse_quaternion(args.mu)
    pr = spectrum_probe(mu, args.j, args.rmax, args.windows)
    print(json.dumps(pr.to_dict(), indent=2))
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file (else $SPOLYREG_CONFIG, else defaults)")

    parser = argparse.ArgumentParser(
        prog="spolyreg",
        description="Quaternionic polyanalytic Bargmann analysis toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval",
                        help="evaluate Hermite polynomials, kernels, eigenfunctions")
    se = pe.add_subparsers(dest="target", required=True)

    eh = se.add_parser("hermite-q", parents=[common])
    eh.add_argument("--m", type=int, required=True)
    eh.add_argument("--n", type=int, required=True)
    eh.add_argument("--q", help="quaternion literal")
    eh.add_argument("--points", help="CSV file of w,x,y,z rows")

    ek = se.add_parser("kernel", parents=[common])
    ek.add_argument("--kind", type=int, choices=(1, 2), default=2)
    ek.add_argument("--level", type=int, required=True)
    ek.add_argument("--method", choices=("series", "star"), default="series")
    ek.add_argument("--terms", type=int)
    ek.add_argument("--p", required=True, help="quaternion literal")
    ek.add_argument("--q", help="quaternion literal")
    ek.add_argument("--points", help="CSV file of q points")

    eb = se.add_parser("bargmann-kernel", parents=[common])
    eb.add_argument("--kind", type=int, choices=(1, 2), default=2)
    eb.add_argument("--level", type=_nonnegative_int, required=True)
    eb.add_argument("--t", type=_finite_float, required=True)
    eb.add_argument("--q", help="quaternion literal")
    eb.add_argument("--points", help="CSV file of w,x,y,z rows")

    ep = se.add_parser("psi", parents=[common])
    ep.add_argument("--mu", required=True, help="eigenvalue (quaternion literal)")
    ep.add_argument("--j", type=int, required=True)
    ep.add_argument("--q", help="quaternion literal")
    ep.add_argument("--points", help="CSV file of w,x,y,z rows")

    pv = sub.add_parser("verify", parents=[common],
                        help="run an identity suite, print a JSON report")
    pv.add_argument("--suite", required=True, choices=SUITE_ORDER + ["all"])
    pv.add_argument("--max-degree", type=_nonnegative_int, dest="max_degree")
    pv.add_argument("--levels", type=_nonnegative_int)

    pt = sub.add_parser("transform", parents=[common],
                        help="apply the level-k Bargmann transform")
    pt.add_argument("--level", type=_nonnegative_int, required=True)
    pt.add_argument("--phi", required=True,
                    help="h:<j> or a CSV file of t,value samples on the nodes")
    pt.add_argument("--q", help="quaternion literal")
    pt.add_argument("--points", help="CSV file of target points")

    pb = sub.add_parser("table",
                        help="closed-form vs quadrature tables")
    st = pb.add_subparsers(dest="table", required=True)
    tn = st.add_parser("norms", parents=[common])
    tn.add_argument("--n", type=_nonnegative_int, required=True)
    tn.add_argument("--jmax", type=_nonnegative_int, default=3)
    tg = st.add_parser("hermite-gram", parents=[common])
    tg.add_argument("--max", type=_nonnegative_int, default=4)
    tl = st.add_parser("laguerre-sum", parents=[common])
    tl.add_argument("--n", type=_nonnegative_int, required=True)

    ps = sub.add_parser("spectrum-probe", parents=[common],
                        help="radial mass probe of an eigenvalue candidate")
    ps.add_argument("--mu", required=True, help="quaternion literal")
    ps.add_argument("--j", type=int, default=0)
    ps.add_argument("--rmax", type=_finite_float, default=PROBE_R_MAX)
    ps.add_argument("--windows", type=int, default=PROBE_WINDOWS)

    return parser


_COMMANDS = {"eval": cmd_eval, "verify": cmd_verify, "transform": cmd_transform,
             "table": cmd_table, "spectrum-probe": cmd_spectrum_probe}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once and reused: parsing leaves no state on it, and
    it holds command names, so main runs whatever _COMMANDS holds now."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called any number of times in one process."""
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except (ValueError, OSError, KummerConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
