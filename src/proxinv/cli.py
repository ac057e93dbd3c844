"""Command-line surface.

Four subcommands: ``prox`` evaluates an operator at a point and emits JSON;
``region`` sweeps a plane grid and emits CSV rows (cell centers by default
so boundary ties are not hit accidentally); ``spectrum`` dumps the rank-2
eigenstructure as JSON; ``oracle`` compares an analytic result against the
brute-force grid and sets the exit code accordingly.

Exit codes: 0 success, 1 oracle mismatch, 2 usage/input errors (an input
magnitude out of range or a grid too large to allocate), 3 degenerate spectrum.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from .core import (
    Tolerances,
    _positive_rho,
    as_vector,
    normalize,
    objective_F,
    h1_value,
    h2_value,
    l0_value,
    uniform_value,
)
from .h1 import prox_h1
from .h2 import h2_spectrum, prox_h2
from .l0 import prox_l0
from .oracle import brute_prox

#: operator name -> (prox(x, rho, tol), penalty, c), where the plane point
#: (a, a) with a = sqrt(c / rho) is the diagonal tie point that
#: ``region --include-boundary`` adds; the lambdas look ``prox_*`` up in this
#: module at call time, so a wrapper installed over ``proxinv.cli.prox_*``
#: sees the CLI's calls
_OPERATORS = {
    "l0": (lambda x, rho, tol: prox_l0(x, rho, tol), l0_value, 2.0),
    "h1": (lambda x, rho, tol: prox_h1(x, rho, tol), h1_value, float(np.sqrt(2.0))),
    "h2": (lambda x, rho, tol: prox_h2(x, rho, tol), h2_value, 2.0),
}


def _parse_vector(text: str) -> np.ndarray:
    try:
        return as_vector([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"malformed vector {text!r}: {exc}") from exc


def _tolerances(args) -> Tolerances:
    if getattr(args, "tie_tol", None) is not None:
        return Tolerances(tie_tol=args.tie_tol)
    return Tolerances()


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _cmd_prox(args) -> int:
    x = _parse_vector(args.x)
    prox, _, _ = _OPERATORS[args.fn]
    ps = prox(x, args.rho, _tolerances(args))
    payload = {
        "contains_zero": ps.contains_zero,
        "points": [[float(c) for c in p] for p in ps.points],
        "family": ps.family,
        "g_value": float(ps.g_value),
        "tie_truncated": ps.tie_truncated,
    }
    print(json.dumps(payload))
    return 0


def _region_label(ps) -> str:
    if ps.contains_zero:
        return "tie" if ps.points else "zero"
    return "nonzero"


def _cmd_region(args) -> int:
    tol = _tolerances(args)
    prox, _, diag_c = _OPERATORS[args.fn]
    if args.grid < 1 or not 0.0 < args.xmax < np.inf:
        raise ValueError("grid must be >= 1 and xmax positive and finite")
    h = args.xmax / args.grid
    rows = (((i + 0.5) * h, (j + 0.5) * h) for i in range(args.grid) for j in range(i + 1))
    if args.include_boundary:
        thr = float(np.sqrt(2.0 / args.rho))
        diag = float(np.sqrt(diag_c / args.rho))
        # checked before the first row, so that a failure writes no CSV
        if not np.isfinite(thr + diag):
            raise ValueError("input magnitude out of range: boundary points are not finite")
        edge = ((thr, k * thr / max(args.grid - 1, 1)) for k in range(args.grid))
        rows = itertools.chain(rows, edge, [(diag, diag)])
    out = sys.stdout
    for x1, x2 in rows:
        ps = prox(np.array([x1, x2]), args.rho, tol)
        label = _region_label(ps)
        if args.mode == "prox-map":
            u = ps.points[0] if ps.points else np.zeros(2)
            out.write(f"{_fmt(x1)},{_fmt(x2)},{label},{_fmt(u[0])},{_fmt(u[1])}\n")
        else:
            out.write(f"{_fmt(x1)},{_fmt(x2)},{label}\n")
    return 0


def _cmd_spectrum(args) -> int:
    x = _parse_vector(args.x)
    xs, _ = normalize(x)
    if uniform_value(xs) is not None:
        print(
            "spectrum degenerates at multiples of the all-ones vector "
            "(single nonzero eigenvalue); nothing to report",
            file=sys.stderr,
        )
        return 3
    spec = h2_spectrum(xs, args.rho)
    norm_lo, norm_hi = np.linalg.norm(spec.w_lo), np.linalg.norm(spec.w_hi)
    scalars = (spec.delta, spec.alpha_lo, spec.alpha_hi, spec.lambda_pos, spec.lambda_neg)
    if not np.all(np.isfinite((*scalars, norm_lo, norm_hi))):
        raise ValueError("input magnitude out of range: spectrum is not finite")
    payload = {
        "delta": spec.delta,
        "alpha_lo": spec.alpha_lo,
        "alpha_hi": spec.alpha_hi,
        "lambda_pos": spec.lambda_pos,
        "lambda_neg": spec.lambda_neg,
        "w_lo": [float(c) for c in spec.w_lo / norm_lo],
        "w_hi": [float(c) for c in spec.w_hi / norm_hi],
    }
    print(json.dumps(payload))
    return 0


def _cmd_oracle(args) -> int:
    if args.tolerance is not None and not (np.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ValueError("tolerance must be a nonnegative finite number")
    x = _parse_vector(args.x)
    if x.size > 3:
        print("oracle comparison supports dimensions up to 3", file=sys.stderr)
        return 2
    rho = args.rho
    prox, penalty, _ = _OPERATORS[args.fn]
    ps = prox(x, rho, _tolerances(args))
    candidates = list(ps.points)
    if ps.contains_zero:
        candidates.append(np.zeros(x.size))
    rep = candidates[0]
    f_analytic = min(objective_F(u, x, rho, penalty(u)) for u in candidates)

    box = args.box if args.box is not None else float(np.linalg.norm(x)) + 1.0
    u_oracle, f_oracle = brute_prox(x, rho, args.fn, box, args.resolution)
    dist = min(float(np.linalg.norm(u_oracle - u)) for u in candidates)

    s2 = float(x @ x)
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else max(1e-5, 10.0 * args.resolution**2 * rho * s2)
    )
    ok = abs(f_analytic - f_oracle) <= tolerance
    print(f"analytic point:   {np.array2string(np.asarray(rep), precision=9)}")
    print(f"analytic F:       {f_analytic:.12g}")
    print(f"oracle point:     {np.array2string(u_oracle, precision=9)}")
    print(f"oracle F:         {f_oracle:.12g}")
    print(f"|F gap|:          {abs(f_analytic - f_oracle):.3e}  (tolerance {tolerance:.3e})")
    print(f"point distance:   {dist:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxinv",
        description="set-valued proximity operators of l0, l1/l2 and (l1/l2)^2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prox", help="evaluate a proximity operator at a point")
    p.add_argument("--fn", required=True, choices=tuple(_OPERATORS))
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--x", required=True)
    p.add_argument("--tie-tol", type=float, default=None)
    p.set_defaults(run=_cmd_prox)

    p = sub.add_parser("region", help="plane region map as CSV rows")
    p.add_argument("--fn", required=True, choices=tuple(_OPERATORS))
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--xmax", required=True, type=float)
    p.add_argument("--grid", required=True, type=int)
    p.add_argument("--mode", required=True, choices=("zero-map", "prox-map"))
    p.add_argument("--include-boundary", action="store_true")
    p.add_argument("--tie-tol", type=float, default=None)
    p.set_defaults(run=_cmd_region)

    p = sub.add_parser("spectrum", help="rank-2 direction-matrix eigenstructure as JSON")
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--x", required=True)
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("oracle", help="compare an analytic prox against the grid oracle")
    p.add_argument("--fn", required=True, choices=tuple(_OPERATORS))
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--x", required=True)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--box", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(run=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _positive_rho(args.rho)
        return args.run(args)
    except (ValueError, MemoryError) as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
