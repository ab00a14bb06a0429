"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 numerical failure, 4 I/O error, 5 inverse-problem inconsistency.
The one setting is the printed precision: --precision, then the
ROBINBOX_PRECISION environment variable, then 12 digits.
"""

from __future__ import annotations

import argparse
import os
import sys

from .basisfn import BasisFunction, alpha_minus, alpha_plus, eval_inverse
from .box import (BoxGeometry, gap_box, ratio_box, spectrum_box,
                  steklov_sigma1)
from .errors import (AlphaZero, BracketNotFound, DomainError, Inconsistent,
                     MaxIterExceeded, NoSignChange, NumericalFailure)
from .figures import FigureId, figure_table
from .shapes import FAMILY_KINDS, OBJECTIVES, RectangleFamily, hear_rectangle, scan_family
from .verify import SUITES, run_suite

_FAMILY_ALIASES = {
    "perim": "fixed_perimeter",
    "perimeter": "fixed_perimeter",
    "vol": "fixed_volume",
    "volume": "fixed_volume",
    "diam": "fixed_diameter",
    "diameter": "fixed_diameter",
    "surf": "fixed_surface",
    "surface": "fixed_surface",
}


def _resolve_precision(args) -> int:
    if getattr(args, "precision", None) is not None:
        prec = args.precision
    else:
        raw = os.environ.get("ROBINBOX_PRECISION")
        if raw is None:
            prec = 12
        else:
            try:
                prec = int(raw)
            except ValueError:
                raise DomainError(f"ROBINBOX_PRECISION must be an integer, got {raw!r}")
    if not 1 <= prec <= 17:
        raise DomainError(f"precision must be in [1, 17], got {prec}")
    return prec


def _fmt(x: float, prec: int) -> str:
    return f"{x:.{prec}g}"


def _parse_box(text: str) -> BoxGeometry:
    try:
        widths = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"--box expects comma-separated numbers, got {text!r}")
    return BoxGeometry(widths)


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_csv(path: str, header, rows, prec: int) -> None:
    stream, owned = _open_out(path)
    try:
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(x, prec) for x in row) + "\n")
    finally:
        if owned:
            stream.close()


def _cmd_eig(args) -> int:
    prec = _resolve_precision(args)
    geom = _parse_box(args.box)
    if args.k < 1:
        raise DomainError(f"--k must be >= 1, got {args.k}")
    spectrum = spectrum_box(geom, args.alpha, args.k)
    if args.csv:
        print("index,eigenvalue,mode")
        for i, mode in enumerate(spectrum.modes, start=1):
            print(f"{i},{_fmt(mode.eigenvalue, prec)},{mode.tag()}")
    else:
        for i, mode in enumerate(spectrum.modes, start=1):
            print(f"lambda_{i} = {_fmt(mode.eigenvalue, prec)}    [{mode.tag()}]")
    return 0


def _cmd_constants(args) -> int:
    prec = args.precision if args.precision is not None else 10
    if not 1 <= prec <= 17:
        raise DomainError(f"precision must be in [1, 17], got {prec}")
    square = BoxGeometry((1.0, 1.0))
    sigma = steklov_sigma1(square)
    x = eval_inverse(BasisFunction.H1, sigma)
    print(f"alpha_plus  = {_fmt(alpha_plus(), prec)}")
    print(f"alpha_minus = {_fmt(alpha_minus(), prec)}")
    print(f"alpha_zero  = {_fmt(-sigma, prec)}")
    print(f"tanh_cot_root = {_fmt(x, prec)}")
    return 0


def _cmd_figure(args) -> int:
    prec = _resolve_precision(args)
    fig = FigureId(args.id)
    header, rows = figure_table(fig, args.resolution)
    _write_csv(args.out, header, rows, prec)
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for result in run_suite(name):
            print(result.line())
            failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_hear(args) -> int:
    prec = _resolve_precision(args)
    try:
        geom = hear_rectangle(args.lambda1, args.lambda2, args.alpha)
    except Inconsistent as exc:
        print(f"inconsistent: {exc}")
        return 5
    long_side, short_side = (2.0 * w for w in geom.half_widths)
    print(f"side_long  = {_fmt(long_side, prec)}")
    print(f"side_short = {_fmt(short_side, prec)}")
    return 0


def _cmd_scan(args) -> int:
    prec = _resolve_precision(args)
    kind = _FAMILY_ALIASES.get(args.family, args.family)
    family = RectangleFamily(kind, args.norm, args.dim)
    result = scan_family(family, args.alpha, args.objective, args.grid,
                         opt_kind=args.opt_kind)
    if args.csv:
        print(f"{family.parameter_name},{args.objective}")
        for p, v in zip(result.parameters, result.values):
            print(f"{_fmt(p, prec)},{_fmt(v, prec)}")
        return 0
    widths = ",".join(_fmt(2.0 * w, prec) for w in result.argopt_geometry.half_widths)
    print(f"family     = {kind} (normalization {_fmt(family.normalization, prec)})")
    print(f"objective  = {args.objective} ({result.opt_kind})")
    print(f"argopt {family.parameter_name} = {_fmt(result.argopt, prec)}")
    print(f"opt value  = {_fmt(result.opt_value, prec)}")
    print(f"sides      = {widths}")
    return 0


def _cmd_steklov(args) -> int:
    prec = _resolve_precision(args)
    print(_fmt(steklov_sigma1(_parse_box(args.box)), prec))
    return 0


def _cmd_gap(args) -> int:
    prec = _resolve_precision(args)
    print(_fmt(gap_box(_parse_box(args.box), args.alpha), prec))
    return 0


def _cmd_ratio(args) -> int:
    prec = _resolve_precision(args)
    print(_fmt(ratio_box(_parse_box(args.box), args.alpha), prec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=None,
                        help="significant digits for printed numbers (default 12)")

    parser = argparse.ArgumentParser(
        prog="robinbox",
        description="Robin Laplacian spectra of intervals and rectangular boxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", parents=[common],
                       help="eigenvalues of a box given by half-widths")
    p.add_argument("--box", required=True, help="comma-separated half-widths")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, default=6, help="number of eigenvalues")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_eig)

    p = sub.add_parser("constants", parents=[common],
                       help="critical coupling constants and the square's Steklov root")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("figure", parents=[common], help="emit figure data as CSV")
    p.add_argument("--id", required=True, choices=[f.value for f in FigureId])
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--resolution", type=int, default=400)
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("verify", parents=[common], help="run property suites")
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("hear", parents=[common],
                       help="recover a rectangle from its first two eigenvalues")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(handler=_cmd_hear)

    p = sub.add_parser("scan", parents=[common],
                       help="scan an objective along a normalized rectangle family")
    p.add_argument("--family", required=True,
                   choices=sorted({*FAMILY_KINDS, *_FAMILY_ALIASES}))
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--norm", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--opt-kind", choices=("min", "max"), default=None)
    p.add_argument("--csv", action="store_true", help="emit the grid trace")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("steklov", parents=[common],
                       help="first nonzero Steklov eigenvalue of a box")
    p.add_argument("--box", required=True)
    p.set_defaults(handler=_cmd_steklov)

    p = sub.add_parser("gap", parents=[common], help="spectral gap of a box")
    p.add_argument("--box", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("ratio", parents=[common],
                       help="spectral ratio lambda2/|lambda1| of a box")
    p.add_argument("--box", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(handler=_cmd_ratio)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Inconsistent as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 5
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoSignChange, BracketNotFound, MaxIterExceeded, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
