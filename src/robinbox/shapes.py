"""Shape comparison scans and the two-eigenvalue inverse problem.

A RectangleFamily is a one-parameter curve through box space along which a
spectral objective is scanned: rectangles of fixed perimeter parameterized
by the side fraction p, or boxes of fixed volume / diameter / surface
parameterized by log-aspect (zero at the cube).  Scans locate the discrete
optimum and then tighten it by golden-section search inside the bracketing
grid cells, which is enough to witness where each functional is extremal.

hear_rectangle inverts the map (t, s) -> (lambda1, lambda2): the gap pins
down the long half-width t because the box gap equals the gap of the
longest axis and that is strictly monotone in t, after which the leftover
share of lambda1 pins down s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .box import (BoxGeometry, gap_box, lambda1_box, lambda2_box, ratio_box,
                  scaled_quantity)
from .errors import (AlphaZero, BracketNotFound, DimensionError, DomainError,
                     Inconsistent)
from .interval import IntervalGeometry, gap_interval, lambda1_interval
from .rootfind import expand_bracket, solve_bracketed

FAMILY_KINDS = ("fixed_perimeter", "fixed_volume", "fixed_diameter", "fixed_surface")
OBJECTIVES = ("lambda1", "lambda2", "gap", "ratio", "perim_lambda1", "perim_lambda2")

_P_MIN = 1e-4
_ASPECT_MAX = 1e4
_SIDE_TIE_REL = 1e-9
_FORWARD_RESIDUAL_REL = 1e-8
_SQUARE_RESIDUAL_ULPS = 4.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RectangleFamily:
    """One-parameter family of boxes under a geometric normalization."""

    kind: str
    normalization: float = 1.0
    dim: int = 2

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}")
        norm = self.normalization
        if not (isinstance(norm, (int, float)) and math.isfinite(norm) and norm > 0.0):
            raise DomainError(f"normalization must be a positive finite number, got {norm!r}")
        if not (isinstance(self.dim, int) and self.dim >= 2):
            raise DomainError(f"family dimension must be an integer >= 2, got {self.dim!r}")
        if self.kind == "fixed_perimeter" and self.dim != 2:
            raise DimensionError("fixed_perimeter families are planar")
        object.__setattr__(self, "normalization", float(norm))

    @property
    def parameter_name(self) -> str:
        return "p" if self.kind == "fixed_perimeter" else "log_aspect"

    def parameter_range(self) -> tuple:
        if self.kind == "fixed_perimeter":
            return (_P_MIN, 1.0 - _P_MIN)
        zmax = math.log(_ASPECT_MAX) / self.dim
        return (-zmax, zmax)

    @property
    def symmetric_parameter(self) -> float:
        """Parameter value of the square / cube member."""
        return 0.5 if self.kind == "fixed_perimeter" else 0.0

    def geometry(self, p: float) -> BoxGeometry:
        if self.kind == "fixed_perimeter":
            if not 0.0 < p < 1.0:
                raise DomainError(f"side fraction must lie in (0, 1), got {p!r}")
            c = 0.5 * self.normalization
            return BoxGeometry((0.5 * c * p, 0.5 * c * (1.0 - p)))
        n = self.dim
        base = tuple([math.exp(p)] * (n - 1) + [math.exp(-(n - 1) * p)])
        raw = BoxGeometry(base)
        if self.kind == "fixed_volume":
            c = (self.normalization / raw.volume) ** (1.0 / n)
        elif self.kind == "fixed_diameter":
            c = self.normalization / raw.diameter
        else:
            c = (self.normalization / raw.surface) ** (1.0 / (n - 1))
        return raw.scaled(c)


@dataclass(frozen=True)
class ScanResult:
    family: RectangleFamily
    alpha: float
    objective: str
    opt_kind: str
    parameters: tuple
    values: tuple
    argopt: float
    opt_value: float

    @property
    def argopt_geometry(self) -> BoxGeometry:
        return self.family.geometry(self.argopt)

    @property
    def grid_cell(self) -> float:
        return self.parameters[1] - self.parameters[0]


def _objective_value(geom: BoxGeometry, alpha: float, objective: str) -> float:
    if objective == "lambda1":
        return lambda1_box(geom, alpha)
    if objective == "lambda2":
        return lambda2_box(geom, alpha)
    if objective == "gap":
        return gap_box(geom, alpha)
    if objective == "ratio":
        return ratio_box(geom, alpha)
    return scaled_quantity(geom, alpha, objective)


def _default_opt_kind(objective: str, alpha: float) -> str:
    if objective == "perim_lambda1":
        return "min"
    if objective == "lambda1":
        return "min" if alpha > 0.0 else "max"
    return "max"


def scan_family(family: RectangleFamily, alpha: float, objective: str,
                grid_size: int = 256, opt_kind: str | None = None) -> ScanResult:
    """Scan an objective along the family and refine the discrete optimum."""
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if not (isinstance(grid_size, int) and grid_size >= 16):
        raise DomainError(f"grid_size must be an integer >= 16, got {grid_size!r}")
    if opt_kind is None:
        opt_kind = _default_opt_kind(objective, alpha)
    if opt_kind not in ("min", "max"):
        raise DomainError(f"opt_kind must be 'min' or 'max', got {opt_kind!r}")

    lo, hi = family.parameter_range()
    params = np.linspace(lo, hi, grid_size)
    values = np.array([_objective_value(family.geometry(float(p)), alpha, objective)
                       for p in params])

    sign = 1.0 if opt_kind == "max" else -1.0
    i_best = int(np.argmax(sign * values))
    a = float(params[max(i_best - 1, 0)])
    b = float(params[min(i_best + 1, grid_size - 1)])

    def height(p):
        return sign * _objective_value(family.geometry(p), alpha, objective)

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = height(c), height(d)
    for _ in range(80):
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = height(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = height(d)
    argopt = 0.5 * (a + b)
    opt_value = _objective_value(family.geometry(argopt), alpha, objective)
    # on a steep range end the refinement can fall short of the grid itself
    if sign * values[i_best] > sign * opt_value:
        argopt, opt_value = float(params[i_best]), float(values[i_best])
    return ScanResult(family, alpha, objective, opt_kind, tuple(float(p) for p in params),
                      tuple(float(v) for v in values), argopt, opt_value)


def gap_vs_segment(geom: BoxGeometry, alpha: float) -> tuple:
    """Gap of the box against the gap of the segment with the same diameter.

    The box always wins: collapsing a box onto its diagonal can only shrink
    the gap, with the degenerate segment as the extreme case.
    """
    if geom.dim < 2:
        raise DimensionError("comparing a segment against itself is vacuous")
    box_gap = gap_box(geom, alpha)
    seg_gap = gap_interval(IntervalGeometry(0.5 * geom.diameter), alpha)
    return box_gap, seg_gap


def _invert_monotone_log(f, increasing: bool, label: str) -> float:
    """Root of f(exp(z)) = 0 over z, for f monotone on (0, inf).

    Works in log-coordinates so that additive bracket expansion covers all
    scales.  Geometry that degenerates during the search (half-widths below
    the representable cutoff) means no admissible solution exists.
    """
    g = lambda z: f(math.exp(z))
    try:
        g0 = g(0.0)
        if g0 == 0.0:
            return 1.0
        if (g0 > 0.0) == increasing:
            direction = "down"
        else:
            direction = "up"
        bracket = expand_bracket(g, 0.0, direction=direction, initial_step=0.7)
        z = solve_bracketed(g, bracket)
    except (DomainError, BracketNotFound) as exc:
        raise Inconsistent(f"no admissible {label} reproduces the data ({exc})") from exc
    return math.exp(z)


def hear_rectangle(lambda1_val: float, lambda2_val: float, alpha: float) -> BoxGeometry:
    """Recover the rectangle with the given first two eigenvalues.

    Returns half-widths (t, s) with t >= s.  Raises AlphaZero at alpha = 0,
    where every rectangle has lambda1 = 0 and lambda2 depends only on the
    longest side, so the data cannot determine a shape.  Raises Inconsistent
    when no rectangle fits: non-positive gap, leftover lambda1 share outside
    the attainable range of a single axis, recovered short side longer than
    the long side where the square does not reproduce the pair to a few ulps,
    or a failed forward re-check.
    """
    if alpha == 0.0:
        raise AlphaZero("cannot hear a rectangle at alpha = 0")
    for name, v in (("lambda1", lambda1_val), ("lambda2", lambda2_val), ("alpha", alpha)):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise DomainError(f"{name} must be a finite number, got {v!r}")
    gap = lambda2_val - lambda1_val
    if gap <= 0.0:
        raise Inconsistent(f"lambda2 - lambda1 = {gap!r} is not positive")

    t = _invert_monotone_log(
        lambda w: gap_interval(IntervalGeometry(w), alpha) - gap,
        increasing=False, label="long side")

    remainder = lambda1_val - lambda1_interval(IntervalGeometry(t), alpha)
    if alpha > 0.0:
        if remainder <= 0.0:
            raise Inconsistent(f"leftover lambda1 share {remainder!r} is not attainable (alpha > 0)")
    else:
        if remainder >= -alpha * alpha:
            raise Inconsistent(
                f"leftover lambda1 share {remainder!r} is not attainable (limit {-alpha * alpha!r})")
    s = _invert_monotone_log(
        lambda w: lambda1_interval(IntervalGeometry(w), alpha) - remainder,
        increasing=(alpha < 0.0), label="short side")

    if s > t * (1.0 + _SIDE_TIE_REL):
        # inconsistent data, unless the pair pins s down less tightly than its
        # own rounding (a near-square at strongly negative alpha*t): then the
        # square reproduces both eigenvalues to a few ulps
        square = BoxGeometry((t, t))
        r = max(abs(lambda1_box(square, alpha) - lambda1_val),
                abs(lambda2_box(square, alpha) - lambda2_val))
        if r > _SQUARE_RESIDUAL_ULPS * math.ulp(max(abs(lambda1_val), abs(lambda2_val))):
            raise Inconsistent(f"recovered short side {s!r} exceeds long side {t!r}")
    s = min(s, t)

    recovered = BoxGeometry((t, s))
    scale = max(1.0, abs(lambda1_val), abs(lambda2_val))
    r1 = abs(lambda1_box(recovered, alpha) - lambda1_val)
    r2 = abs(lambda2_box(recovered, alpha) - lambda2_val)
    if r1 > _FORWARD_RESIDUAL_REL * scale or r2 > _FORWARD_RESIDUAL_REL * scale:
        raise Inconsistent(
            f"forward residuals ({r1:.3e}, {r2:.3e}) exceed {_FORWARD_RESIDUAL_REL:g} * {scale:g}")
    return recovered
