"""Bracketed scalar root finding.

The solver is a Brent-style hybrid: bisection guarantees convergence while
secant / inverse-quadratic steps accelerate it, and the iterate never leaves
the current bracket.  It stops on Brent's own test, a bracket half-width of
at most 2*eps*|b|, so every root comes back to within a few ulps and no
tolerance is configurable.  The one twist over the textbook loop: the
transcendental equations solved elsewhere in this package have poles next
to their bracket ends, and an iterate whose function value is nan/inf
raises NumericalFailure rather than steering the iteration with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import BracketNotFound, DomainError, MaxIterExceeded, NoSignChange, NumericalFailure

_EPS = sys.float_info.epsilon
# Keeps the stopping tolerance positive where the root is 0, as it can be in
# log-coordinate solves; elsewhere 2*eps*|b| is larger by far.
_TOL_FLOOR = sys.float_info.min


@dataclass(frozen=True)
class RootBracket:
    """An interval [lo, hi] whose endpoint values have strictly opposite signs."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or not self.lo < self.hi:
            raise NoSignChange(f"invalid bracket endpoints [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.f_lo) and math.isfinite(self.f_hi)):
            raise NoSignChange("bracket endpoint values must be finite")
        if not (self.f_lo < 0.0 < self.f_hi or self.f_hi < 0.0 < self.f_lo):
            raise NoSignChange(
                f"no sign change on [{self.lo}, {self.hi}]: f values {self.f_lo}, {self.f_hi}"
            )


@dataclass(frozen=True)
class RootConfig:
    max_iter: int = 200

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


DEFAULT_CONFIG = RootConfig()


def default_config() -> RootConfig:
    """The package-wide solver settings: the field defaults of RootConfig."""
    return DEFAULT_CONFIG


def solve_bracketed(f: Callable[[float], float], bracket: RootBracket,
                    cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Root of f inside ``bracket``, to within 4*eps*|root|."""
    sa, sb = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    c, fc = sa, fa
    e = d = sb - sa

    for _ in range(cfg.max_iter):
        if abs(fc) < abs(fb):
            sa, fa = sb, fb
            sb, fb = c, fc
            c, fc = sa, fa

        tol = 2.0 * _EPS * abs(sb) + _TOL_FLOOR
        m = 0.5 * (c - sb)
        if abs(m) <= tol or fb == 0.0:
            return sb

        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if sa == c:
                # secant step
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (sb - sa) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m

        sa, fa = sb, fb
        if abs(d) > tol:
            sb += d
        elif m > 0.0:
            sb += tol
        else:
            sb -= tol
        fb = f(sb)
        if not math.isfinite(fb):
            raise NumericalFailure(f"f is not finite at iterate {sb!r}")

        if (fb > 0.0) == (fc > 0.0):
            c, fc = sa, fa
            e = d = sb - sa

    raise MaxIterExceeded(f"no convergence in {cfg.max_iter} iterations; last iterate {sb!r}")


def expand_bracket(f: Callable[[float], float], seed: float, direction: str = "up",
                   growth: float = 2.0, initial_step: float = 1.0,
                   max_expansions: int = 128) -> RootBracket:
    """Walk geometrically away from ``seed`` until consecutive probes change sign."""
    if direction not in ("up", "down"):
        raise DomainError(f"direction must be 'up' or 'down', got {direction!r}")
    if not growth > 1.0:
        raise DomainError("growth must exceed 1")
    if not initial_step > 0.0:
        raise DomainError("initial_step must be positive")

    sign = 1.0 if direction == "up" else -1.0
    x_prev = seed
    f_prev = f(seed)
    if not math.isfinite(f_prev):
        raise BracketNotFound(f"f not finite at seed {seed!r}")
    if f_prev == 0.0:
        # the seed itself sits on the root; nudge so a genuine bracket exists
        nudge = sign * max(abs(seed), 1.0) * 1e-12
        for _ in range(8):
            x_prev = x_prev - nudge
            f_prev = f(x_prev)
            if math.isfinite(f_prev) and f_prev != 0.0:
                break
            nudge *= 2.0
        else:
            raise BracketNotFound("function vanishes identically near the seed")

    step = initial_step
    for _ in range(max_expansions):
        x = x_prev + sign * step
        fx = f(x)
        if not math.isfinite(fx):
            raise BracketNotFound(f"f not finite at probe {x!r}")
        if fx == 0.0:
            # land a hair past the root so the endpoint signs are strict
            for _ in range(8):
                x += sign * max(abs(x), 1.0) * 1e-12
                fx = f(x)
                if math.isfinite(fx) and fx != 0.0:
                    break
            else:
                raise BracketNotFound("function vanishes on a whole probe neighborhood")
        if (f_prev < 0.0 < fx) or (fx < 0.0 < f_prev):
            if x_prev < x:
                return RootBracket(x_prev, x, f_prev, fx)
            return RootBracket(x, x_prev, fx, f_prev)
        x_prev, f_prev = x, fx
        step *= growth

    raise BracketNotFound(f"no sign change within {max_expansions} expansions from {seed!r}")
