"""The four transcendental functions behind the Robin secular equations.

Each one is strictly increasing on its principal domain, so each has a
well-defined inverse there:

    G1:  x*tan(x)   on (0, pi/2) onto (0, inf)    even modes, positive part
    G2: -x*cot(x)   on (0, pi)   onto (-1, inf)   odd modes, positive part
    H1:  x*tanh(x)  on (0, inf)  onto (0, inf)    even modes, negative part
    H2:  x*coth(x)  on (0, inf)  onto (1, inf)    odd modes, negative part

The module also provides the scaled inverses (inverse divided by the
argument), the auxiliary slope functions f1/f2 with their thresholds y1(c)
and y2(c), and the two critical Robin constants alpha_plus / alpha_minus.

Numerical care concentrates in two places.  The trig inverses are solved in
distance-to-pole coordinates once the target value is large, because the
root then sits within O(1/y) of the pole and direct bracketing loses it.
And f1 switches to a power series below x=0.05, where its closed form
subtracts two O(1/x) quantities.
"""

from __future__ import annotations

import enum
import math

from .errors import DomainError, NumericalFailure
from .rootfind import DEFAULT_CONFIG, RootBracket, RootConfig, expand_bracket, solve_bracketed

HALF_PI = 0.5 * math.pi
PI = math.pi

_INF = math.inf


class BasisFunction(enum.Enum):
    G1 = "g1"
    G2 = "g2"
    H1 = "h1"
    H2 = "h2"

    @property
    def domain(self) -> tuple[float, float]:
        return _DOMAINS[self]

    @property
    def codomain(self) -> tuple[float, float]:
        return _RANGES[self]


_DOMAINS = {
    BasisFunction.G1: (0.0, HALF_PI),
    BasisFunction.G2: (0.0, PI),
    BasisFunction.H1: (0.0, _INF),
    BasisFunction.H2: (0.0, _INF),
}

_RANGES = {
    BasisFunction.G1: (0.0, _INF),
    BasisFunction.G2: (-1.0, _INF),
    BasisFunction.H1: (0.0, _INF),
    BasisFunction.H2: (1.0, _INF),
}

# Distance from a tan/cot pole below which the reciprocal form is used.
_POLE_GUARD = 1e-8


def eval_basis(fn: BasisFunction, x: float) -> float:
    """Value of the basis function at x (hyperbolic ones extended to x=0)."""
    if fn is BasisFunction.G1:
        if not 0.0 < x < HALF_PI:
            raise DomainError(f"x*tan(x) needs x in (0, pi/2), got {x!r}")
        d = HALF_PI - x
        if d < _POLE_GUARD:
            return x / math.tan(d)
        return x * math.tan(x)
    if fn is BasisFunction.G2:
        if not 0.0 < x < PI:
            raise DomainError(f"-x*cot(x) needs x in (0, pi), got {x!r}")
        d = PI - x
        if d < _POLE_GUARD:
            return x / math.tan(d)
        return -x * math.cos(x) / math.sin(x)
    if fn is BasisFunction.H1:
        if x < 0.0:
            raise DomainError(f"x*tanh(x) needs x >= 0, got {x!r}")
        return x * math.tanh(x)
    if fn is BasisFunction.H2:
        if x < 0.0:
            raise DomainError(f"x*coth(x) needs x >= 0, got {x!r}")
        if x == 0.0:
            return 1.0  # continuous extension
        return x / math.tanh(x)
    raise DomainError(f"unknown basis function {fn!r}")


def _solve(f, lo, hi, cfg):
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    return solve_bracketed(f, RootBracket(lo, hi, flo, fhi), cfg)


# Below this y the series x = sqrt(y)*(1 - y/6) is exact to rounding (the
# next term is O(y^2) relative), while the bracket [atan(2y/pi), sqrt(y)]
# can lose its sign change to rounding in x*tan(x) - y.
_G1_SERIES_Y = 1e-15


def _g1_inverse(y, cfg):
    if y < _G1_SERIES_Y:
        return math.sqrt(y) * (1.0 - y / 6.0)
    if y < 2.0:
        # root of x*tan(x) = y lies in [atan(2y/pi), sqrt(y)]:
        # the lower end because tan there equals 2y/pi < y/x for x < pi/2,
        # the upper because tan(x) > x makes x*tan(x) > x^2
        lo = math.atan(2.0 * y / PI)
        hi = math.sqrt(y)
        return _solve(lambda x: x * math.tan(x) - y, lo, hi, cfg)
    # large y: the root hugs the pole, so solve for the distance d = pi/2 - x,
    # where (pi/2 - d)*cot(d) = y brackets cleanly between pi/2/(y+2) and 2pi/(y+1)
    dlo = HALF_PI / (y + 2.0)
    dhi = min(2.0 * PI / (y + 1.0), 1.5)
    d = _solve(lambda t: (HALF_PI - t) / math.tan(t) - y, dlo, dhi, cfg)
    return min(HALF_PI - d, math.nextafter(HALF_PI, 0.0))


def _g2_inverse(y, cfg):
    if y == 0.0:
        return HALF_PI
    if y < 0.0:
        # root below pi/2; lower end from the expansion -x*cot(x) = -1 + x^2/3 + ...
        lo = 0.5 * min(math.sqrt(3.0 * (1.0 + y)), 1.5)
        f = lambda x: -x * math.cos(x) / math.sin(x) - y
        for _ in range(64):
            if f(lo) < 0.0:
                break
            lo *= 0.5
        else:
            raise NumericalFailure(f"could not bracket -x*cot(x) = {y}")
        return _solve(f, lo, HALF_PI, cfg)
    if y < 2.0:
        return _solve(lambda x: -x * math.cos(x) / math.sin(x) - y,
                      HALF_PI, PI - 0.5, cfg)
    # large y: distance to the pole at pi, (pi - d)*cot(d) = y
    dlo = PI / (y + 2.0)
    dhi = min(2.0 * PI / (y + 1.0), 2.0)
    d = _solve(lambda t: (PI - t) / math.tan(t) - y, dlo, dhi, cfg)
    return min(PI - d, math.nextafter(PI, 0.0))


def _h1_inverse(y, cfg):
    # x*tanh(x) sits strictly between x-1 and x, so the root lies in [y, y+2]
    return _solve(lambda x: x * math.tanh(x) - y, y, y + 2.0, cfg)


def _h2_inverse(y, cfg):
    # x*coth(x) sits strictly between x and x+1, so the root lies in [y-1, y]
    return _solve(lambda x: x / math.tanh(x) - y, y - 1.0, y, cfg)


def eval_inverse(fn: BasisFunction, y: float, cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """The x in the principal domain with eval_basis(fn, x) = y."""
    lo, hi = _RANGES[fn]
    if not (lo < y < hi) and not (fn is BasisFunction.G2 and y == 0.0):
        if fn is BasisFunction.G2 and y == lo:
            raise DomainError(f"{fn.value} inverse needs y > -1, got {y!r}")
        raise DomainError(f"{fn.value} inverse needs y in ({lo}, {hi}), got {y!r}")
    if fn is BasisFunction.G1:
        return _g1_inverse(y, cfg)
    if fn is BasisFunction.G2:
        return _g2_inverse(y, cfg)
    if fn is BasisFunction.H1:
        return _h1_inverse(y, cfg)
    return _h2_inverse(y, cfg)


def scaled_inverse(fn: BasisFunction, y: float) -> float:
    """eval_inverse(fn, y) / y; undefined at y = 0."""
    if y == 0.0:
        raise DomainError("scaled inverse is undefined at y = 0")
    return eval_inverse(fn, y) / y


# ---------------------------------------------------------------------------
# auxiliary slope functions f1, f2 and the thresholds y1(c), y2(c)

def f_aux(which: str, x: float) -> float:
    """f1(x) = (coth x - x*csch^2 x)/(2x), decreasing from 1/3 to 0;
    f2(x) = (tanh x + x*sech^2 x)/(2x), decreasing from 1 to 0."""
    if x <= 0.0:
        raise DomainError(f"f_aux needs x > 0, got {x!r}")
    if which == "f1":
        if x < 0.05:
            # closed form cancels two O(1/x) terms; series from the
            # coth/csch expansions takes over
            x2 = x * x
            return 1.0 / 3.0 + x2 * (-2.0 / 45.0 + x2 * (2.0 / 315.0 - x2 * 4.0 / 4725.0))
        if x > 350.0:
            return 0.5 / x
        s = math.sinh(x)
        coth = math.cosh(x) / s
        return (coth - x / (s * s)) / (2.0 * x)
    if which == "f2":
        if x > 350.0:
            return 0.5 / x
        c = math.cosh(x)
        return (math.tanh(x) + x / (c * c)) / (2.0 * x)
    raise DomainError(f"f_aux selector must be 'f1' or 'f2', got {which!r}")


def _invert_f_aux(which: str, w: float) -> float:
    """x with f_aux(which, x) = w, by expansion in log x (f strictly decreasing)."""
    g = lambda z: f_aux(which, math.exp(z)) - w
    g0 = g(0.0)
    if g0 == 0.0:
        return 1.0
    direction = "up" if g0 > 0.0 else "down"
    bracket = expand_bracket(g, 0.0, direction=direction, growth=2.0, initial_step=0.5)
    return math.exp(solve_bracketed(g, bracket))


def threshold_y(which: str, c: float) -> float:
    """Monotonicity thresholds of the area-weighted eigenvalue profiles.

    y1(c) = 0 for c <= 3, else h1(f1^-1(1/c))/c, landing in (0, 1/2);
    y2(c) = 1/c for c <= 1, else h2(f2^-1(1/c))/c.  For c > 1 the two
    thresholds sum to less than 1.
    """
    if c <= 0.0:
        raise DomainError(f"threshold_y needs c > 0, got {c!r}")
    if which == "y1":
        if c <= 3.0:
            return 0.0
        x = _invert_f_aux("f1", 1.0 / c)
        return eval_basis(BasisFunction.H1, x) / c
    if which == "y2":
        if c <= 1.0:
            return 1.0 / c
        x = _invert_f_aux("f2", 1.0 / c)
        return eval_basis(BasisFunction.H2, x) / c
    raise DomainError(f"threshold_y selector must be 'y1' or 'y2', got {which!r}")


# ---------------------------------------------------------------------------
# critical constants

def alpha_plus() -> float:
    """The positive root of g1^-1(a/8)^2 + g2^-1(a/8)^2 = a/4, about 33.2054."""

    def resid(a):
        u = a / 8.0
        return (eval_inverse(BasisFunction.G1, u) ** 2
                + eval_inverse(BasisFunction.G2, u) ** 2
                - a / 4.0)

    lo, hi = 8.0, 100.0
    flo, fhi = resid(lo), resid(hi)
    if not flo > 0.0 > fhi:
        raise NumericalFailure("defining equation did not change sign on [8, 100]")
    return solve_bracketed(resid, RootBracket(lo, hi, flo, fhi))


def alpha_minus() -> float:
    """The root below -8 of h1^-1(|a|/8)^2 + h2^-1(|a|/8)^2 = |a|/4, about -9.3885."""

    def resid(m):
        # m = |alpha|; at m = 8 the h2 term vanishes (continuous extension)
        u = m / 8.0
        h2_term = 0.0 if u <= 1.0 else eval_inverse(BasisFunction.H2, u) ** 2
        return eval_inverse(BasisFunction.H1, u) ** 2 + h2_term - m / 4.0

    lo, hi = 8.0, 100.0
    flo, fhi = resid(lo), resid(hi)
    if not flo < 0.0 < fhi:
        raise NumericalFailure("defining equation did not change sign on [-100, -8]")
    return -solve_bracketed(resid, RootBracket(lo, hi, flo, fhi))
