"""Robin spectrum of the symmetric interval (-t, t).

Eigenfunctions split by parity.  Writing the eigenvalue as -rho^2, 0 or
+rho^2, the boundary condition turns into one transcendental equation per
parity and sign class:

    even, negative:   rho*t * tanh(rho*t) = -alpha*t      (alpha < 0)
    even, positive:   rho*t * tan(rho*t)  =  alpha*t
    odd,  negative:   rho*t * coth(rho*t) = -alpha*t      (alpha < -1/t)
    odd,  positive:  -rho*t * cot(rho*t)  =  alpha*t

plus a zero mode at alpha = 0 (even) and alpha = -1/t (odd).  The principal
branches give the first eigenvalue of each parity; higher branches of
x*tan(x) and -x*cot(x) each carry exactly one root and supply the rest of
the spectrum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .basisfn import BasisFunction, eval_inverse
from .errors import DomainError, NumericalFailure
from .rootfind import RootBracket, solve_bracketed

_MIN_HALF_LENGTH = 1e-12


@dataclass(frozen=True)
class IntervalGeometry:
    """The interval (-t, t); ``half_length`` is t."""

    half_length: float

    def __post_init__(self):
        t = self.half_length
        if not (isinstance(t, (int, float)) and math.isfinite(t)) or t <= 0.0:
            raise DomainError(f"half_length must be a positive finite number, got {t!r}")
        if t < _MIN_HALF_LENGTH:
            raise DomainError(f"half_length {t!r} below {_MIN_HALF_LENGTH} is numerically degenerate")
        object.__setattr__(self, "half_length", float(t))

    @property
    def diameter(self) -> float:
        return 2.0 * self.half_length


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class SignClass(enum.Enum):
    NEGATIVE = "negative"
    ZERO = "zero"
    POSITIVE = "positive"


@dataclass(frozen=True)
class ModeDescriptor:
    parity: Parity
    sign_class: SignClass
    branch: int
    rho: float

    @property
    def eigenvalue(self) -> float:
        if self.sign_class is SignClass.NEGATIVE:
            return -self.rho * self.rho
        if self.sign_class is SignClass.ZERO:
            return 0.0
        return self.rho * self.rho

    def tag(self) -> str:
        return f"{self.parity.value}/{self.sign_class.value}/branch{self.branch}"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with their mode descriptors, ascending."""

    entries: tuple

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def values(self) -> list[float]:
        return [v for v, _ in self.entries]

    @property
    def modes(self) -> list[ModeDescriptor]:
        return [m for _, m in self.entries]


def lambda1_interval(geom: IntervalGeometry, alpha: float) -> float:
    """First Robin eigenvalue of (-t, t)."""
    t = geom.half_length
    if alpha > 0.0:
        x = eval_inverse(BasisFunction.G1, alpha * t)
        return (x / t) ** 2
    if alpha == 0.0:
        return 0.0
    x = eval_inverse(BasisFunction.H1, -alpha * t)
    return -((x / t) ** 2)


def lambda2_interval(geom: IntervalGeometry, alpha: float) -> float:
    """Second Robin eigenvalue of (-t, t); vanishes exactly at alpha = -1/t."""
    t = geom.half_length
    y = alpha * t
    if y > -1.0:
        x = eval_inverse(BasisFunction.G2, y)  # y = 0 gives pi/2 exactly
        return (x / t) ** 2
    if y == -1.0:
        return 0.0
    x = eval_inverse(BasisFunction.H2, -y)
    return -((x / t) ** 2)


def gap_interval(geom: IntervalGeometry, alpha: float) -> float:
    """Spectral gap lambda2 - lambda1, evaluated without cancellation.

    For alpha < -1/t both eigenvalues approach -alpha^2 exponentially fast
    and their direct difference dies in floating point long before the true
    gap reaches zero.  With a = h1^-1(z), b = h2^-1(z), z = -alpha*t, the
    defining equations give a = z*coth(a) and b = z*tanh(b), hence

        a - b = z*(coth a - tanh b)
              = 2z*(exp(-2b) + exp(-2a)) / ((1 - exp(-2a))*(1 + exp(-2b)))

    which is exact and free of cancellation, so the gap (a^2-b^2)/t^2 =
    (a+b)(a-b)/t^2 keeps its digits far past the point where the direct
    difference is zero.  It is not positive all the way down: exp(-2a)
    underflows once alpha*t drops below about -372.6, and the gap then
    returns 0.0, although the true gap stays a positive subnormal (about
    2.6e-318 at -372.6) down to about alpha*t = -379.5.
    """
    t = geom.half_length
    y = alpha * t
    if y > 0.0:
        x1 = eval_inverse(BasisFunction.G1, y)
        x2 = eval_inverse(BasisFunction.G2, y)
        return (x2 * x2 - x1 * x1) / (t * t)
    if y == 0.0:
        return (0.5 * math.pi / t) ** 2
    if y > -1.0:
        x1 = eval_inverse(BasisFunction.H1, -y)
        x2 = eval_inverse(BasisFunction.G2, y)
        return (x2 * x2 + x1 * x1) / (t * t)
    if y == -1.0:
        x1 = eval_inverse(BasisFunction.H1, 1.0)
        return (x1 * x1) / (t * t)
    z = -y
    a = eval_inverse(BasisFunction.H1, z)
    b = eval_inverse(BasisFunction.H2, z)
    ea = math.exp(-2.0 * a)
    eb = math.exp(-2.0 * b)
    a_minus_b = 2.0 * z * (ea + eb) / ((1.0 - ea) * (1.0 + eb))
    return (a + b) * a_minus_b / (t * t)


def _branch_root(kind: Parity, m: int, y: float) -> float:
    """Root of the branch-m positive-mode equation at boundary data y.

    Even modes solve x*tan(x) = y on ((m-1/2)pi, (m+1/2)pi); odd modes solve
    -x*cot(x) = y on (m*pi, (m+1)*pi).  Both functions sweep (-inf, +inf)
    across their branch, so a root always exists; the bracket creeps toward
    the poles until it straddles the sign change.
    """
    if kind is Parity.EVEN:
        lo_pole = (m - 0.5) * math.pi
        hi_pole = (m + 0.5) * math.pi
        f = lambda x: x * math.tan(x) - y
    else:
        lo_pole = m * math.pi
        hi_pole = (m + 1.0) * math.pi
        f = lambda x: -x * math.cos(x) / math.sin(x) - y

    d = 1e-9 * math.pi
    lo, flo = lo_pole + d, f(lo_pole + d)
    for _ in range(24):
        if math.isfinite(flo) and flo < 0.0:
            break
        d /= 16.0
        lo, flo = lo_pole + d, f(lo_pole + d)
    else:
        raise NumericalFailure(f"cannot bracket branch {m} below (y={y})")

    d = 1e-9 * math.pi
    hi, fhi = hi_pole - d, f(hi_pole - d)
    for _ in range(24):
        if math.isfinite(fhi) and fhi > 0.0:
            break
        d /= 16.0
        hi, fhi = hi_pole - d, f(hi_pole - d)
    else:
        raise NumericalFailure(f"cannot bracket branch {m} above (y={y})")

    return solve_bracketed(f, RootBracket(lo, hi, flo, fhi))


def _parity_modes(parity: Parity, geom: IntervalGeometry, alpha: float,
                  count: int) -> list[tuple[float, ModeDescriptor]]:
    """First ``count`` modes of one parity, ascending."""
    t = geom.half_length
    y = alpha * t
    out = []

    # ground mode of this parity
    if parity is Parity.EVEN:
        if alpha < 0.0:
            x = eval_inverse(BasisFunction.H1, -y)
            out.append((-((x / t) ** 2), ModeDescriptor(parity, SignClass.NEGATIVE, 0, x / t)))
        elif alpha == 0.0:
            out.append((0.0, ModeDescriptor(parity, SignClass.ZERO, 0, 0.0)))
        else:
            x = eval_inverse(BasisFunction.G1, y)
            out.append(((x / t) ** 2, ModeDescriptor(parity, SignClass.POSITIVE, 0, x / t)))
    else:
        if y < -1.0:
            x = eval_inverse(BasisFunction.H2, -y)
            out.append((-((x / t) ** 2), ModeDescriptor(parity, SignClass.NEGATIVE, 0, x / t)))
        elif y == -1.0:
            out.append((0.0, ModeDescriptor(parity, SignClass.ZERO, 0, 0.0)))
        else:
            x = eval_inverse(BasisFunction.G2, y)
            out.append(((x / t) ** 2, ModeDescriptor(parity, SignClass.POSITIVE, 0, x / t)))

    for m in range(1, count):
        x = _branch_root(parity, m, y)
        out.append(((x / t) ** 2, ModeDescriptor(parity, SignClass.POSITIVE, m, x / t)))
    return out


def spectrum_interval(geom: IntervalGeometry, alpha: float, k: int) -> Spectrum:
    """The k lowest eigenvalues with parity/branch bookkeeping."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k!r}")
    per_parity = (k + 1) // 2 + 2
    modes = _parity_modes(Parity.EVEN, geom, alpha, per_parity)
    modes += _parity_modes(Parity.ODD, geom, alpha, per_parity)
    modes.sort(key=lambda pair: pair[0])
    return Spectrum(tuple(modes[:k]))
