"""Finite-difference eigenvalue oracle for the interval problem.

Everything here is deliberately independent of the closed-form route: the
operator is discretized on a uniform grid, eigenvalues are counted by Sturm
sequences and pinned down by bisection, and Richardson extrapolation removes
the leading h^2 error.  No transcendental inverse enters at any point, so
agreement between the two routes is meaningful evidence.

Discretization: nodes x_0 .. x_{n-1} spanning [-t, t] with spacing h.  The
Robin condition u'(-t) = alpha*u(-t) enters through a ghost node,
u_{-1} = u_1 - 2*h*alpha*u_0, and the boundary rows carry half a cell of
mass.  Symmetrizing the resulting generalized problem by the half-cell
weights yields an ordinary symmetric tridiagonal matrix:

    diag    = [(2 + 2*h*alpha)/h^2, 2/h^2, ..., 2/h^2, (2 + 2*h*alpha)/h^2]
    offdiag = [-sqrt(2)/h^2, -1/h^2, ..., -1/h^2, -sqrt(2)/h^2]

For alpha = 0 this matrix annihilates the half-weighted constant vector
exactly, so the Neumann zero mode is reproduced to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailure
from .interval import IntervalGeometry

_DEFAULT_BASE_GRID = 401
_MAX_ALPHA_H = 0.05


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal representation of the discretized problem."""

    n: int
    h: float
    diag: np.ndarray
    offdiag: np.ndarray


def discretize(geom: IntervalGeometry, alpha: float, n: int) -> DiscreteOperator:
    """Build the n-point symmetric tridiagonal operator for (-t, t)."""
    if n < 8:
        raise DomainError(f"grid size must be at least 8, got {n!r}")
    t = geom.half_length
    h = 2.0 * t / (n - 1)
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n, 2.0 * inv_h2)
    diag[0] = diag[-1] = (2.0 + 2.0 * h * alpha) * inv_h2
    offdiag = np.full(n - 1, -inv_h2)
    offdiag[0] = offdiag[-1] = -math.sqrt(2.0) * inv_h2
    return DiscreteOperator(n, h, diag, offdiag)


def _sturm_count(d0, rows, shifts, pivmin):
    """Eigenvalues below each shift: the negative pivots of the recurrence.

    ``d0`` is the first diagonal entry and ``rows`` the pairs (d_i, e_{i-1}^2)
    for i >= 1.  Works on Python floats, which round exactly as numpy
    float64 scalars do but run several times faster in this loop.
    """
    out = []
    for x in shifts:
        q = d0 - x
        if q == 0.0:
            q = -pivmin
        cnt = 1 if q < 0.0 else 0
        for di, e2 in rows:
            q = di - x - e2 / q
            if q == 0.0:
                q = -pivmin
            if q < 0.0:
                cnt += 1
        out.append(cnt)
    return out


def eigenvalues_sturm(op: DiscreteOperator, k: int, abs_tol: float = 1e-12,
                      rel_tol: float = 1e-12) -> np.ndarray:
    """The k smallest eigenvalues by Sturm counting and bisection.

    The LDL^T pivot recurrence q_i = d_i - x - e_{i-1}^2 / q_{i-1} has as
    many negative pivots as there are eigenvalues below x.  A zero pivot is
    replaced by -pivmin with pivmin = tiny * max(1, max e^2), the safe pivot
    of LAPACK's dstebz: the tie-break counts it negative, and e^2 / pivmin
    stays below 1/tiny, so the next pivot cannot overflow.
    Each eigenvalue keeps its own shrinking bracket.  At every bisection
    level the brackets' midpoints are counted, each distinct midpoint once:
    eigenvalues that still share a bracket share its midpoint, and an equal
    shift gives an equal count.
    """
    if not 1 <= k <= op.n:
        raise DomainError(f"k must be between 1 and {op.n}, got {k!r}")
    d = np.asarray(op.diag, dtype=np.float64)
    e = np.asarray(op.offdiag, dtype=np.float64)
    off2 = e * e
    pivmin = float(np.finfo(np.float64).tiny * np.max(off2, initial=1.0))

    radius = np.zeros(op.n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    glo = float(np.min(d - radius))
    ghi = float(np.max(d + radius))
    pad = 1e-8 * max(1.0, abs(glo), abs(ghi))
    glo -= pad
    ghi += pad

    d0 = float(d[0])
    rows = list(zip(d[1:].tolist(), off2.tolist()))
    below, total = _sturm_count(d0, rows, (glo, ghi), pivmin)
    if below != 0 or total < k:
        raise NumericalFailure(
            f"Sturm count inconsistency at Gershgorin bounds: {below} below, {total} total")

    idx = np.arange(k)
    lo = np.full(k, glo)
    hi = np.full(k, ghi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        tol = abs_tol + rel_tol * np.abs(mid)
        if np.all(width <= tol):
            break
        shifts, which = np.unique(mid, return_inverse=True)
        c = np.array(_sturm_count(d0, rows, shifts.tolist(), pivmin))[which]
        go_right = c <= idx
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    else:
        raise NumericalFailure("eigenvalue bisection failed to converge")
    return 0.5 * (lo + hi)


def _grid_size_for(geom: IntervalGeometry, alpha: float, base_n: int) -> int:
    """Grid large enough that |alpha|*h stays below the accuracy threshold."""
    need = int(math.ceil(2.0 * geom.half_length * abs(alpha) / _MAX_ALPHA_H)) + 1
    return max(base_n, need)


def oracle_eigs(geom: IntervalGeometry, alpha: float, k: int,
                base_n: int = _DEFAULT_BASE_GRID) -> tuple[np.ndarray, float]:
    """Extrapolated k lowest eigenvalues plus a crude error estimate.

    Three nested grids (n, 2n-1, 4n-3 share every coarse node) give two
    h^2-eliminations; the spread between them before the final combination
    serves as the error estimate.
    """
    if k < 1 or k > 10:
        raise DomainError(f"oracle supports 1 <= k <= 10, got {k!r}")
    n0 = _grid_size_for(geom, alpha, base_n)
    lam = []
    for n in (n0, 2 * n0 - 1, 4 * n0 - 3):
        op = discretize(geom, alpha, n)
        lam.append(eigenvalues_sturm(op, k))
    r1 = (4.0 * lam[1] - lam[0]) / 3.0
    r2 = (4.0 * lam[2] - lam[1]) / 3.0
    values = (16.0 * r2 - r1) / 15.0
    err_estimate = float(np.max(np.abs(r2 - r1)))
    return values, err_estimate
