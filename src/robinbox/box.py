"""Rectangular boxes: products of intervals.

Separation of variables writes every eigenvalue of the box
prod_j (-w_j, w_j) as a sum of one-dimensional eigenvalues, one per axis.
The ground state stacks the first interval eigenvalue on every axis.  The
second eigenvalue promotes exactly one axis to its second mode, and the
cheapest promotion is along the longest axis, so

    lambda1(B) = sum_j lambda1(I(w_j))
    lambda2(B) = lambda2(I(w_max)) + sum_{j != max} lambda1(I(w_j))

and the gap of the box equals the gap of its longest axis interval.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import AlphaZero, DimensionError, DomainError, NumericalFailure
from .interval import (IntervalGeometry, ModeDescriptor, Spectrum, gap_interval,
                       lambda1_interval, lambda2_interval, spectrum_interval)
from .rootfind import RootBracket, solve_bracketed


@dataclass(frozen=True)
class BoxGeometry:
    """Axis-aligned box prod_j (-w_j, w_j) given by its half-widths."""

    half_widths: tuple

    def __post_init__(self):
        ws = tuple(float(w) for w in self.half_widths)
        if not ws:
            raise DomainError("a box needs at least one axis")
        for w in ws:
            IntervalGeometry(w)  # validates positivity and degeneracy cutoff
        object.__setattr__(self, "half_widths", ws)

    @property
    def dim(self) -> int:
        return len(self.half_widths)

    @property
    def volume(self) -> float:
        v = 1.0
        for w in self.half_widths:
            v *= 2.0 * w
        return v

    @property
    def surface(self) -> float:
        """Total boundary measure; needs at least two dimensions."""
        if self.dim < 2:
            raise DimensionError("surface area needs dimension >= 2")
        v = self.volume
        return sum(v / w for w in self.half_widths)

    @property
    def perimeter(self) -> float:
        if self.dim != 2:
            raise DimensionError(f"perimeter is a planar notion, box has dimension {self.dim}")
        return 4.0 * (self.half_widths[0] + self.half_widths[1])

    @property
    def diameter(self) -> float:
        return 2.0 * math.sqrt(sum(w * w for w in self.half_widths))

    @property
    def longest_axis(self) -> int:
        """Index of the widest axis (first one on ties)."""
        ws = self.half_widths
        return max(range(len(ws)), key=lambda j: (ws[j], -j))

    def scaled(self, factor: float) -> "BoxGeometry":
        if not (factor > 0.0 and math.isfinite(factor)):
            raise DomainError(f"scale factor must be positive and finite, got {factor!r}")
        return BoxGeometry(tuple(factor * w for w in self.half_widths))


@dataclass(frozen=True)
class BoxMode:
    """One box eigenfunction: a one-dimensional mode on each axis."""

    axis_modes: tuple

    @property
    def eigenvalue(self) -> float:
        return sum(m.eigenvalue for m in self.axis_modes)

    def tag(self) -> str:
        return " x ".join(m.tag() for m in self.axis_modes)


def lambda1_box(geom: BoxGeometry, alpha: float) -> float:
    return sum(lambda1_interval(IntervalGeometry(w), alpha) for w in geom.half_widths)


def lambda2_box(geom: BoxGeometry, alpha: float) -> float:
    jmax = geom.longest_axis
    total = lambda2_interval(IntervalGeometry(geom.half_widths[jmax]), alpha)
    for j, w in enumerate(geom.half_widths):
        if j != jmax:
            total += lambda1_interval(IntervalGeometry(w), alpha)
    return total


def gap_box(geom: BoxGeometry, alpha: float) -> float:
    """Spectral gap of the box: the gap of its longest axis interval.

    The verify suite checks it against the direct difference lambda2 - lambda1.
    """
    return gap_interval(IntervalGeometry(geom.half_widths[geom.longest_axis]), alpha)


def spectrum_box(geom: BoxGeometry, alpha: float, k: int) -> Spectrum:
    """The k lowest box eigenvalues by lazy merge over axis spectra.

    Candidates are multi-indices into the per-axis spectra; since every
    one-dimensional spectrum is strictly increasing, the k lowest sums use
    at most the first k modes of each axis.  A heap explores successors of
    popped indices, breaking value ties lexicographically.
    """
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k!r}")
    axes = [spectrum_interval(IntervalGeometry(w), alpha, k).entries
            for w in geom.half_widths]
    n = len(axes)

    def value_of(idx):
        return sum(axes[j][idx[j]][0] for j in range(n))

    start = (0,) * n
    heap = [(value_of(start), start)]
    seen = {start}
    out = []
    while heap and len(out) < k:
        val, idx = heapq.heappop(heap)
        out.append((val, BoxMode(tuple(axes[j][idx[j]][1] for j in range(n)))))
        for j in range(n):
            if idx[j] + 1 < k:
                nxt = idx[:j] + (idx[j] + 1,) + idx[j + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (value_of(nxt), nxt))
    return Spectrum(tuple(out))


def ratio_box(geom: BoxGeometry, alpha: float) -> float:
    """lambda2 / |lambda1|; undefined at alpha = 0 where lambda1 vanishes."""
    if alpha == 0.0:
        raise AlphaZero("eigenvalue ratio is undefined at alpha = 0 (lambda1 = 0)")
    return lambda2_box(geom, alpha) / abs(lambda1_box(geom, alpha))


def steklov_sigma1(geom: BoxGeometry) -> float:
    """First nontrivial Steklov-type constant: the -alpha where lambda2 hits 0.

    lambda2(B; alpha) is strictly increasing in alpha and crosses zero at a
    single negative value; sigma1 is its negation.  In one dimension that
    crossing sits exactly at alpha = -1/t.
    """
    if geom.dim == 1:
        return 1.0 / geom.half_widths[0]
    f = lambda a: lambda2_box(geom, a)
    hi = -1e-8 / max(geom.half_widths)
    fhi = f(hi)
    # On a thin box the thin axis's lambda1 ~ alpha/w_min already outweighs
    # the long axis's lambda2 at hi.  Halve hi toward 0 until lambda2 > 0.
    while fhi <= 0.0:
        hi *= 0.5
        if hi * min(geom.half_widths) == 0.0:
            raise NumericalFailure(f"sigma1 is too small to resolve for {geom.half_widths!r}")
        fhi = f(hi)
    lo = -4.0 / min(geom.half_widths)
    flo = f(lo)
    for _ in range(60):
        if flo < 0.0:
            break
        lo *= 2.0
        flo = f(lo)
    else:
        raise NumericalFailure(f"could not bracket the lambda2 zero crossing for {geom.half_widths!r}")
    return -solve_bracketed(f, RootBracket(lo, hi, flo, fhi))


_SCALED_KINDS = ("perim_lambda1", "perim_lambda2", "vol_lambda1", "vol_lambda2",
                 "linear_bound_lhs")


def scaled_quantity(geom: BoxGeometry, alpha: float, kind: str) -> float:
    """Scale-invariant spectral functionals.

    perim_*:  eigenvalues at coupling alpha/L, times the area (planar only).
    vol_*:    eigenvalues at coupling alpha/V^(1/n), times V^(2/n).
    linear_bound_lhs:  V^(2/n) * lambda1 at coupling alpha*V^(1-2/n)/S,
                       the left side of the linear-in-alpha upper bound.
    """
    if kind not in _SCALED_KINDS:
        raise DomainError(f"unknown scaled quantity {kind!r}; expected one of {_SCALED_KINDS}")
    n = geom.dim
    if kind.startswith("perim_"):
        if n != 2:
            raise DimensionError(f"{kind} is defined for rectangles only, box has dimension {n}")
        L = geom.perimeter
        A = geom.volume
        func = lambda1_box if kind.endswith("lambda1") else lambda2_box
        return func(geom, alpha / L) * A
    V = geom.volume
    if kind.startswith("vol_"):
        func = lambda1_box if kind.endswith("lambda1") else lambda2_box
        return func(geom, alpha / V ** (1.0 / n)) * V ** (2.0 / n)
    S = geom.surface  # raises DimensionError in dimension 1
    eff = alpha * V ** (1.0 - 2.0 / n) / S
    return lambda1_box(geom, eff) * V ** (2.0 / n)
