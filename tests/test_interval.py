"""Closed-form interval eigenvalues: exact special points, scaling, parity."""

import math

import pytest

from robinbox import (
    BasisFunction,
    DomainError,
    IntervalGeometry,
    Parity,
    eval_inverse,
    gap_interval,
    lambda1_interval,
    lambda2_interval,
    spectrum_interval,
)

HALF_PI = 0.5 * math.pi


def test_geometry_validation():
    with pytest.raises(DomainError):
        IntervalGeometry(0.0)
    with pytest.raises(DomainError):
        IntervalGeometry(-1.0)
    g = IntervalGeometry(1.5)
    assert g.diameter == 3.0


def test_neumann_point_is_exact():
    g = IntervalGeometry(1.0)
    assert lambda1_interval(g, 0.0) == 0.0
    assert lambda2_interval(g, 0.0) == HALF_PI ** 2


def test_lambda2_vanishes_exactly_at_reciprocal_coupling():
    assert lambda2_interval(IntervalGeometry(2.0), -0.5) == 0.0
    assert lambda2_interval(IntervalGeometry(0.25), -4.0) == 0.0


def test_sign_of_lambda1():
    g = IntervalGeometry(0.7)
    assert lambda1_interval(g, 2.0) > 0.0
    assert lambda1_interval(g, -2.0) < 0.0
    assert lambda1_interval(g, 0.0) == 0.0


def test_reduces_to_basis_inverse():
    # t = 2, alpha = 0.5 puts the product at exactly 1, the frozen reference
    lam = lambda1_interval(IntervalGeometry(2.0), 0.5)
    x = eval_inverse(BasisFunction.G1, 1.0)
    assert abs(lam - (x / 2.0) ** 2) < 1e-15


def test_scaling_law():
    """lambda(t; alpha) = lambda(1; alpha*t) / t^2 for both eigenvalues."""
    unit = IntervalGeometry(1.0)
    for t in (0.3, 2.0, 7.0):
        g = IntervalGeometry(t)
        for a in (-3.0, -0.4, 0.8, 5.0):
            for f in (lambda1_interval, lambda2_interval):
                lhs = f(g, a)
                rhs = f(unit, a * t) / (t * t)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_dirichlet_proxy():
    lam = lambda1_interval(IntervalGeometry(1.0), 1e8)
    assert abs(lam / HALF_PI ** 2 - 1.0) < 1e-6


def test_deep_negative_coupling():
    lam = lambda1_interval(IntervalGeometry(1.0), -30.0)
    assert abs(lam / -900.0 - 1.0) < 1e-8


def test_gap_matches_direct_difference_when_safe():
    for t, a in ((1.0, 2.0), (0.5, -1.5), (3.0, -0.2), (2.0, 0.0)):
        g = IntervalGeometry(t)
        direct = lambda2_interval(g, a) - lambda1_interval(g, a)
        gap = gap_interval(g, a)
        assert abs(gap - direct) <= 1e-12 * max(1.0, abs(direct))


def test_gap_survives_cancellation():
    # at alpha*t = -20 both eigenvalues agree to ~17 digits and the direct
    # difference is numerically dead, yet the true gap is ~3e-16
    g = IntervalGeometry(1.0)
    gap = gap_interval(g, -20.0)
    assert 0.0 < gap < 1e-12
    direct = lambda2_interval(g, -20.0) - lambda1_interval(g, -20.0)
    assert abs(direct) < 1e-12  # the direct route has nothing left


def test_gap_positive_everywhere_sampled():
    for t in (0.5, 1.0, 4.0):
        g = IntervalGeometry(t)
        for a in (-40.0, -5.0, -1.0 / t, 0.0, 1.0, 60.0):
            assert gap_interval(g, a) > 0.0


def test_gap_is_zero_once_the_exponentials_underflow():
    # at -1e308, a + b overflows to inf while a - b is 0
    g = IntervalGeometry(1.0)
    for a in (-380.0, -1e10, -1e308):
        assert gap_interval(g, a) == 0.0


def test_lambda1_where_alpha_t_underflows():
    """alpha*t = 1e-332 underflows to 0, but lambda1 ~ alpha/t = 1e-308 does not."""
    g = IntervalGeometry(1e-12)
    for a in (1e-320, -1e-320):
        lam = lambda1_interval(g, a)
        assert lam == a / 1e-12
        assert spectrum_interval(g, a, 3).values[0] == lam


def test_spectrum_neumann_multiples():
    vals = spectrum_interval(IntervalGeometry(1.0), 0.0, 6).values
    for j, v in enumerate(vals):
        assert abs(v - (j * HALF_PI) ** 2) <= 1e-12 * max(1.0, (j * HALF_PI) ** 2)
    assert vals[0] == 0.0


def test_spectrum_alternates_parity():
    sp = spectrum_interval(IntervalGeometry(1.3), 0.9, 6)
    # symmetric and antisymmetric modes interleave strictly
    for i, mode in enumerate(sp.modes):
        want = Parity.EVEN if i % 2 == 0 else Parity.ODD
        assert mode.parity is want
        assert mode.tag().startswith(want.value)
    vals = sp.values
    assert all(vals[i] < vals[i + 1] for i in range(5))


def test_spectrum_head_matches_scalar_entry_points():
    g = IntervalGeometry(0.8)
    for a in (-2.0, 0.0, 3.0):
        sp = spectrum_interval(g, a, 2)
        assert abs(sp.values[0] - lambda1_interval(g, a)) < 1e-13
        assert abs(sp.values[1] - lambda2_interval(g, a)) < 1e-13


def test_spectrum_rejects_bad_count():
    with pytest.raises(DomainError):
        spectrum_interval(IntervalGeometry(1.0), 1.0, 0)


def test_spectrum_next_to_the_pole():
    """Past |alpha*t| ~ 3e16 the branch roots sit within an ulp of a pole.

    Positive coupling tends to the Dirichlet spectrum (j*pi/(2t))^2, j >= 1;
    negative coupling puts two modes near -alpha^2 below it.
    """
    for t in (1.0, 2.5):
        geom = IntervalGeometry(t)
        dirichlet = [(j * math.pi / (2.0 * t)) ** 2 for j in range(1, 5)]
        for e in range(17, 301, 7):
            vals = spectrum_interval(geom, 10.0 ** e / t, 4).values
            for v, d in zip(vals, dirichlet):
                assert abs(v / d - 1.0) <= 1e-14
        for e in range(16, 151, 7):
            vals = spectrum_interval(geom, -(10.0 ** e) / t, 4).values
            assert vals[0] < 0.0 and vals[1] < 0.0
            for v, d in zip(vals[2:], dirichlet):
                assert abs(v / d - 1.0) <= 1e-14
