"""Basis functions and their inverses against frozen bisection references.

Every frozen constant below was produced by a 200-step pure bisection on the
defining equation, independent of the package's own solver.
"""

import math
import sys

import pytest

from robinbox import (
    BasisFunction,
    DomainError,
    alpha_minus,
    alpha_plus,
    eval_basis,
    eval_inverse,
    f_aux,
    scaled_inverse,
    threshold_y,
)
from robinbox.basisfn import branch_root

G1 = BasisFunction.G1
G2 = BasisFunction.G2
H1 = BasisFunction.H1
H2 = BasisFunction.H2

# frozen pure-bisection roots of the four defining equations
G1_INV_AT_1 = 0.8603335890193797   # x tan x = 1
G2_INV_AT_1 = 2.028757838110434    # -x cot x = 1
H1_INV_AT_1 = 1.199678640257734    # x tanh x = 1
H2_INV_AT_2 = 1.9150080481545375   # x coth x = 2

# frozen pure-bisection roots of the critical-constant equations
ALPHA_PLUS = 33.20541589678718
ALPHA_MINUS = -9.388460249426153

# frozen thresholds at c = 10 (bisection on f1, f2 then forward evaluation)
Y1_AT_10 = 0.49954262444552333
Y2_AT_10 = 0.5004506964612373


def test_forward_values():
    assert abs(eval_basis(G1, 0.5) - 0.5 * math.tan(0.5)) < 1e-15
    assert abs(eval_basis(G2, 2.0) + 2.0 / math.tan(2.0)) < 1e-15
    assert abs(eval_basis(H1, 1.0) - math.tanh(1.0)) < 1e-15
    assert abs(eval_basis(H2, 1.0) - 1.0 / math.tanh(1.0)) < 1e-15
    assert eval_basis(H1, 0.0) == 0.0
    assert eval_basis(H2, 0.0) == 1.0  # continuous extension


def test_forward_near_pole_is_finite():
    # x tan x just below pi/2 overflows naively; the guarded form must not
    x = 0.5 * math.pi - 1e-12
    v = eval_basis(G1, x)
    assert math.isfinite(v) and v > 1e11
    v = eval_basis(G2, math.pi - 1e-12)
    assert math.isfinite(v) and v > 1e11


def test_forward_domain_errors():
    for fn, x in ((G1, 0.0), (G1, 0.5 * math.pi), (G2, 0.0), (G2, math.pi),
                  (H1, -0.1), (H2, -0.1)):
        with pytest.raises(DomainError):
            eval_basis(fn, x)


def test_frozen_inverse_values():
    assert abs(eval_inverse(G1, 1.0) - G1_INV_AT_1) < 5e-13
    assert abs(eval_inverse(G2, 1.0) - G2_INV_AT_1) < 5e-13
    assert abs(eval_inverse(H1, 1.0) - H1_INV_AT_1) < 5e-13
    assert abs(eval_inverse(H2, 2.0) - H2_INV_AT_2) < 5e-13


def test_inverse_special_points():
    # -x cot x vanishes exactly at pi/2, so the inverse of 0 is dispatched
    assert eval_inverse(G2, 0.0) == 0.5 * math.pi


def test_roundtrips():
    for fn, ys in ((G1, (0.01, 0.5, 3.0, 40.0)),
                   (G2, (-0.9, -0.3, 0.5, 7.0)),
                   (H1, (0.02, 1.3, 12.0)),
                   (H2, (1.0 + 1e-6, 1.7, 9.0))):
        for y in ys:
            x = eval_inverse(fn, y)
            assert abs(eval_basis(fn, x) - y) <= 1e-10 * max(1.0, abs(y))


def test_g1_inverse_tiny_y():
    """Below 1e-15 the series sqrt(y)*(1 - y/6) answers; it round-trips exactly."""
    for k in range(3001):
        y = 10.0 ** (-300.0 + 285.0 * k / 3000)
        x = eval_inverse(G1, y)
        assert abs(eval_basis(G1, x) - y) <= 1e-15 * y


def test_h1_inverse_tiny_y():
    """Below 1e-15 the series sqrt(y)*(1 + y/6) answers; it round-trips exactly.

    The bracketed solve once returned about y there, when sqrt(y) fell below
    the solver's former absolute tolerance, so lambda1 at alpha*t = -1e-27
    was -1e-54/t^2.
    """
    for k in range(3000):
        y = 10.0 ** (-300.0 + 285.0 * k / 3000)
        x = eval_inverse(H1, y)
        assert abs(eval_basis(H1, x) - y) <= 1e-15 * y


def test_g2_inverse_tiny_negative_y():
    """Above about -9.6e-17 the root pi/2 + 2y/pi rounds to HALF_PI."""
    half_pi = 0.5 * math.pi
    for y in (-1e-300, -1e-20, -1e-17, -9e-17):
        assert eval_inverse(G2, y) == half_pi


def _bisect(g, lo, hi):
    """Root of the increasing g on [lo, hi], to 1e-25 (at 50 digits)."""
    while hi - lo > 1e-25:
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _reference_branch_root(mpmath, c, y):
    """50-digit bisection of (c + u)*tan(u) = y on u in (max(-c, -pi/2), pi/2)."""
    with mpmath.workdps(50):
        c, y = mpmath.mpf(c), mpmath.mpf(y)
        u = _bisect(lambda u: (c + u) * mpmath.tan(u) - y, max(-c, -mpmath.pi / 2),
                    mpmath.pi / 2)
        return float(c + u)


_YS = [10.0 ** (k / 2 - 12) for k in range(49)]  # 1e-12 .. 1e12


def test_branch_roots_match_50_digit_reference():
    """Branches 0-5 of x*tan(x) and -x*cot(x) over |y| in [1e-12, 1e12].

    Branch 0 is the G1 inverse for y > 0 and the G2 inverse down to
    y = -0.999; the rest of (-1, 0) is ill-conditioned in y.  At -0.999
    itself G2 loses about 2.4e3 eps to cancellation in x*cot(x) near the
    branch point, so only that point keeps an absolute 1e-13 allowance.
    """
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    ys = [s * y for y in _YS for s in (1.0, -1.0)]
    for m in range(6):
        for shift in (0.0, 0.5):
            exact_c = (mpmath.mpf(m) + shift) * mpmath.pi
            for y in ys + [-0.999]:
                if m == 0 and shift == 0.0:
                    if y < 0.0:
                        continue
                    x = eval_inverse(G1, y)
                elif m == 0:
                    if y < -0.999:
                        continue
                    x = eval_inverse(G2, y)
                else:
                    x = branch_root((m + shift) * math.pi, y)
                ref = _reference_branch_root(mpmath, exact_c, y)
                slack = 1e-13 if (m, shift, y) == (0, 0.5, -0.999) else 0.0
                assert abs(x - ref) <= slack + 8.0 * eps * abs(ref), (m, shift, y)


@pytest.mark.parametrize("fn, ys", [(H1, _YS), (H2, [y for y in _YS if y >= 1.2] + [1.2])])
def test_hyperbolic_inverses_match_50_digit_reference(fn, ys):
    """H1 over [1e-12, 1e12] and H2 over [1.2, 1e12], each within 4 ulp."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for y in ys:
            my = mpmath.mpf(y)
            if fn is H1:
                ref = _bisect(lambda x: x * mpmath.tanh(x) - my, mpmath.mpf(0), my + 2)
            else:
                ref = _bisect(lambda x: x / mpmath.tanh(x) - my, my - 1, my)
            x = eval_inverse(fn, y)
            assert abs(x - ref) <= 4.0 * math.ulp(float(ref)), (fn, y)


def test_inverse_domain_errors():
    with pytest.raises(DomainError):
        eval_inverse(G1, -0.5)
    with pytest.raises(DomainError):
        eval_inverse(G2, -1.0)
    with pytest.raises(DomainError):
        eval_inverse(H1, -0.2)
    with pytest.raises(DomainError):
        eval_inverse(H2, 1.0)  # range of x coth x starts strictly above 1


def test_scaled_inverse_monotonicity_spot():
    """G1 falls, H2 rises; one pair of points each is enough at unit level."""
    assert scaled_inverse(G1, 0.5) > scaled_inverse(G1, 2.0)
    assert scaled_inverse(H2, 1.5) < scaled_inverse(H2, 4.0)
    with pytest.raises(DomainError):
        scaled_inverse(G1, 0.0)


def test_enum_methods_delegate():
    assert G1.domain == (0.0, 0.5 * math.pi)
    assert H2.codomain[0] == 1.0


def test_f_aux_limits_and_order():
    # f1 starts at 1/3, f2 at 1, both decay like 1/(2x)
    assert abs(f_aux("f1", 1e-6) - 1.0 / 3.0) < 1e-9
    assert abs(f_aux("f2", 1e-6) - 1.0) < 1e-9
    for x in (0.5, 2.0, 10.0):
        assert f_aux("f1", x) < f_aux("f2", x)
    assert abs(500.0 * f_aux("f1", 500.0) - 0.5) < 1e-12
    assert abs(500.0 * f_aux("f2", 500.0) - 0.5) < 1e-12
    with pytest.raises(DomainError):
        f_aux("f1", 0.0)
    with pytest.raises(DomainError):
        f_aux("f3", 1.0)


def test_f_aux_series_joins_closed_form():
    # the series branch hands over at x = 0.05; both sides must agree there
    lo = f_aux("f1", 0.05 - 1e-12)
    hi = f_aux("f1", 0.05 + 1e-12)
    assert abs(lo - hi) < 1e-12


def test_thresholds():
    assert threshold_y("y1", 2.5) == 0.0
    assert threshold_y("y1", 3.0) == 0.0
    assert threshold_y("y2", 0.5) == 2.0
    assert abs(threshold_y("y1", 10.0) - Y1_AT_10) < 1e-12
    assert abs(threshold_y("y2", 10.0) - Y2_AT_10) < 1e-12
    assert threshold_y("y1", 10.0) + threshold_y("y2", 10.0) < 1.0
    with pytest.raises(DomainError):
        threshold_y("y1", 0.0)
    with pytest.raises(DomainError):
        threshold_y("y9", 1.0)


def test_critical_constants_frozen():
    assert abs(alpha_plus() - ALPHA_PLUS) < 1e-9
    assert abs(alpha_minus() - ALPHA_MINUS) < 1e-9
