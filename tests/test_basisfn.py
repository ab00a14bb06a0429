"""Basis functions and their inverses against frozen bisection references.

Every frozen constant below was produced by a 200-step pure bisection on the
defining equation, independent of the package's own solver.
"""

import math

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
