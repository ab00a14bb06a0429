"""Box spectra by separation of variables, Steklov constant, scaled functionals."""

import math

import pytest

from robinbox import (
    AlphaZero,
    BoxGeometry,
    DimensionError,
    DomainError,
    IntervalGeometry,
    NumericalFailure,
    gap_box,
    gap_interval,
    lambda1_box,
    lambda1_interval,
    lambda2_box,
    ratio_box,
    scaled_quantity,
    spectrum_box,
    spectrum_interval,
    steklov_sigma1,
)

# frozen references computed by pure bisection on the defining equations
SIGMA1_SQUARE_SIDE2 = 0.6882527423362674
TANH_COT_ROOT = 0.9375520343559807


def test_geometry_validation():
    with pytest.raises(DomainError):
        BoxGeometry(())
    with pytest.raises(DomainError):
        BoxGeometry((1.0, 0.0))
    with pytest.raises(DomainError):
        BoxGeometry((1.0, -2.0))
    g = BoxGeometry((1.5, 0.5))
    assert g.dim == 2
    assert g.volume == 3.0
    assert g.perimeter == 8.0
    assert abs(g.diameter - math.sqrt(10.0)) < 1e-15


def test_surface_and_perimeter_dimension_rules():
    with pytest.raises(DimensionError):
        BoxGeometry((1.0,)).surface
    with pytest.raises(DimensionError):
        BoxGeometry((1.0, 1.0, 1.0)).perimeter
    assert BoxGeometry((1.0, 2.0, 0.5)).surface == 2 * (2 * 4 + 2 * 1 + 4 * 1)


def test_lambda1_is_sum_of_axis_values():
    for ws in ((1.0, 0.5), (2.0, 1.0, 0.7)):
        geom = BoxGeometry(ws)
        for a in (-2.0, 0.0, 1.3):
            want = sum(lambda1_interval(IntervalGeometry(w), a) for w in ws)
            assert abs(lambda1_box(geom, a) - want) <= 1e-13 * max(1.0, abs(want))


def test_gap_comes_from_longest_axis():
    geom = BoxGeometry((2.0, 0.5))
    for a in (-1.0, 0.4, 6.0):
        want = gap_interval(IntervalGeometry(2.0), a)
        assert abs(gap_box(geom, a) - want) <= 1e-12 * max(1.0, abs(want))
        direct = lambda2_box(geom, a) - lambda1_box(geom, a)
        assert abs(gap_box(geom, a) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_permutation_invariance():
    a, b = BoxGeometry((1.0, 2.0, 3.0)), BoxGeometry((3.0, 1.0, 2.0))
    for alpha in (-1.5, 0.0, 2.0):
        assert abs(lambda1_box(a, alpha) - lambda1_box(b, alpha)) < 1e-12
        assert abs(lambda2_box(a, alpha) - lambda2_box(b, alpha)) < 1e-12


def test_scaling_law():
    geom = BoxGeometry((1.0, 0.5))
    for c in (0.5, 3.0):
        for alpha in (-2.0, 1.0):
            lhs = lambda1_box(geom.scaled(c), alpha)
            rhs = lambda1_box(geom, c * alpha) / (c * c)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_spectrum_against_brute_force():
    geom = BoxGeometry((2.0, 1.3, 0.7))
    for alpha in (-1.5, 0.8):
        vals = spectrum_box(geom, alpha, 8).values
        axes = [spectrum_interval(IntervalGeometry(w), alpha, 8).values
                for w in geom.half_widths]
        brute = sorted(x + y + z for x in axes[0] for y in axes[1] for z in axes[2])[:8]
        scale = max(1.0, abs(brute[-1]))
        assert max(abs(u - v) for u, v in zip(vals, brute)) <= 1e-12 * scale
        assert all(vals[i] <= vals[i + 1] + 1e-12 * scale for i in range(7))


def test_square_degeneracy():
    # on a square the second eigenvalue is double; entries 2 and 3 coincide
    vals = spectrum_box(BoxGeometry((1.0, 1.0)), 2.0, 3).values
    assert abs(vals[1] - vals[2]) < 1e-12 * max(1.0, abs(vals[1]))


def test_mode_tags_cross_axes():
    sp = spectrum_box(BoxGeometry((1.0, 0.5)), 1.0, 2)
    tag = sp.modes[0].tag()
    assert " x " in tag
    assert tag.count(" x ") == 1


def test_ratio_rejects_alpha_zero():
    with pytest.raises(AlphaZero):
        ratio_box(BoxGeometry((1.0, 1.0)), 0.0)


def test_ratio_signs():
    geom = BoxGeometry((1.0, 0.8))
    assert ratio_box(geom, 1.5) > 1.0   # both positive, lambda2 larger
    sig = steklov_sigma1(geom)
    assert ratio_box(geom, -0.5 * sig) > 0.0   # lambda2 still positive
    assert ratio_box(geom, -3.0) < 0.0         # lambda2 negative by then


def test_steklov_square_frozen():
    sig = steklov_sigma1(BoxGeometry((1.0, 1.0)))
    assert abs(sig - SIGMA1_SQUARE_SIDE2) < 1e-9
    assert abs(sig - 0.68825) < 5e-5


def test_steklov_zero_crossing():
    """lambda2 really does vanish at -sigma1, the defining property."""
    for ws in ((1.0, 1.0), (1.5, 0.5), (1.0, 1.0, 1.0), (1e-3, 1e3), (1e-2, 1e2)):
        geom = BoxGeometry(ws)
        sig = steklov_sigma1(geom)
        assert abs(lambda2_box(geom, -sig)) <= 1e-9 * lambda2_box(geom, 0.0)
        assert lambda2_box(geom, -sig * (1.0 - 1e-12)) > 0.0 > lambda2_box(geom, -sig * (1.0 + 1e-12))


@pytest.mark.parametrize("widths", [(1e-9, 1.0), (1e-12, 1e6), (1e-12, 2e-12, 1e6)])
def test_steklov_thin_box(widths):
    """Thin axes' lambda1 ~ alpha/w cancel the long axis's lambda2 = (pi/(2L))^2.

    So sigma1 -> (pi/(2L))^2 / sum(1/w) over the thin axes, up to a relative
    O(w/L), and lambda2 at -sigma1 vanishes on the scale (pi/(2L))^2.
    """
    geom = BoxGeometry(widths)
    long_side = max(widths)
    scale = (0.5 * math.pi / long_side) ** 2
    limit = scale / sum(1.0 / w for w in widths if w != long_side)
    sig = steklov_sigma1(geom)
    assert abs(sig / limit - 1.0) <= 1e-8
    assert abs(lambda2_box(geom, -sig)) <= 1e-12 * scale
    assert lambda2_box(geom, -sig * (1.0 - 1e-9)) > 0.0 > lambda2_box(geom, -sig * (1.0 + 1e-9))


@pytest.mark.parametrize("widths", [(1e-12, 1e150), (1.0, 1e200)])
def test_steklov_unresolvable_box_raises(widths):
    """sigma1 ~ 2.5e-312 makes alpha*w_min underflow; (1, 1e200) has lambda2(0) = 0."""
    with pytest.raises(NumericalFailure):
        steklov_sigma1(BoxGeometry(widths))


def test_steklov_scaling_and_interval():
    geom = BoxGeometry((2.0, 1.0))
    sig = steklov_sigma1(geom)
    assert abs(steklov_sigma1(geom.scaled(2.0)) - sig / 2.0) < 1e-9
    assert steklov_sigma1(BoxGeometry((0.25,))) == 4.0


def test_scaled_quantities():
    geom = BoxGeometry((1.5, 0.5))
    for kind in ("perim_lambda1", "perim_lambda2", "vol_lambda1", "vol_lambda2",
                 "linear_bound_lhs"):
        v = scaled_quantity(geom, 2.0, kind)
        w = scaled_quantity(geom.scaled(3.0), 2.0, kind)
        assert abs(v - w) <= 1e-12 * max(1.0, abs(v))
    with pytest.raises(DomainError):
        scaled_quantity(geom, 1.0, "nonsense")
    with pytest.raises(DimensionError):
        scaled_quantity(BoxGeometry((1.0, 1.0, 1.0)), 1.0, "perim_lambda2")


def test_linear_bound_spot():
    for ws in ((1.0, 1.0), (3.0, 0.4), (1.0, 1.0, 1.0)):
        geom = BoxGeometry(ws)
        for a in (1.0, -1.0, 10.0, -10.0):
            assert scaled_quantity(geom, a, "linear_bound_lhs") < a


def test_spectrum_box_rejects_bad_count():
    with pytest.raises(DomainError):
        spectrum_box(BoxGeometry((1.0, 1.0)), 1.0, 0)
