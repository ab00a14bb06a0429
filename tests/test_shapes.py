"""Normalized rectangle families, optimality scans, the two-eigenvalue inverse."""

import math

import numpy as np
import pytest

from robinbox import (
    AlphaZero,
    BoxGeometry,
    DimensionError,
    DomainError,
    Inconsistent,
    RectangleFamily,
    gap_vs_segment,
    hear_rectangle,
    lambda1_box,
    lambda2_box,
    scan_family,
)


def test_family_validation():
    with pytest.raises(DomainError):
        RectangleFamily("fixed_moment", 1.0, 2)
    with pytest.raises(DomainError):
        RectangleFamily("fixed_volume", -1.0, 2)
    with pytest.raises(DomainError):
        RectangleFamily("fixed_perimeter", 2.0, 3)  # perimeter is planar


def test_family_normalization_and_symmetry():
    per = RectangleFamily("fixed_perimeter", 2.0, 2)
    geom = per.geometry(0.3)
    assert abs(geom.perimeter - 2.0) < 1e-12
    sym = per.geometry(per.symmetric_parameter)
    assert abs(sym.half_widths[0] - sym.half_widths[1]) < 1e-12

    vol = RectangleFamily("fixed_volume", 8.0, 3)
    geom = vol.geometry(vol.symmetric_parameter)
    assert abs(geom.volume - 8.0) < 1e-12
    assert max(geom.half_widths) - min(geom.half_widths) < 1e-12

    dia = RectangleFamily("fixed_diameter", 2.0, 2)
    assert abs(dia.geometry(0.25).diameter - 2.0) < 1e-12

    sur = RectangleFamily("fixed_surface", 24.0, 3)
    assert abs(sur.geometry(sur.symmetric_parameter).surface - 24.0) < 1e-12


def test_parameter_range_brackets_symmetric_point():
    for fam in (RectangleFamily("fixed_perimeter", 2.0, 2),
                RectangleFamily("fixed_volume", 4.0, 2),
                RectangleFamily("fixed_diameter", 2.0, 2),
                RectangleFamily("fixed_surface", 8.0, 2)):
        lo, hi = fam.parameter_range()
        assert lo < fam.symmetric_parameter < hi


def test_scan_result_structure():
    fam = RectangleFamily("fixed_perimeter", 2.0, 2)
    res = scan_family(fam, 5.0, "perim_lambda1", 64)
    assert len(res.parameters) == 64
    assert len(res.values) == 64
    assert res.opt_kind in ("min", "max")
    if res.opt_kind == "max":
        assert res.opt_value >= max(res.values) - 1e-12
    else:
        assert res.opt_value <= min(res.values) + 1e-12
    geom = res.argopt_geometry
    assert abs(geom.perimeter - 2.0) < 1e-10
    assert res.grid_cell > 0.0


def test_scan_finds_square_for_first_eigenvalue():
    fam = RectangleFamily("fixed_volume", 4.0, 2)
    for alpha in (2.0, -2.0):
        res = scan_family(fam, alpha, "lambda1", 128)
        assert abs(res.argopt - fam.symmetric_parameter) <= res.grid_cell


def test_scan_rejects_unknown_objective():
    fam = RectangleFamily("fixed_volume", 4.0, 2)
    with pytest.raises(DomainError):
        scan_family(fam, 1.0, "lambda9", 64)
    with pytest.raises(DomainError):
        scan_family(fam, 1.0, "lambda1", 3)  # grid far too coarse


def test_gap_vs_segment():
    box_gap, seg_gap = gap_vs_segment(BoxGeometry((1.0, 1.0)), 1.5)
    assert box_gap > seg_gap > 0.0
    with pytest.raises(DimensionError):
        gap_vs_segment(BoxGeometry((1.0,)), 1.0)


def test_hearing_roundtrip_exact_case():
    truth = BoxGeometry((1.5, 0.5))
    for alpha in (2.0, -2.0, 0.3, -0.3, 7.0):
        l1 = lambda1_box(truth, alpha)
        l2 = lambda2_box(truth, alpha)
        rec = hear_rectangle(l1, l2, alpha)
        assert abs(rec.half_widths[0] - 1.5) < 1e-9
        assert abs(rec.half_widths[1] - 0.5) < 1e-9


def test_hearing_square():
    truth = BoxGeometry((1.0, 1.0))
    rec = hear_rectangle(lambda1_box(truth, 1.0), lambda2_box(truth, 1.0), 1.0)
    assert abs(rec.half_widths[0] - 1.0) < 1e-9
    assert abs(rec.half_widths[1] - 1.0) < 1e-9


def test_hearing_rejects_alpha_zero():
    with pytest.raises(AlphaZero):
        hear_rectangle(0.0, 2.4674, 0.0)


def test_hearing_rejects_nonpositive_gap():
    with pytest.raises(Inconsistent):
        hear_rectangle(5.0, 4.0, 1.0)
    with pytest.raises(Inconsistent):
        hear_rectangle(5.0, 5.0, 1.0)


def test_hearing_rejects_fabricated_pair():
    """Scaling lambda2 of a square breaks the forward re-check."""
    sq = BoxGeometry((1.0, 1.0))
    l1, l2 = lambda1_box(sq, 1.0), lambda2_box(sq, 1.0)
    with pytest.raises(Inconsistent):
        hear_rectangle(l1, 1.1 * l2, 1.0)


def test_hearing_rejects_nonfinite_input():
    with pytest.raises(DomainError):
        hear_rectangle(math.nan, 2.0, 1.0)
    with pytest.raises(DomainError):
        hear_rectangle(1.0, math.inf, 1.0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            hear_rectangle(1.0, 2.0, alpha)


def test_hearing_small_random_sample():
    rng = np.random.default_rng(7)
    for _ in range(10):
        t, s = np.exp(rng.uniform(math.log(0.3), math.log(2.5), 2))
        t, s = max(t, s), min(t, s)
        truth = BoxGeometry((float(t), float(s)))
        rec = hear_rectangle(lambda1_box(truth, -1.2), lambda2_box(truth, -1.2), -1.2)
        assert abs(rec.half_widths[0] - t) <= 1e-9 * t
        assert abs(rec.half_widths[1] - s) <= 1e-9 * s
