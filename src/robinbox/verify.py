"""Property suites: every structural claim gets a numerical witness.

Each check reports one line of the form ``PASS name measured tolerance``.
For tolerance checks, ``measured`` is the worst observed deviation.  For
strict-sign checks (monotonicity, convexity, inequalities), ``measured`` is
the largest value seen of a quantity that must stay strictly negative and
the tolerance is 0.

Grid endpoints are chosen so the claimed sign is representable in floats:
several quantities here (gap-like differences, tanh-saturated thresholds)
approach their limits exponentially fast, and past the point where
exp(-2x) drops below machine epsilon a strict inequality degenerates into
equality of doubles.  Such grids stop where roughly 100 ulps of margin
remain; the analysis lives next to each grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basisfn import (BasisFunction, alpha_minus, alpha_plus, eval_basis,
                      eval_inverse, f_aux, threshold_y)
from .box import (BoxGeometry, gap_box, lambda1_box, lambda2_box, ratio_box,
                  scaled_quantity, spectrum_box, steklov_sigma1)
from .errors import AlphaZero, DimensionError, Inconsistent
from .interval import (IntervalGeometry, Parity, gap_interval, lambda1_interval,
                       lambda2_interval, spectrum_interval)
from .oracle import discretize, eigenvalues_sturm, oracle_eigs
from .rootfind import RootConfig
from .shapes import RectangleFamily, gap_vs_segment, hear_rectangle, scan_family

G1, G2, H1, H2 = (BasisFunction.G1, BasisFunction.G2,
                  BasisFunction.H1, BasisFunction.H2)

# Near-ulp root tolerances: second-difference checks amplify per-call solver
# error by 1/h^2, so the default 1e-13 absolute tolerance is too loose here.
_TIGHT = RootConfig(abs_tol=1e-30, rel_tol=0.0, max_iter=400)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} {self.measured:.6g} {self.tolerance:.6g}"


def _chk(name, measured, tol, strict=False):
    measured = float(measured)
    passed = measured < tol if strict else measured <= tol
    return CheckResult(name, measured, float(tol), bool(passed))


def _bool_chk(name, ok):
    return CheckResult(name, 0.0 if ok else 1.0, 0.0, bool(ok))


def _logspace(a, b, n):
    return np.logspace(math.log10(a), math.log10(b), n)


def _inv(fn, y):
    return eval_inverse(fn, y, _TIGHT)


def _second_diff(F, y, h):
    return F(y - h) - 2.0 * F(y) + F(y + h)


def _central(F, y, h):
    return (F(y + h) - F(y - h)) / (2.0 * h)


def _worst_increase(values):
    """Largest adjacent increase; negative when strictly decreasing."""
    v = np.asarray(values)
    return float(np.max(v[1:] - v[:-1]))


def _worst_decrease(values):
    v = np.asarray(values)
    return float(np.max(v[:-1] - v[1:]))


def _stable_h_gap(y):
    """h1inv(y)^2 - h2inv(y)^2 without cancellation (same trick as the gap)."""
    a = _inv(H1, y)
    b = _inv(H2, y)
    ea, eb = math.exp(-2.0 * a), math.exp(-2.0 * b)
    return (a + b) * 2.0 * y * (ea + eb) / ((1.0 - ea) * (1.0 + eb))


# ---------------------------------------------------------------------------
# lemmas: the four basis functions, their inverses, f1/f2, thresholds


def _roundtrip_checks(out):
    grids = [
        ("roundtrip_g1", G1, _logspace(1e-5, 1e6, 512)),
        ("roundtrip_g2_neg", G2, _logspace(1e-6, 1.0 - 1e-5, 512) - 1.0),
        ("roundtrip_g2_pos", G2, _logspace(1e-5, 1e6, 512)),
        ("roundtrip_h1", H1, _logspace(1e-9, 1e9, 512)),
        ("roundtrip_h2", H2, 1.0 + _logspace(1e-6, 1e9, 512)),
    ]
    for name, fn, ys in grids:
        worst = 0.0
        for y in ys:
            y = float(y)
            back = eval_basis(fn, _inv(fn, y))
            worst = max(worst, abs(back - y) / abs(y))
        out.append(_chk(name, worst, 1e-10))


def _scaled_monotone_checks(out):
    # H1/H2 scaled inverses saturate at 1 like exp(-2y); past y ~ 18 the
    # doubles coincide, so those grids stop at 15.
    cases = [
        ("scaled_G1_decreasing", G1, _logspace(1e-5, 1e6, 512), "dec"),
        ("scaled_G2_neg_decreasing", G2, _logspace(1e-6, 1.0 - 1e-5, 512) - 1.0, "dec"),
        ("scaled_G2_pos_decreasing", G2, _logspace(1e-5, 1e6, 512), "dec"),
        ("scaled_H1_decreasing", H1, _logspace(1e-9, 15.0, 512), "dec"),
        ("scaled_H2_increasing", H2, 1.0 + _logspace(1e-6, math.log10(14.0), 512), "inc"),
    ]
    for name, fn, ys, kind in cases:
        vals = [_inv(fn, float(y)) / float(y) for y in ys]
        bad = _worst_increase(vals) if kind == "dec" else _worst_decrease(vals)
        out.append(_chk(name, bad, 0.0, strict=True))


def _curvature_checks(out):
    sq = lambda fn: (lambda y: _inv(fn, y) ** 2)

    worst = -math.inf
    for y in _logspace(1e-4, 1e4, 384):
        y = float(y)
        worst = max(worst, _second_diff(sq(G1), y, 1e-4 * y))
    out.append(_chk("concave_g1inv_sq", worst, 0.0, strict=True))

    # Steps near the y = -1 branch point are floored at 1e-6: the inverse's
    # resolution there is ulp(y)/g2' ~ 7e-15, independent of root tolerance,
    # and a shorter step would drown the curvature signal in that noise.
    # (Any step inside the domain is a valid witness for strict concavity.)
    worst = -math.inf
    g2_grid = np.concatenate([_logspace(1e-4, 0.99, 160) - 1.0, _logspace(1e-4, 1e4, 224)])
    for y in g2_grid:
        y = float(y)
        h = max(1e-4 * min(1.0 + y, max(abs(y), 1e-2)), 1e-6)
        worst = max(worst, _second_diff(sq(G2), y, h))
    out.append(_chk("concave_g2inv_sq", worst, 0.0, strict=True))

    worst = -math.inf
    for y in _logspace(1e-4, 1e4, 384):
        y = float(y)
        worst = max(worst, -_second_diff(sq(H1), y, 1e-4 * y))
    out.append(_chk("convex_h1inv_sq", worst, 0.0, strict=True))

    worst = -math.inf
    for y in 1.0 + _logspace(1e-4, 1e4, 384):
        y = float(y)
        h = max(1e-4 * (y - 1.0), 1e-6)
        worst = max(worst, -_second_diff(sq(H2), y, h))
    out.append(_chk("convex_h2inv_sq", worst, 0.0, strict=True))


def _bound_checks(out):
    worst = -math.inf
    for y in _logspace(1e-6, 1e3, 512):
        y = float(y)
        worst = max(worst, (y - y * y) - _inv(G1, y) ** 2)
    out.append(_chk("bound_g1inv_sq_above", worst, 0.0, strict=True))

    worst = -math.inf
    for y in _logspace(1e-6, 1e3, 512):
        y = float(y)
        worst = max(worst, _inv(H1, y) ** 2 - (y + y * y))
    out.append(_chk("bound_h1inv_sq_below", worst, 0.0, strict=True))


def _derivative_checks(out):
    scaled = lambda fn: (lambda y: _inv(fn, y) / y)
    sq = lambda fn: (lambda y: _inv(fn, y) ** 2)

    worst = -math.inf
    for y in _logspace(1e-4, 1e4, 256):
        y = float(y)
        h = 1e-4 * y
        worst = max(worst, _central(scaled(G2), y, h) - _central(scaled(G1), y, h))
    out.append(_chk("deriv_G1_above_G2", worst, 0.0, strict=True))

    worst = -math.inf
    F = lambda y: sq(G2)(y) - sq(G1)(y)
    for y in _logspace(1e-4, 1e4, 256):
        y = float(y)
        worst = max(worst, -_central(F, y, 1e-4 * y))
    out.append(_chk("deriv_gap_sq_increasing", worst, 0.0, strict=True))

    worst = -math.inf
    F = lambda y: sq(G2)(y) + _inv(H1, -y) ** 2
    for y in _logspace(1e-4, 0.9999, 256) - 1.0:
        y = float(y)
        h = 1e-4 * min(1.0 + y, -y)
        worst = max(worst, -_central(F, y, h))
    out.append(_chk("deriv_mixed_neg_increasing", worst, 0.0, strict=True))

    # h1inv^2 - h2inv^2 shrinks like y^2*exp(-2y); the stable form keeps its
    # sign structure intact well past where the naive difference hits 0.0.
    worst = -math.inf
    for y in 1.0 + _logspace(1e-4, 79.0, 256):
        y = float(y)
        worst = max(worst, _central(_stable_h_gap, y, 1e-4 * (y - 1.0)))
    out.append(_chk("deriv_h_pair_decreasing", worst, 0.0, strict=True))

    # direct subtraction here, so stop at y = 15 where the true separation
    # (~2e-12) still clears the roots' ulp-level noise by three decades;
    # past y ~ 18 tanh and coth agree in doubles and the inverses collide
    worst = -math.inf
    for y in 1.0 + _logspace(1e-4, 14.0, 256):
        y = float(y)
        worst = max(worst, _inv(H2, y) - _inv(H1, y))
    out.append(_chk("h2inv_below_h1inv", worst, 0.0, strict=True))


def _logconvex_checks(out):
    # H1(e^z) flattens to 1 exponentially; beyond y ~ 8 its curvature sinks
    # under roundoff, so the witness grid stops there.
    cases = [
        ("logconvex_G1", G1, math.log(1e-5), math.log(1e6)),
        ("logconvex_H1", H1, math.log(1e-5), math.log(8.0)),
    ]
    for name, fn, zlo, zhi in cases:
        F = lambda z: _inv(fn, math.exp(z)) / math.exp(z)
        worst = -math.inf
        for z in np.linspace(zlo, zhi, 384):
            worst = max(worst, -_second_diff(F, float(z), 1e-4))
        out.append(_chk(name, worst, 0.0, strict=True))


_SHAPE_CS = (0.5, 2.0, 3.5, 5.0, 10.0, 40.0)


def _shape_functional_checks(out):
    def K(fn, c, sign=1.0):
        def val(y):
            x = _inv(fn, sign * c * y)
            return y * (1.0 - y) * (x / (c * y)) ** 2
        return val

    worst_k1 = worst_k2 = -math.inf
    for c in _SHAPE_CS:
        for y in np.linspace(0.01, 2.5, 250):
            y = float(y)
            h = 1e-4 * min(y, 1.0)
            worst_k1 = max(worst_k1, -_second_diff(K(G1, c), y, h))
            worst_k2 = max(worst_k2, -_second_diff(K(G2, c), y, h))
    out.append(_chk("shape_G1_profile_convex", worst_k1, 0.0, strict=True))
    out.append(_chk("shape_G2_profile_convex", worst_k2, 0.0, strict=True))

    worst_up = worst_down = worst_cc = -math.inf
    for c in _SHAPE_CS:
        KH = K(H1, c)
        y1 = threshold_y("y1", c)
        if y1 > 0.04:
            left = [KH(float(y)) for y in np.linspace(0.01, y1 - 0.01, 90)]
            worst_up = max(worst_up, _worst_decrease(left))
        ys = np.linspace(max(y1 + 0.01, 0.01), 0.99, 160)
        right = [KH(float(y)) for y in ys]
        worst_down = max(worst_down, _worst_increase(right))
        for y in ys:
            y = float(y)
            worst_cc = max(worst_cc, _second_diff(KH, y, 1e-4 * min(1.0 - y, 0.5)))
    out.append(_chk("shape_H1_rise_before_y1", worst_up, 0.0, strict=True))
    out.append(_chk("shape_H1_fall_after_y1", worst_down, 0.0, strict=True))
    out.append(_chk("shape_H1_concave_past_y1", worst_cc, 0.0, strict=True))

    worst_up = worst_down = worst_cc = -math.inf
    for c in _SHAPE_CS:
        KH = K(H2, c)
        lo = 1.0 / c
        y2 = threshold_y("y2", c)
        hi = max(2.5, 1.5 * lo)
        pad = 0.01 * max(1.0, lo)
        ys = np.linspace(lo + pad, hi, 220)
        vals = [KH(float(y)) for y in ys]
        rising = [v for y, v in zip(ys, vals) if y < y2 - pad]
        falling = [v for y, v in zip(ys, vals) if y > y2 + pad]
        if len(rising) > 1:
            worst_up = max(worst_up, _worst_decrease(rising))
        if len(falling) > 1:
            worst_down = max(worst_down, _worst_increase(falling))
        for y in ys:
            y = float(y)
            worst_cc = max(worst_cc, _second_diff(KH, y, 1e-4 * (y - lo + pad)))
    out.append(_chk("shape_H2_rise_before_y2", worst_up, 0.0, strict=True))
    out.append(_chk("shape_H2_fall_after_y2", worst_down, 0.0, strict=True))
    out.append(_chk("shape_H2_concave", worst_cc, 0.0, strict=True))

    worst = -math.inf
    for c in _SHAPE_CS:
        ylim = min(1.0, 1.0 / c)
        vals = [K(G2, c, sign=-1.0)(float(y))
                for y in np.linspace(0.01 * ylim, 0.99 * ylim, 160)]
        worst = max(worst, _worst_increase(vals))
    out.append(_chk("shape_G2_neg_decreasing", worst, 0.0, strict=True))


def _f_aux_checks(out):
    # f1 and f2 merge as doubles once coth/tanh saturate (x ~ 21), hence the
    # cap at 18 for the strict comparison.
    xs = _logspace(1e-4, 18.0, 512)
    worst = -math.inf
    for x in xs:
        x = float(x)
        worst = max(worst, f_aux("f1", x) - f_aux("f2", x))
    out.append(_chk("f1_below_f2", worst, 0.0, strict=True))

    xs = _logspace(1e-4, 1e3, 512)
    f1_vals = [f_aux("f1", float(x)) for x in xs]
    f2_vals = [f_aux("f2", float(x)) for x in xs]
    out.append(_chk("f1_decreasing", _worst_increase(f1_vals), 0.0, strict=True))
    out.append(_chk("f2_decreasing", _worst_increase(f2_vals), 0.0, strict=True))

    out.append(_chk("f1_limit_zero", abs(f_aux("f1", 1e-6) - 1.0 / 3.0), 1e-9))
    out.append(_chk("f2_limit_zero", abs(f_aux("f2", 1e-6) - 1.0), 1e-9))
    tail = max(abs(x * f_aux("f1", x) - 0.5) for x in (200.0, 500.0, 1000.0))
    out.append(_chk("f1_tail_half_over_x", tail, 1e-12))
    tail = max(abs(x * f_aux("f2", x) - 0.5) for x in (200.0, 500.0, 1000.0))
    out.append(_chk("f2_tail_half_over_x", tail, 1e-12))


def _threshold_checks(out):
    ok = all(threshold_y("y1", float(c)) == 0.0 for c in np.linspace(0.1, 3.0, 30))
    out.append(_bool_chk("y1_zero_up_to_3", ok))
    ok = all(threshold_y("y2", float(c)) == 1.0 / float(c)
             for c in np.linspace(0.05, 1.0, 20))
    out.append(_bool_chk("y2_reciprocal_up_to_1", ok))

    # both margins close exponentially in c (1/2 - y1 ~ 3e-10 by c = 25,
    # 1 - y1 - y2 ~ 2e-10 by c = 16) while the threshold roots carry ~1e-13
    # of solver noise, so the strict comparisons stop there
    cs = _logspace(3.001, 25.0, 128)
    y1s = [threshold_y("y1", float(c)) for c in cs]
    out.append(_chk("y1_below_half", max(y1s) - 0.5, 0.0, strict=True))
    out.append(_chk("y1_positive_above_3", -min(y1s), 0.0, strict=True))

    cs = _logspace(1.001, 16.0, 128)
    worst = -math.inf
    for c in cs:
        c = float(c)
        worst = max(worst, threshold_y("y1", c) + threshold_y("y2", c) - 1.0)
    out.append(_chk("y1_plus_y2_below_1", worst, 0.0, strict=True))


def _constant_checks(out):
    ap = alpha_plus()
    resid = abs(_inv(G1, ap / 8.0) ** 2 + _inv(G2, ap / 8.0) ** 2 - ap / 4.0)
    out.append(_chk("alpha_plus_residual", resid, 1e-10 * max(1.0, ap / 4.0)))
    out.append(_bool_chk("alpha_plus_in_range", 8.0 < ap < 100.0))

    am = alpha_minus()
    m = -am
    resid = abs(_inv(H1, m / 8.0) ** 2 + _inv(H2, m / 8.0) ** 2 - m / 4.0)
    out.append(_chk("alpha_minus_residual", resid, 1e-10 * max(1.0, m / 4.0)))
    out.append(_bool_chk("alpha_minus_in_range", -100.0 < am < -8.0))


def suite_lemmas():
    out = []
    _roundtrip_checks(out)
    _scaled_monotone_checks(out)
    _curvature_checks(out)
    _bound_checks(out)
    _derivative_checks(out)
    _logconvex_checks(out)
    _shape_functional_checks(out)
    _f_aux_checks(out)
    _threshold_checks(out)
    _constant_checks(out)
    return out


# ---------------------------------------------------------------------------
# interval


_T_SET = (0.5, 1.0, 2.0, 5.0)


def suite_interval():
    out = []
    alphas = np.linspace(-30.0, 30.0, 241)

    worst1 = worst2 = -math.inf
    curv1 = curv2 = -math.inf
    for t in _T_SET:
        geom = IntervalGeometry(t)
        l1 = [lambda1_interval(geom, float(a)) for a in alphas]
        l2 = [lambda2_interval(geom, float(a)) for a in alphas]
        worst1 = max(worst1, _worst_decrease(l1))
        worst2 = max(worst2, _worst_decrease(l2))
        d1 = np.diff(l1)
        d2 = np.diff(l2)
        curv1 = max(curv1, float(np.max(d1[1:] - d1[:-1])))
        curv2 = max(curv2, float(np.max(d2[1:] - d2[:-1])))
    out.append(_chk("lambda1_increasing_in_alpha", worst1, 0.0, strict=True))
    out.append(_chk("lambda2_increasing_in_alpha", worst2, 0.0, strict=True))
    out.append(_chk("lambda1_concave_in_alpha", curv1, 1e-10))
    out.append(_chk("lambda2_concave_in_alpha", curv2, 1e-10))

    # slope 1/t across alpha = 0, slope 3/t on both sides of alpha = -1/t
    worst = 0.0
    for t in _T_SET:
        geom = IntervalGeometry(t)
        h = 1e-8
        slope = (lambda1_interval(geom, h) - lambda1_interval(geom, -h)) / (2.0 * h)
        worst = max(worst, abs(slope * t - 1.0))
        aj = -1.0 / t
        up = (lambda2_interval(geom, aj + h) - lambda2_interval(geom, aj)) / h
        dn = (lambda2_interval(geom, aj) - lambda2_interval(geom, aj - h)) / h
        worst = max(worst, abs(up * t / 3.0 - 1.0), abs(dn * t / 3.0 - 1.0))
    out.append(_chk("join_slopes", worst, 1e-6))

    worst = 0.0
    for t in _T_SET:
        geom = IntervalGeometry(t)
        target = (0.5 * math.pi / t) ** 2
        worst = max(worst, abs(lambda1_interval(geom, 1e6) / target - 1.0))
    out.append(_chk("dirichlet_proxy_limit", worst, 1e-4))

    worst = 0.0
    for t in (1.0, 2.0):
        geom = IntervalGeometry(t)
        worst = max(worst, abs(lambda1_interval(geom, -30.0) / -900.0 - 1.0))
        worst = max(worst, abs(lambda2_interval(geom, -30.0) / -900.0 - 1.0))
    out.append(_chk("deep_negative_limit", worst, 1e-8))

    worst = 0.0
    for alpha in (3.0, -3.0):
        lam = lambda1_interval(IntervalGeometry(1e-6), alpha)
        worst = max(worst, abs(lam * 1e-6 / alpha - 1.0))
    out.append(_chk("thin_interval_linear", worst, 1e-5))

    worst = -math.inf
    for alpha in (-8.0, -1.0, 0.5, 6.0):
        gaps = [gap_interval(IntervalGeometry(float(t)), alpha)
                for t in _logspace(0.05, 20.0, 64)]
        worst = max(worst, _worst_increase(gaps))
    out.append(_chk("gap_decreasing_in_t", worst, 0.0, strict=True))

    worst = 0.0
    for t in _T_SET:
        geom = IntervalGeometry(t)
        for a in np.linspace(-12.0, 12.0, 49):
            a = float(a)
            l1, l2 = lambda1_interval(geom, a), lambda2_interval(geom, a)
            scale = max(1.0, abs(l1), abs(l2))
            worst = max(worst, abs(gap_interval(geom, a) - (l2 - l1)) / scale)
    out.append(_chk("gap_matches_difference", worst, 1e-12))

    # at alpha*t = -18 the first two eigenvalues agree to below one ulp
    # (the h1/h2 inverses straddle the same double), so strictness is only
    # asserted where the pair separation ~ exp(2*alpha*t) is representable
    ok = True
    worst_sorted = worst_strict = -math.inf
    for t in (0.7, 1.0, 3.0):
        geom = IntervalGeometry(t)
        for a in (-6.0, -1.0 / t, -0.4, 0.0, 1.3, 40.0):
            spec = spectrum_interval(geom, a, 8)
            parities = [m.parity for m in spec.modes]
            ok = ok and parities == [Parity.EVEN, Parity.ODD] * 4
            vals = spec.values
            worst_sorted = max(worst_sorted, _worst_decrease(vals))
            if a * t > -12.5:
                worst_strict = max(worst_strict, _worst_decrease(vals))
    out.append(_bool_chk("parity_alternation", ok))
    out.append(_chk("spectrum_ascending", worst_sorted, 0.0))
    out.append(_chk("spectrum_strictly_ascending_moderate", worst_strict, 0.0,
                    strict=True))

    worst = 0.0
    for t in (1.0, 2.0):
        geom = IntervalGeometry(t)
        for a in (-1.0, 1.0):
            approx, _ = oracle_eigs(geom, a, 4)
            exact = np.array(spectrum_interval(geom, a, 4).values)
            allowed = np.maximum(1e-6 * np.abs(exact), 1e-8)
            worst = max(worst, float(np.max(np.abs(approx - exact) / allowed)))
    out.append(_chk("oracle_sample_agreement", worst, 1.0))
    return out


# ---------------------------------------------------------------------------
# box


def suite_box():
    out = []
    rng = np.random.default_rng(20240814)

    base = BoxGeometry((1.0, 2.0, 3.0))
    perms = [(2.0, 3.0, 1.0), (3.0, 1.0, 2.0)]
    worst = 0.0
    for ws in perms:
        other = BoxGeometry(ws)
        for a in (-3.0, 0.0, 0.7):
            for f in (lambda1_box, lambda2_box, gap_box):
                v1, v2 = f(base, a), f(other, a)
                worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1)))
    out.append(_chk("permutation_invariance", worst, 1e-13))

    worst = 0.0
    for ws in ((1.0, 1.0), (2.0, 1.0, 0.5)):
        geom = BoxGeometry(ws)
        for c in (0.5, 2.0, 10.0):
            for a in (-3.0, 0.7):
                for f in (lambda1_box, lambda2_box):
                    lhs = f(geom.scaled(c), a)
                    rhs = f(geom, c * a) / (c * c)
                    worst = max(worst, abs(lhs - rhs) / max(1e-300, abs(rhs)))
    out.append(_chk("scaling_law", worst, 1e-12))

    worst = 0.0
    geom = BoxGeometry((2.0, 1.0, 0.7))
    for a in (-2.5, -1.0, 0.0, 1.5):
        sp = spectrum_box(geom, a, 10)
        vals = sp.values
        scale = max(1.0, abs(vals[-1]))
        worst = max(worst, abs(vals[0] - lambda1_box(geom, a)) / scale)
        worst = max(worst, abs(vals[1] - lambda2_box(geom, a)) / scale)
        axes = [spectrum_interval(IntervalGeometry(w), a, 10).values
                for w in geom.half_widths]
        brute = sorted(x + y + z for x in axes[0] for y in axes[1] for z in axes[2])[:10]
        worst = max(worst, max(abs(u - v) for u, v in zip(vals, brute)) / scale)
    out.append(_chk("spectrum_box_consistency", worst, 1e-12))

    alphas = np.linspace(-50.0, 50.0, 200)
    worst_gap = -math.inf
    curv = -math.inf
    worst_diff = 0.0
    for ws in ((1.0, 1.0), (3.0, 1.0), (2.0, 1.0, 1.0)):
        geom = BoxGeometry(ws)
        gaps = [gap_box(geom, float(a)) for a in alphas]
        worst_gap = max(worst_gap, _worst_decrease(gaps))
        l1s = [lambda1_box(geom, float(a)) for a in alphas]
        l2s = [lambda2_box(geom, float(a)) for a in alphas]
        for vals in (l1s, l2s):
            d = np.diff(vals)
            curv = max(curv, float(np.max(d[1:] - d[:-1])))
        # strongly negative coupling cancels the direct difference to a few
        # digits, so the tolerance scales with the eigenvalues, not the gap
        for g, l1, l2 in zip(gaps, l1s, l2s):
            worst_diff = max(worst_diff, abs((l2 - l1) - g) / max(1.0, abs(l1), abs(l2)))
    out.append(_chk("gap_increasing_in_alpha", worst_gap, 0.0, strict=True))
    out.append(_chk("eigenvalues_concave_in_alpha", curv, 1e-10))
    out.append(_chk("box_gap_matches_difference", worst_diff, 1e-12))

    try:
        ratio_box(BoxGeometry((1.0, 2.0)), 0.0)
        ok = False
    except AlphaZero:
        ok = True
    out.append(_bool_chk("ratio_rejects_alpha_zero", ok))

    sq = BoxGeometry((1.0, 1.0))
    s1 = steklov_sigma1(sq)
    out.append(_chk("steklov_square_side2", abs(s1 - 0.68825), 5e-5))
    worst = 0.0
    for ws in ((1.0, 1.0), (2.0, 1.0, 0.5)):
        geom = BoxGeometry(ws)
        sig = steklov_sigma1(geom)
        for c in (0.5, 3.0):
            worst = max(worst, abs(steklov_sigma1(geom.scaled(c)) * c / sig - 1.0))
        lam2 = lambda2_box(geom, -sig)
        worst = max(worst, abs(lam2) / lambda2_box(geom, 0.0))
    out.append(_chk("steklov_scaling_and_zero", worst, 1e-9))
    out.append(_chk("steklov_interval_reciprocal",
                    abs(steklov_sigma1(BoxGeometry((0.25,))) - 4.0), 1e-12))

    # alpha * lambda2/lambda1 increases while lambda2 > 0; the map extends
    # continuously through alpha = 0 so skipping that point loses nothing
    worst = -math.inf
    for ws in ((1.0, 1.0), (1.5, 0.5), (1.0, 0.8, 0.6)):
        geom = BoxGeometry(ws)
        sig = steklov_sigma1(geom)
        grid = [a for a in np.linspace(-0.95 * sig, 12.0, 150) if abs(a) > 0.05]
        vals = [a * lambda2_box(geom, a) / lambda1_box(geom, a) for a in grid]
        worst = max(worst, _worst_decrease(vals))
    out.append(_chk("alpha_times_ratio_increasing", worst, 0.0, strict=True))

    worst = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 4))
        ws = tuple(float(w) for w in np.exp(rng.uniform(math.log(0.2), math.log(5.0), n)))
        geom = BoxGeometry(ws)
        for a in (1.0, -1.0, 10.0, -10.0):
            worst = max(worst, scaled_quantity(geom, a, "linear_bound_lhs") - a)
    out.append(_chk("linear_bound_strict", worst, 0.0, strict=True))

    worst = -math.inf
    for n in (2, 3):
        prev = None
        for m in range(1, 13):
            geom = BoxGeometry((1.0,) * (n - 1) + (2.0 ** -m,))
            deficit = 1.0 - scaled_quantity(geom, 1.0, "linear_bound_lhs")
            if prev is not None:
                worst = max(worst, deficit - prev)
            prev = deficit
    out.append(_chk("linear_bound_deficit_shrinks", worst, 0.0, strict=True))

    worst = 0.0
    for ws in ((1.0, 0.5), (1.0, 1.0, 2.0)):
        geom = BoxGeometry(ws)
        dirichlet = sum((0.5 * math.pi / w) ** 2 for w in ws)
        worst = max(worst, abs(lambda1_box(geom, 1e6) / dirichlet - 1.0))
        deep = -len(ws) * 1e12
        worst = max(worst, abs(lambda1_box(geom, -1e6) / deep - 1.0))
    out.append(_chk("proxy_infinity_limits", worst, 1e-4))

    worst = 0.0
    geom = BoxGeometry((1.5, 0.5))
    for kind in ("perim_lambda1", "perim_lambda2", "vol_lambda1", "vol_lambda2",
                 "linear_bound_lhs"):
        for c in (0.5, 4.0):
            v1 = scaled_quantity(geom, 2.3, kind)
            v2 = scaled_quantity(geom.scaled(c), 2.3, kind)
            worst = max(worst, abs(v2 - v1) / max(1.0, abs(v1)))
    out.append(_chk("scaled_quantities_invariant", worst, 1e-12))

    try:
        scaled_quantity(BoxGeometry((1.0, 1.0, 1.0)), 1.0, "perim_lambda1")
        ok = False
    except DimensionError:
        ok = True
    out.append(_bool_chk("perim_quantities_planar_only", ok))
    return out


# ---------------------------------------------------------------------------
# shapes


def suite_shapes():
    out = []
    ap = alpha_plus()
    am = alpha_minus()

    def scan_chk(name, family, alpha, objective, where, grid=256):
        res = scan_family(family, alpha, objective, grid)
        lo, hi = family.parameter_range()
        if where == "sym":
            measured = abs(res.argopt - family.symmetric_parameter)
        else:
            measured = min(res.argopt - lo, hi - res.argopt)
        out.append(_chk(name, measured, res.grid_cell))

    vol2 = RectangleFamily("fixed_volume", 4.0, 2)
    vol3 = RectangleFamily("fixed_volume", 8.0, 3)
    dia2 = RectangleFamily("fixed_diameter", 2.0, 2)
    sur2 = RectangleFamily("fixed_surface", 8.0, 2)
    sur3 = RectangleFamily("fixed_surface", 24.0, 3)
    per2 = RectangleFamily("fixed_perimeter", 2.0, 2)

    scan_chk("scan_lambda1_square_pos", vol2, 2.0, "lambda1", "sym")
    scan_chk("scan_lambda1_square_neg", vol2, -2.0, "lambda1", "sym")
    scan_chk("scan_lambda1_cube_pos", vol3, 1.5, "lambda1", "sym")
    scan_chk("scan_lambda1_cube_neg", vol3, -1.0, "lambda1", "sym")
    scan_chk("scan_lambda2_square_neg", vol2, -1.2, "lambda2", "sym")
    scan_chk("scan_lambda2_cube_neg", vol3, -0.2, "lambda2", "sym")
    scan_chk("scan_perim_lambda1_square_pos", per2, 5.0, "perim_lambda1", "sym")
    scan_chk("scan_perim_lambda1_square_neg", per2, -3.0, "perim_lambda1", "sym")
    for alpha, tag in ((am + 0.5, "low_edge"), (0.7, "small"), (17.0, "mid"),
                       (ap - 0.5, "high_edge")):
        scan_chk(f"scan_perim_lambda2_square_{tag}", per2, alpha, "perim_lambda2", "sym")
    scan_chk("scan_perim_lambda2_degenerate_low", per2, am - 0.5, "perim_lambda2", "edge")
    scan_chk("scan_perim_lambda2_degenerate_high", per2, ap + 0.5, "perim_lambda2", "edge")
    scan_chk("scan_gap_square_vol_pos", vol2, 1.5, "gap", "sym")
    scan_chk("scan_gap_square_vol_neg", vol2, -2.0, "gap", "sym")
    scan_chk("scan_gap_square_diameter", dia2, 1.5, "gap", "sym")
    scan_chk("scan_gap_square_surface", sur2, -2.0, "gap", "sym")
    scan_chk("scan_gap_cube_vol", vol3, -2.0, "gap", "sym")
    scan_chk("scan_gap_cube_surface", sur3, 1.5, "gap", "sym")
    scan_chk("scan_ratio_square_pos", vol2, 3.0, "ratio", "sym")
    scan_chk("scan_ratio_square_neg", vol2, -0.4, "ratio", "sym")
    scan_chk("scan_ratio_cube_pos", vol3, 3.0, "ratio", "sym")
    scan_chk("scan_ratio_cube_neg", vol3, -0.25, "ratio", "sym")
    # length-scaled ratio: the fixed perimeter of the family turns a plain
    # ratio scan at coupling alpha/L into the scale-invariant one
    for alpha in (4.0, 30.0):
        scan_chk(f"scan_ratio_length_scaled_{int(alpha)}", per2,
                 alpha / per2.normalization, "ratio", "sym")

    worst = -math.inf
    for ws in ((1.0, 1.0), (1.0, 1.0, 1.0), (5.0, 0.2), (2.0, 1.0, 1.0)):
        for a in (1.5, -2.0, -30.0):
            bg, sg = gap_vs_segment(BoxGeometry(ws), a)
            worst = max(worst, sg - bg)
    out.append(_chk("gap_beats_segment", worst, 0.0, strict=True))

    rng = np.random.default_rng(424243)
    worst = 0.0
    for _ in range(40):
        s, t = np.exp(rng.uniform(math.log(0.2), math.log(3.5), 2))
        t, s = max(t, s), min(t, s)
        for a in (0.3, -0.3, 2.0, -2.0, 7.0):
            R = BoxGeometry((t, s))
            rec = hear_rectangle(lambda1_box(R, a), lambda2_box(R, a), a)
            worst = max(worst, abs(rec.half_widths[0] - t) / t,
                        abs(rec.half_widths[1] - s) / s)
    out.append(_chk("hearing_roundtrip", worst, 1e-9))

    try:
        hear_rectangle(0.0, 2.467, 0.0)
        ok = False
    except AlphaZero:
        ok = True
    out.append(_bool_chk("hearing_rejects_alpha_zero", ok))

    ok = True
    try:
        hear_rectangle(5.0, 4.0, 1.0)
        ok = False
    except Inconsistent:
        pass
    sqv1 = lambda1_box(BoxGeometry((1.0, 1.0)), 1.0)
    sqv2 = lambda2_box(BoxGeometry((1.0, 1.0)), 1.0)
    try:
        hear_rectangle(sqv1, 1.1 * sqv2, 1.0)
        ok = False  # a silent wrong square would land here
    except Inconsistent:
        pass
    out.append(_bool_chk("hearing_flags_inconsistency", ok))

    worst = 0.0
    fams = [(per2, "perimeter"), (vol2, "volume"), (dia2, "diameter"), (sur2, "surface")]
    for fam, attr in fams:
        geom = fam.geometry(fam.symmetric_parameter + 0.07)
        worst = max(worst, abs(getattr(geom, attr) - fam.normalization)
                    / fam.normalization)
    out.append(_chk("family_normalization_held", worst, 1e-12))

    # sigma1 * L is maximal at the square along the fixed perimeter family
    ps = np.linspace(0.05, 0.95, 91)
    sig = [steklov_sigma1(per2.geometry(float(p))) for p in ps]
    i = int(np.argmax(sig))
    out.append(_chk("steklov_length_scaled_square_max",
                    abs(float(ps[i]) - 0.5), float(ps[1] - ps[0])))
    return out


# ---------------------------------------------------------------------------
# oracle


def suite_oracle():
    out = []

    ok = True
    for t, a, n in ((1.0, 1.5, 41), (2.0, -3.0, 64), (0.5, 0.0, 101)):
        op = discretize(IntervalGeometry(t), a, n)
        ok = ok and bool(np.all(op.diag == op.diag[::-1]))
        ok = ok and bool(np.all(op.offdiag == op.offdiag[::-1]))
    out.append(_bool_chk("operator_mirror_symmetry", ok))

    vals, _ = oracle_eigs(IntervalGeometry(1.0), 0.0, 3)
    out.append(_chk("neumann_zero_mode", abs(vals[0]), 1e-9))

    exact = lambda1_interval(IntervalGeometry(1.0), 1.0)
    errs = []
    for n in (201, 401, 801):
        op = discretize(IntervalGeometry(1.0), 1.0, n)
        errs.append(abs(float(eigenvalues_sturm(op, 1)[0]) - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    out.append(_chk("convergence_order_h2", max(abs(o - 2.0) for o in orders), 0.1))

    # the extrapolated error sits on the bisection noise floor (~1e-12)
    # from base 38 on, so monotone refinement is witnessed through the
    # noise-free internal estimate instead, plus the gain over a raw grid
    geom = IntervalGeometry(1.0)
    exact = lambda1_interval(geom, -0.5)
    ests = []
    for base in (26, 51, 101, 201):
        vals, est = oracle_eigs(geom, -0.5, 1, base_n=base)
        ests.append(est)
    out.append(_chk("estimate_shrinks_under_refinement",
                    _worst_increase(ests), 0.0, strict=True))
    raw = abs(float(eigenvalues_sturm(discretize(geom, -0.5, 101), 1)[0]) - exact)
    extr = abs(float(oracle_eigs(geom, -0.5, 1, base_n=101)[0][0]) - exact)
    out.append(_chk("extrapolation_gain", extr / raw, 1e-3))

    worst = 0.0
    worst_est = -math.inf
    cells = 0
    for t in _T_SET:
        geom = IntervalGeometry(t)
        for a in (-5.0, -2.0, -1.0 / t, -0.3, 0.0, 0.3, 1.0, 5.0):
            approx, est = oracle_eigs(geom, a, 6)
            exact = np.array(spectrum_interval(geom, a, 6).values)
            diff = np.abs(approx - exact)
            allowed = np.maximum(1e-6 * np.abs(exact), 1e-8)
            worst = max(worst, float(np.max(diff / allowed)))
            worst_est = max(worst_est, float(np.max(diff)) - (est + 1e-10))
            cells += 1
    out.append(_chk(f"two_route_matrix_{cells}_cells", worst, 1.0))
    out.append(_chk("error_estimate_sound", worst_est, 0.0))
    return out


SUITES = {
    "lemmas": suite_lemmas,
    "interval": suite_interval,
    "box": suite_box,
    "shapes": suite_shapes,
    "oracle": suite_oracle,
}


def run_suite(name: str):
    if name not in SUITES:
        from .errors import DomainError
        raise DomainError(f"unknown suite {name!r}; expected one of {tuple(SUITES)}")
    return SUITES[name]()
