"""Top-level acceptance checks, one verdict line per criterion.

Each test prints ``acceptance NN name: PASS/FAIL (details)`` through the
capture bypass so the verdicts always reach the console, computes every
measured quantity before judging, and only then asserts.  Tolerances are
stated inline next to the measured values they bound.
"""

import math
import time

import numpy as np
import pytest

from robinbox import (
    AlphaZero,
    BasisFunction,
    BoxGeometry,
    FigureId,
    IntervalGeometry,
    alpha_minus,
    alpha_plus,
    eval_inverse,
    figure_table,
    gap_box,
    gap_interval,
    hear_rectangle,
    lambda1_box,
    lambda1_interval,
    lambda2_box,
    run_suite,
    scaled_quantity,
    steklov_sigma1,
)

HALF_PI = 0.5 * math.pi


@pytest.fixture
def announce(capsys):
    def _announce(number, name, ok, details):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"acceptance {number:02d} {name}: {verdict} ({details})")
    return _announce


def test_01_critical_constants(announce):
    t0 = time.perf_counter()
    ap = alpha_plus()
    am = alpha_minus()
    elapsed = time.perf_counter() - t0
    rp = abs(eval_inverse(BasisFunction.G1, ap / 8.0) ** 2
             + eval_inverse(BasisFunction.G2, ap / 8.0) ** 2 - ap / 4.0)
    m = -am
    rm = abs(eval_inverse(BasisFunction.H1, m / 8.0) ** 2
             + eval_inverse(BasisFunction.H2, m / 8.0) ** 2 - m / 4.0)
    ok = (abs(ap - 33.2054) <= 5e-4 and abs(am + 9.3885) <= 5e-4
          and rp <= 1e-10 and rm <= 1e-10 and elapsed < 1.0)
    announce(1, "critical_constants", ok,
             f"alpha_plus={ap:.7f} alpha_minus={am:.7f} tol 5e-4, "
             f"residuals ({rp:.1e}, {rm:.1e}) tol 1e-10, {elapsed:.3f}s")
    assert ok


def test_02_square_steklov(announce):
    t0 = time.perf_counter()
    sigma = steklov_sigma1(BoxGeometry((1.0, 1.0)))
    x = eval_inverse(BasisFunction.H1, sigma)
    elapsed = time.perf_counter() - t0
    ok = (abs(sigma - 0.68825) <= 5e-5 and abs(x - 0.93755) <= 5e-5
          and elapsed < 1.0)
    announce(2, "square_steklov", ok,
             f"sigma1={sigma:.7f} root_x={x:.7f} tol 5e-5, {elapsed:.3f}s")
    assert ok


def test_03_oracle_matrix(announce):
    # the oracle suite's two-route matrix compares the finite-difference
    # route with the closed form over all its cells; its measured value is
    # the worst error as a share of the allowance max(1e-6|lambda|, 1e-8)
    t0 = time.perf_counter()
    results = run_suite("oracle")
    elapsed = time.perf_counter() - t0
    (matrix,) = [r for r in results if r.name.startswith("two_route_matrix_")]
    cells = int(matrix.name.split("_")[3])
    worst = matrix.measured
    ok = cells >= 30 and worst <= 1.0 and elapsed < 60.0
    announce(3, "oracle_matrix", ok,
             f"{cells} cells, worst error {worst:.4f} of allowance "
             f"max(1e-6|lambda|, 1e-8), {elapsed:.1f}s")
    assert ok


def test_04_extreme_coupling_limits(announce):
    unit = IntervalGeometry(1.0)
    lam = lambda1_interval(unit, 1e6)
    rel_dirichlet = abs(lam / HALF_PI ** 2 - 1.0)
    gap = gap_interval(unit, 1e6)
    rel_gap = abs(gap / (3.0 * math.pi ** 2 / 4.0) - 1.0)
    deep = lambda1_interval(unit, -30.0)
    rel_deep = abs(deep / -900.0 - 1.0)
    ok = rel_dirichlet <= 1e-4 and rel_gap <= 1e-4 and rel_deep <= 1e-8
    announce(4, "extreme_coupling_limits", ok,
             f"hard-wall rel err {rel_dirichlet:.1e} and gap rel err "
             f"{rel_gap:.1e} tol 1e-4, deep-negative rel err {rel_deep:.1e} tol 1e-8")
    assert ok


def test_05_invariant_grid_suite(announce):
    results = run_suite("lemmas")
    bad = [r.name for r in results if not r.passed]
    ok = not bad and len(results) >= 40
    announce(5, "invariant_grid_suite", ok,
             f"{len(results)} grid checks, failures: {bad if bad else 'none'}")
    assert ok


def test_06_optimality_scans(announce):
    t0 = time.perf_counter()
    results = run_suite("shapes")
    elapsed = time.perf_counter() - t0
    scans = [r for r in results
             if r.name.startswith("scan_") or r.name == "gap_beats_segment"]
    bad = [r.name for r in scans if not r.passed]
    ok = not bad and len(scans) >= 25 and elapsed < 300.0
    announce(6, "optimality_scans", ok,
             f"{len(scans)} certified scans at grid 256, failures: "
             f"{bad if bad else 'none'}, {elapsed:.1f}s")
    assert ok


def test_07_gap_monotone_eigenvalues_concave(announce):
    alphas = np.linspace(-50.0, 50.0, 200)
    min_gap_rise = math.inf
    worst_curvature = -math.inf
    for ws in ((1.0, 1.0), (3.0, 1.0), (2.0, 1.0, 1.0)):
        geom = BoxGeometry(ws)
        gaps = [gap_box(geom, float(a)) for a in alphas]
        min_gap_rise = min(min_gap_rise,
                           min(b - a for a, b in zip(gaps, gaps[1:])))
        for f in (lambda1_box, lambda2_box):
            vals = np.array([f(geom, float(a)) for a in alphas])
            d2 = np.diff(vals, 2)
            worst_curvature = max(worst_curvature, float(np.max(d2)))
    ok = min_gap_rise > 0.0 and worst_curvature <= 1e-10
    announce(7, "gap_monotone_eigenvalues_concave", ok,
             f"200 couplings in [-50, 50] x 3 boxes: smallest gap step "
             f"{min_gap_rise:.2e} (must exceed 0), largest second difference "
             f"{worst_curvature:.2e} tol 1e-10")
    assert ok


def test_08_hearing_roundtrip(announce):
    rng = np.random.default_rng(424243)
    worst = 0.0
    for _ in range(200):
        a_side, b_side = np.exp(rng.uniform(math.log(0.2), math.log(3.5), 2))
        t, s = max(a_side, b_side), min(a_side, b_side)
        truth = BoxGeometry((float(t), float(s)))
        for alpha in (0.3, -0.3, 2.0, -2.0, 7.0):
            rec = hear_rectangle(lambda1_box(truth, alpha),
                                 lambda2_box(truth, alpha), alpha)
            worst = max(worst,
                        abs(rec.half_widths[0] - t) / t,
                        abs(rec.half_widths[1] - s) / s)
    try:
        hear_rectangle(0.0, 1.0, 0.0)
        rejects = False
    except AlphaZero:
        rejects = True
    ok = worst <= 1e-9 and rejects
    announce(8, "hearing_roundtrip", ok,
             f"200 rectangles x 5 couplings: worst relative side error "
             f"{worst:.2e} tol 1e-9, alpha=0 rejected: {rejects}")
    assert ok


def test_09_linear_upper_bound(announce):
    rng = np.random.default_rng(20240814)
    worst_excess = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 4))
        ws = tuple(float(w) for w in np.exp(rng.uniform(math.log(0.2),
                                                        math.log(5.0), n)))
        geom = BoxGeometry(ws)
        for a in (1.0, -1.0, 10.0, -10.0):
            worst_excess = max(worst_excess,
                               scaled_quantity(geom, a, "linear_bound_lhs") - a)
    worst_rise = -math.inf
    tail = 0.0
    for n in (2, 3):
        prev = None
        for m in range(1, 13):
            geom = BoxGeometry((1.0,) * (n - 1) + (2.0 ** -m,))
            deficit = 1.0 - scaled_quantity(geom, 1.0, "linear_bound_lhs")
            if prev is not None:
                worst_rise = max(worst_rise, deficit - prev)
            prev = deficit
        tail = max(tail, prev)
    ok = worst_excess < 0.0 and worst_rise < 0.0 and tail < 1e-3
    announce(9, "linear_upper_bound", ok,
             f"100 random boxes x 4 couplings: worst lhs-alpha {worst_excess:.2e} "
             f"(strictly negative required); deficit decreasing with final "
             f"value {tail:.1e} (< 1e-3)")
    assert ok


def test_10_figure_claims(announce):
    header, rows = figure_table(FigureId.INTERVAL_FIRST_SIX, 201)
    neumann = [r for r in rows if r[0] == 0.0][0]
    worst_neumann = max(abs(neumann[1 + j] - (j * HALF_PI) ** 2)
                        for j in range(6))
    ordered = all(r[i] < r[i + 1] for r in rows for i in range(1, 6))

    header, rows = figure_table(FigureId.PERIM_RATIO, 201)
    si, ri = header.index("ratio_square"), header.index("ratio_rect")
    margin = min(r[si] - r[ri] for r in rows if r[0] > 0.0)

    ok = worst_neumann <= 1e-10 and ordered and margin >= 0.0
    announce(10, "figure_claims", ok,
             f"free-boundary row off by {worst_neumann:.1e} tol 1e-10; curves "
             f"strictly ordered: {ordered}; square-over-rectangle ratio margin "
             f"{margin:.2e} (>= 0) for positive coupling")
    assert ok
