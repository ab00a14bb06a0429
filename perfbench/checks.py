"""Output checks: a 50-digit reference, brute-force cross-checks, scan locations.

The reference solves the four secular equations with mpmath at 50 digits,
bracketed from the closed-form bounds of each function (log coordinates,
and distance to the pole for the trigonometric branches near a pole), so it
shares no code with the library.  mpmath is used here only; it is not a
dependency of the package.

Every check appends to a ``Report``: a pass/fail verdict per operation and,
where a tolerance exists, the ratio measured / tolerance.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import mpmath
import numpy as np

import robinbox as rb
from workloads import FIGURE_RESOLUTION

DIGITS = 50
REF_REL_TOL = 1e-6          # eigenvalue answers against the 50-digit reference
HEAR_REL_TOL = 1e-9         # round trip of a genuine pair, as in the shapes suite
HEAR_BACKWARD_TOL = 1e-12   # pair reproduced by the returned rectangle, relative
SPECTRUM_REL_TOL = 8 * 2.0 ** -52
STEKLOV_REL_TOL = 1e-9      # sigma1 bracket, certified by a sign change
SAMPLE_PER_KIND = 40        # reference-checked answers per query kind and run

mp = mpmath.mp


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    ratios: dict = field(default_factory=dict)       # name -> worst measured / tolerance
    ulps: dict = field(default_factory=dict)         # name -> worst error in ulps
    ulp_count: int = 0
    failures: list = field(default_factory=list)     # first few messages
    notes: dict = field(default_factory=dict)

    def op(self, ok, message):
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message):
        """Count a failure; on its own, for an op already counted as attempted."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def ratio(self, name, measured, tolerance):
        r = float(measured) / tolerance
        self.ratios[name] = max(self.ratios.get(name, 0.0), r)
        return r <= 1.0

    def ulp(self, name, value):
        self.ulps[name] = max(self.ulps.get(name, 0.0), value)
        self.ulp_count += 1

    @property
    def worst_ratio(self):
        return max(self.ratios.values(), default=0.0)

    @property
    def max_ulp(self):
        return max(self.ulps.values(), default=0.0)

    @property
    def reference_ratio(self):
        """Worst measured/tolerance over the 50-digit reference checks."""
        return max((self.ratios[name] for name in self.ulps), default=0.0)


# ---------------------------------------------------------------------------
# 50-digit reference


def _solve_log(f, lo, hi):
    """Root of f(exp(u)) on the bracket [lo, hi] of u, returned as exp(u).

    The Anderson-Bjorck iterate is accepted only if f changes sign within
    a relative 1e-42 of it; otherwise plain bisection takes over.
    """
    def g(u):
        return f(mp.exp(u))

    u = mpmath.findroot(g, (lo, hi), solver="anderson", verify=False)
    d = mp.mpf(10) ** (8 - DIGITS) * max(1, abs(u))
    if not (lo <= u <= hi and g(u - d) * g(u + d) <= 0):
        glo = g(lo)
        while hi - lo > d:
            mid = (lo + hi) / 2
            gm = g(mid)
            if (gm < 0) == (glo < 0):
                lo, glo = mid, gm
            else:
                hi = mid
        u = (lo + hi) / 2
    return mp.exp(u)


@functools.lru_cache(maxsize=4096)
def ref_inverse(fn, y):
    """x with fn(x) = y on the principal branch, at DIGITS digits.

    Cached: lambda1, lambda2, the gap and the ratio of one box share roots."""
    with mpmath.workdps(DIGITS):
        y = mp.mpf(y)
        half_pi = mp.pi / 2
        if fn == "G1":
            if y < 1:
                return _solve_log(lambda x: x * mp.tan(x) - y,
                                  mp.log(mp.sqrt(y)) - 1, mp.log(half_pi - mp.mpf(10) ** -40))
            d = _solve_log(lambda d: (half_pi - d) * mp.cot(d) - y,
                           mp.log(half_pi / (y + 2)) - 1, mp.log(half_pi))
            return half_pi - d
        if fn == "G2":
            if y == 0:
                return half_pi
            if y < 0:
                return _solve_log(lambda x: -x * mp.cot(x) - y,
                                  mp.log(mp.sqrt(3 * (1 + y))) - 2, mp.log(half_pi))
            d = _solve_log(lambda d: (mp.pi - d) * mp.cot(d) - y,
                           mp.log(mp.pi / (y + 2)) - 1, mp.log(half_pi))
            return mp.pi - d
        if fn == "H1":
            return _solve_log(lambda x: x * mp.tanh(x) - y,
                              mp.log(min(y, mp.sqrt(y))) - 1, mp.log(y + 2))
        return _solve_log(lambda x: x * mp.coth(x) - y,
                          mp.log(mp.sqrt(3 * (y - 1))) - 1, mp.log(y))


def ref_mu1(w, alpha):
    with mpmath.workdps(DIGITS):
        w = mp.mpf(w)
        if alpha > 0:
            return (ref_inverse("G1", alpha * w) / w) ** 2
        if alpha == 0:
            return mp.zero
        return -(ref_inverse("H1", -alpha * w) / w) ** 2


def ref_mu2(w, alpha):
    with mpmath.workdps(DIGITS):
        y = mp.mpf(alpha) * w
        if y > -1:
            return (ref_inverse("G2", y) / w) ** 2
        if y == -1:
            return mp.zero
        return -(ref_inverse("H2", -y) / w) ** 2


def ref_interval_gap(w, alpha):
    """mu2 - mu1; below y = -1 through the exact exponential identity, since
    the two eigenvalues agree to more digits than any fixed precision holds."""
    with mpmath.workdps(DIGITS):
        y = mp.mpf(alpha) * w
        if y >= -1:
            return ref_mu2(w, alpha) - ref_mu1(w, alpha)
        z = -y
        a, b = ref_inverse("H1", z), ref_inverse("H2", z)
        ea, eb = mp.exp(-2 * a), mp.exp(-2 * b)
        return (a + b) * 2 * z * (ea + eb) / ((1 - ea) * (1 + eb)) / (mp.mpf(w) ** 2)


def ref_box(quantity, widths, alpha):
    """lambda1, lambda2, gap or ratio of a box, from its axis spectra.

    lambda2 promotes whichever axis has the smallest gap; the reference takes
    that minimum over all axes rather than assuming which axis it is.
    """
    with mpmath.workdps(DIGITS):
        l1 = mp.fsum(ref_mu1(w, alpha) for w in widths)
        if quantity == "lambda1":
            return l1
        gap = min(ref_interval_gap(w, alpha) for w in widths)
        if quantity == "gap":
            return gap
        if quantity == "lambda2":
            return l1 + gap
        return (l1 + gap) / abs(l1)


def ulp_error(value, ref):
    return float(abs(mp.mpf(value) - ref) / math.ulp(float(ref)))


def rel_error(value, ref):
    """|value - ref| relative to |ref|, or to the smallest normal double when
    |ref| is below it: subnormals carry no relative precision to measure."""
    return float(abs(mp.mpf(value) - ref)) / max(float(abs(ref)), sys.float_info.min)


def reference_ok(report, name, value, ref):
    """Record the ulp error of ``value`` and check its relative error."""
    report.ulp(name, ulp_error(value, ref))
    return report.ratio(name, rel_error(value, ref), REF_REL_TOL)


# ---------------------------------------------------------------------------
# fixed accuracy panel, the same inputs for every seed and workload

# alpha*t = +-m*10^k on the unit half-width, every other decade on a 2-D and
# a 3-D box, and a dense strip of small negative couplings for lambda1 and the
# ratio: there the solver's absolute tolerance (the known small-coupling
# defect) leaves errors that vary erratically with alpha and peak near the
# smallest per-axis coupling a query reaches, 1e-12 * 0.25/4.
PANEL_1D = [m * 10.0 ** k for k in range(-12, 12) for m in (1.0, 3.0)] + [1e12]
PANEL_BOXES = ((1.0, 0.5), (1.0, 0.6, 0.3))
PANEL_BOX_Y = [10.0 ** k for k in range(-12, 13, 2)]
PANEL_STRIP = [float(-y) for y in np.geomspace(1e-12 / 16, 1e-12, 100)]
TWO_ROUTE_CELL = (0.5, -2.0)               # the worst cell of the oracle suite's matrix
PANEL_FUNCS = {"lambda1": rb.lambda1_box, "lambda2": rb.lambda2_box, "gap": rb.gap_box,
               "ratio": rb.ratio_box}


def _panel_cases():
    """(widths, alpha, quantities) of every panel entry."""
    every = tuple(PANEL_FUNCS)
    for y in PANEL_1D:
        for sign in (1.0, -1.0):
            yield (1.0,), sign * y, every
    for widths in PANEL_BOXES:
        for y in PANEL_BOX_Y:
            for sign in (1.0, -1.0):
                yield widths, sign * y / max(widths), every
    for alpha in PANEL_STRIP:
        yield (1.0,), alpha, ("lambda1", "ratio")


def accuracy_panel(report, with_two_route):
    """Ulp errors of lambda1, lambda2, gap and ratio over the (alpha*t) plane.

    With ``with_two_route`` the finite-difference oracle is also run on one
    cell of the suite's two-route matrix and compared as the suite does.
    The inputs are fixed, so the panel's figures depend on the program
    only.  Pass/fail verdicts go to ``report``; the panel's own Report is
    returned, its ulps and ratios per quantity, with the cell's ratio as
    ``two_route_cell``.
    """
    panel = Report()
    for widths, alpha, quantities in _panel_cases():
        geom = rb.BoxGeometry(widths)
        for quantity in quantities:
            try:
                value = PANEL_FUNCS[quantity](geom, alpha)
            except Exception as exc:
                report.op(False, f"panel {quantity}{widths} at alpha={alpha!r} raised {exc!r}")
                continue
            ref = ref_box(quantity, widths, alpha)
            report.op(reference_ok(panel, quantity, value, ref),
                      f"panel {quantity}{widths} at alpha={alpha!r}: {value!r} "
                      f"vs {mpmath.nstr(ref, 17)}")
    if with_two_route:
        t, alpha = TWO_ROUTE_CELL
        try:
            approx, _ = rb.oracle_eigs(rb.IntervalGeometry(t), alpha, 6)
            exact = np.array(rb.spectrum_interval(rb.IntervalGeometry(t), alpha, 6).values)
        except Exception as exc:
            report.op(False, f"two-route cell t={t} alpha={alpha} raised {exc!r}")
        else:
            allowed = np.maximum(1e-6 * np.abs(exact), 1e-8)
            two_route = float(np.max(np.abs(approx - exact) / allowed))
            report.op(panel.ratio("two_route_cell", two_route, 1.0),
                      f"two-route cell t={t} alpha={alpha}: ratio {two_route}")
    return panel


# ---------------------------------------------------------------------------
# point_queries


def _brief(answer):
    if isinstance(answer, rb.ScanResult):
        return f"argopt {answer.argopt!r}, opt {answer.opt_value!r}"
    if isinstance(answer, tuple) and len(answer) == 2 and isinstance(answer[1], list):
        return f"{len(answer[1])} rows"
    return repr(answer)


class Checker:
    """Checks each op as it completes and keeps a bounded seeded sample of
    them for the expensive checks, so memory does not grow with the run."""

    def __init__(self, seed, stream):
        self.report = Report()
        self.rng = np.random.default_rng([seed, stream])
        self.pool = {}
        self.seen = {}

    def keep(self, key, item):
        """Reservoir sampling: every op of ``key`` is equally likely to be kept."""
        n = self.seen[key] = self.seen.get(key, 0) + 1
        pool = self.pool.setdefault(key, [])
        if len(pool) < SAMPLE_PER_KIND:
            pool.append(item)
        else:
            j = int(self.rng.integers(n))
            if j < SAMPLE_PER_KIND:
                pool[j] = item

    def observe(self, op):
        if op.error is not None:
            self.report.op(False, f"{op.kind}{op.args!r} raised {op.error!r}")
        else:
            self.report.op(self.cheap(op), f"{op.kind}{op.args!r} -> {_brief(op.answer)}")

    def finish(self):
        for key, pool in self.pool.items():
            for op in pool:
                if not self.deep(key, op):
                    self.report.fail(f"{op.kind}{op.args!r} -> {_brief(op.answer)} ({key})")
        self.report.notes["reference_checked"] = sum(map(len, self.pool.values()))
        return self.report


class PointQueryChecker(Checker):
    """Cheap checks on every answer; 50-digit reference, brute-force spectrum,
    sigma1 certificate and inverse-problem refits on a sample per kind."""

    HEAR_KINDS = ("genuine", "ill_conditioned", "equal_doubles",
                  "fabricated_rejected", "fabricated_refit")

    def __init__(self, seed):
        super().__init__(seed, 11)
        self.hear = dict.fromkeys(self.HEAR_KINDS, 0)

    def cheap(self, op):
        v = op.answer
        if op.kind in ("lambda1_box", "lambda2_box", "gap_box", "ratio_box"):
            ok = isinstance(v, float) and math.isfinite(v)
            if op.kind == "gap_box":
                ok = ok and v >= 0.0
            if ok:
                self.keep(op.kind, op)
            return ok
        if op.kind == "spectrum_box":
            k = op.args[2]
            ok = len(v) == k and all(math.isfinite(x) for x in v) \
                and all(a <= b for a, b in zip(v, v[1:]))
            if ok:
                self.keep(op.kind, op)
            return ok
        if op.kind == "steklov_sigma1":
            (widths,) = op.args
            if not (isinstance(v, float) and math.isfinite(v) and v > 0.0):
                return False
            if len(widths) == 1:
                return v == 1.0 / widths[0]
            self.keep(op.kind, op)
            return True
        return self.cheap_hear(op)

    def cheap_hear(self, op):
        """Classify an inverse-problem answer; see deep() for the refit rule.

        Genuine pairs must come back to HEAR_REL_TOL.  Where the two doubles
        pin the rectangle down less tightly than that (lambda2 - lambda1
        spans few ulps once alpha*t is strongly negative), the answer must
        instead be backward stable.  If lambda1 and lambda2 are the same
        double, Inconsistent is the right answer.  A fabricated pair must be
        rejected, or be reproduced by the rectangle returned: some scaled
        pairs do belong to another rectangle.
        """
        l1, l2, _ = op.args
        answer = op.answer
        rejected = isinstance(answer, rb.Inconsistent)
        if op.meta["fabricated"]:
            kind = "fabricated_rejected" if rejected else "fabricated_refit"
            ok = True
        elif l1 == l2:
            kind, ok = "equal_doubles", rejected
        elif rejected:
            kind, ok = "genuine", False
        else:
            t, s = op.meta["widths"]
            err = max(abs(answer[0] - t) / t, abs(answer[1] - s) / s)
            if err <= HEAR_REL_TOL:
                kind, ok = "genuine", self.report.ratio("hear_roundtrip", err, HEAR_REL_TOL)
            else:
                kind, ok = "ill_conditioned", True
        self.hear[kind] += 1
        if kind in ("fabricated_refit", "ill_conditioned"):
            self.keep(f"hear_{kind}", op)
        return ok

    def deep(self, key, op):
        r = self.report
        if key.startswith("hear_"):
            l1, l2, alpha = op.args
            return _backward_ok(r, key, op.answer, alpha, l1, l2)
        if key == "spectrum_box":
            return _spectrum_brute_force(r, *op.args, op.answer)
        if key == "steklov_sigma1":
            # lambda2(-sigma) changes sign across sigma*(1 -+ tol): sigma is certified
            widths, sigma = op.args[0], op.answer
            lo = ref_box("lambda2", widths, -sigma * (1.0 - STEKLOV_REL_TOL))
            hi = ref_box("lambda2", widths, -sigma * (1.0 + STEKLOV_REL_TOL))
            return lo > 0 > hi
        quantity = key[:-4]
        return reference_ok(r, quantity, op.answer, ref_box(quantity, *op.args))

    def finish(self):
        report = super().finish()
        report.notes.update({f"hear_{k}": v for k, v in self.hear.items()})
        return report


def _spectrum_brute_force(report, widths, alpha, k, vals):
    """Sorted sums over the full product of per-axis spectra."""
    axes = [np.array(rb.spectrum_interval(rb.IntervalGeometry(w), alpha, k).values)
            for w in widths]
    total = axes[0]
    for ax in axes[1:]:
        total = np.add.outer(total, ax).ravel()
    brute = np.sort(total)[:k]
    scale = max(1.0, float(np.max(np.abs(brute))))
    diff = float(np.max(np.abs(np.array(vals) - brute)))
    return report.ratio("spectrum_brute_force", diff, SPECTRUM_REL_TOL * scale)


def _backward_ok(report, name, widths, alpha, l1, l2):
    """The rectangle's exact eigenvalues reproduce the given pair."""
    scale = max(1.0, abs(l1), abs(l2))
    r = max(abs(float(ref_box("lambda1", widths, alpha)) - l1),
            abs(float(ref_box("lambda2", widths, alpha)) - l2))
    return report.ratio(name, r, HEAR_BACKWARD_TOL * scale)


# ---------------------------------------------------------------------------
# sweeps


def expected_location(kind, objective, alpha, constants):
    """Where the paper puts the optimum of a scan: 'sym', 'edge' or None.

    The square/cube is the optimizer of lambda1, the gap and the ratio along
    every normalized family.  The perimeter-scaled lambda2 is maximized by
    the square exactly for alpha in [alpha_minus, alpha_plus] and by a
    degenerate rectangle outside.  Unscaled lambda2 carries no claim.
    """
    a_minus, _, a_plus = constants
    if objective == "perim_lambda2":
        return "sym" if a_minus <= alpha <= a_plus else "edge"
    if objective == "lambda2":
        return None
    return "sym"


class SweepChecker(Checker):
    """Every scan's grid, refinement and optimum location; every figure's
    shape; one seeded grid point per sampled scan against the reference."""

    def __init__(self, seed, constants):
        super().__init__(seed, 12)
        self.constants = constants

    def cheap(self, op):
        if op.kind == "figure_table":
            return _check_figure(op)
        ok = _check_scan(self.report, op, self.constants)
        if ok:
            self.keep("scan_point", op)
        return ok

    def deep(self, key, op):
        return _check_scan_point(self.report, op, self.rng)


def _check_scan(report, op, constants):
    """Grid values finite; the refined optimum inside the best grid cells, at
    least as good as both neighbours of the best grid point, and where the
    paper puts it.  How far it falls short of the best grid value (it can,
    by a few 1e-9 relative, when the optimum sits on a steep range end) is
    kept as a diagnostic."""
    kind, norm, dim, alpha, objective = op.args
    res = op.answer
    values = np.array(res.values)
    if len(values) != len(res.parameters) or not np.all(np.isfinite(values)):
        return False
    sign = 1.0 if res.opt_kind == "max" else -1.0
    height = sign * values
    i = int(np.argmax(height))
    best = float(height[i])
    runner_up = float(max(height[j] for j in (i - 1, i + 1) if 0 <= j < len(height)))
    refined = sign * res.opt_value
    shortfall = (best - refined) / max(abs(best), sys.float_info.min)
    notes = report.notes
    notes["scan_shortfall_rel_max"] = max(notes.get("scan_shortfall_rel_max", 0.0), shortfall)
    ok = refined >= runner_up
    ok &= report.ratio("scan_argopt_in_cell", abs(res.argopt - res.parameters[i]), res.grid_cell)
    family = res.family
    where = expected_location(kind, objective, alpha, constants)
    lo, hi = family.parameter_range()
    if where == "sym":
        ok &= report.ratio("scan_location", abs(res.argopt - family.symmetric_parameter),
                           res.grid_cell)
    elif where == "edge":
        ok &= report.ratio("scan_location", min(res.argopt - lo, hi - res.argopt),
                           res.grid_cell)
    return ok


def _check_scan_point(report, op, rng):
    """One seeded grid point of the scan against the 50-digit reference."""
    kind, norm, dim, alpha, objective = op.args
    res = op.answer
    i = int(rng.integers(len(res.parameters)))
    geom = res.family.geometry(res.parameters[i])
    if objective == "perim_lambda2":
        ref = ref_box("lambda2", geom.half_widths, alpha / geom.perimeter) * mp.mpf(geom.volume)
    else:
        ref = ref_box(objective, geom.half_widths, alpha)
    return reference_ok(report, "scan_point", res.values[i], ref)


def _check_figure(op):
    header, rows = op.answer
    fig = rb.FigureId(op.args[0])
    drops_zero = fig in (rb.FigureId.RATIO_SQUARE_RECT, rb.FigureId.PERIM_RATIO)
    return (len(rows) == FIGURE_RESOLUTION - drops_zero
            and all(len(r) == len(header) for r in rows))


# ---------------------------------------------------------------------------
# verify


class VerifyChecker(Checker):
    """Every check of every suite must pass; keeps the measured/tolerance
    ratios and the two-route matrix result.  One attempted item per check."""

    def __init__(self):
        super().__init__(0, 13)
        self.two_route = None

    def observe(self, op):
        if op.error is not None:
            self.report.op(False, f"verify pass {op.args} raised {op.error!r}")
            return
        for r in op.answer:
            self.report.op(r.passed, r.line())
            if r.tolerance > 0.0:
                self.report.ratio(r.name, r.measured, r.tolerance)
            if r.name.startswith("two_route_matrix"):
                self.two_route = r.measured / r.tolerance
