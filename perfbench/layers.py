"""Traced run: spans around calls into each module, and per-layer probes.

Spans are recorded from the benchmark's own files around the calls it makes
into the library's public functions; nothing inside the package is
instrumented.  They are kept in memory and written out when the run ends.

Probe inputs come from the workload's own generator (``LayerInputs``), so
the same layer is measured on the couplings and shapes that workload sends.
Every metric carries its sample count.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import robinbox as rb
from checks import ref_inverse, ulp_error
from workloads import HEAR_ALPHA_RANGE, draw_coupling, draw_widths, log_uniform

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Tracer:
    """Spans as (name, start, end, parent index); parent -1 is the run itself."""

    def __init__(self):
        self.spans = []
        self.current = -1

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self.current])
        self.current = len(self.spans) - 1
        return self.current

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.current = span[3]

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, t0, time.perf_counter(), self.current])

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


class Metrics:
    """Per-layer values with unit and sample count."""

    def __init__(self):
        self.values = {}

    def put(self, name, value, unit, n):
        self.values[name] = (float(value), unit, int(n))

    def timed(self, name, fn, args_list, unit="us"):
        scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
        times = []
        for args in args_list:
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        self.put(name, statistics.median(times) * scale, unit, len(times))


# ---------------------------------------------------------------------------
# layer inputs, one distribution per workload

_VERIFY_HALF_LENGTHS = (0.5, 1.0, 2.0, 5.0)


class LayerInputs:
    """Couplings and half-widths in the workload's own distribution."""

    def __init__(self, workload, seed, constants):
        self.workload = workload
        self.rng = np.random.default_rng([seed, 21])
        self.constants = constants

    def widths(self, dim):
        rng = self.rng
        if self.workload == "point_queries":
            return draw_widths(rng, dim)
        if self.workload == "sweeps":
            kind = ("fixed_volume", "fixed_diameter", "fixed_surface")[int(rng.integers(3))]
            norm = {"fixed_volume": 2.0 ** dim, "fixed_diameter": 2.0,
                    "fixed_surface": 2.0 * dim * 2.0 ** (dim - 1)}[kind]
            family = rb.RectangleFamily(kind, norm, max(dim, 2))
            ws = family.geometry(float(rng.uniform(*family.parameter_range()))).half_widths
            return ws[:dim]
        return tuple(float(rng.choice(_VERIFY_HALF_LENGTHS)) for _ in range(dim))

    def coupling(self, widths, max_abs_y=math.inf, min_abs_y=0.0):
        """A coupling for ``widths`` with |alpha * max(widths)| in [min_abs_y, max_abs_y]."""
        rng = self.rng
        for _ in range(10000):
            if self.workload == "point_queries":
                alpha = draw_coupling(rng, widths)
            elif self.workload == "sweeps":
                centre = self.constants[int(rng.integers(3))]
                alpha = centre + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.9)
            else:
                alpha = rng.uniform(-30.0, 30.0)
            if alpha != 0.0 and min_abs_y <= abs(alpha) * max(widths) <= max_abs_y:
                return float(alpha)
        raise RuntimeError("no coupling within the requested range")

    def cases(self, n, dim):
        out = []
        for _ in range(n):
            ws = self.widths(dim)
            out.append((ws, self.coupling(ws)))
        return out


# regime ranges of the basis-function inverses, as (kind, lo, hi) on y:
# small means a root near 0 (where an absolute tolerance dominates), large
# is y >= 2 (the distance-to-pole path of G1 and G2)
REGIMES = {
    "G1": {"small": ("log", 1e-12, 1e-2), "moderate": ("lin", 1e-2, 2.0),
           "large": ("log", 2.0, 1e12)},
    "G2": {"small": ("log-1", 1e-12, 1e-2), "moderate": ("lin", -0.99, 2.0),
           "large": ("log", 2.0, 1e12)},
    "H1": {"small": ("log", 1e-12, 1e-2), "moderate": ("lin", 1e-2, 2.0),
           "large": ("log", 2.0, 1e12)},
    "H2": {"small": ("log+1", 1e-12, 1e-2), "moderate": ("lin", 1.01, 2.0),
           "large": ("log", 2.0, 1e12)},
}
BASIS_CALLS = 100
BASIS_REFERENCE = 10


def _regime_sample(rng, spec, n):
    kind, lo, hi = spec
    if kind == "lin":
        return [float(v) for v in rng.uniform(lo, hi, n)]
    v = log_uniform(rng, lo, hi, n)
    shift = {"log": 0.0, "log-1": -1.0, "log+1": 1.0}[kind]
    return [float(x + shift) for x in v]


def probe_rootfind(m, inputs):
    cfg = rb.RootConfig()
    batches = []
    for _ in range(20):
        t0 = time.perf_counter()
        for _ in range(100):
            rb.default_config()
        batches.append((time.perf_counter() - t0) / 100)
    m.put("rootfind.default_config_us", statistics.median(batches) * 1e6, "us", 2000)

    times, fevals = [], []
    for _ in range(200):
        ws = inputs.widths(1)
        y = abs(inputs.coupling(ws) * ws[0])
        y = min(max(y, 1e-3), 1.99)
        count = 0

        def f(x):
            nonlocal count
            count += 1
            return x * math.tan(x) - y

        lo, hi = math.atan(2.0 * y / math.pi), math.sqrt(y)
        bracket = rb.RootBracket(lo, hi, f(lo), f(hi))
        count = 0
        t0 = time.perf_counter()
        rb.solve_bracketed(f, bracket, cfg)
        times.append(time.perf_counter() - t0)
        fevals.append(count)
    m.put("rootfind.solve_us", statistics.median(times) * 1e6, "us", len(times))
    m.put("rootfind.fevals_per_solve", statistics.mean(fevals), "count", len(fevals))


def probe_basisfn(m, inputs):
    for name, regimes in REGIMES.items():
        fn = rb.BasisFunction[name]
        for regime, spec in regimes.items():
            ys = _regime_sample(inputs.rng, spec, BASIS_CALLS)
            m.timed(f"basisfn.inverse_us.{name}.{regime}", rb.eval_inverse,
                    [(fn, y) for y in ys])
            worst = max(ulp_error(rb.eval_inverse(fn, y), ref_inverse(name, y))
                        for y in ys[:BASIS_REFERENCE])
            m.put(f"basisfn.err_ulp.{name}.{regime}", worst, "ulp", BASIS_REFERENCE)


def probe_interval(m, inputs):
    cases = [(rb.IntervalGeometry(ws[0]), a) for ws, a in inputs.cases(200, 1)]
    m.timed("interval.lambda1_us", rb.lambda1_interval, cases)
    m.timed("interval.lambda2_us", rb.lambda2_interval, cases)
    m.timed("interval.gap_us", rb.gap_interval, cases)
    m.timed("interval.spectrum_k6_us", rb.spectrum_interval,
            [(g, a, 6) for g, a in cases[:100]])
    m.timed("interval.spectrum_k20_us", rb.spectrum_interval,
            [(g, a, 20) for g, a in cases[:50]])


def probe_box(m, inputs):
    cases = [(rb.BoxGeometry(ws), a) for ws, a in inputs.cases(200, 2)]
    m.timed("box.lambda1_2d_us", rb.lambda1_box, cases)
    m.timed("box.gap_2d_us", rb.gap_box, cases)
    m.timed("box.spectrum_2d_k6_us", rb.spectrum_box, [(g, a, 6) for g, a in cases[:50]])
    m.timed("box.spectrum_3d_k50_us", rb.spectrum_box,
            [(rb.BoxGeometry(ws), a, 50) for ws, a in inputs.cases(10, 3)])
    m.timed("box.steklov_us", rb.steklov_sigma1, [(g,) for g, _ in cases[:30]])


# |alpha| window of the scan probe.  Below about 1e-8 a perimeter scan
# reaches x*tan(x) = y with y under 1e-16, where the G1 bracket loses its
# sign change (a known defect; the sweeps workload stays near alpha_-,
# alpha_0 and alpha_+, far above it).
SCAN_ALPHA = (1e-2, 50.0)


def probe_shapes(m, inputs):
    family = rb.RectangleFamily("fixed_perimeter", 2.0, 2)
    scans = [(family, inputs.coupling((1.0,), SCAN_ALPHA[1], SCAN_ALPHA[0]),
              "perim_lambda2", 256) for _ in range(5)]
    m.timed("shapes.scan_256_ms", rb.scan_family, scans, unit="ms")

    times, recovered = [], 0
    lo, hi = HEAR_ALPHA_RANGE
    pairs = [(inputs.widths(2), inputs.coupling((1.0,), hi, lo)) for _ in range(100)]
    for ws, alpha in pairs:
        t, s = max(ws), min(ws)
        rect = rb.BoxGeometry((t, s))
        l1, l2 = rb.lambda1_box(rect, alpha), rb.lambda2_box(rect, alpha)
        t0 = time.perf_counter()
        try:
            got = rb.hear_rectangle(l1, l2, alpha).half_widths
        except rb.Inconsistent:
            got = None
        times.append(time.perf_counter() - t0)
        if got is not None and abs(got[0] - t) <= 1e-9 * t and abs(got[1] - s) <= 1e-9 * s:
            recovered += 1
    m.put("shapes.hear_us", statistics.median(times) * 1e6, "us", len(times))
    m.put("shapes.hear_accept_frac", recovered / len(pairs), "ratio", len(pairs))


def probe_figures(m):
    t0 = time.perf_counter()
    for fig in rb.FigureId:
        rb.figure_table(fig, 400)
    m.put("figures.all_ms", (time.perf_counter() - t0) * 1e3, "ms", 1)


STURM_GRIDS = (401, 801, 1601, 4001)


def probe_oracle(m, inputs):
    ws = inputs.widths(1)
    alpha = inputs.coupling(ws, max_abs_y=5.0)
    geom = rb.IntervalGeometry(ws[0])
    for n in STURM_GRIDS:
        op = rb.discretize(geom, alpha, n)
        m.timed(f"oracle.sturm_ms.n{n}", rb.eigenvalues_sturm, [(op, 6)], unit="ms")
    m.timed("oracle.eigs_ms", rb.oracle_eigs, [(geom, alpha, 6)], unit="ms")


def probe_verify(m, tracer):
    """Suite times from the traced workload when it ran them, else one run each."""
    for name in rb.SUITES:
        times = tracer.durations(f"verify.{name}")
        if not times:
            t0 = time.perf_counter()
            rb.run_suite(name)
            times = [time.perf_counter() - t0]
        m.put(f"verify.{name}_s", statistics.median(times), "s", len(times))


CLI_REPEATS = 5


def _subprocess_seconds(argv, env):
    times = []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def probe_cli(m, env):
    code = ("import time; t0 = time.perf_counter(); import robinbox; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(CLI_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip()))
    m.put("cli.import_ms", statistics.median(times) * 1e3, "ms", len(times))
    cold = _subprocess_seconds(
        [sys.executable, "-m", "robinbox", "gap", "--box", "2,1", "--alpha", "3"], env)
    m.put("cli.cold_start_ms", statistics.median(cold) * 1e3, "ms", len(cold))


def probe_source_lines(m):
    total = 0
    for path in sorted((SRC / "robinbox").glob("*.py")):
        n = path.read_bytes().count(b"\n")
        total += n
        m.put(f"src.lines.{path.stem}", n, "count", 1)
    m.put("src.lines.total", total, "count", 1)
