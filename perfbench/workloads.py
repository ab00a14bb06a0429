"""Seeded workload generators and their closed-loop executors.

Every workload is one client in one thread: it sends the next operation only
after the previous one has returned.  Inputs come from a generator seeded by
the ``--seed`` argument; the library only ever receives the generated values.

Execution goes through ``call(name, fn, *args)`` so that the traced run can
record a span around each call into the library while the untraced run pays
only a plain function call.
"""

from __future__ import annotations

import array
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import robinbox as rb

# ---------------------------------------------------------------------------
# shared input distributions

# The query kinds are drawn with equal weight, and a hear_rectangle pair is
# genuine or fabricated with equal weight: the benchmark's definition names
# the kinds and both classes of pair without weighting them.  |alpha| of an
# inverse-problem query is log-uniform from the smallest |alpha * w| of the
# other kinds up to 50, the coupling range over which its round trips are
# specified.
LOG10_Y_RANGE = (-12.0, 12.0)      # |alpha * w| spans 1e-12 .. 1e12
WIDTH_RANGE = (0.25, 4.0)          # half-widths, log-uniform
HEAR_ALPHA_RANGE = (1e-12, 50.0)   # |alpha| for inverse-problem queries
FABRICATED_SHARE = 0.5             # hear queries built from lambda2 * 1.1
FABRICATION_FACTOR = 1.1

PQ_KINDS = ("lambda1_box", "lambda2_box", "gap_box", "ratio_box",
            "spectrum_box", "steklov_sigma1", "hear_rectangle")


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def draw_widths(rng, dim):
    return tuple(float(w) for w in log_uniform(rng, *WIDTH_RANGE, dim))


def draw_coupling(rng, widths):
    """alpha with |alpha * max(widths)| log-uniform over LOG10_Y_RANGE, either sign."""
    y = 10.0 ** rng.uniform(*LOG10_Y_RANGE)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * y / max(widths)


@dataclass
class Op:
    """One closed-loop operation: what was asked, what came back, how long it took."""

    kind: str
    args: tuple
    answer: object = None
    error: BaseException | None = None
    seconds: float = 0.0
    units: int = 1          # ops this call counts for (grid points, rows, checks)
    meta: dict = field(default_factory=dict)


def plain_call(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# point_queries


def point_query_stream(seed):
    """Endless seeded stream of single queries, mixed over PQ_KINDS.

    Inverse-problem queries carry an eigenvalue pair computed here, outside
    the timed call: a genuine pair of a random rectangle, or with probability
    FABRICATED_SHARE the same pair with lambda2 scaled by 1.1.
    """
    rng = np.random.default_rng([seed, 1])
    while True:
        kind = PQ_KINDS[int(rng.integers(len(PQ_KINDS)))]
        if kind == "hear_rectangle":
            t, s = sorted(log_uniform(rng, *WIDTH_RANGE, 2), reverse=True)
            alpha = float(log_uniform(rng, *HEAR_ALPHA_RANGE))
            alpha = alpha if rng.random() < 0.5 else -alpha
            rect = rb.BoxGeometry((float(t), float(s)))
            l1, l2 = rb.lambda1_box(rect, alpha), rb.lambda2_box(rect, alpha)
            fabricated = bool(rng.random() < FABRICATED_SHARE)
            if fabricated:
                l2 *= FABRICATION_FACTOR
            yield Op(kind, (l1, l2, alpha),
                     meta={"fabricated": fabricated, "widths": rect.half_widths})
            continue
        widths = draw_widths(rng, int(rng.integers(1, 4)))
        if kind == "steklov_sigma1":
            yield Op(kind, (widths,))
            continue
        alpha = draw_coupling(rng, widths)
        if kind == "spectrum_box":
            yield Op(kind, (widths, alpha, int(rng.integers(2, 21))))
        else:
            yield Op(kind, (widths, alpha))


_BOX_FUNCS = {
    "lambda1_box": rb.lambda1_box,
    "lambda2_box": rb.lambda2_box,
    "gap_box": rb.gap_box,
    "ratio_box": rb.ratio_box,
}


def run_point_query(op, call):
    kind = op.kind
    if kind in _BOX_FUNCS:
        widths, alpha = op.args
        return call(f"box.{kind}", _BOX_FUNCS[kind], rb.BoxGeometry(widths), alpha)
    if kind == "spectrum_box":
        widths, alpha, k = op.args
        return call("box.spectrum_box", rb.spectrum_box, rb.BoxGeometry(widths), alpha, k).values
    if kind == "steklov_sigma1":
        return call("box.steklov_sigma1", rb.steklov_sigma1, rb.BoxGeometry(op.args[0]))
    try:
        return call("shapes.hear_rectangle", rb.hear_rectangle, *op.args).half_widths
    except rb.Inconsistent as exc:
        return exc


# ---------------------------------------------------------------------------
# sweeps

SCAN_GRID = 256
FIGURE_RESOLUTION = 400

# (kind, normalization, dim): all four families, 2-D and 3-D where defined
SWEEP_FAMILIES = (
    ("fixed_perimeter", 2.0, 2),
    ("fixed_volume", 4.0, 2), ("fixed_volume", 8.0, 3),
    ("fixed_diameter", 2.0, 2), ("fixed_diameter", 2.0, 3),
    ("fixed_surface", 8.0, 2), ("fixed_surface", 24.0, 3),
)
SWEEP_OBJECTIVES = ("lambda1", "lambda2", "gap", "ratio", "perim_lambda2")
SWEEP_COUPLINGS = 6     # one on each side of alpha_minus, alpha_zero, alpha_plus


def _sweep_objectives(kind):
    return [o for o in SWEEP_OBJECTIVES if o != "perim_lambda2" or kind == "fixed_perimeter"]


SWEEP_PASS = (SWEEP_COUPLINGS * sum(len(_sweep_objectives(k)) for k, _, _ in SWEEP_FAMILIES)
              + len(rb.FigureId))


def critical_couplings():
    """alpha_minus, alpha_zero, alpha_plus (alpha_zero = -sigma1 of the unit square)."""
    return (rb.alpha_minus(), -rb.steklov_sigma1(rb.BoxGeometry((1.0, 1.0))),
            rb.alpha_plus())


def sweep_stream(seed, constants):
    """Endless seeded stream of sweep passes, each every scan and every figure.

    Each pass places one coupling on each side of alpha_minus, alpha_zero and
    alpha_plus, at a seeded distance, and shuffles the order of the calls.
    """
    rng = np.random.default_rng([seed, 2])
    a_minus, a_zero, a_plus = constants
    while True:
        couplings = []
        for centre, (dlo, dhi) in ((a_minus, (0.3, 0.9)), (a_zero, (0.1, 0.6)),
                                   (a_plus, (0.3, 0.9))):
            couplings += [centre - rng.uniform(dlo, dhi), centre + rng.uniform(dlo, dhi)]
        ops = []
        for kind, norm, dim in SWEEP_FAMILIES:
            for objective in _sweep_objectives(kind):
                for alpha in couplings:
                    ops.append(Op("scan_family", (kind, norm, dim, float(alpha), objective),
                                  units=SCAN_GRID))
        for fig in rb.FigureId:
            ops.append(Op("figure_table", (fig.value,)))
        for i in rng.permutation(len(ops)):
            yield ops[int(i)]


def run_sweep(op, call):
    if op.kind == "scan_family":
        kind, norm, dim, alpha, objective = op.args
        family = rb.RectangleFamily(kind, norm, dim)
        return call("shapes.scan_family", rb.scan_family, family, alpha, objective, SCAN_GRID)
    header, rows = call("figures.figure_table", rb.figure_table, rb.FigureId(op.args[0]),
                        FIGURE_RESOLUTION)
    op.units = len(rows)
    return header, rows


# ---------------------------------------------------------------------------
# verify


def verify_stream(seed):
    """Endless stream of passes, each one op that runs all suites in a seeded order.

    A pass is what ``robinbox verify`` runs, so its latency is the one a
    user waits for; a single suite call is too short to time steadily on a
    shared host.
    """
    rng = np.random.default_rng([seed, 3])
    names = list(rb.SUITES)
    while True:
        yield Op("verify_pass", tuple(names[int(i)] for i in rng.permutation(len(names))))


def run_verify(op, call):
    results = []
    for name in op.args:
        results += call(f"verify.{name}", rb.run_suite, name)
    op.units = len(results)
    return results


# ---------------------------------------------------------------------------
# warm-up: first calls of each kind, so lazy work lands in set-up time

def warm_up(workload):
    box = rb.BoxGeometry((1.0, 0.5))
    rb.lambda1_box(box, 1.0)
    rb.gap_box(box, -2.0)
    if workload == "point_queries":
        rb.spectrum_box(box, 1.0, 4)
        rb.steklov_sigma1(box)
        rb.hear_rectangle(rb.lambda1_box(box, 1.0), rb.lambda2_box(box, 1.0), 1.0)
    elif workload == "sweeps":
        rb.scan_family(rb.RectangleFamily("fixed_perimeter", 2.0, 2), 1.0, "perim_lambda2", 16)
        rb.figure_table(rb.FigureId.BASIS_GH, 16)
    else:
        op = rb.discretize(rb.IntervalGeometry(1.0), 1.0, 16)
        rb.eigenvalues_sturm(op, 1)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    op_unit: str
    latency_unit: str
    stream: object      # seed -> iterator of Op
    execute: object     # (op, call) -> answer
    pass_size: int = 0  # ops per whole pass; 0 for an open-ended stream


def _sweep_stream(seed):
    return sweep_stream(seed, critical_couplings())


WORKLOADS = {
    "point_queries": Workload("point_queries", "query", "query",
                              point_query_stream, run_point_query),
    "sweeps": Workload("sweeps", "grid point or figure row", "scan or figure call",
                       _sweep_stream, run_sweep, pass_size=SWEEP_PASS),
    "verify": Workload("verify", "check", "pass over all suites", verify_stream, run_verify,
                       pass_size=1),
}


@dataclass
class Segment:
    """What a closed-loop run leaves: busy seconds (in all, per op kind),
    per-call latencies, ops done."""

    busy: float = 0.0
    kind_busy: dict = field(default_factory=dict)    # op kind -> busy seconds
    units: int = 0
    latencies: array.array = field(default_factory=lambda: array.array("d"))
    starts: array.array = field(default_factory=lambda: array.array("d"))
    ops: list = field(default_factory=list)


def run_closed_loop(workload, stream, seconds, tracer=None, observe=None, keep=False,
                    clock=time.perf_counter):
    """Execute ops from ``stream`` until ``seconds`` of busy time have passed
    or the stream ends.

    Busy time is the sum of per-op latencies read from ``clock``, so stream
    generation and checks are excluded.  A workload made of whole passes
    starts another pass only while the time used plus half a pass stays
    within ``seconds``, so every run does the same mix.  Each finished op
    goes to ``observe`` and is kept only with ``keep``.  With a tracer, each
    op is a span and each library call a child span of it.
    """
    seg = Segment()

    def execute(op):
        call = plain_call if tracer is None else tracer.call
        span = None if tracer is None else tracer.open(f"op.{op.kind}")
        t0 = clock()
        try:
            op.answer = workload.execute(op, call)
        except Exception as exc:    # any exception is a failed op, not an aborted run
            op.error = exc
        op.seconds = clock() - t0
        if span is not None:
            tracer.close(span)
        seg.busy += op.seconds
        seg.kind_busy[op.kind] = seg.kind_busy.get(op.kind, 0.0) + op.seconds
        seg.units += op.units
        seg.latencies.append(op.seconds)
        seg.starts.append(t0)
        if observe is not None:
            observe(op)
        if keep:
            seg.ops.append(op)

    stream = iter(stream)
    if workload.pass_size:
        pass_time = 0.0
        while not seg.latencies or seg.busy + 0.5 * pass_time <= seconds:
            batch = list(itertools.islice(stream, workload.pass_size))
            if not batch:
                break
            start = seg.busy
            for op in batch:
                execute(op)
            pass_time = seg.busy - start
        return seg
    for op in stream:
        execute(op)
        if seg.busy >= seconds:
            break
    return seg


def replay(ops):
    """Fresh copies of ``ops`` with the same inputs, to run them again."""
    return [replace(op, answer=None, error=None, seconds=0.0, meta=dict(op.meta))
            for op in ops]
