"""robinbox benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload point_queries --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/`` without installation.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones of a separate traced run, whose spans are
written to ``.perfbench_out/``.  Lines before it are a readable report that
gives every figure with its sample count.  The exit code is 0 when the run
completed, whether or not its outputs were correct, and 2 when the checkout
holds no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
SAMPLE_INTERVAL_S = 0.5
HOST_WINDOW_S = 0.5
HOST_REF_MS = 20.0           # ref_loop() median on a 2-core host with Python 3.11
TRACE_PAIRS = 2              # untraced segments, each replayed with tracing on
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99,
               99.995, 99.998, 99.999)


def _child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def ref_loop():
    """A fixed pure-Python loop; its time tracks the host, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


class HostSampler:
    """Runs ref_loop() from a timer signal every SAMPLE_INTERVAL_S of wall time.

    The samples interleave with the timed work, inside long library calls
    too.  Each op is reported at the reference host speed: its latency is
    multiplied by HOST_REF_MS / (median of the samples taken within
    HOST_WINDOW_S of it).  On a shared host this tracks speed changes within
    a run; one scale for the whole run (the median of all samples) left
    point_queries' throughput 2.5 times as spread over seeds.  ``clock`` is
    perf_counter minus the time spent in the sampler, so no op is charged
    for it; sample stamps use that clock.
    """

    def __init__(self):
        self.samples = []
        self.stamps = []
        self.stolen = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(ref_loop())
        self.stamps.append(t0 - self.stolen)
        self.stolen += time.perf_counter() - t0

    def clock(self):
        # the signal handler may run between the two reads; read again until
        # no sample was taken in between
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._sample(None, None)

    def host_ms(self, starts, latencies):
        """Median sample within HOST_WINDOW_S of each op; the run's median
        where none falls in the window."""
        stamps = np.array(self.stamps)
        samples = np.array(self.samples)
        run_median = float(np.median(samples))
        lo = np.searchsorted(stamps, starts - HOST_WINDOW_S)
        hi = np.searchsorted(stamps, starts + latencies + HOST_WINDOW_S)
        medians = {}
        out = np.empty(len(starts))
        for i, window in enumerate(zip(lo.tolist(), hi.tolist())):
            if window not in medians:
                a, b = window
                medians[window] = float(np.median(samples[a:b])) if b > a else run_median
            out[i] = medians[window]
        return out, run_median


def measure_setup(workload, host):
    """Median wall time from spawning a fresh interpreter to its first timed op;
    the host loop runs before each spawn."""
    times = []
    for _ in range(SETUP_REPEATS):
        host.append(ref_loop())
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                              stdout=subprocess.PIPE, text=True, env=_child_env(),
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times), times


def tail(latencies):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it;
    the maximum when there are too few samples for any."""
    n = len(latencies)
    chosen = 100.0
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen, float(np.percentile(latencies, chosen))


def make_checker(workload, seed, constants):
    if workload == "point_queries":
        return checks.PointQueryChecker(seed)
    if workload == "sweeps":
        return checks.SweepChecker(seed, constants)
    return checks.VerifyChecker()


def finish_checks(workload, checker):
    """Correctness report plus max ulp error, two-route ratio and worst check ratio.

    max_err_ulp is the worst over the fixed accuracy panel and the seeded
    reference sample: the panel pins the figure to the program's worst known
    case, and the sample catches errors in the workload's own answers.  The
    verify workload takes both ratios from the suites it ran.  The other two
    take the two-route ratio from the panel's oracle cell, and the worst
    check ratio over the panel and the seeded reference sample.  A two-route
    ratio that could not be measured is a failure and reads as infinite.
    """
    report = checker.finish()
    panel = checks.accuracy_panel(report, with_two_route=workload != "verify")
    max_ulp = max(panel.max_ulp, report.max_ulp)
    if workload == "verify":
        two_route, worst = checker.two_route, report.worst_ratio
    else:
        two_route = panel.ratios.get("two_route_cell")
        worst = max(panel.worst_ratio, report.reference_ratio)
    if two_route is None:
        report.op(False, "no two-route result was measured")
        two_route = math.inf
    return report, panel, max_ulp, two_route, worst


def end_to_end(args, wl):
    setup_host = []
    setup_raw, setup_times = measure_setup(args.workload, setup_host)
    warm_up(args.workload)
    constants = critical_couplings()
    checker = make_checker(args.workload, args.seed, constants)
    with HostSampler() as sampler:
        seg = run_closed_loop(wl, wl.stream(args.seed), args.seconds,
                              observe=checker.observe, clock=sampler.clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units, busy = seg.units, seg.busy
    raw = np.array(seg.latencies)
    host_ms, run_host_ms = sampler.host_ms(np.array(seg.starts), raw)
    scaled_ms = raw * 1e3 * HOST_REF_MS / host_ms
    report, panel, max_ulp, two_route, worst = finish_checks(args.workload, checker)

    setup_s = setup_raw * HOST_REF_MS / statistics.median(setup_host)
    raw_ops_per_s = units / busy
    ops_per_s = units / (scaled_ms.sum() / 1e3)
    p50, p50_raw = float(np.median(scaled_ms)), float(np.median(raw)) * 1e3
    tail_p, tail_ms = tail(scaled_ms)
    tail_raw = tail(raw * 1e3)[1]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "max_err_ulp": (max_ulp, "ulp"),
        "two_route_ratio": (two_route, "ratio"),
        "worst_check_ratio": (worst, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    n = len(raw)
    lines = [
        f"workload {wl.name} seed {args.seed}: {n} calls, {units} ops "
        f"(op = {wl.op_unit}), {busy:.3f} s busy, closed loop, 1 client",
        f"  host loop median {run_host_ms:.3f} ms over {len(sampler.samples)} samples; "
        f"timings at the {HOST_REF_MS} ms reference, raw in brackets",
        f"  setup_s           {setup_s:.4f} s   [{setup_raw:.4f}] median of "
        f"{len(setup_times)} fresh interpreters",
        f"  ops_per_s         {ops_per_s:.2f} 1/s   [{raw_ops_per_s:.2f}] {units} ops",
        f"  latency_p50_ms    {p50:.4f} ms   [{p50_raw:.4f}] per {wl.latency_unit}, n={n}",
        f"  latency_tail_ms   {tail_ms:.4f} ms   [{tail_raw:.4f}] p{tail_p:g}, n={n}, "
        f"{int(n * (1 - tail_p / 100))} beyond",
        f"  failed_frac       {report.failed / max(report.attempted, 1):.6g} ratio   "
        f"{report.failed} of {report.attempted} checked items",
        f"  max_err_ulp       {max_ulp:.6g} ulp   fixed 50-digit panel {panel.max_ulp:.6g} "
        f"over {panel.ulp_count}, seeded sample {report.max_ulp:.6g} over {report.ulp_count}",
        f"  two_route_ratio   {two_route:.6g} ratio",
        f"  worst_check_ratio {worst:.6g} ratio",
        f"  peak_rss_mb       {peak_rss_mb:.2f} MB",
    ]
    lines += [f"  busy share {kind:16s} {t / busy:.4f}"
              for kind, t in sorted(seg.kind_busy.items(), key=lambda kv: -kv[1])]
    worst_seeded = sorted(report.ratios.items(), key=lambda kv: -kv[1])[:8]
    lines += [f"  check {name}: worst measured/tolerance {r:.6g}" for name, r in worst_seeded]
    lines += [f"  note {k} = {v}" for k, v in report.notes.items()]
    lines += [f"  FAIL {msg}" for msg in report.failures]
    return report, metrics, lines


def per_layer(args, wl):
    m = layers.Metrics()
    tracer = layers.Tracer()
    constants = critical_couplings()
    warm_up(args.workload)
    stream = wl.stream(args.seed)
    pairs = 1 if wl.pass_size else TRACE_PAIRS
    plain = {"ops": 0, "busy": 0.0}
    traced = {"ops": 0, "busy": 0.0}
    host = []
    checker = make_checker(args.workload, args.seed, constants)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(pairs):
            # an untraced segment, then the same inputs again with tracing on
            host.append(ref_loop())
            seg = run_closed_loop(wl, stream, args.seconds / (2 * pairs), keep=True,
                                  observe=checker.observe)
            again = run_closed_loop(wl, replay(seg.ops), math.inf, tracer=tracer,
                                    observe=checker.observe)
            for side, done in ((plain, seg), (traced, again)):
                side["ops"] += done.units
                side["busy"] += done.busy
    runtime_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    overhead = (traced["busy"] / traced["ops"]) / (plain["busy"] / plain["ops"]) - 1.0
    report = finish_checks(args.workload, checker)[0]

    inputs = layers.LayerInputs(args.workload, args.seed, constants)
    layers.probe_rootfind(m, inputs)
    layers.probe_basisfn(m, inputs)
    layers.probe_interval(m, inputs)
    layers.probe_box(m, inputs)
    layers.probe_shapes(m, inputs)
    layers.probe_figures(m)
    layers.probe_oracle(m, inputs)
    layers.probe_verify(m, tracer)
    layers.probe_cli(m, _child_env())
    layers.probe_source_lines(m)
    m.put("host.ref_loop_ms", statistics.median(host), "ms", len(host))
    m.put("warnings.runtime", len(runtime_warnings), "count", 1)
    m.put("trace.overhead_frac", overhead, "ratio", traced["ops"])

    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    by_site = {}
    for w in runtime_warnings:
        site = f"{Path(w.filename).name}:{w.lineno} {w.message}"
        by_site[site] = by_site.get(site, 0) + 1
    lines = [f"workload {wl.name} seed {args.seed}: traced run, {len(tracer.spans)} spans "
             f"written to {trace_path.relative_to(ROOT)}"]
    lines += [f"  {name:36s} {value:.6g} {unit}   n={n}"
              for name, (value, unit, n) in m.values.items()]
    lines += [f"  RuntimeWarning x{count}: {site}" for site, count in by_site.items()]
    lines += [f"  FAIL {msg}" for msg in report.failures]
    metrics = {name: (value, unit) for name, (value, unit, _) in m.values.items()}
    return report, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.trace:
        report, metrics, lines = per_layer(args, wl)
    else:
        report, metrics, lines = end_to_end(args, wl)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "robinbox" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'robinbox'}; run from a robinbox checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import checks
    import layers
    from workloads import WORKLOADS, critical_couplings, replay, run_closed_loop, warm_up
    sys.exit(main())
