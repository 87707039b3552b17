"""Benchmark of the iseq pipeline: one seeded workload, timed in ``cal`` units.

Usage::

    python3 bench/run.py --workload large-terms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``iseq`` is imported from its ``src``.  The
run sets up several times (import, seeded inputs, warm-up) and reports the
median set-up time, then repeats whole passes over the workload's fixed
operation list for ``--seconds`` seconds: a closed loop with one caller in
one thread.  Every operation is timed against the calibration loop of
:mod:`calibrate`, sampled every 25 ms, and every output is checked.
``--trace 1`` alternates untraced passes with passes in which every public
``iseq`` function is wrapped, and reports per-layer figures instead.  The
last line of standard output is the JSON result; it is also written, with
the trace, under ``bench/out/``.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # One fixed string hash for every run: dict and set layout, and with it
    # the program's speed, then differ less from one process to the next.
    os.execve(sys.executable, [sys.executable, "-B", *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

sys.dont_write_bytecode = True  # a run leaves no compiled files behind

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import calibrate  # noqa: E402
from workloads import WORKLOADS, own_leaves  # noqa: E402

SETUPS = 5  # set-up repetitions; setup_s is their median
# setup_s is set-up time in cal, converted to seconds at this fixed rate (a
# cal's duration on the 2-vCPU machine the benchmark was built on), so that
# host drift cancels from it as from every other timing
SECONDS_PER_CAL = 0.003
# layers with reported metrics; any other module is traced but only written
# to the trace file, so that the set of metrics stays fixed
LAYERS = ("cli", "syntax", "canonical", "threads", "extraction", "registers", "interaction", "compute")
MIN_PASSES = 3
MIN_OPS = 100  # so that at least ten timed operations lie beyond the p90
CAL_EVERY = 0.025  # seconds of workload between calibration samples


def import_iseq():
    """Fresh import of ``iseq`` and all its modules from this checkout."""
    for name in [n for n in sys.modules if n == "iseq" or n.startswith("iseq.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("iseq")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"iseq was imported from {pkg.__file__}, not from {SRC}")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"iseq.{info.name}")
    return pkg


def setup(workload: str, seed: int):
    """Import, build the seeded inputs and warm up; returns (cal, pkg, ops)."""
    gc.collect()
    before = calibrate.time_calibration()
    start = time.perf_counter()
    pkg = import_iseq()
    ops = WORKLOADS[workload](pkg, seed, os.path.join(OUT, f"work-{workload}"))
    warmed = set()
    for op in ops:  # the first operation of each kind
        if op.kind not in warmed:
            warmed.add(op.kind)
            op.call()
    seconds = time.perf_counter() - start
    return seconds / ((before + calibrate.time_calibration()) / 2), pkg, ops


class Runner:
    """Times passes, keeps every output of the first pass for checking."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list | None = None
        self.attempted = 0
        self.failed = 0
        self.consistent = True

    def run_pass(self, on_op=None) -> tuple[float, list[float], list[float]]:
        """One pass; returns (seconds, per-operation cal, per-operation seconds).

        A calibration sample is taken before the pass, after it, and after
        any operation that ends at least CAL_EVERY seconds after the last
        sample; each operation is divided by the mean of the two samples
        around it.  The host's speed moves within a fraction of a second, so
        the nearest samples track it better than any wider average.
        """
        gc.collect()
        clock = time.perf_counter
        samples = [calibrate.time_calibration()]
        times, marks, results = [], [], []
        last = clock()
        for op in self.ops:
            start = clock()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            end = clock()
            times.append(end - start)
            marks.append(len(samples) - 1)
            results.append(result)
            if on_op is not None:
                on_op(op)
            if end - last >= CAL_EVERY:
                samples.append(calibrate.time_calibration())
                last = clock()
        samples.append(calibrate.time_calibration())
        self.attempted += len(results)
        self.failed += sum(isinstance(r, Exception) for r in results)
        if self.first is None:
            self.first = results
        elif any(
            not isinstance(a, Exception) and _digest(a) != _digest(b) for a, b in zip(results, self.first)
        ):
            self.consistent = False
        return sum(times), [t / ((samples[j] + samples[j + 1]) / 2) for t, j in zip(times, marks)], times

    def correct(self) -> bool:
        if not self.consistent or self.first is None:
            return False
        for op, result in zip(self.ops, self.first):
            if not isinstance(result, Exception) and not op.check(result):
                print(f"check failed: {op.kind} (size {op.size})", file=sys.stderr)
                return False
        return True


def _digest(result):
    """Comparable form of an output; deep term trees compare by their leaves."""
    if type(result).__name__ == "Concat":
        return tuple(own_leaves(result))
    return result


def slope(points: dict) -> float:
    """Least-squares slope of log(value) against log(size)."""
    pts = [(math.log(s), math.log(v)) for s, v in points.items() if s > 0 and v > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / den


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced passes for ``seconds``; end-to-end metrics in cal."""
    passes, raw, latencies, raw_latencies = [], [], [], []
    start = time.perf_counter()
    while (
        len(passes) < MIN_PASSES
        or runner.attempted < MIN_OPS
        or time.perf_counter() - start < seconds
    ):
        total, op_cal, op_s = runner.run_pass()
        passes.append(sum(op_cal))
        raw.append(total)
        latencies.extend(op_cal)
        raw_latencies.extend(op_s)
    p90_s = statistics.quantiles(raw_latencies, n=10, method="inclusive")[8]
    print(
        f"raw: pass_s {statistics.median(raw):.6f} p50_s {statistics.median(raw_latencies):.6f} "
        f"p90_s {p90_s:.6f} passes {len(raw)} pass_cal",
        *(f"{p:.1f}" for p in passes),
    )
    return {
        "pass_cal": statistics.median(passes),
        "latency_p50_cal": statistics.median(latencies),
        "latency_p90_cal": statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def measure_traced(runner: Runner, pkg, seconds: float) -> tuple[dict, object]:
    """Alternate untraced and traced passes; per-layer metrics in cal.

    Layer seconds convert to cal at the traced pass's mean calibration.
    """
    from tracer import Tracer

    tracer = Tracer(pkg)
    plain, traced, per_pass = [], [], []
    fits = {"canonical": [], "threads": [], "extraction": []}
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(sum(runner.run_pass()[1]))

        sizes: dict = {}
        last = {layer: 0.0 for layer in fits}

        def on_op(op):
            if op.size:
                for layer in fits:
                    grown = tracer.self_s[layer] - last[layer]
                    last[layer] = tracer.self_s[layer]
                    sizes.setdefault(layer, {}).setdefault(op.size, []).append(grown)

        tracer.reset()
        tracer.install()
        try:
            total, op_cal, _ = runner.run_pass(on_op)
        finally:
            tracer.uninstall()
        traced.append(sum(op_cal))
        cal = total / traced[-1]
        if sum(tracer.self_s.values()) > total:
            runner.consistent = False  # self times must fit in the pass
        for layer, by_size in sizes.items():
            fits[layer].append(slope({s: statistics.fmean(v) / cal for s, v in by_size.items()}))
        per_pass.append(
            {
                **{f"{layer}.self_cal": tracer.self_s.get(layer, 0.0) / cal for layer in LAYERS},
                **{f"{layer}.calls": tracer.calls.get(layer, 0) for layer in LAYERS},
                **tracer.counts,
                "compute.search_self_cal": tracer.search_self_s / cal,
            }
        )
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    for layer, slopes in fits.items():
        metrics[f"{layer}.growth"] = statistics.median(slopes) if slopes else 0.0
    metrics["trace.overhead_cal"] = statistics.median(traced) - statistics.median(plain)
    return metrics, tracer


UNITS = {"self_cal": "cal", "overhead_cal": "cal", "search_self_cal": "cal", "growth": "slope"}


def unit_of(name: str) -> str:
    return UNITS.get(name.split(".", 1)[1], "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one iseq workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setup_cals = []
    try:
        for _ in range(SETUPS):
            pkg = ops = None  # the last set-up's inputs are the only ones kept
            cal, pkg, ops = setup(args.workload, args.seed)
            setup_cals.append(cal)
    except ImportError as exc:
        print(f"error: cannot import iseq from {SRC}: {exc}", file=sys.stderr)
        return 2
    runner = Runner(ops)

    if args.trace:
        metrics, tracer = measure_traced(runner, pkg, args.seconds)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())}
    else:
        timed = measure(runner, args.seconds)
        timed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed["setup_s"] = statistics.median(setup_cals) * SECONDS_PER_CAL
        units = {"pass_cal": "cal", "latency_p50_cal": "cal", "latency_p90_cal": "cal",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in timed.items()}

    result = {
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w", encoding="utf-8") as handle:
            json.dump({"spans_in_pass": tracer.span_total, "spans": tracer.spans}, handle)
    for name, metric in metrics.items():
        print(f"{args.workload:12} {name:32} {metric['value']:14.6f} {metric['unit']}")
    print(f"{args.workload:12} attempted {runner.attempted} failed {runner.failed} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
