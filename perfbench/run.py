"""Benchmark for symplab: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload paper-verify --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Set-up (fresh import of symplab, seeded inputs,
warm-up) is repeated SETUPS times and timed.  Then whole rounds of the
workload's fixed operations run until ``--seconds`` have passed.  Times are
reported at a reference processor speed (see ``speed.py``).  Outputs are
checked after the timed phase against computations made apart from the
program.  The last line of standard output is the JSON result.

With ``--trace 1`` every operation of a round runs once untraced and once
traced, back to back: spans around the calls into each layer give the
per-layer metrics, and the traced minus the untraced time of a round (median
over rounds) is the tracing overhead.  Spans are written to
``perfbench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import exact_algebra
import flow_nonlinear
import paper_verify
from spans import ROUND, SETUP, Tracer, instrument, layer_metrics
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 11
WORKLOADS = {
    "paper-verify": paper_verify,
    "flow-nonlinear": flow_nonlinear,
    "exact-algebra": exact_algebra,
}
MODULES = ("cli", "cohomology", "exterior", "fields", "flows", "linalg", "polynomials")


class Package:
    """The freshly imported package and its layer modules, looked up per call
    so that instrumentation in the module namespaces takes effect."""

    def __init__(self):
        for name in [k for k in sys.modules if k == "symplab" or k.startswith("symplab.")]:
            del sys.modules[name]
        self.symplab = importlib.import_module("symplab")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"symplab.{name}"))
        where = Path(self.symplab.__file__).resolve()
        if ROOT / "src" not in where.parents:
            raise ImportError(f"symplab imported from {where}, not from this checkout")


def _machine():
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[workload]
    tracer = Tracer() if trace else None

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    speed = Speed(tracer)
    setup_raw, setup_times = [], []
    state = {}

    def one_setup():
        with span("cli.import"):
            state["sl"] = Package()
        state["inputs"] = wl.setup(state["sl"], seed, span)
        wl.warm_up(state["sl"], state["inputs"])

    for _ in range(SETUPS):
        with span(SETUP):
            t, _, f = speed.timed(one_setup)
        setup_raw.append(t)
        setup_times.append(t * f)
    sl, inputs = state["sl"], state["inputs"]

    ops = wl.operations(sl, inputs)
    label = wl.flow_label(inputs) if hasattr(wl, "flow_label") else None
    tally = {"attempted": 0, "failed": 0}
    errors: list[str] = []
    first: dict = {}
    mismatched: set[str] = set()

    def attempt(name, fn, results):
        """Run one operation into ``results``; a failure is counted, not raised."""
        tally["attempted"] += 1
        try:
            results[name] = fn()
        except Exception:
            tally["failed"] += 1
            errors.append(f"{name}: {traceback.format_exc(limit=3)}")

    def compare(results):
        for name, value in results.items():
            if first.setdefault(name, value) != value:
                mismatched.add(name)

    walls, cpus, raw_walls, pairs = [], [], [], []
    per_op: dict[str, list[float]] = {name: [] for name, _ in ops}
    start = time.perf_counter()
    while not (walls or pairs) or time.perf_counter() - start < seconds:
        if not trace:
            results = {}
            wall = cpu = raw = 0.0
            for name, fn in ops:
                t, c, f = speed.timed(lambda: attempt(name, fn, results))
                per_op[name].append(t * f)
                wall, cpu, raw = wall + t * f, cpu + c * f, raw + t
            walls.append(wall)
            cpus.append(cpu)
            raw_walls.append(raw)
            compare(results)
            continue
        # each operation runs untraced and traced back to back, at reference
        # speed; which goes first alternates from one operation and one round
        # to the next, so any gain of running second cancels out of the
        # overhead
        plain, spanned = {}, {}
        times = {False: 0.0, True: 0.0}
        round_span = tracer.begin(ROUND)
        for i, (name, fn) in enumerate(ops):
            for traced in (False, True) if (i + len(pairs)) % 2 == 0 else (True, False):
                restore = instrument(tracer, sl, label) if traced else None
                try:
                    t, _, f = speed.timed(lambda: attempt(name, fn, spanned if traced else plain))
                finally:
                    if restore:
                        restore()
                times[traced] += t * f
        tracer.finish(round_span)
        pairs.append((times[False], times[True]))
        compare(plain)
        compare(spanned)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        problems = wl.check(sl, inputs, first)
    except Exception:
        problems = [f"check raised: {traceback.format_exc(limit=5)}"]
    problems += [f"{name}: output differs between rounds" for name in sorted(mismatched)]

    if trace:
        metrics = layer_metrics(tracer)
        overhead = statistics.median(t - p for p, t in pairs)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100 * overhead / statistics.median(p for p, _ in pairs)
    else:
        op_times = [t for times in per_op.values() for t in times]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "op_median_ms": 1000 * statistics.median(op_times),
            "peak_rss_mb": peak_rss_mb,
        }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "round_wall_s": walls, "round_wall_raw_s": raw_walls, "untraced_traced_s": pairs,
        "setup_s": setup_times, "setup_raw_s": setup_raw,
        "kernel_s": speed.kernel_s,
        "op_median_s": {name: statistics.median(t) for name, t in per_op.items() if t},
        "machine": _machine(), "problems": problems, "errors": errors,
    }
    return metrics, tally["attempted"], tally["failed"], problems, errors, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "symplab" / "__init__.py").is_file():
        print(f"no symplab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    metrics, attempted, failed, problems, errors, detail, tracer = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    detail["result"] = result
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}.json", {"workload": args.workload, "seed": args.seed})

    for text in problems + errors:
        print(f"CHECK FAILED: {text}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"attempted = {attempted}, failed = {failed}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
