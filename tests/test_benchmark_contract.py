"""The benchmark under perfbench/ drives symplab through its module
attributes, by name.  These checks run its instrumentation, each
workload's set-up and warm-up, and one round of each workload's operations
through its output check, against the package as imported here, so a
rename or a changed report that would break a benchmark run fails the
test suite instead."""

import contextlib
import importlib
import json
import sys
import types
from pathlib import Path

import symplab
from symplab import flows

ROOT = Path(__file__).resolve().parent.parent


def _package(run):
    """The namespace run.py builds, from the modules already imported."""
    names = {name: importlib.import_module(f"symplab.{name}") for name in run.MODULES}
    return types.SimpleNamespace(symplab=symplab, **names)


def _snapshot():
    modules = {k: m for k, m in sys.modules.items() if k == "symplab" or k.startswith("symplab.")}
    attrs = {(k, name): value for k, m in modules.items() for name, value in vars(m).items()}
    classes = (flows.CompiledField, flows.TangentFlow)
    attrs.update({(c.__name__, name): value for c in classes for name, value in vars(c).items()})
    return attrs


def test_instrumented_warm_ups_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    import spans

    sl = _package(run)

    def span(name):
        return contextlib.nullcontext()

    inputs = {name: wl.setup(sl, 1, span) for name, wl in run.WORKLOADS.items()}
    before = _snapshot()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, sl, run.paper_verify.flow_label(inputs["paper-verify"]))
    try:
        assert flows.TangentFlow.max_det_drift is not before[("TangentFlow", "max_det_drift")]
        for name, wl in run.WORKLOADS.items():
            wl.warm_up(sl, inputs[name])
    finally:
        restore()
    after = _snapshot()
    # a warm-up may import more (symplab.data); what was there is restored
    moved = [key for key, value in before.items() if after.get(key) is not value]
    assert moved == []
    # every traced layer the benchmark declares comes out of the spans
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = spans.layer_metrics(tracer)
    missing = [m["name"] for m in declared
               if m["name"] not in metrics and not m["name"].startswith("trace.")]
    assert missing == []
    assert {"flows.tangent_flow", "flows.verify_area_preservation", "cli.main"} <= set(tracer.names)


def test_one_round_passes_each_output_check(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    sl = _package(run)
    problems = {}
    for name, wl in run.WORKLOADS.items():
        inputs = wl.setup(sl, 1, lambda _: contextlib.nullcontext())
        results = {op: fn() for op, fn in wl.operations(sl, inputs)}
        problems[name] = wl.check(sl, inputs, results)
    assert problems == {name: [] for name in run.WORKLOADS}
