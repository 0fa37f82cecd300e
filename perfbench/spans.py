"""Spans the benchmark places around its calls into symplab's layers.

A span is (name, start, end, parent) plus an optional batch size ``m`` and a
small ``meta`` dict for the few spans that carry arguments or counts.  Spans
are kept in flat arrays in memory and written out once, when the run ends.
The program is single-threaded, so a span's children never overlap and its
self time is its duration minus the sum of its children's durations.

Instrumentation replaces a function by a timing wrapper in every loaded
symplab module that holds it (``from .x import f`` copies included) and puts
the original back afterwards; methods are wrapped on their class.  Calls
into code that is not wrapped count toward the nearest wrapped caller.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.m = array("l")
        self.meta: dict[int, dict] = {}
        self._stack: list[int] = []

    def begin(self, name: str, m: int = 0, meta: dict | None = None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.m.append(m)
        self.end.append(0)
        if meta:
            self.meta[idx] = meta
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def write(self, path, extra: dict):
        data = dict(extra)
        data.update(
            names=self.names,
            name=self.name.tolist(),
            start_ns=self.start.tolist(),
            end_ns=self.end.tolist(),
            parent=self.parent.tolist(),
            m=self.m.tolist(),
            meta={str(k): v for k, v in self.meta.items()},
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _wrap(tracer: Tracer, name: str, fn, size=None, describe=None, count=None):
    @functools.wraps(fn)  # keeps the signature visible to inspect.signature
    def traced(*args, **kwargs):
        idx = tracer.begin(
            name,
            size(*args, **kwargs) if size else 0,
            describe(*args, **kwargs) if describe else None,
        )
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if count is not None:
            tracer.meta.setdefault(idx, {})["count"] = count(result)
        return result

    return traced


def _field_is_linear(x) -> bool:
    return all(c.total_degree() <= 1 for c in x.components)


def _patches(chain):
    return [chain] if hasattr(chain, "orders") else [patch for _, patch in chain]


def _nodes(patch) -> int:
    return math.prod(patch.orders)


def instrument(tracer: Tracer, sl, flow_label=None):
    """Wrap every traced boundary of the freshly imported package ``sl``.

    Returns a function that restores the originals.  ``flow_label(x, chain)``
    optionally names a chain transport (paper-verify's area-law cases).
    """

    def describe_flow(x, x0, cfg):
        return {"steps": cfg.steps, "nodes": 1, "linear": _field_is_linear(x)}

    def describe_transport(x, chain, l, *rest, **kw):
        cfg = kw.get("cfg", rest[-1] if rest else None)
        patches = _patches(chain)
        meta = {
            "steps": cfg.steps * len(patches),
            "nodes": sum(_nodes(p) for p in patches) // len(patches),
            "linear": _field_is_linear(x),
        }
        if flow_label is not None:
            meta["label"] = flow_label(x, chain)
        return meta

    functions = [
        (sl.cli, "main", "cli.main", {}),
        (sl.exterior, "commutator_check", "exterior.commutator_check",
         {"describe": lambda n, k: {"n": n}, "count": lambda r: r.blades_checked}),
        (sl.exterior, "contraction_rank", "exterior.contraction_rank", {}),
        (sl.exterior, "iota_rank", "exterior.iota_rank", {}),
        (sl.cohomology, "build_complex", "cohomology.build_complex",
         {"count": lambda cx: 2 ** cx.alg.dim}),
        (sl.cohomology, "betti", "cohomology.betti", {}),
        (sl.cohomology, "el_dim", "cohomology.el_dim", {}),
        (sl.cohomology, "harmonic_dim", "cohomology.harmonic_dim", {}),
        (sl.cohomology, "cohomology_space", "cohomology.cohomology_space", {}),
        (sl.linalg, "rank", "linalg.rank", {}),
        (sl.linalg, "nullspace", "linalg.nullspace", {}),
        (sl.linalg, "rref", "linalg.rref", {}),
        (sl.fields, "classify", "fields.classify", {}),
        (sl.fields, "vector_from_two_form", "fields.vector_from_two_form", {}),
        (sl.flows, "tangent_flow", "flows.tangent_flow", {"describe": describe_flow}),
        (sl.flows, "verify_area_preservation", "flows.verify_area_preservation",
         {"describe": describe_transport}),
        (sl.flows, "chain_integral", "flows.chain_integral", {}),
        (sl.flows, "batch_det", "flows.batch_det",
         {"size": lambda mats: len(mats)}),
    ]
    methods = [
        (sl.flows.CompiledField, "__init__", "flows.compile_field", {}),
        (sl.flows.CompiledField, "__call__", "flows.field_eval",
         {"size": lambda self, xs: len(xs)}),
        (sl.flows.TangentFlow, "max_det_drift", "flows.det_path", {}),
    ]

    modules = [m for k, m in sys.modules.items() if k == "symplab" or k.startswith("symplab.")]
    undo = []
    for owner, attr, name, opts in functions:
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, name, original, **opts)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
    for cls, attr, name, opts in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, name, original, **opts))
        undo.append((cls, attr, original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

ROUND = "bench.round"
SETUP = "bench.setup"
SAMPLE = "bench.sample"  # a speed sample (speed.py), not work of the program
# children of a chain transport that are not RK4 work
_NOT_RK4 = ("flows.chain_integral", "fields.classify")
_AREA_CASES = ("ham_sq", "ham_cube", "osc_sq", "osc_cube")


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures: medians over traced rounds (or set-ups) of per-round
    sums, and pooled per-call medians for the per-step kernels."""
    names = tracer.names
    count = len(tracer.start)
    sample = [names[n] == SAMPLE for n in tracer.name]
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    # take the speed samples' time out of every span that holds one
    inner = [0] * count
    for i in range(count - 1, -1, -1):
        p = tracer.parent[i]
        if p >= 0:
            inner[p] += dur[i] if sample[i] else inner[i]
    dur = [d - x for d, x in zip(dur, inner)]
    child = [0] * count
    not_rk4 = [0] * count
    root = [0] * count
    under_cli = [False] * count
    for i in range(count):
        p = tracer.parent[i]
        if p < 0:
            root[i] = i
            continue
        root[i] = root[p]
        if sample[i]:
            continue
        child[p] += dur[i]
        pname = names[tracer.name[p]]
        under_cli[i] = under_cli[p] or pname == "cli.main"
        if names[tracer.name[i]] in _NOT_RK4:
            not_rk4[p] += dur[i]

    per_root: dict[int, defaultdict] = {}
    pooled: dict[str, list[int]] = {}
    for i in range(count):
        if root[i] == i or sample[i]:
            continue
        name = names[tracer.name[i]]
        acc = per_root.setdefault(root[i], defaultdict(float))
        acc[name] += dur[i]
        acc[name.split(".")[0] + ".self"] += dur[i] - child[i]
        meta = tracer.meta.get(i, {})
        if name == "exterior.commutator_check":
            acc[f"commutator_n{meta['n']}"] += dur[i]
            acc["blades"] += meta.get("count", 0)
        elif name in ("exterior.contraction_rank", "exterior.iota_rank"):
            acc["rank_certificates"] += dur[i]
        elif name == "cohomology.build_complex":
            acc["complex_blades"] += meta.get("count", 0)
        elif name == "linalg.rank":
            acc["rank_calls"] += 1
        elif name in ("flows.tangent_flow", "flows.verify_area_preservation"):
            kind = "linear" if meta["linear"] else "nonlinear"
            rk4 = dur[i] - not_rk4[i]
            acc[f"rk4_ns.{kind}"] += rk4
            acc[f"rk4_steps.{kind}"] += meta["steps"]
            acc["rk4_ns"] += rk4
            acc["rk4_steps"] += meta["steps"]
            acc["node_steps"] += meta["steps"] * meta["nodes"]
            if "label" in meta and under_cli[i]:
                acc[f"area.{meta['label']}"] += dur[i]
        if under_cli[i] and name in ("flows.tangent_flow", "flows.det_path"):
            acc["liouville"] += dur[i]
        if name in ("flows.field_eval", "flows.batch_det") and names[tracer.name[root[i]]] == ROUND:
            pooled.setdefault(f"{name}.m{tracer.m[i]}", []).append(dur[i])

    rounds = [acc for r, acc in per_root.items() if names[tracer.name[r]] == ROUND]
    setups = [acc for r, acc in per_root.items() if names[tracer.name[r]] == SETUP]

    def per_round(key, scale=1.0, among=rounds):
        return _median([acc.get(key, 0) * scale for acc in among])

    def ratio(num, den, scale):
        return _median([
            acc.get(num, 0) / acc[den] * scale if acc.get(den) else 0.0 for acc in rounds
        ])

    ms, s, us = 1e-6, 1e-9, 1e-3
    out = {
        "cli.import_ms": per_round("cli.import", ms, setups),
        "cli.paper_verify_s": per_round("cli.main", s),
        "exterior.commutator_check_ms": per_round("commutator_n4", ms),
        "exterior.commutator_check_n5_ms": per_round("commutator_n5", ms),
        "exterior.rank_certificates_ms": per_round("rank_certificates", ms),
        "exterior.blades_checked": per_round("blades"),
        "cohomology.complex_blades": per_round("complex_blades"),
        "linalg.rank_ms": per_round("linalg.rank", ms),
        "linalg.rank_calls": per_round("rank_calls"),
        "polynomials.field_build_ms": per_round("polynomials.field_build", ms, setups),
        "fields.vector_from_two_form_ms": per_round("fields.vector_from_two_form", ms),
        "fields.classify_ms": per_round("fields.classify", ms),
        "flows.compile_field_ms": per_round("flows.compile_field", ms),
        "flows.batch_det_us.m16": _median(pooled.get("flows.batch_det.m16", [])) * us,
        "flows.det_path_ms": per_round("flows.det_path", ms),
        "flows.chain_integral_ms": per_round("flows.chain_integral", ms),
        "flows.liouville_drift_s": per_round("liouville", s),
        "flows.rk4_steps": per_round("rk4_steps"),
        "flows.node_steps": per_round("node_steps"),
        "flows.node_steps_per_s": ratio("node_steps", "rk4_ns", 1e9),
    }
    for fn in ("build_complex", "betti", "el_dim", "harmonic_dim", "cohomology_space"):
        out[f"cohomology.{fn}_ms"] = per_round(f"cohomology.{fn}", ms)
    for m in (1, 16, 81):
        out[f"flows.field_eval_us.m{m}"] = _median(pooled.get(f"flows.field_eval.m{m}", [])) * us
    for kind in ("linear", "nonlinear"):
        out[f"flows.rk4_step_us.{kind}"] = ratio(f"rk4_ns.{kind}", f"rk4_steps.{kind}", us)
    for case in _AREA_CASES:
        out[f"flows.area.{case}_s"] = per_round(f"area.{case}", s)
    for layer in ("cli", "exterior", "cohomology", "fields", "flows", "linalg"):
        out[f"{layer}.self_s"] = per_round(f"{layer}.self", s)
    return out
