"""Layer tracing for the fbstab benchmark, installed from outside the package.

``Tracer.install`` replaces the functions of every fbstab layer module with
wrappers that record spans, and rebinds each name another module imported
with ``from ... import`` so that cross-module calls are seen too.  The
layers are the package's modules; a span's layer is the module that defines
the wrapped function.

``fields`` is hot (about 175k evaluations per certificate), so it gets no
spans: its calls are counted and its time is charged to the enclosing span
as a separate ``fields`` share.  A span's self time is its duration minus
the time of its child spans and of the fields calls made directly under it,
so the self times of all spans of an op, plus its fields time, add up to
the op's duration; what is left on the op's root span is time no layer
covers.

Spans are recorded only inside ``Tracer.run_op``; outside it the wrappers call
straight through.  End-to-end timings never come from a traced run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("fields", "conformal", "submanifold", "domain", "variation", "flow",
          "scenarios", "cli")

# classes whose methods belong on the span path (besides module functions)
_CLASSES = {
    "fields": ("ScalarField", "ConformalMetric"),
    "submanifold": ("SampledImmersion",),
    "flow": ("PolarGrid",),
}
_FIELD_EVALUATIONS = ("value", "gradient", "hessian")

# span name -> group; a group's self time is the time spent in its own
# layer anywhere below (and in) its spans
_GROUPS = {
    "conformal.riemann": "conformal.riemann",
    "conformal.sectional_curvature_batch": "conformal.sectional_curvature_batch",
    "submanifold.SampledImmersion.geometry": "submanifold.geometry",
    "submanifold.minimality_residuals": "submanifold.residuals",
    "submanifold.boundary_defects": "submanifold.residuals",
    "domain.p_convexity_margin": "domain.p_convexity_margin",
    "domain.sample_boundary": "domain.sample_boundary",
    "domain.project_to_boundary": "domain.project_to_boundary",
    "variation.traced_interior_density": "variation.traced",
    "variation.traced_boundary_density": "variation.traced",
    "variation.curvature_margin": "variation.curvature_margin",
    "variation.second_variation": "variation.second_variation",
}
_POINTWISE = ("variation.s_euclid", "variation.s_tilde_direct",
              "variation.t_euclid", "variation.t_tilde_direct")

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("fields.calls", "count"),
    ("fields.points_per_call", "points"),
    ("fields.self_ms", "ms"),
    ("conformal.self_ms", "ms"),
    ("conformal.riemann.calls", "count"),
    ("conformal.riemann.self_ms", "ms"),
    ("conformal.sectional_curvature_batch.calls", "count"),
    ("conformal.sectional_curvature_batch.self_ms", "ms"),
    ("submanifold.self_ms", "ms"),
    ("submanifold.immersions", "count"),
    ("submanifold.geometry.self_ms", "ms"),
    ("submanifold.residuals.calls", "count"),
    ("submanifold.residuals.self_ms", "ms"),
    ("domain.self_ms", "ms"),
    ("domain.p_convexity_margin.calls", "count"),
    ("domain.p_convexity_margin.self_ms", "ms"),
    ("domain.sample_boundary.calls", "count"),
    ("domain.sample_boundary.points", "points"),
    ("domain.sample_boundary.self_ms", "ms"),
    ("domain.sweep_unique_frac", "ratio"),
    ("domain.principal_curvatures.calls", "count"),
    ("domain.project_to_boundary.calls", "count"),
    ("domain.project_to_boundary.self_ms", "ms"),
    ("variation.self_ms", "ms"),
    ("variation.traced.self_ms", "ms"),
    ("variation.curvature_margin.self_ms", "ms"),
    ("variation.curvature_margin.points", "points"),
    ("variation.pointwise.calls", "count"),
    ("variation.second_variation.self_ms", "ms"),
    ("flow.self_ms", "ms"),
    ("flow.iterations", "count"),
    ("flow.trials", "count"),
    ("flow.accept_frac", "ratio"),
    ("flow.step_ms", "ms"),
    ("scenarios.self_ms", "ms"),
    ("scenarios.build_scenario.ms", "ms"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)


class _OpRecord:
    """Counters of one traced op."""

    def __init__(self, op_id: int, label: str):
        self.op_id = op_id
        self.label = label
        self.ns = 0
        self.uncovered_ns = 0
        self.calls = Counter()          # span name -> calls
        self.calls_from = Counter()     # (parent layer, span name) -> calls
        self.incl_ns = Counter()        # span name -> inclusive time
        self.layer_ns = Counter()       # layer -> self time
        self.group_ns = Counter()       # group -> own-layer time below it
        self.fields_calls = 0
        self.fields_points = 0
        self.sweeps = []                # sample_boundary outputs
        self.curvature_points = 0

    def counts(self) -> dict:
        """Exact work counts; they repeat for a fixed input."""
        out = {f"{name}.calls": c for name, c in sorted(self.calls.items())}
        out["fields.calls"] = self.fields_calls
        out["fields.points"] = self.fields_points
        out["flow.trials"] = self.calls_from[("flow", "submanifold.volume")]
        out["domain.sample_boundary.points"] = sum(len(s) for s in self.sweeps)
        out["variation.curvature_margin.points"] = self.curvature_points
        return out


class Tracer:
    """Spans and counters for calls into the fbstab layers."""

    def __init__(self):
        self._stack = []     # frames: [span_id, name, layer, start, child_ns, groups]
        self._next_id = 0
        self._in_fields = False
        self._record = None
        self.records: list[_OpRecord] = []
        self.spans: list[tuple] = []     # (op_id, span_id, parent_id, name, start, end)
        self._undo: list[tuple] = []     # (owner, name, original attribute)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer of ``package`` (the imported ``fbstab``); call once,
        and ``uninstall`` to put the originals back."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        by_name = {m.__name__: layer for layer, m in modules.items()}

        originals = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType):
                    continue
                home = by_name.get(obj.__module__)
                if home is None:
                    continue
                # public functions of the layer, and private ones another
                # module imported by name
                if not name.startswith("_") or home != layer:
                    originals[obj] = home
        wrapped = {fn: self._wrap(fn, layer) for fn, layer in originals.items()}
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

        for layer, class_names in _CLASSES.items():
            for cls_name in class_names:
                self._wrap_class(getattr(modules[layer], cls_name), layer)

    def uninstall(self) -> None:
        """Restore every attribute ``install`` replaced."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name != "__init__" and name.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                kind, fn = type(attr), attr.__func__
            elif isinstance(attr, types.FunctionType):
                kind, fn = None, attr
            else:
                continue
            if layer == "fields":
                new = self._wrap_fields(fn, count=name in _FIELD_EVALUATIONS
                                        and cls.__name__ == "ScalarField")
            else:
                span = f"{layer}.{cls.__name__}" if name == "__init__" else None
                new = self._wrap(fn, layer, span)
            self._undo.append((cls, name, attr))
            setattr(cls, name, kind(new) if kind else new)

    def _wrap(self, fn, layer: str, span_name: str | None = None):
        if layer == "fields":
            return self._wrap_fields(fn, count=False)
        name = span_name or f"{layer}.{fn.__qualname__}"
        group = _GROUPS.get(name)
        hook = self._hook_for(name, fn)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            groups = parent[5]
            if group is not None and (group, layer) not in groups:
                groups = groups + ((group, layer),)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, layer, clock(), 0, groups]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[3]
                own = dur - frame[4]
                parent[4] += dur
                rec = self._record
                rec.calls[name] += 1
                rec.calls_from[(parent[2], name)] += 1
                rec.incl_ns[name] += dur
                rec.layer_ns[layer] += own
                for g, g_layer in groups:
                    if g_layer == layer:
                        rec.group_ns[g] += own
                spans.append((rec.op_id, span_id, parent[0], name, frame[3], end))
            if hook is not None:
                hook(self._record, args, kwargs, result)
            return result

        return wrapper

    def _wrap_fields(self, fn, count: bool):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = self._record
            if count:
                shape = np.shape(args[1] if len(args) > 1 else kwargs["x"])
                rec.fields_calls += 1
                rec.fields_points += int(np.prod(shape[:-1])) if len(shape) > 1 else 1
            if self._in_fields:
                return fn(*args, **kwargs)
            self._in_fields = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self._in_fields = False
                stack[-1][4] += dur
                rec.layer_ns["fields"] += dur

        return wrapper

    @staticmethod
    def _hook_for(name: str, fn):
        if name == "domain.sample_boundary":
            def hook(rec, args, kwargs, result):
                rec.sweeps.append(np.asarray(result))
            return hook
        if name == "variation.curvature_margin":
            sig = inspect.signature(fn)

            def hook(rec, args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.curvature_points += int(bound.arguments["points"]) * int(
                    bound.arguments["planes"])
            return hook
        return None

    # -- ops -----------------------------------------------------------------

    def run_op(self, label: str, thunk):
        """Run ``thunk`` as one traced op; return ``(result, seconds)``.

        Exceptions propagate after the op's record is closed.
        """
        rec = _OpRecord(len(self.records), label)
        self._record = rec
        root = [self._next_id, "op", "bench", 0, 0, ()]
        self._next_id += 1
        self._stack.append(root)
        root[3] = time.perf_counter_ns()
        try:
            result = thunk()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            rec.ns = end - root[3]
            rec.uncovered_ns = rec.ns - root[4]
            self.spans.append((rec.op_id, root[0], -1, "op:" + label, root[3], end))
            self.records.append(rec)
        return result, rec.ns * 1e-9

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-op means of every per-layer metric except the ``trace.*`` ones."""
        recs = self.records
        m = len(recs)
        calls, calls_from, incl, layer, group = (Counter() for _ in range(5))
        fields_calls = fields_points = curvature_points = 0
        swept = unique = 0
        for r in recs:
            calls.update(r.calls)
            calls_from.update(r.calls_from)
            incl.update(r.incl_ns)
            layer.update(r.layer_ns)
            group.update(r.group_ns)
            fields_calls += r.fields_calls
            fields_points += r.fields_points
            curvature_points += r.curvature_points
            if r.sweeps:
                pts = np.concatenate(r.sweeps)
                swept += len(pts)
                unique += len(np.unique(pts, axis=0))

        def ms(ns):
            return ns / m * 1e-6

        iterations = calls["flow.flow_step"]
        trials = calls_from[("flow", "submanifold.volume")]
        step_trials = trials - calls["flow.flow_state"]
        out = {
            "fields.calls": fields_calls / m,
            "fields.points_per_call": fields_points / fields_calls if fields_calls else 0.0,
            "submanifold.immersions": calls["submanifold.SampledImmersion"] / m,
            "submanifold.residuals.calls": (calls["submanifold.minimality_residuals"]
                                            + calls["submanifold.boundary_defects"]) / m,
            "domain.sample_boundary.points": swept / m,
            "domain.sweep_unique_frac": unique / swept if swept else 0.0,
            "variation.curvature_margin.points": curvature_points / m,
            "variation.pointwise.calls": sum(calls[n] for n in _POINTWISE) / m,
            "flow.iterations": iterations / m,
            "flow.trials": trials / m,
            "flow.accept_frac": iterations / step_trials if step_trials else 0.0,
            "flow.step_ms": incl["flow.flow_step"] * 1e-6 / iterations if iterations else 0.0,
            "scenarios.build_scenario.ms": ms(incl["scenarios.build_scenario"]),
        }
        for lay in LAYERS:
            out[f"{lay}.self_ms"] = ms(layer[lay])
        for g in set(_GROUPS.values()):
            out[f"{g}.self_ms"] = ms(group[g])
        for name in ("conformal.riemann", "conformal.sectional_curvature_batch",
                     "domain.p_convexity_margin", "domain.sample_boundary",
                     "domain.principal_curvatures", "domain.project_to_boundary"):
            out[f"{name}.calls"] = calls[name] / m
        return out

    def coverage(self) -> dict:
        """Per op label: traced op time, the sum of layer self times plus
        fields time, and the uncovered remainder (all in ms, per op)."""
        out = {}
        for r in self.records:
            entry = out.setdefault(r.label, {"ops": 0, "op_ms": 0.0, "layers_ms": 0.0,
                                             "uncovered_ms": 0.0})
            entry["ops"] += 1
            entry["op_ms"] += r.ns * 1e-6
            entry["layers_ms"] += sum(r.layer_ns.values()) * 1e-6
            entry["uncovered_ms"] += r.uncovered_ns * 1e-6
        for entry in out.values():
            for key in ("op_ms", "layers_ms", "uncovered_ms"):
                entry[key] /= entry["ops"]
        return out

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as gzipped CSV, times in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op_id,span_id,parent_id,name,start_ns,end_ns\n")
            fh.writelines(f"{o},{s},{p},{n},{a},{b}\n" for o, s, p, n, a, b in self.spans)
