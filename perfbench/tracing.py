"""Span tracing of planarcp from outside, by wrapping its public functions.

A Tracer replaces every module attribute of planarcp that binds one of the
TARGETS (and the MaterialResponse methods on the class) with a wrapper
that records a span: layer, function, start, end, parent span and the id
of the point being computed.  Spans stay in memory until dump().  The
per-layer metrics are derived from the spans alone.

Work that one public function does through another module's private
functions (forces calling potentials._nonresonant, for example) has no
span of its own and counts as self time of the caller's layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("materials", "quadrature", "greens", "potentials", "forces", "cli")

# (layer, dotted path below the planarcp package)
TARGETS = (
    ("materials", "materials.MaterialResponse.epsilon"),
    ("materials", "materials.MaterialResponse.mu"),
    ("materials", "materials.polarizability"),
    ("materials", "materials.magnetizability"),
    ("materials", "materials.resonant_weights"),
    ("quadrature", "quadrature.integrate_finite"),
    ("quadrature", "quadrature.integrate_semi_infinite"),
    ("greens", "greens.halfspace_green_traces"),
    ("greens", "greens.d_dz_traces"),
    ("greens", "greens.mirror_trace_e"),
    ("greens", "greens.mirror_curlcurl_trace"),
    ("greens", "greens.mirror_green_components"),
    ("potentials", "potentials.total_potential"),
    ("potentials", "potentials.nonresonant_potential"),
    ("potentials", "potentials.resonant_potential"),
    ("potentials", "potentials.duality_transform"),
    ("forces", "forces.plate_force_quadrature"),
    ("forces", "forces.plate_force_closed_form"),
    ("forces", "forces.force_decomposition"),
    ("forces", "forces.mirror_force_bracket"),
    ("cli", "cli.main"),
)

_POINT_FUNCTIONS = {"total_potential", "nonresonant_potential",
                    "resonant_potential"}
_TRACE_FUNCTION = "halfspace_green_traces"

# span record fields
_ID, _PARENT, _POINT, _LAYER, _NAME, _T0, _T1, _INFO = range(8)

PER_LAYER_UNITS = {
    "quadrature.integrals": "count",
    "quadrature.evaluations": "count",
    "quadrature.panels": "count",
    "quadrature.evals_per_integral": "count",
    "quadrature.self_s": "s",
    "quadrature.budget_failures": "count",
    "greens.imag_traces": "count",
    "greens.real_traces": "count",
    "greens.integrals_per_trace": "count",
    "greens.dz_calls": "count",
    "greens.repeat_ratio": "ratio",
    "greens.self_s": "s",
    "materials.calls": "count",
    "materials.self_s": "s",
    "potentials.points": "count",
    "potentials.self_s": "s",
    "potentials.total_s": "s",
    "forces.slabs": "count",
    "forces.self_s": "s",
    "forces.total_s": "s",
    "cli.runs": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}
TIME_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "s")


class TracingError(RuntimeError):
    """A traced name is missing, so the trace would silently read zero."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _out_size(argv):
    argv = list(argv or ())
    if "--out" not in argv:
        return 0
    path = argv[argv.index("--out") + 1]
    return os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    """Installs span-recording wrappers into planarcp; undo with remove()."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.point = None
        self._stack = []
        self._patches = []
        self._failed = []  # exceptions already attributed to an integral

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package.__name__ or
                                         name.startswith(
                                             self.package.__name__ + "."))]
        try:
            for layer, path in TARGETS:
                owner, attr, original = self._resolve(path)
                wrapper = self._wrap(layer, attr, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                bound = 0
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
                            bound += 1
                if not bound:
                    raise TracingError(f"planarcp.{path} is bound nowhere")
        except BaseException:
            self.remove()
            raise

    def _resolve(self, path):
        owner = self.package
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                raise TracingError(
                    f"traced name planarcp.{path} no longer exists")
        original = vars(owner).get(parts[-1]) if isinstance(owner, type) \
            else getattr(owner, parts[-1], None)
        if not callable(original):
            raise TracingError(
                f"traced name planarcp.{path} no longer exists")
        return owner, parts[-1], original

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def remove(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        before, after = self._info_functions(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.point,
                   layer, name, 0.0, 0.0,
                   before(args, kwargs) if before else None]
            spans.append(rec)
            stack.append(rec[_ID])
            rec[_T0] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[_T1] = clock()
                stack.pop()
                if layer == "quadrature":
                    rec[_INFO] = self._quadrature_failure(exc)
                raise
            rec[_T1] = clock()
            stack.pop()
            if after is not None:
                rec[_INFO] = after(args, kwargs, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def _quadrature_failure(self, exc):
        evaluations = getattr(exc, "evaluations", None)
        if evaluations is None or any(exc is e for e in self._failed):
            return ("aborted", 0)  # an inner integral failed, not this one
        self._failed.append(exc)
        return ("failed", int(evaluations))

    @staticmethod
    def _info_functions(layer, name):
        """(from the arguments, from the result) span info, either None."""
        if layer == "quadrature":
            return None, lambda a, k, r: ("ok", int(r.evaluations))
        if name == _TRACE_FUNCTION:
            def trace_key(a, k):
                geometry = _arg(a, k, 0, "geometry")
                freq = complex(_arg(a, k, 1, "freq"))
                return (geometry.reflector, geometry.z_atom, freq)
            return trace_key, None
        if name == "force_decomposition":
            return None, lambda a, k, r: len(r)
        if name == "main":
            return None, lambda a, k, r: _out_size(_arg(a, k, 0, "argv"))
        return None, None

    # -- output ---------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self._failed.clear()
        self.point = None

    def dump(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                info = rec[_INFO]
                if rec[_NAME] == _TRACE_FUNCTION:
                    info = [info[1], repr(info[2])]
                fh.write(json.dumps({
                    "id": rec[_ID], "parent": rec[_PARENT],
                    "point": rec[_POINT], "layer": rec[_LAYER],
                    "name": rec[_NAME], "start": rec[_T0], "end": rec[_T1],
                    "info": info}) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    child_time = defaultdict(float)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child_time[rec[_PARENT]] += rec[_T1] - rec[_T0]
    by_id = {rec[_ID]: rec for rec in spans}

    self_s = dict.fromkeys(LAYERS, 0.0)
    total_s = dict.fromkeys(LAYERS, 0.0)
    integrals = evaluations = failures = 0
    traces = {"imag": 0, "real": 0}
    trace_keys = set()
    integrals_in_traces = dz_calls = materials = points = 0
    slabs = cli_runs = csv_bytes = 0
    for rec in spans:
        layer, name, info = rec[_LAYER], rec[_NAME], rec[_INFO]
        duration = rec[_T1] - rec[_T0]
        self_s[layer] += duration - child_time[rec[_ID]]
        parent = by_id.get(rec[_PARENT])
        if parent is None or parent[_LAYER] != layer:
            total_s[layer] += duration
        if layer == "quadrature":
            integrals += 1
            evaluations += info[1]
            failures += info[0] == "failed"
            if parent is not None and parent[_NAME] == _TRACE_FUNCTION:
                integrals_in_traces += 1
        elif name == _TRACE_FUNCTION:
            traces["imag" if info[2].real == 0.0 else "real"] += 1
            trace_keys.add(info)
        elif name == "d_dz_traces":
            dz_calls += 1
        elif layer == "materials":
            materials += 1
        elif name in _POINT_FUNCTIONS:
            points += 1
        elif name == "force_decomposition":
            slabs += info or 0
        elif name in ("plate_force_quadrature", "plate_force_closed_form"):
            slabs += 1
        elif name == "main":
            cli_runs += 1
            csv_bytes += info or 0
    n_traces = traces["imag"] + traces["real"]
    return {
        "quadrature.integrals": integrals,
        "quadrature.evaluations": evaluations,
        "quadrature.panels": evaluations // 15,
        "quadrature.evals_per_integral":
            evaluations / integrals if integrals else 0.0,
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.budget_failures": failures,
        "greens.imag_traces": traces["imag"],
        "greens.real_traces": traces["real"],
        "greens.integrals_per_trace":
            integrals_in_traces / n_traces if n_traces else 0.0,
        "greens.dz_calls": dz_calls,
        "greens.repeat_ratio":
            n_traces / len(trace_keys) if trace_keys else 0.0,
        "greens.self_s": self_s["greens"],
        "materials.calls": materials,
        "materials.self_s": self_s["materials"],
        "potentials.points": points,
        "potentials.self_s": self_s["potentials"],
        "potentials.total_s": total_s["potentials"],
        "forces.slabs": slabs,
        "forces.self_s": self_s["forces"],
        "forces.total_s": total_s["forces"],
        "cli.runs": cli_runs,
        "cli.self_s": self_s["cli"],
        "cli.csv_bytes": csv_bytes,
    }
