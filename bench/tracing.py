"""Outside-in tracing of arithcap: every traced layer is a public function or
method wrapped where its caller looks the name up, so nothing in src/ changes.

- A module-level function is patched in the namespace of the module that
  calls it (`arithcap.patching.int_poly_div_exact`, not `arithcap.polys`'s).
- A method is patched on its class.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# layer -> (module whose attribute the caller reads, class or None, attribute)
TARGETS = {
    "patching.lower_bound": ("arithcap.patching", None, "certified_lower_bound"),
    "patching.greedy": ("arithcap.patching", None, "clear_fractional_parts"),
    "patching.reconstruction": ("arithcap.patching", None, "reconstruction_residual"),
    "patching.spot_check": ("arithcap.patching", None, "spot_check_min_abs"),
    "polys.int_pow": ("arithcap.polys", "IntPoly", "__pow__"),
    "polys.int_div_exact": ("arithcap.patching", None, "int_poly_div_exact"),
    "integerize.search": ("arithcap.patching", None, "minimal_integerizing_exponent"),
    "curves.winding": ("arithcap.curves", "TrigCurve", "winding"),
    "curves.contains": ("arithcap.curves", "DomainSpec", "contains"),
    "analytic.preimages": ("arithcap.overflow", None, "preimages"),
    "analytic.taylor_jet": ("arithcap.overflow", None, "taylor_jet"),
    "greens.green": ("arithcap.greens", "GreenSolution", "green"),
    "greens.measure_density": ("arithcap.greens", "GreenSolution", "measure_density_t"),
    "greens.solve": ("arithcap.greens", None, "solve_green"),
    "overflow.pushforward_green": ("arithcap.overflow", None, "pushforward_green"),
    "overflow.route": ("arithcap.overflow", None, "overflow"),
}

# The workloads each layer is mapped to: a traced run of such a workload fails
# unless the layer records a call, so a rename cannot silently zero a metric.
COVERAGE = {
    "patching.lower_bound": ("patch-infeasible",),
    "patching.greedy": ("patch-flagship",),
    "patching.reconstruction": ("patch-flagship",),
    "patching.spot_check": ("patch-flagship",),
    "polys.int_pow": ("patch-flagship",),
    "polys.int_div_exact": ("patch-flagship",),
    "integerize.search": ("patch-flagship",),
    "curves.winding": ("overflow-def",),
    "curves.contains": ("overflow-def",),
    "analytic.preimages": ("overflow-def",),
    "greens.green": ("overflow-def",),
    "overflow.pushforward_green": ("overflow-def",),
    "overflow.route": ("overflow-energy",),
    "greens.measure_density": ("overflow-energy",),
    "analytic.taylor_jet": ("overflow-energy",),
    "greens.solve": ("overflow-def", "overflow-energy"),
}
# layers that run during set-up, which the traced run traces on its own
SETUP_LAYERS = ("greens.solve",)

# layers that also count the query points of each call (argument index)
POINTS_ARG = {"curves.winding": 1}


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.points = dict.fromkeys(POINTS_ARG, 0)
        self._child_s = [0.0]  # per open span: time spent in wrapped callees

    def _wrap(self, layer, fn):
        points_arg = POINTS_ARG.get(layer)

        def traced(*args, **kwargs):
            if points_arg is not None:
                self.points[layer] += int(np.size(args[points_arg]))
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[layer] += duration - self._child_s.pop()
                self._child_s[-1] += duration
                self.calls[layer] += 1

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched = []
        try:
            for layer, (module, cls, attr) in TARGETS.items():
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(layer, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def uncovered(workload: str, setup: Tracer, ops: Tracer) -> list[str]:
    """Layers mapped to this workload that recorded no call."""
    return [
        layer
        for layer, mapped in COVERAGE.items()
        if workload in mapped and not (setup if layer in SETUP_LAYERS else ops).calls[layer]
    ]
