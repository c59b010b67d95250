"""A span tracer attached from outside the library.

`Tracer.attach` replaces each public name at the place it is looked up with a
wrapper that records one span per call: name, start, end, parent span and
op id. `detach` puts the originals back. Spans stay in flat arrays in memory
until `save` writes them out. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

from fractalcalc import core, laplace, nonlocal_ops, quadrature, solutions, staircase

# (owner, attribute, span name). The span name is "<layer>.<function>"; the
# owner is where callers look the name up, which is not always the module
# that defines it.
TARGETS = (
    (staircase.StaircaseFn, "eval_exact", "staircase.eval_exact"),
    (staircase.StaircaseFn, "quantile_exact", "staircase.quantile_exact"),
    (staircase.StaircaseFn, "membership", "staircase.membership"),
    (core.ConjugatedFn, "__call__", "core.integrand"),
    (core, "f_alpha_integral", "core.f_alpha_integral"),
    (quadrature, "product_integrate", "quadrature.product_integrate"),
    (quadrature, "tanh_sinh", "quadrature.tanh_sinh"),
    (quadrature, "gauss_composite", "quadrature.gauss_composite"),
    # evaluate() looks the three operators up in nonlocal_ops itself
    (nonlocal_ops, "rl_integral", "nonlocal_ops.rl_integral"),
    (nonlocal_ops, "rl_derivative", "nonlocal_ops.rl_derivative"),
    (nonlocal_ops, "caputo_derivative", "nonlocal_ops.caputo_derivative"),
    (laplace, "mittag_leffler", "special.mittag_leffler"),
    (solutions, "mittag_leffler", "special.mittag_leffler"),
    (laplace, "laplace_numeric", "laplace.laplace_numeric"),
    (solutions, "evaluate_inverse", "laplace.evaluate_inverse"),
    (solutions, "solve_example", "solutions.solve_example"),
)

LAYERS = ("staircase", "core", "quadrature", "nonlocal_ops", "special", "laplace", "solutions")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.mesh_nodes = 0
        self.op_id = -1
        # (first span index, mesh_nodes so far) at the start of each pass
        self.passes: list[tuple[int, int]] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        k = self.names.index(name)
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        count_mesh = name == "quadrature.product_integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(k)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            if count_mesh:
                self.mesh_nodes += len(args[1])
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def attach(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def detach(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.passes.append((len(self.start), self.mesh_nodes))
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per-pass call counts and self times by span name.

        Each `with tracer:` block is one pass over the same op list, so counts
        must repeat exactly from pass to pass; `drift` says they did not.
        Self times are averaged over the passes.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        n = len(self.names)
        passes = len(self.passes)
        bounds = [b for b, _ in self.passes] + [len(dur)]
        counts = [np.bincount(name_id[a:b], minlength=n) for a, b in zip(bounds, bounds[1:])]
        meshes = [m for _, m in self.passes] + [self.mesh_nodes]
        mesh = [b - a for a, b in zip(meshes, meshes[1:])]
        drift = any(not np.array_equal(c, counts[0]) for c in counts) or len(set(mesh)) > 1
        self_s = np.bincount(name_id, weights=self_time, minlength=n) / passes
        by_name = {
            name: {"calls": int(counts[0][k]), "self_s": float(self_s[k])} for k, name in enumerate(self.names)
        }
        # quantile calls made directly inside a conjugated integrand call
        q_in_integrand = 0
        if "staircase.quantile_exact" in self.names and "core.integrand" in self.names:
            first = slice(bounds[0], bounds[1])
            q = name_id[first] == self.names.index("staircase.quantile_exact")
            p = parent[first][q]
            p = p[p >= 0]
            q_in_integrand = int(np.count_nonzero(name_id[p] == self.names.index("core.integrand")))
        return {
            "by_name": by_name,
            "top_s": float(dur[~has_parent].sum()) / passes,
            "quantile_in_integrand": q_in_integrand,
            "mesh_nodes": mesh[0],
            "passes": passes,
            "drift": drift,
        }


def per_layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit) pairs.

    Counts are for one pass over the op list, times are per pass, and the
    wall times passed in are the per-pass means.
    """
    by_name = summary["by_name"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(prefix):
        return sum(v["self_s"] for k, v in by_name.items() if k.split(".")[0] == prefix)

    def ratio(a, b):
        return a / b if b else 0.0

    st_calls = calls("staircase.eval_exact") + calls("staircase.quantile_exact") + calls("staircase.membership")
    integrands = calls("core.integrand")
    values = calls("nonlocal_ops.rl_integral") + calls("nonlocal_ops.rl_derivative") + calls(
        "nonlocal_ops.caputo_derivative"
    )
    product = calls("quadrature.product_integrate")
    ml = calls("special.mittag_leffler")
    ml_self = by_name.get("special.mittag_leffler", {}).get("self_s", 0.0)
    m = {
        "staircase.eval_calls": (calls("staircase.eval_exact"), "count"),
        "staircase.quantile_calls": (calls("staircase.quantile_exact"), "count"),
        "staircase.membership_calls": (calls("staircase.membership"), "count"),
        "staircase.self_s": (self_s("staircase"), "s"),
        "staircase.us_per_call": (1e6 * ratio(self_s("staircase"), st_calls), "us"),
        "core.integrand_calls": (integrands, "count"),
        "core.quantile_per_integrand": (ratio(summary["quantile_in_integrand"], integrands), "ratio"),
        "core.measure_calls": (calls("core.f_alpha_integral"), "count"),
        "core.self_s": (self_s("core"), "s"),
        "quadrature.product_calls": (product, "count"),
        "quadrature.mesh_nodes": (summary["mesh_nodes"], "count"),
        "quadrature.tanh_sinh_calls": (calls("quadrature.tanh_sinh"), "count"),
        "quadrature.gauss_calls": (calls("quadrature.gauss_composite"), "count"),
        "quadrature.self_s": (self_s("quadrature"), "s"),
        "nonlocal_ops.values": (values, "count"),
        "nonlocal_ops.integrals_per_value": (ratio(product, values), "ratio"),
        "nonlocal_ops.self_s": (self_s("nonlocal_ops"), "s"),
        "special.ml_calls": (ml, "count"),
        "special.ml_us_per_call": (1e6 * ratio(ml_self, ml), "us"),
        "special.self_s": (self_s("special"), "s"),
        "laplace.numeric_calls": (calls("laplace.laplace_numeric"), "count"),
        "laplace.inverse_evals": (calls("laplace.evaluate_inverse"), "count"),
        "laplace.self_s": (self_s("laplace"), "s"),
        "solutions.solve_calls": (calls("solutions.solve_example"), "count"),
        "solutions.self_s": (self_s("solutions"), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    return m
