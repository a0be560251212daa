"""Span tracer installed around hardykit's public functions.

The wrappers live here, in the benchmark, and are installed at run time;
nothing under ``src/`` changes.  Every binding of a wrapped function is
replaced, including the copies other modules make with
``from .x import y`` (``verifier.sup_over_t``, ``specfun._gk15``, ...), so
internal calls are counted as well as calls from the CLI.

Each span records (name, start, end, parent).  Spans are kept in memory
and written once, when the traced process ends.  A span's self time is its
duration minus the time its child spans cover.  Exceptions are counted at
every boundary they cross and re-raised unchanged.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute path, span name, how to count points)
# points: None, ("arg", i) for np.size of positional argument i, or
# ("result", axis) for the size (axis None) or length along axis of the result.
TARGETS = [
    ("specfun", "log_bessel_i_scaled", "specfun.log_bessel_i_scaled", ("arg", 1)),
    ("specfun", "stable_density", "specfun.stable_density", ("arg", 1)),
    ("specfun", "stable_laplace_check", "specfun.stable_laplace_check", None),
    ("quadrature", "sup_over_t", "quadrature.sup_over_t", None),
    ("quadrature", "golden_refine", "quadrature.golden_refine", None),
    ("quadrature", "integrate", "quadrature.integrate", None),
    ("quadrature", "halton", "quadrature.halton", None),
    ("quadrature", "integrate_adaptive", "quadrature.integrate_adaptive", None),
    ("quadrature", "gauss_kronrod_15", "quadrature.gauss_kronrod_15", None),
    ("quadrature", "rule_for_box", "quadrature.rule_for_box", None),
    ("quadrature", "rule_for_complement", "quadrature.rule_for_complement", None),
    ("coverings", "validate_covering", "coverings.validate_covering", None),
    ("coverings", "PartitionOfUnity.evaluate_all",
     "coverings.PartitionOfUnity.evaluate_all", ("result", 1)),
    ("coverings", "partition_of_unity", "coverings.partition_of_unity", None),
    ("coverings", "covering_bessel", "coverings.build", None),
    ("coverings", "covering_laguerre", "coverings.build", None),
    ("coverings", "covering_uniform", "coverings.build", None),
    ("coverings", "covering_line_strips", "coverings.build", None),
    ("coverings", "box_product", "coverings.build", None),
    ("kernels", "EuclideanHeat.eval", "kernels.EuclideanHeat.eval", ("result", None)),
    ("kernels", "BesselKernel.eval", "kernels.BesselKernel.eval", ("result", None)),
    ("kernels", "LaguerreKernel.eval", "kernels.LaguerreKernel.eval", ("result", None)),
    ("kernels", "SubordinateKernel.eval", "kernels.SubordinateKernel.eval",
     ("result", None)),
    ("kernels", "SchrodingerKernel.eval", "kernels.SchrodingerKernel.eval",
     ("result", None)),
    ("kernels", "ProductKernel.eval", "kernels.ProductKernel.eval", ("result", None)),
    ("kernels", "SubordinationRule.__init__", "kernels.SubordinationRule.init", None),
    ("kernels", "schrodinger_build", "kernels.schrodinger_build", None),
    ("kernels", "mass", "kernels.mass", None),
    ("atoms", "make_local_atom", "atoms.make_local_atom", None),
    ("atoms", "random_classical_atom", "atoms.random_classical_atom", None),
    ("atoms", "localize", "atoms.localize", None),
    ("atoms", "local_decompose", "atoms.local_decompose", None),
    ("atoms", "localize_reconstruction_error",
     "atoms.localize_reconstruction_error", None),
    ("verifier", "verify_A1prime", "verifier.verify_A1prime", None),
    ("verifier", "verify_A2prime", "verifier.verify_A2prime", None),
    ("verifier", "verify_A1", "verifier.verify_A1", None),
    ("verifier", "verify_A2", "verifier.verify_A2", None),
    ("verifier", "verify_schrodinger_D", "verifier.verify_schrodinger_D", None),
    ("verifier", "verify_schrodinger_K", "verifier.verify_schrodinger_K", None),
    ("verifier", "maximal_norm", "verifier.maximal_norm", None),
    ("verifier", "y_samples", "verifier.y_samples", None),
    ("cli", "cmd_covering", "cli.covering", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_maximal", "cli.maximal", None),
    ("cli", "cmd_decompose", "cli.decompose", None),
    ("cli", "cmd_subordinate_check", "cli.subordinate-check", None),
    ("cli", "build_covering", "cli.build", None),
    ("cli", "build_kernel", "cli.build", None),
    ("cli", "build_settings", "cli.build", None),
]

# Bindings made with ``from .x import y`` that must end up wrapped; the
# hot paths go uncounted without them.
ALIASES = [
    ("verifier", "sup_over_t"), ("verifier", "golden_refine"),
    ("verifier", "integrate"), ("verifier", "mass"),
    ("kernels", "integrate_adaptive"), ("specfun", "_gk15"),
]

MODULES = ("specfun", "quadrature", "coverings", "kernels", "atoms",
           "verifier", "cli")


class Tracer:
    """Collects spans, per-name counters and per-module exception counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.points: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.errors: dict[str, int] = {m: 0 for m in MODULES}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
        return nid

    def wrap(self, fn, name: str, points):
        nid = self._id(name)
        module = name.split(".", 1)[0]
        clock = time.perf_counter
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        child, stack = self._child, self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        errors = self.errors
        if points is not None:
            self.points.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = clock()
                span_end[idx] = end
                stack.pop()
                dur = end - span_start[idx]
                if stack:
                    child[stack[-1]] += dur
                self_s[name] += dur - child[idx]
                total_s[name] += dur
                calls[name] += 1
            if points is not None:
                kind, where = points
                if kind == "arg":
                    self.points[name] += int(np.size(args[where]))
                elif where is None:
                    self.points[name] += int(np.size(result))
                else:
                    self.points[name] += int(np.shape(result)[where])
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self, package: str = "hardykit") -> None:
        """Wrap every TARGETS entry and every module binding of it."""
        mods = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        for mod_name, path, name, points in TARGETS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, name, points)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for mod_name, attr in ALIASES:
            bound = getattr(mods[mod_name], attr)
            if not hasattr(bound, "__perfbench_original__"):
                raise RuntimeError(f"{mod_name}.{attr} was not wrapped")

    def self_time_between(self, start: float, end: float) -> float:
        """Summed self time of the spans that began in [start, end)."""
        starts = np.asarray(self.span_start)
        ends = np.asarray(self.span_end)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        inside = (starts >= start) & (starts < end)
        # the self times of a span tree sum to the duration of its root
        roots = inside & ((parents < 0) | ~inside[np.maximum(parents, 0)])
        return float(np.sum(ends[roots] - starts[roots]))

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent, dtype=np.int32))
