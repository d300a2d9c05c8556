"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install()`` rebinds each traced function in every ``qndsim`` module
namespace that holds it (methods and constructors are patched on their
class); ``Tracer.uninstall()`` puts the originals back.  While ``active`` is
false the wrappers only forward the call, so output checks made between
traced operations leave no spans.

A span is ``(name, op, parent, start, end)``.  ``trajectory_generator`` runs
once per shot, so its calls and time are added to its parent span instead of
opening spans of their own; so are the speed sampler's interruptions.  A
layer's self time is the duration of its spans minus the time their child
spans and aggregated calls cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

OP_SPAN = "perfbench.op"
# time the speed sampler interrupts a traced op; aggregated like trajectory_generator
SAMPLER = "perfbench.sampler"

TRACED = {
    "cli": ("cmd_vacuum_spectra", "cmd_transfer", "cmd_conditional", "cmd_reproduce_table"),
    "metrics": (
        "vacuum_noise_report",
        "transfer_coefficients",
        "cv_sweep",
        "reference_sweeps",
        "duan_simon",
        "evaluate_gate",
        "compare_to_reference",
        "fit_extra_in_loop_loss",
    ),
    "circuit": (
        "build_qnd_gate",
        "circuit_quadrature_map",
        "run_covariance",
        "compile_trajectory",
        "TrajectoryProgram.run_means",
    ),
    "quadexpr": ("finite_squeezing_map", "moments_from_map", "max_coefficient_difference"),
    "gaussian": (
        "beam_splitter",
        "loss_channel",
        "squeeze",
        "displace",
        "remove_mode",
        "SymplecticMatrix",
    ),
    "ensemble": ("run_ensemble", "trajectory_generator", "pairwise_tree_sum"),
}
AGGREGATED = {"ensemble.trajectory_generator"}


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.active = False
        self.names = [OP_SPAN, SAMPLER]
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.op = -1
        # (parent span, name index) -> [calls, seconds] of aggregated functions
        self.aggregates = defaultdict(lambda: [0, 0.0])
        # bases of the derived per-layer metrics
        self.counts = defaultdict(int)
        self._built_params = set()
        self._op_keys = set()
        self._patches = []  # (owner, attribute, original)
        self.absent = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_index: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_index)
        self.span_op.append(self.op)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self.stack.pop()

    def run_op(self, fn, *args):
        """Run one benchmark operation under a root span of its own."""
        self.op += 1
        self._op_keys.clear()
        self.active = True
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.active = False

    def absorb_sample(self, seconds: float) -> None:
        """Book a speed-sampler interruption on the span it interrupted."""
        if self.active:
            entry = self.aggregates[(self.stack[-1], 1)]
            entry[0] += 1
            entry[1] += seconds

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        index = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs)
            sid = tracer._open(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return traced

    def _wrap_aggregated(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def counted(master_seed, index_in_stream):
            if not tracer.active:
                return fn(master_seed, index_in_stream)
            start = perf_counter()
            generator = fn(master_seed, index_in_stream)
            entry = tracer.aggregates[(tracer.stack[-1], index)]
            entry[0] += 1
            entry[1] += perf_counter() - start
            key = (master_seed, index_in_stream)
            tracer.counts["ensemble.keys_drawn"] += 1
            if key in tracer._op_keys:
                tracer.counts["ensemble.keys_redrawn"] += 1
            else:
                tracer._op_keys.add(key)
            return generator

        return counted

    def _hooks(self) -> dict:
        counts = self.counts

        def elements(key):
            def hook(args, kwargs):
                counts[key] += len(_arg(args, kwargs, 0, "circuit").elements)

            return hook

        def build(args, kwargs):
            params = _arg(args, kwargs, 0, "params")
            counts["circuit.build_qnd_gate.builds"] += 1
            if params in self._built_params:
                counts["circuit.build_qnd_gate.repeats"] += 1
            self._built_params.add(params)

        def run_means(args, kwargs):
            counts["circuit.run_means.shots"] += np.atleast_2d(_arg(args, kwargs, 1, "draws")).shape[0]

        def run_ensemble(args, kwargs):
            counts["ensemble.requested_shots"] += int(_arg(args, kwargs, 2, "n"))

        def duan_simon(args, kwargs):
            from qndsim import metrics

            grid = _arg(args, kwargs, 2, "g_grid")
            counts["metrics.duan_simon.grid_points"] += len(
                metrics.DEFAULT_G_GRID if grid is None else grid
            )

        return {
            "circuit.run_covariance": elements("circuit.run_covariance.elements"),
            "circuit.compile_trajectory": elements("circuit.compile_trajectory.elements"),
            "circuit.build_qnd_gate": build,
            "circuit.TrajectoryProgram.run_means": run_means,
            "ensemble.run_ensemble": run_ensemble,
            "metrics.duan_simon": duan_simon,
        }

    def install(self) -> None:
        """Rebind every traced function that exists; note the ones that do not."""
        loaded = {}
        for module_name in TRACED:
            try:
                loaded[module_name] = importlib.import_module(f"qndsim.{module_name}")
            except ModuleNotFoundError:
                loaded[module_name] = None
        modules = [m for n, m in sys.modules.items() if n == "qndsim" or n.startswith("qndsim.")]
        hooks = self._hooks()
        for module_name, functions in TRACED.items():
            module = loaded[module_name]
            for function in functions:
                name = f"{module_name}.{function}"
                owner_name, _, method = function.partition(".")
                owner = getattr(module, owner_name, None)
                if owner is None or (method and not hasattr(owner, method)):
                    self.absent.append(name)
                    continue
                if method:
                    self._patch(owner, method, self._wrap(name, getattr(owner, method), hooks.get(name)))
                elif isinstance(owner, type):
                    # a class: each construction is one call
                    self._patch(owner, "__init__", self._wrap(name, owner.__init__, hooks.get(name)))
                else:
                    wrapper = (
                        self._wrap_aggregated(name, owner)
                        if name in AGGREGATED
                        else self._wrap(name, owner, hooks.get(name))
                    )
                    for holder in modules:
                        if getattr(holder, function, None) is owner:
                            self._patch(holder, function, wrapper)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """Span arrays plus each span's self time (seconds)."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        for (sid, _), (_, seconds) in self.aggregates.items():
            covered[sid] += seconds
        return {
            "names": np.array(self.names),
            "name": name,
            "op": np.array(self.span_op, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "self": duration - covered,
        }

    def layer_totals(self) -> dict:
        """name -> {"calls", "self_s", "total_s"} over all recorded spans."""
        spans = self.spans()
        n = len(self.names)
        calls = np.bincount(spans["name"], minlength=n).astype(float)
        self_s = np.bincount(spans["name"], weights=spans["self"], minlength=n)
        total_s = np.bincount(spans["name"], weights=spans["end"] - spans["start"], minlength=n)
        for (_, index), (count, seconds) in self.aggregates.items():
            calls[index] += count
            self_s[index] += seconds
            total_s[index] += seconds
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        spans = self.spans()
        aggregates = np.array(
            [(sid, index, count, seconds) for (sid, index), (count, seconds) in self.aggregates.items()],
            dtype=float,
        ).reshape(-1, 4)
        np.savez_compressed(path, aggregates=aggregates, **spans)

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics: name -> (value, unit, base of a ratio or None).

        A ratio whose base is zero, such as shots per call on a workload that
        runs no ensemble, reads 0.
        """
        totals = self.layer_totals()
        counts = self.counts
        out = {}
        for name in self.names[2:]:
            out[f"{name}.calls"] = (totals[name]["calls"], "count", None)
            out[f"{name}.self_ms"] = (totals[name]["self_s"] * 1e3, "ms", None)

        def ratio(metric, function, numerator, denominator, unit, base):
            if function in totals:
                out[metric] = (numerator / denominator if denominator else 0.0, unit, base)

        def total(name, field):
            return totals[name][field] if name in totals else 0

        elements = counts["circuit.run_covariance.elements"]
        ratio(
            "circuit.run_covariance.us_per_element", "circuit.run_covariance",
            total("circuit.run_covariance", "total_s") * 1e6, elements,
            "us", f"{elements} elements propagated",
        )
        shots = counts["circuit.run_means.shots"]
        ratio(
            "circuit.TrajectoryProgram.run_means.ns_per_shot", "circuit.TrajectoryProgram.run_means",
            total("circuit.TrajectoryProgram.run_means", "total_s") * 1e9, shots,
            "ns", f"{shots} shots",
        )
        builds = counts["circuit.build_qnd_gate.builds"]
        ratio(
            "circuit.build_qnd_gate.repeat_params_ratio", "circuit.build_qnd_gate",
            counts["circuit.build_qnd_gate.repeats"], builds, "ratio", f"{builds} builds",
        )
        all_elements = elements + counts["circuit.compile_trajectory.elements"]
        ratio(
            "gaussian.SymplecticMatrix.per_element", "gaussian.SymplecticMatrix",
            total("gaussian.SymplecticMatrix", "calls"), all_elements,
            "ratio", f"{all_elements} elements propagated or compiled",
        )
        requested = counts["ensemble.requested_shots"]
        ratio(
            "ensemble.trajectory_generator.per_requested_shot", "ensemble.trajectory_generator",
            total("ensemble.trajectory_generator", "calls"), requested,
            "ratio", f"{requested} shots requested",
        )
        drawn = counts["ensemble.keys_drawn"]
        ratio(
            "ensemble.duplicate_draw_ratio", "ensemble.trajectory_generator",
            counts["ensemble.keys_redrawn"], drawn, "ratio", f"{drawn} (seed, index) keys drawn",
        )
        if "metrics.duan_simon" in totals:
            out["metrics.duan_simon.grid_points"] = (
                counts["metrics.duan_simon.grid_points"], "count", None,
            )
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio", "traced over untraced throughput")
        return out
