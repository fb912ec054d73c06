"""Span recorder for the traced benchmark run.

Each traced function is replaced, at every import binding inside the
``radiopose`` package that callers look it up through (for example
``radiopose.simkit.fusion_update`` and ``radiopose.tracking.se3_log``), by a
wrapper that records one span per call: name, start, end, parent span and
the id of the benchmark operation (top-level call) it belongs to. Spans are
kept in memory in flat arrays and written out when the run ends. Nothing
under ``src/`` is modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# layer name -> function names traced in that layer (module attribute names,
# or "Pose.<method>" for the two Pose methods).
TRACED = {
    "lie": (
        "se3_log", "se3_exp", "so3_log", "so3_exp", "so3_left_jacobian",
        "se3_left_jacobian", "adjoint", "Pose.matmul", "Pose.inverse",
    ),
    "tracking": ("predict", "fusion_update", "eskf_update", "euler_predict", "euler_ekf_update"),
    "bounds": (
        "measurement_covariance", "project_fim", "efim_remove_gains", "state_jacobian_tz",
        "icrb_report", "pose_error_bounds",
    ),
    "channel": ("fim_unconstrained", "draw_beams", "channel_params"),
    "simkit": (
        "sample_measurement", "scenario_reports", "run_single", "emit_csv", "run_monte_carlo",
        "bounds_sweep",
    ),
    "cli": ("main",),
}

_POSE_METHODS = {"Pose.matmul": "__matmul__", "Pose.inverse": "inverse"}
_COMPLEX_BYTES = 16
_PARAMS_PER_ANCHOR = 9


def fim_kernel_counts(anchors, ue_array, sig) -> tuple[int, int]:
    """Computed (not measured) bytes and flops of one ``fim_unconstrained`` call.

    Per anchor with G beams, C subcarriers and N_ue / N_bs elements:
    the (9, G, C) complex gradient tensor is written once and read once by
    its Gram product (2 * 9 * G * C * 16 bytes); building it costs one
    complex multiply (6 flops) per entry plus 4 complex multiply-adds
    (8 flops) per beam and element for the beam gains and their three
    direction derivatives; the 9x9 Gram product costs 81 * G * C complex
    multiply-adds.
    """
    g, c = sig.num_transmissions, sig.num_subcarriers
    n_ue = ue_array.num_elements
    total_bytes = total_flops = 0
    for anchor in anchors:
        n_bs = anchor.array.num_elements
        entries = _PARAMS_PER_ANCHOR * g * c
        total_bytes += 2 * entries * _COMPLEX_BYTES
        total_flops += 6 * entries + 8 * 4 * g * (n_ue + n_bs)
        total_flops += 8 * _PARAMS_PER_ANCHOR * _PARAMS_PER_ANCHOR * g * c
    return total_bytes, total_flops


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack, span_name, parent, op = self._stack, self.span_name, self.parent, self.op
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                start[sid] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        def fusion_after(args, kwargs, state):
            if not state.converged:
                self._count("fusion_nonconverged")

        def emit_after(args, kwargs, result):
            self._count("emit_csv_bytes", os.path.getsize(args[1]))

        def fim_after(args, kwargs, result):
            _, anchors, ue_array, sig = args[:4]
            nbytes, flops = fim_kernel_counts(anchors, ue_array, sig)
            self._count("fim_bytes", nbytes)
            self._count("fim_flops", flops)

        def run_single_after(args, kwargs, result):
            self._count("filter_steps", len(result.truths))

        return {
            "tracking.fusion_update": fusion_after,
            "simkit.emit_csv": emit_after,
            "channel.fim_unconstrained": fim_after,
            "simkit.run_single": run_single_after,
        }

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in the package."""
        import radiopose
        from radiopose.lie import Pose

        modules = [radiopose] + [
            mod for key, mod in sys.modules.items() if key.startswith("radiopose.") and mod is not None
        ]
        hooks = self._hooks()
        for layer, funcs in TRACED.items():
            home = sys.modules[f"radiopose.{layer}"]
            for func in funcs:
                name = f"{layer}.{func}"
                if func in _POSE_METHODS:
                    attr = _POSE_METHODS[func]
                    self._patch(Pose, attr, self._wrap(name, Pose.__dict__[attr], hooks.get(name)))
                    continue
                original = inspect.unwrap(getattr(home, func))
                for mod in modules:
                    bound = mod.__dict__.get(func)
                    if bound is not None and inspect.unwrap(bound) is original:
                        self._patch(mod, func, self._wrap(name, bound, hooks.get(name)))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        """(name id, parent, duration ns) as numpy arrays, in span-id order."""
        names = np.array(self.span_name, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        return names, parents, dur

    def layer_totals(self) -> dict:
        """Per traced function: calls, self seconds and inclusive seconds."""
        names, parents, dur = self.arrays()
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_ns[mask].sum()) * 1e-9,
                "total_s": float(dur[mask].sum()) * 1e-9,
            }
        return out

    def count_inside(self, child_name: str, ancestor_name: str) -> int:
        """Number of ``child_name`` spans that have an ``ancestor_name`` ancestor."""
        if child_name not in self._name_ids or ancestor_name not in self._name_ids:
            return 0
        names, parents, _ = self.arrays()
        has_parent = parents >= 0
        up = np.where(has_parent, parents, 0)
        # inside[s]: some ancestor of s is an ancestor_name span; propagate one
        # level per pass until nothing changes
        inside = has_parent & (names[up] == self._name_ids[ancestor_name])
        while True:
            grown = inside | (has_parent & inside[up])
            if np.array_equal(grown, inside):
                break
            inside = grown
        return int((inside & (names == self._name_ids[child_name])).sum())

    def write(self, path) -> None:
        """Write all spans as gzip CSV: id,parent,op,name,start_ns,end_ns."""
        with gzip.open(path, "wt", newline="") as handle:
            handle.write("id,parent,op,name,start_ns,end_ns\n")
            for sid in range(len(self.span_name)):
                handle.write(
                    f"{sid},{self.parent[sid]},{self.op[sid]},{self.names[self.span_name[sid]]},"
                    f"{self.start[sid]},{self.end[sid]}\n"
                )
