"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each `gframes` module named
in LAYERS and rebinds every `gframes.*` module attribute that refers to the
wrapped function object, so calls between modules go through the wrapper
too. The package source is not modified. Each call records a span (name,
start, end, parent span, op id) in memory; `write` saves them when the run
ends and `layer_metrics` reduces them to per-op counts and self times.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from collections import Counter

# Wrapped functions per module. "GFrame" is the model class: its __init__ is wrapped.
LAYERS = {
    "linalg": ("hermitian_eig", "matrix_power_eig"),
    "model": ("GFrame", "frame_operator", "validate_frame", "canonical_parseval",
              "canonical_dual", "dual_residual"),
    "identities": ("parseval_weighted_energy", "parseval_frobenius_budget",
                   "power_trace_identity", "parseval_approx_decomposition", "parseval_gap",
                   "canonical_dual_gap", "pointwise_dual_decomposition",
                   "frobenius_dual_decomposition"),
    "duals": ("random_alternate_dual", "verify_alternate_dual", "parseval_proximity_bound",
              "dual_proximity_bound"),
    "generators": ("random_gframe", "random_parseval_gframe", "nearly_parseval_gframe",
                   "random_unitary"),
    "rng": ("stream", "standard_normals"),
    "io": ("load_frame", "save_frame", "frame_from_dict", "frame_to_dict"),
    "report": ("run_suite", "budgets_suite", "parseval_approx_suite", "duals_suite",
               "bounds_suite", "report_to_dict", "render_json", "render_text"),
    "cli": ("main",),
}
FRAME_GENERATORS = ("generators.random_gframe", "generators.random_parseval_gframe",
                    "generators.nearly_parseval_gframe")
# Path argument position of the io functions whose file size is counted.
IO_PATH_ARG = {"io.save_frame": ("bytes_written", 1), "io.load_frame": ("bytes_read", 0)}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_ms", "ms", "lower"))
        if module == "model":
            out.append(("model.frame_operator.hit_ratio", "ratio", "higher"))
        if module == "generators":
            out.append(("generators.draw_attempts_per_frame", "ratio", "lower"))
        if module == "io":
            out.append(("io.bytes_written", "bytes", "lower"))
            out.append(("io.bytes_read", "bytes", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "higher"))
    return out


class Tracer:
    """Installs the wrappers and holds the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        # (name index, start ns, end ns, parent slot or -1, op id); a slot is
        # reserved at entry so a parent always precedes its children.
        self.spans: list = []
        self.io_bytes: Counter = Counter()
        self.op = -1
        self._stack: list[tuple[int, int]] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        io_counter = IO_PATH_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == idx:  # direct recursion counts once
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append((idx, slot))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent, self.op)
            if io_counter is not None:
                key, pos = io_counter
                self.io_bytes[key] += os.path.getsize(args[pos])
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gframes" or name.startswith("gframes."))]
        for module, functions in LAYERS.items():
            mod = sys.modules[f"gframes.{module}"]
            for fn_name in functions:
                name = f"{module}.{fn_name}"
                if fn_name == "GFrame":
                    cls = mod.GFrame
                    self._patch(cls, "__init__", self._wrap(name, cls.__init__))
                    continue
                original = getattr(mod, fn_name)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as gzip text: a header of names, then one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# names: " + " ".join(self.names) + "\n")
            fh.write("# name start_ns end_ns parent op\n")
            for idx, start, end, parent, op in self.spans:
                fh.write(f"{self.names[idx]} {start} {end} {parent} {op}\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op calls and self time of each wrapped function, plus the derived ratios."""
    spans, names = tracer.spans, tracer.names
    child_ns = [0] * len(spans)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for slot in range(len(spans) - 1, -1, -1):  # children sit after their parent
        idx, start, end, parent, _ = spans[slot]
        duration = end - start
        calls[names[idx]] += 1
        self_ns[names[idx]] += duration - child_ns[slot]
        if parent >= 0:
            child_ns[parent] += duration

    def name_of(slot: int) -> str:
        return names[spans[slot][0]]

    def under_generator(slot: int) -> bool:
        parent = spans[slot][3]
        while parent >= 0:
            if name_of(parent) in FRAME_GENERATORS:
                return True
            parent = spans[parent][3]
        return False

    eig_misses = sum(1 for idx, _, _, parent, _ in spans
                     if names[idx] == "linalg.hermitian_eig" and parent >= 0
                     and name_of(parent) == "model.frame_operator")
    draws = sum(1 for slot, span in enumerate(spans)
                if names[span[0]] == "rng.stream" and under_generator(slot))
    frames_made = sum(calls[g] for g in FRAME_GENERATORS)

    metrics = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls"] = calls[name] / ops
            metrics[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
    fo_calls = calls["model.frame_operator"]
    metrics["model.frame_operator.hit_ratio"] = 1.0 - eig_misses / fo_calls if fo_calls else 0.0
    metrics["generators.draw_attempts_per_frame"] = draws / frames_made if frames_made else 0.0
    metrics["io.bytes_written"] = tracer.io_bytes["bytes_written"] / ops
    metrics["io.bytes_read"] = tracer.io_bytes["bytes_read"] / ops
    return metrics
