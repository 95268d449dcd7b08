"""Span tracing of stablekit from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper in every stablekit module that imported the function
(the package root included), so calls between modules are traced too.
``DescriptorSystem.__init__`` is wrapped on the class. ``uninstall``
restores every original binding.

Each span holds name, start, end, parent span and the case it belongs to,
plus a few per-call counters. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "systems", "gramians", "approximation", "dsysio", "cli")
QZ_SPANS = ("kernels.qz_ordered", "kernels.pencil_eigendata")


def _size_of_first_matrix(args) -> int | None:
    shape = getattr(args[0], "shape", None) if args else None
    return shape[0] if shape else None


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.case = None

    # -- span recording --------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = {"name": name, "case": tracer.case, "parent": tracer._stack[-1] if tracer._stack else None}
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            measure_bytes = name == "kernels.solve_generalized_sylvester" and not tracemalloc.is_tracing()
            if measure_bytes:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if measure_bytes:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            tracer._annotate(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _annotate(self, span: dict, args, kwargs, result) -> None:
        name = span["name"]
        if name in QZ_SPANS:
            span["size"] = _size_of_first_matrix(args)
        elif name == "kernels.solve_generalized_sylvester":
            span["kl"] = args[0].shape[0] * args[1].shape[0]
        elif name == "systems.frequency_response":
            omegas = args[1] if len(args) > 1 else kwargs["omegas"]
            span["points"] = int(np.size(omegas))
        elif name == "gramians.linf_error":
            span["points"] = int(result.omegas.size)
        elif name == "approximation.solve_apinf":
            span["branch"] = result.branch.value if result.branch is not None else None
            span["order"] = result.system.n
        elif name in ("dsysio.load_dsys", "dsysio.save_dsys"):
            span["bytes"] = _path_size(args[0])
        elif name == "cli.main":
            argv = list(args[0] if args else kwargs["argv"])
            norm = argv[argv.index("--norm") + 1] if "--norm" in argv else ""
            span["command"] = f"cli {argv[0]} {norm}".strip()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "stablekit" or k.startswith("stablekit.")]
        for layer in LAYERS:
            mod = sys.modules[f"stablekit.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    if holder.__dict__.get(attr) is fn:
                        self._restore.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        cls = sys.modules["stablekit.systems"].DescriptorSystem
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("systems.DescriptorSystem", cls.__init__)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def under(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx]["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def inclusive(self, name: str, ancestor: str | None = None) -> float:
        return sum(
            s["end"] - s["start"]
            for i, s in enumerate(self.spans)
            if s["name"] == name and (ancestor is None or self.under(i, ancestor))
        )

    def root(self, idx: int) -> dict:
        while self.spans[idx]["parent"] is not None:
            idx = self.spans[idx]["parent"]
        return self.spans[idx]

    def qz_by_operation(self, case_sizes: dict) -> dict:
        """QZ calls per top-level call, split by full size and by constructor validation."""
        ops: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for i, s in enumerate(self.spans):
            top = self.root(i)
            op = ops[top.get("command", top["name"])]
            if s["parent"] is None:
                op[0] += 1
            if s["name"] in QZ_SPANS:
                op[1] += 1
                op[2] += s.get("size") == case_sizes.get(s["case"])
                op[3] += self.under(i, "systems.DescriptorSystem")
        return {
            label: {
                "calls": calls,
                "qz_per_call": qz / calls,
                "full_size_qz_per_call": full / calls,
                "constructor_qz_per_call": ctor / calls,
            }
            for label, (calls, qz, full, ctor) in ops.items()
        }

    def summary(self, case_sizes: dict) -> tuple[dict, dict]:
        """(counts, times): every per-layer value, split by whether it must repeat."""
        counts: dict[str, int] = defaultdict(int)
        times: dict[str, float] = defaultdict(float)
        max_kl = 0
        for s, self_s in zip(self.spans, self.self_times()):
            name = s["name"]
            if name in ("approximation.reduce_singular_svd", "approximation.reduce_singular_schur"):
                name = "approximation.reduce_singular"
            counts[f"{name}.calls"] += 1
            times[f"{name}.self_s"] += self_s
            if name in QZ_SPANS and s.get("size") == case_sizes.get(s["case"]):
                counts["kernels.qz.full_size_calls"] += 1
            if "kl" in s:
                max_kl = max(max_kl, s["kl"])
                counts[f"{name}.bytes_computed"] += s["peak_bytes"]
            if "points" in s:
                counts[f"{name}.points"] += s["points"]
                if name == "systems.frequency_response" and s["points"] == 1:
                    counts[f"{name}.single_point_calls"] += 1
            if "bytes" in s:
                counts[f"{name}.bytes"] += s["bytes"]
            if "branch" in s:
                counts[f"approximation.branch.{s['branch'].replace('-', '_')}"] += 1
                counts["approximation.output_order"] += s["order"]
        counts["kernels.solve_generalized_sylvester.max_kl"] = max_kl
        return counts, times

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
