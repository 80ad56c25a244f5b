"""Spans around calls into each layer's public functions, recorded from outside.

`Tracer.install()` wraps every function in `TRACED` and rebinds the wrapper
in every `conelab` module namespace that holds the original object, so names
bound with `from .x import y` (for example `cli.is_invariant`,
`simdiag.nnls_distance`) are caught as well as module-global lookups
(`cones._nnls_distance` -> `cones.nnls_distance`).  Spans are kept in memory
as (name, start, end, parent, item) tuples and written out by `write_spans`.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "linalg": ("eigen_decompose", "is_vandergraft"),
    "planar": ("classify2", "necessary_conditions", "decide_common_2x2"),
    "cli": ("main",),
    "schemas": ("family_from_json", "decision_to_json", "dumps", "cone_from_json"),
    "simdiag": ("simultaneous_diagonalize", "dominant_index_set", "construct_simdiag_cone"),
    "cones": ("nnls_distance", "prune_generators", "conic_hull", "is_proper", "contains",
              "is_invariant", "sample_points"),
    "shared_dominant": ("common_dominant_eigenvector", "ice_cream_cone", "deflate",
                        "common_lyapunov", "decide_shared_dominant"),
}

# Workload on which each traced function is the mechanism under test: a
# traced run of that workload must see calls > 0, so a binding the patcher
# missed fails loudly instead of reading as "no time spent".
MECHANISM = {
    "planar_mixed": ("planar.classify2", "planar.necessary_conditions", "planar.decide_common_2x2",
                     "cli.main", "schemas.family_from_json", "schemas.decision_to_json",
                     "schemas.dumps", "cones.conic_hull", "cones.prune_generators",
                     "cones.is_proper", "cones.is_invariant", "cones.nnls_distance"),
    "simdiag_wide": ("linalg.eigen_decompose", "simdiag.simultaneous_diagonalize",
                     "simdiag.dominant_index_set", "simdiag.construct_simdiag_cone",
                     "cones.nnls_distance", "cones.contains", "cones.is_proper"),
    "shared_quadratic": ("linalg.is_vandergraft", "shared_dominant.common_dominant_eigenvector",
                         "shared_dominant.ice_cream_cone", "shared_dominant.deflate",
                         "shared_dominant.common_lyapunov", "shared_dominant.decide_shared_dominant",
                         "cones.is_invariant"),
    "verify_oracle": ("schemas.cone_from_json", "cones.is_invariant", "cones.contains",
                      "cones.sample_points", "cones.nnls_distance"),
}

INVARIANCE_METHODS = ("generators", "psd", "sampled")
LYAPUNOV_METHODS = ("series", "reduction", "projection")
ANSWERS = ("yes", "no", "undecided", "exit2")


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def per_layer_metrics():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in traced_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_ms", "ms"), (f"{name}.self_ms", "ms")]
    out += [("simdiag.dominant_index_set.tuples_computed", "count"),
            ("simdiag.construct_simdiag_cone.generators", "count")]
    out += [(f"cones.is_invariant.method.{m}", "count") for m in INVARIANCE_METHODS]
    out += [("cones.quadratic_conclusive_share", "share")]
    out += [(f"shared_dominant.common_lyapunov.method.{m}", "count") for m in LYAPUNOV_METHODS]
    out += [(f"answers.{a}", "count") for a in ANSWERS]
    out += [("trace.items", "count"), ("trace.overhead_share", "share")]
    return out


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent span index or -1, item)
        self.self_ns = defaultdict(int)
        self.counts = Counter()
        self.item = -1
        self._stack = []         # [span index, child ns]
        self._patches = None     # (module, attribute, original, wrapper)
        self.missing = []

    # Counters read at the boundary where the work happens.  A result or
    # signature of another shape leaves the counter alone rather than
    # failing the traced call.
    def _count(self, name, result):
        try:
            if name == "cones.is_invariant":
                self.counts[f"cones.is_invariant.method.{result.method}"] += 1
            elif name == "shared_dominant.common_lyapunov":
                self.counts[f"shared_dominant.common_lyapunov.method.{result.method}"] += 1
            elif name == "simdiag.construct_simdiag_cone":
                self.counts["simdiag.construct_simdiag_cone.generators"] += int(result[1]["num_generators"])
        except (AttributeError, TypeError, KeyError, IndexError, ValueError):
            pass

    def _count_before(self, name, args, kwargs, sig):
        if name != "simdiag.dominant_index_set":
            return
        # Computed, not observed: C(bound + n, n) tuples for n members (the
        # enumeration can stop early on a non-Vandergraft product).
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            n = bound.arguments["form"].family_size
            self.counts["simdiag.dominant_index_set.tuples_computed"] += math.comb(
                int(bound.arguments["bound"]) + n, n)
        except (AttributeError, TypeError, KeyError, ValueError):
            pass

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count_before(name, args, kwargs, sig)
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0]
            self._stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.item)
                self.self_ns[name] += (t1 - t0) - frame[1]
                if self._stack:
                    self._stack[-1][1] += t1 - t0
            self._count(name, result)
            return result

        return wrapper

    def _find_patches(self):
        mods = {k: v for k, v in sys.modules.items() if k == "conelab" or k.startswith("conelab.")}
        patches = []
        for mod, fns in TRACED.items():
            home = mods.get(f"conelab.{mod}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{mod}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for module in mods.values():
                    patches += [(module, attr, original, wrapper)
                                for attr, value in vars(module).items() if value is original]
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._find_patches()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches or ():
            setattr(module, attr, original)

    def metrics(self):
        """calls / total_ms / self_ms per traced function, plus the counters."""
        calls, total = Counter(), Counter()
        for name, t0, t1, _, _ in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_ms"] = total[name] / 1e6
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        out["simdiag.dominant_index_set.tuples_computed"] = self.counts["simdiag.dominant_index_set.tuples_computed"]
        out["simdiag.construct_simdiag_cone.generators"] = self.counts["simdiag.construct_simdiag_cone.generators"]
        for m in INVARIANCE_METHODS:
            out[f"cones.is_invariant.method.{m}"] = self.counts[f"cones.is_invariant.method.{m}"]
        quad = out["cones.is_invariant.method.psd"] + out["cones.is_invariant.method.sampled"]
        out["cones.quadratic_conclusive_share"] = out["cones.is_invariant.method.psd"] / quad if quad else 0.0
        for m in LYAPUNOV_METHODS:
            key = f"shared_dominant.common_lyapunov.method.{m}"
            out[key] = self.counts[key]
        return out

    def unexercised(self, workload):
        """Mechanism functions of `workload` that exist but were never called."""
        calls = Counter(name for name, *_ in self.spans)
        return [n for n in MECHANISM.get(workload, ()) if n not in self.missing and calls[n] == 0]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,item\n")
            for name, t0, t1, parent, item in self.spans:
                fh.write(f"{name},{t0},{t1},{parent},{item}\n")
