"""Per-layer tracing placed around toricstab's public functions from outside.

Nothing in ``src/`` knows about this module.  ``install`` replaces each traced
function by a wrapper and rebinds the name in every loaded ``toricstab``
module that imported it, so calls between modules are traced too.  Each span
records its calls, its total time (outermost activation only, so recursion is
not counted twice) and its self time (span minus the time of the traced spans
it caused).  Hot primitives such as ``geometry.dot`` and
``geometry.solve_linear`` are deliberately not wrapped: they see 10^5 calls per
run and a wrapper would dominate them.

Forked children (the CLI's process pool) inherit the wrappers.  An at-fork hook
resets the child's counters, and the child writes its counters to
``<child_dir>/child-<pid>.json`` whenever one of its outermost spans closes, so
the parent can merge work done in pool workers.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter

# (module, attribute) pairs; "Class.method" names a classmethod.
TRACED = {
    "geometry": [
        "vertices_of",
        "Polytope.from_halfspaces",
        "triangulation",
        "volume",
        "linear_stats",
        "parametric_family",
    ],
    "toric": [
        "validate_fan",
        "polytope_of",
        "is_nef",
        "is_ample",
        "intersection_number",
        "zariski_decompose",
        "log_discrepancy",
        "star_subdivision",
    ],
    "volume_fn": [
        "big_volume",
        "chamber_volume_polynomial",
        "family_volume_curve",
        "volume_curve",
        "positive_pairing",
    ],
    "filtrations": ["filtration_curve", "dh_measure"],
    "test_curves": [
        "extended_curve",
        "truncated_curve",
        "curve_summary",
        "energy",
        "alpha_energy",
        "jtilde",
        "entropy",
        "g_pairing",
    ],
    "thresholds": [
        "s_invariant",
        "delta_search",
        "delta_pp_quotient",
        "delta_prime_quotient",
        "inequality_report",
    ],
    "cli": ["ProblemFile.load"],
}

# lru caches whose hit ratio is reported: metric prefix -> (module, attribute)
CACHES = {
    "geometry.volume": ("geometry", "volume"),
    "geometry.triangulation": ("geometry", "triangulation"),
    "toric.polytope_of": ("toric", "_polytope_cached"),
}

# polytopes built under this span give volume_fn.polytopes_per_chamber
_CVP = "volume_fn.chamber_volume_polynomial"


def span_keys() -> list[str]:
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


class Tracer:
    """Counters and span timings of one process."""

    def __init__(self, caches: dict | None = None, child_dir: str | None = None) -> None:
        self.caches = caches or {}  # metric prefix -> lru_cache-wrapped function
        self.child_dir = child_dir
        self._is_child = False
        self.reset()

    def reset(self) -> None:
        """Zero every counter; cache counters are taken as deltas from here."""
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [key, child seconds]
        self._active: Counter = Counter()
        self._cache_base = {name: _cache_info(fn) for name, fn in self.caches.items()}

    def after_fork_in_child(self) -> None:
        self.reset()
        self._is_child = True

    def wrap(self, key: str, fn):
        on_result = _ON_RESULT.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            self._stack.append(frame)
            self._active[key] += 1
            outermost = self._active[key] == 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[key] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._active[key] -= 1
                self.calls[key] += 1
                if outermost:
                    self.total[key] += elapsed
                self.self_time[key] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
                elif self._is_child:
                    self._flush_child()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def inside(self, key: str) -> bool:
        return self._active[key] > 0

    def snapshot(self) -> dict:
        """Counters as plain data, cache counters as deltas since the reset."""
        caches = {}
        for name, fn in self.caches.items():
            hits0, misses0 = self._cache_base[name]
            hits, misses = _cache_info(fn)
            caches[name] = [hits - hits0, misses - misses0]
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "caches": caches,
        }

    def _flush_child(self) -> None:
        if self.child_dir is None:
            return
        path = os.path.join(self.child_dir, f"child-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(path + ".tmp", path)


def _count_bases(tracer: Tracer, args, _result) -> None:
    halfspaces = args[0]
    if halfspaces:
        dim = len(halfspaces[0].normal)
        tracer.counts["geometry.vertices_of.bases_tried"] += math.comb(len(halfspaces), dim)


def _count_polytope(tracer: Tracer, _args, _result) -> None:
    tracer.counts["geometry.polytopes_built"] += 1
    if tracer.inside(_CVP):
        tracer.counts["volume_fn.polytopes_under_chamber_polynomial"] += 1


def _count_chambers(tracer: Tracer, _args, result) -> None:
    tracer.counts["geometry.chambers_built"] += len(result.chambers)


_ON_RESULT = {
    "geometry.vertices_of": _count_bases,
    "geometry.Polytope.from_halfspaces": _count_polytope,
    "geometry.parametric_family": _count_chambers,
}


def _module(short: str):
    return sys.modules[f"toricstab.{short}"]


def _cache_info(fn) -> tuple[int, int]:
    info = fn.cache_info()
    return info.hits, info.misses


def install(child_dir: str | None = None) -> Tracer:
    """Wrap every traced function of an imported toricstab; returns the tracer."""
    import toricstab  # noqa: F401  (loads every library module)
    import toricstab.cli  # noqa: F401

    caches = {name: getattr(_module(mod), attr) for name, (mod, attr) in CACHES.items()}
    tracer = Tracer(caches, child_dir)
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "toricstab" or name.startswith("toricstab."))]
    for mod, names in TRACED.items():
        for name in names:
            key = f"{mod}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(_module(mod), cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(tracer.wrap(key, func)))
                continue
            original = getattr(_module(mod), name)
            wrapper = tracer.wrap(key, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)
    return tracer


def merge(parts: list[dict]) -> dict:
    """Sum snapshots (of several processes or several commands)."""
    out = {"calls": Counter(), "total": Counter(), "self": Counter(),
           "errors": Counter(), "counts": Counter(), "caches": {}}
    for part in parts:
        for field in ("calls", "total", "self", "errors", "counts"):
            out[field].update(part[field])
        for name, (hits, misses) in part["caches"].items():
            h, m = out["caches"].get(name, (0, 0))
            out["caches"][name] = [h + hits, m + misses]
    return {k: (dict(v) if isinstance(v, Counter) else v) for k, v in out.items()}
