"""Span tracing around the public functions of each arcdist layer.

The benchmark measures the package from outside: ``Tracer.install`` swaps
each traced function for a wrapper that records a span, and ``uninstall``
puts the originals back.  A module that did ``from .overlay import
intersection`` holds its own binding of the function, so the wrapper is
bound into every ``arcdist`` module whose namespace holds the original.
Every submodule is imported before wrapping, and ``uninstall`` fails
loudly if a module appeared meanwhile, so no binding silently keeps the
unwrapped function.  Methods
(``Triangulation.flip``, ``Realization.__init__``, ...) are patched on the
class, which every caller shares.

Spans are aggregated in memory by call path (``distance.classify/
overlay.intersection/overlay.realization``): calls, total time and self
time (total minus the time covered by child spans).  Nothing is written
until the caller asks for the tree at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
from time import perf_counter

# span name -> (module, attribute or "Class.method") for every traced entry
# point; a span may cover several functions (forward and inverse transport,
# the loaders).
SPANS = {
    "surface.flip": [("surface", "Triangulation.flip")],
    "surface.triangulation_id": [("surface", "Triangulation.triangulation_id")],
    "arc.random_arc": [("arc", "random_arc")],
    "arc.transport": [("arc", "transport"), ("arc", "transport_inverse")],
    "arc.tighten": [("arc", "tighten")],
    "arc.straighten_to_edge": [("arc", "straighten_to_edge")],
    "overlay.realization": [("overlay", "Realization.__init__")],
    "overlay.intersection": [("overlay", "intersection")],
    "overlay.via_flips": [("overlay", "intersection_via_flips")],
    "overlay.build": [("overlay", "_OverlayBuilder.__init__"), ("overlay", "_OverlayBuilder.summarize")],
    "overlay.self_intersection": [("overlay", "self_intersection")],
    "surgery.surgery_step": [("surgery", "surgery_step")],
    "surgery.path_between": [("surgery", "path_between")],
    "distance.classify": [("distance", "classify")],
    "distance.verify_certificate": [("distance", "verify_certificate")],
    "distance.bounded_search": [("distance", "bounded_search")],
    "leveling.validate_sequence": [("leveling", "validate_sequence")],
    "leveling.arcs_to_leveling": [("leveling", "arcs_to_leveling")],
    "leveling.level_number_report": [("leveling", "level_number_report")],
    "serialize.dumps": [("serialize", "dumps")],
    "serialize.load": [
        ("serialize", name)
        for name in (
            "load_doc",
            "load_triangulation",
            "load_arc",
            "load_arc_file",
            "load_pair",
            "load_shadow_pair",
            "load_sequence",
            "load_distance_certificate",
        )
    ],
    "serialize.verify_document": [("serialize", "verify_document")],
    "cli.main": [("cli", "main")],
    "corpus.run_examples": [("corpus", "run_examples")],
}


def _strands(args, _result):
    real = args[0]
    return sum(len(s) for s in real.edge_order.values())


def _dumped_bytes(_args, result):
    return len(result)


def _loaded_bytes(args, _result):
    # only load_doc reads a file; the loaders take parsed dicts
    return os.path.getsize(args[0]) if isinstance(args[0], (str, os.PathLike)) else 0


def _loaded_docs(args, _result):
    return int(isinstance(args[0], (str, os.PathLike)))


# extra per-span quantities, summed like calls: (span, stat) -> fn(args, result)
EXTRAS = {
    ("overlay.realization", "strands"): _strands,
    ("serialize.dumps", "bytes"): _dumped_bytes,
    ("serialize.load", "bytes"): _loaded_bytes,
    ("serialize.load", "docs"): _loaded_docs,
}

# spans whose individual durations are kept, for a per-call percentile
KEEP_DURATIONS = ("surface.flip",)


class Tracer:
    """Collects spans while installed and ``on``; aggregated by call path."""

    def __init__(self):
        self.on = True
        self.paths: dict[tuple, list] = {}  # path -> [calls, total_s, self_s]
        self.extra: dict[tuple, float] = {}  # (span, stat) -> sum
        self.durations: dict[str, list] = {name: [] for name in KEEP_DURATIONS}
        self._stack: list[list] = []  # open spans: [path, child_s]
        self._saved: list[tuple] = []  # (owner, attr, original)
        self._module_names: set[str] = set()

    def reset(self):
        self.paths.clear()
        self.extra.clear()
        for d in self.durations.values():
            d.clear()

    # ------------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        extras = [(stat, f) for (span, stat), f in EXTRAS.items() if span == name]
        keep = tracer.durations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [(stack[-1][0] if stack else ()) + (name,), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                row = tracer.paths.get(frame[0])
                if row is None:
                    row = tracer.paths[frame[0]] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if keep is not None:
                    keep.append(dt)
            for stat, f in extras:
                key = (name, stat)
                tracer.extra[key] = tracer.extra.get(key, 0) + f(args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function in every arcdist module that binds it.

        All submodules are imported first, so no module can bind an
        unwrapped original later; ``uninstall`` checks that none appeared.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        import arcdist

        for info in pkgutil.iter_modules(arcdist.__path__):
            importlib.import_module(f"arcdist.{info.name}")
        modules = self._modules()
        self._module_names = {m.__name__ for m in modules}
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                owner = sys.modules[f"arcdist.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[meth]
                    self._saved.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, fn))
                    continue
                fn = getattr(owner, attr)
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._saved.append((m, key, fn))
                            setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()
        late = {m.__name__ for m in self._modules()} - self._module_names
        if late:
            raise RuntimeError("modules imported while tracing hold unwrapped functions: " + ", ".join(sorted(late)))

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items()) if n == "arcdist" or n.startswith("arcdist.")]

    # ------------------------------------------------------------------

    def by_span(self) -> dict[str, dict]:
        """Per span name: calls and self_ms summed over call paths, plus extras."""
        out = {name: {"calls": 0, "self_ms": 0.0} for name in SPANS}
        for path, (calls, _, self_s) in self.paths.items():
            row = out[path[-1]]
            row["calls"] += calls
            row["self_ms"] += 1000 * self_s
        for name, stat in EXTRAS:
            out[name][stat] = self.extra.get((name, stat), 0)
        return out

    def tree(self) -> list[dict]:
        """The aggregated span tree, one row per call path, in path order."""
        return [
            {"path": "/".join(path), "calls": c, "total_ms": 1000 * t, "self_ms": 1000 * s}
            for path, (c, t, s) in sorted(self.paths.items())
        ]
