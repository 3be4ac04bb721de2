"""Layer spans for quadalg, recorded from outside the package.

Every public function and public class method of each layer module (plus
constructors written in the module) is replaced by a wrapper that records a
span.  Functions are replaced at every import site, because the modules bind
names with ``from .x import y``; patching only the defining module would
miss calls made from other modules.  Methods are patched on the class,
which every import site shares.  Every patch can be undone, so that a run
can alternate untraced and traced passes over the same cases.

A span is (parent span, case, name, start, end).  A layer's self time is
the duration of its spans minus the time covered by the spans nested
directly inside them; its total time counts only spans not nested in a span
of the same layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "io", "quadratic", "regular", "frobenius", "superpotential",
          "skew", "pbw", "tensors", "linalg")

MISSING = object()

ROW_ENTRIES = {"Matrix.rref", "Matrix.kernel", "Matrix.solve"}
WORD_ENTRIES = {"relation_degree_subspace", "koszul_component",
                "truncated_structure"}


class Tracer:
    """Holds the spans and size counters of one traced run in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        # (parent, case, name index, start, end, outermost in its layer)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.depth = [0] * len(LAYERS)
        self.case = -1
        self.patches: list[tuple] | None = None
        self.counters = {
            "linalg.rows_in": 0, "linalg.row_cells": 0,
            "linalg.max_ambient": 0, "quadratic.max_words": 0,
            "frobenius.max_total_dim": 0, "frobenius.assoc_skipped": 0,
            "checks.consistency_errors": 0,
        }

    # -- recording -------------------------------------------------------

    def _wrap(self, layer: int, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        pre = self._pre_hook(name)
        post = self._post_hook(name)
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[layer] == 0
            stack.append(sid)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[layer] -= 1
                stack.pop()
                spans[sid] = (parent, self.case, idx, start, end, outer)
            if post is not None:
                post(args, kwargs)
            return result

        return traced

    def _pre_hook(self, name):
        c = self.counters
        if name == "Subspace.from_spanning":
            def hook(args, kwargs):
                rows = list(args[0] if args else kwargs.pop("rows"))
                ambient = args[1] if len(args) > 1 else kwargs["ambient"]
                c["linalg.rows_in"] += len(rows)
                c["linalg.row_cells"] += len(rows) * ambient
                c["linalg.max_ambient"] = max(c["linalg.max_ambient"], ambient)
                return (rows,) + tuple(args[1:])
            return hook
        if name in ROW_ENTRIES:
            def hook(args, kwargs):
                mat = args[0]
                rows = len(mat.entries)
                c["linalg.rows_in"] += rows
                c["linalg.row_cells"] += rows * mat.cols
                c["linalg.max_ambient"] = max(c["linalg.max_ambient"], mat.cols)
                return args
            return hook
        if name in WORD_ENTRIES:
            def hook(args, kwargs):
                alg = args[0] if args else kwargs["alg"]
                k = args[1] if len(args) > 1 else kwargs.get(
                    "k", kwargs.get("m", kwargs.get("bound")))
                c["quadratic.max_words"] = max(c["quadratic.max_words"],
                                               alg.n ** k)
                return args
            return hook
        return None

    def _post_hook(self, name):
        c = self.counters
        if name == "GradedFDAlgebra.__init__":
            def hook(args, kwargs):
                alg = args[0]
                validate = args[4] if len(args) > 4 else kwargs.get("validate", True)
                c["frobenius.max_total_dim"] = max(c["frobenius.max_total_dim"],
                                                   alg.total_dim)
                # the associativity check is skipped silently above 64
                if validate and alg.total_dim > 64:
                    c["frobenius.assoc_skipped"] += 1
            return hook
        return None

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer module and count ConsistencyError raises."""
        if self.patches is None:
            self.patches = self._patches()
        for owner, attr, _old, new in self.patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original back, so that untraced passes run plain code."""
        for owner, attr, old, _new in reversed(self.patches or []):
            if old is MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) of every patch, wrappers
        made once so that spans keep their names across installs."""
        patches = []
        originals: dict[int, object] = {}
        for layer, short in enumerate(LAYERS):
            mod = importlib.import_module(f"quadalg.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(layer, attr, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    patches += self._class_patches(layer, obj, mod)
        for mod in [m for n, m in sys.modules.items()
                    if n == "quadalg" or n.startswith("quadalg.")]:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    patches.append((mod, attr, obj, wrapper))
        err = importlib.import_module("quadalg.linalg").ConsistencyError
        base_init = err.__init__
        counters = self.counters

        def counting_init(exc, *args, **kwargs):
            counters["checks.consistency_errors"] += 1
            base_init(exc, *args, **kwargs)

        patches.append((err, "__init__", vars(err).get("__init__", MISSING),
                        counting_init))
        return patches

    def _class_patches(self, layer, cls, mod) -> list[tuple]:
        patches = []
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn):
                continue
            written_here = fn.__code__.co_filename == mod.__file__
            if attr.startswith("_") and not (attr == "__init__" and written_here):
                continue
            wrapped = self._wrap(layer, f"{cls.__name__}.{attr}", fn)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            patches.append((cls, attr, raw, wrapped))
        return patches

    # -- reporting -------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, self time and total time of every layer."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in LAYERS}
        spans = self.spans
        for parent, _case, idx, start, end, outer in spans:
            dur = end - start
            row = out[LAYERS[self.layer_of[idx]]]
            row["calls"] += 1
            row["self_s"] += dur
            if outer:
                row["total_s"] += dur
            if parent >= 0:
                out[LAYERS[self.layer_of[spans[parent][2]]]]["self_s"] -= dur
        return out

    def write(self, path, case_ids) -> None:
        """Write every span as one JSON line: id, parent, case, name, start, end."""
        with gzip.open(path, "wt") as fh:
            for sid, (parent, case, idx, start, end, _outer) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, case_ids[case], self.names[idx],
                                     round(start, 9), round(end, 9)]) + "\n")
