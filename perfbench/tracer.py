"""In-memory span tracer for orbitcat, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module by a
wrapper that records one span per call, and binds that wrapper in the
function's home module and in every ``orbitcat`` module that imported the
function by name (``rep.rref`` is the object defined in ``linalg``).  The
class methods ``FiniteField.vmatmul`` and ``Algebra.validate`` are wrapped on
their classes.  Nothing under ``src/`` is edited; ``uninstall`` restores every
binding.

A span holds its name, the span that was open when it started (its parent),
the job id current at that time (-1 while setting up), start and end times, a
work count and whether another span of the same name encloses it.  Spans are
kept in flat arrays and analysed or saved when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("ffield", "poly", "linalg", "algebra", "rep", "orbit", "karoubi",
          "clifford", "oracle", "cli")
# modules that are not layers but import layer functions by name
OTHER_MODULES = ("scenarios", "checks")
METHODS = (("ffield", "FiniteField", "vmatmul"), ("algebra", "Algebra", "validate"))

SETUP_JOB = -1


def _shape(x):
    return x.shape if isinstance(x, np.ndarray) else np.shape(x)


def _vmatmul_work(args):
    """Scalar products computed by ``FiniteField.vmatmul(self, A, B)``."""
    a, b = _shape(args[1]), _shape(args[2])
    if len(a) < 2 or len(b) < 2:
        return 0, 0
    batch = math.prod(np.broadcast_shapes(a[:-2], b[:-2])) if len(a) + len(b) > 4 else 1
    return batch * a[-2] * a[-1] * b[-1], 0


def _rref_work(args):
    """(cells, rows) of the matrix handed to ``rref(field, M)``."""
    s = _shape(args[1])
    rows = s[0] if s else 0
    cols = s[1] if len(s) > 1 else 0
    return rows * cols, rows


def _hom_space_rows(args):
    """Rows of the linear system ``hom_space(M, N)`` solves."""
    M, N = args[0], args[1]
    rows = M.algebra.dim * M.dim * N.dim
    return rows, rows


def _charpoly_matrices(args):
    return _shape(args[1])[0], 0


def _vmatmul_name(args):
    return "ffield.vmatmul.prime" if args[0].n == 1 else "ffield.vmatmul.ext"


# span name -> work counter; the counter sees the call's positional arguments
WORK = {
    "ffield.vmatmul": _vmatmul_work,
    "linalg.rref": _rref_work,
    "rep.hom_space": _hom_space_rows,
    "linalg.charpoly_batched": _charpoly_matrices,
}
# spans whose work field records whether the call found an isomorphism
OUTCOME = {"rep.is_isomorphic", "karoubi.kar_is_isomorphic"}


class Tracer:
    def __init__(self):
        self.names = []  # distinct span names; a name's id is its index
        self._ids = {}
        # one entry per span in each array below
        self.span_name = array("i")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.size = array("q")
        self.nested = array("b")
        self.current_job = SETUP_JOB
        self._stack = [-1]
        self._depth = []
        self._undo = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        if name == "ffield.vmatmul":
            ids = {n: self.name_id(n) for n in ("ffield.vmatmul.prime", "ffield.vmatmul.ext")}
            pick = lambda args: ids[_vmatmul_name(args)]  # noqa: E731
        else:
            nid = self.name_id(name)
            pick = lambda args: nid  # noqa: E731
        measure = WORK.get(name)
        outcome = name in OUTCOME
        span_name, parent, job = self.span_name, self.parent, self.job
        start, end, work, size, nested = self.start, self.end, self.work, self.size, self.nested
        stack, depth = self._stack, self._depth
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = pick(args)
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            job.append(tracer.current_job)
            w, s = measure(args) if measure is not None else (0, 0)
            work.append(w)
            size.append(s)
            d = depth[nid]
            nested.append(d > 0)
            depth[nid] = d + 1
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[nid] -= 1
                start[i] = t0
                end[i] = t1
            if outcome:
                work[i] = out is not None
            return out

        return traced

    def install(self, package: str = "orbitcat") -> int:
        """Wrap the layers of ``package``; returns the number of bindings made."""
        mods = [importlib.import_module(f"{package}.{m}") for m in LAYERS + OTHER_MODULES]
        mods.append(importlib.import_module(package))
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{meth}" if layer == "ffield" else f"{layer}.{cls_name}.{meth}"
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, name))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return len(self._undo)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays, one entry per field."""
        return {
            "name": np.array(self.span_name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.int64),
            "size": np.array(self.size, dtype=np.int64),
            "nested": np.array(self.nested, dtype=np.int8),
        }

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_stats(tracer: Tracer) -> dict:
    """Statistics per (scope, span name), scope being "job" or "setup".

    calls, top_calls (spans not enclosed by a span of the same name),
    incl_s (duration of the top-level spans), self_s (duration minus the
    child spans), work (summed), max_size and mean_work (for outcome spans,
    the share of calls that found an isomorphism)."""
    s = tracer.arrays()
    n = len(s["name"])
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
    top = s["nested"] == 0
    key = 2 * s["name"] + (s["job"] == SETUP_JOB)
    m = 2 * len(tracer.names)
    calls = np.bincount(key, minlength=m)
    top_calls = np.bincount(key, weights=top, minlength=m)
    incl = np.bincount(key, weights=dur * top, minlength=m)
    self_t = np.bincount(key, weights=dur - child, minlength=m)
    work = np.bincount(key, weights=s["work"], minlength=m)
    max_size = np.zeros(m, dtype=np.int64)
    np.maximum.at(max_size, key, s["size"])
    out = {}
    for nid, name in enumerate(tracer.names):
        for scope, k in (("job", 2 * nid), ("setup", 2 * nid + 1)):
            c = int(calls[k])
            out[(scope, name)] = {
                "calls": c,
                "top_calls": int(top_calls[k]),
                "incl_s": float(incl[k]),
                "self_s": float(self_t[k]),
                "work": int(work[k]),
                "max_size": int(max_size[k]),
                "mean_work": float(work[k] / c) if c else 0.0,
            }
    return out
