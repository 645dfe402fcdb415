"""Span recorder for the traced run.

``Tracer.install`` replaces the public functions of the traced modules with
wrappers, in every ``blockortho`` module that binds them (``from .x import f``
makes a second binding), so calls through any name are seen.  Each call
records a span: name, start, end, parent span and op id.  Spans stay in
memory, in flat arrays, until the run ends.

Self time is a span's duration minus the durations of its child spans; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# Modules whose public functions are wrapped.  From ``cli`` only ``main`` is
# wrapped, so its self time is argument parsing plus the command bodies and
# serialization.
TRACED_MODULES = (
    "block", "linalg", "measures", "standard", "gso", "analysis",
    "verification", "projectors", "multiblock",
)


def _measure_key(m):
    """Hashable identity of a Measure or a MomentSequence argument."""
    return m if not hasattr(m, "mu") else ("moments", m.mu)


# Keys of the calls whose distinct arguments are counted per op, from the
# bound arguments by parameter name.
KEYED = {
    "block.gamma_matrix": lambda a: (
        a["q_basis"].measure, a["q_basis"].size, a["q_basis"].backend,
        a["q_basis"].leading, _measure_key(a["measure2"]), a["i"]),
    "standard.build_standard": lambda a: (a["measure"], a["n_polys"], a["backend"]),
}


def _gram_dim(a):
    gram = a["gram"]
    return len(gram.entries) if hasattr(gram, "entries") else len(gram)


# Functions whose largest input dimension is kept.
SIZED = {"gso.gram_schmidt": _gram_dim}


def _arguments(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = [-1]
        self.op = -1
        self.op_keys = {}
        self.calls_keyed = {}
        self.distinct_keyed = {}
        self.max_size = {}
        self.float_bases = []
        self._originals = []

    # -- installation -------------------------------------------------
    def install(self):
        import blockortho  # noqa: F401  (loads every submodule)

        targets = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"blockortho.{short}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{short}.{name}"
        cli = sys.modules["blockortho.cli"]
        targets[cli.main] = "cli.main"
        wrappers = {fn: self._wrap(fn, label) for fn, label in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "blockortho" and not modname.startswith("blockortho."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def _wrap(self, fn, label):
        nid = self.name_id.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        keyer = KEYED.get(label)
        sizer = SIZED.get(label)
        signature = inspect.signature(fn) if keyer or sizer else None
        capture = label == "block.build_sbo"
        clock = time.perf_counter
        stack = self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        def wrapper(*args, **kwargs):
            if signature is not None:
                self._observe(label, signature, keyer, sizer, args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if capture and result.backend == "float":
                self.float_bases.append(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _observe(self, label, signature, keyer, sizer, args, kwargs):
        """Count distinct keys or keep the largest size of one call.

        If the program's signature no longer matches the names used here,
        the call counts as distinct and its size is not kept.
        """
        try:
            arguments = _arguments(signature, args, kwargs)
            key = keyer(arguments) if keyer else None
            size = sizer(arguments) if sizer else 0
        except (TypeError, KeyError, AttributeError):
            key, size = object(), 0
        if sizer and size > self.max_size.get(label, 0):
            self.max_size[label] = size
        if keyer:
            self.calls_keyed[label] = self.calls_keyed.get(label, 0) + 1
            keys = self.op_keys.setdefault(label, set())
            if key not in keys:
                keys.add(key)
                self.distinct_keyed[label] = self.distinct_keyed.get(label, 0) + 1

    # -- per op ---------------------------------------------------------
    def begin_op(self, op_id):
        self.op = op_id
        self.op_keys = {}
        self.float_bases = []

    def end_op(self):
        """Monic float coefficients of the last float basis the op built."""
        bases, self.float_bases = self.float_bases, []
        self.op_keys = {}
        self.op = -1
        if not bases:
            return None
        basis = bases[-1]
        return {str(n): [float(c) for c in basis.monic_poly(n).coeffs]
                for n in basis.degrees()}

    # -- results --------------------------------------------------------
    def summary(self):
        """Per-function calls, total and self time, and per-op library time.

        The top span of every op is ``cli.main``; ``library_s[op]`` is the
        time its child spans cover, so the op's latency minus it is the wall
        time no traced library layer covers.
        """
        n = len(self.span_name)
        child = [0.0] * n
        stats = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.names}
        library = {}
        for k in range(n):
            dur = self.span_end[k] - self.span_start[k]
            parent = self.span_parent[k]
            if parent >= 0:
                child[parent] += dur
                if self.span_parent[parent] < 0:
                    op = self.span_op[k]
                    library[op] = library.get(op, 0.0) + dur
        for k in range(n):
            dur = self.span_end[k] - self.span_start[k]
            entry = stats[self.names[self.span_name[k]]]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[k]
        for label, calls in self.calls_keyed.items():
            stats[label]["distinct_ratio"] = self.distinct_keyed.get(label, 0) / calls
        for label, size in self.max_size.items():
            stats[label]["max_dim"] = size
        return {"spans": n, "layers": stats, "library_s": library}

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for k in range(len(self.span_name)):
                fh.write(json.dumps([self.span_name[k], self.span_start[k],
                                     self.span_end[k], self.span_parent[k],
                                     self.span_op[k]]) + "\n")

