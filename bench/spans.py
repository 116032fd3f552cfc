"""Outside-in layer tracing: wrappers installed around kregular's public
functions, with the span stack kept in memory.

A function is wrapped wherever it is looked up: every kregular module
global bound to it is rebound (certify imports rank_profile and bracket by
name, so patching kregular.linalg alone would miss those calls), and
methods are replaced on their class.  Self time is a span's duration minus
the time its child spans cover; total time counts only the outermost
active call of a function, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
import time

# module.qualified_name of every function that gets a span; the module
# is the layer
TRACED = (
    "catalog.catalog_build",
    "linalg.rank_profile",
    "linalg.EchelonSpan.add",
    "linalg.nullspace_of",
    "linalg.solve_in_span",
    "linalg.MatrixQ.matmul",
    "linalg.nilpotency_exponent",
    "linalg.is_nilpotent_matrix",
    "algebra.bracket",
    "algebra.ad_matrix",
    "algebra.killing_pair",
    "algebra.decompose",
    "words.WordEvaluator.value",
    "words.DualWordEvaluator.value",
    "certify.is_k_regular",
    "certify.nilcone_test",
    "certify.gram_matrix",
    "certify.generated_subalgebra",
    "certify.derived_series",
    "certify.centralizer_in_k",
    "certify.power_trace",
    "roots.construct_regular",
    "verify.verify_suite",
)

# Scalar arithmetic entry points counted by scalar.ops (nested calls,
# such as the inverse inside __truediv__, count too)
SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                  "inverse")


class Tracer:
    """Installs span wrappers, aggregates them, and restores the originals."""

    package = "kregular"

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}
        self.grams = []
        self._stack = []
        self._active = {name: 0 for name in self.stats}
        self.scalar_ops = [0]
        self._undo = []

    def reset(self):
        """Zero every count except catalog_build's."""
        for name, st in self.stats.items():
            if name != "catalog.catalog_build":
                st[:] = [0, 0.0, 0.0]
        self.grams.clear()
        self.scalar_ops[0] = 0

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(prefix))]

    def _setattr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span(self, name, func):
        stats = self.stats[name]
        stack = self._stack
        active = self._active
        perf = time.perf_counter
        record_gram = name == "certify.gram_matrix"
        grams = self.grams

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer = active[name] == 0
            active[name] += 1
            t0 = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                d = perf() - t0
                active[name] -= 1
                stack.pop()
                stats[0] += 1
                stats[2] += d - frame[0]
                if outer:
                    stats[1] += d
                if stack:
                    stack[-1][0] += d
            if record_gram:
                grams.append(result.gram)
            return result

        return wrapper

    def _counter(self, func):
        cell = self.scalar_ops

        def wrapper(*args):
            cell[0] += 1
            return func(*args)

        return wrapper

    def install(self):
        modules = self._modules()
        root = sys.modules[self.package]
        for name in TRACED:
            module, qual = name.split(".", 1)
            owner = sys.modules[f"{self.package}.{module}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                self._setattr(cls, attr, self._span(name, cls.__dict__[attr]))
                continue
            original = getattr(owner, qual)
            wrapped = self._span(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._setattr(mod, attr, wrapped)
        scalar = root.scalar.Scalar
        for attr in SCALAR_DUNDERS:
            self._setattr(scalar, attr, self._counter(scalar.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
