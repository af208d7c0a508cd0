"""Span tracer for the benchmark's traced run.

The tracer wraps every public function and method of each ``renewinv``
module, so spans sit at layer boundaries without touching the package.  A
function is patched in every ``renewinv`` namespace that binds it, because
``ruin``, ``cli`` and the package root import names directly.  A layer is
the module that defines the function.

Each span records (name, start, end, parent, op id) in a flat integer array.
Spans of one op live in memory only until the op ends: :meth:`Tracer.end_op`
reduces them to self time per layer (span time minus child-span time), call
counts per name and the work counters below, then clears them.  Keeping
every span of a run would cost hundreds of megabytes on bound-ledger, where
one op opens over 200k spans.

Work counters are computed from argument sizes and results; a counted name
that no longer exists in the package contributes zero, not an error.
Properties are not wrapped: their time lands in the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

PACKAGE = "renewinv"
BENCH = "bench"
_FIELDS = 5  # name, start, end, parent, op


def panjer_madds(K: int, k_sev: int) -> int:
    """Multiply-adds of Panjer's recursion: sum over k = 1..K of min(k, k_sev)."""
    m = min(K, k_sev)
    return m * (m + 1) // 2 + (K - m) * k_sev


def truncation_search_pts(min_index: int, result: int) -> int:
    """Lattice points evaluated by the doubling search in
    ``compound.equilibrium_truncation_index``: sizes K0, 2 K0, ... up to
    the returned index, with K0 = max(min_index, 8)."""
    k, total = max(int(min_index), 8), 0
    while k < result:
        total += k + 1
        k *= 2
    return total + result + 1


def _count_negbin(args, result, counts):
    counts["specfun.negbin_terms"] += args["k_max"] + 1


def _count_weights(args, result, counts):
    counts["transforms.weight_terms"] += args["k_max"] + 1


def _count_discretize(args, result, counts):
    counts["compound.severity_pts"] += args["K"] + 1


def _count_truncation(args, result, counts):
    counts["compound.severity_pts"] += truncation_search_pts(args.get("min_index", 0), result)


def _count_panjer(args, result, counts):
    counts["compound.panjer_madds"] += panjer_madds(args["K"], args["severity"].truncation_index)
    counts["compound.points_out"] += result.weights.size


def _count_m2(args, result, counts):
    counts["inversion.lattice_pts"] += args["K"] + 1


# Sized counters by defining module and qualified name.  ``*.weights`` means
# the ``weights`` method of any class in the module.
_SIZED = {
    ("specfun", "negbin_pmf_terms"): _count_negbin,
    ("transforms", "*.weights"): _count_weights,
    ("compound", "discretize_equilibrium"): _count_discretize,
    ("compound", "discretize_general"): _count_discretize,
    ("compound", "equilibrium_truncation_index"): _count_truncation,
    ("compound", "panjer_geometric"): _count_panjer,
    ("inversion", "m2_lattice"): _count_m2,
}

# Call counters: per-layer metric name -> span names whose calls it sums.
CALL_COUNTERS = {
    "specfun.incgamma_calls": ("specfun.reg_inc_gamma_lower", "specfun.reg_inc_gamma_upper"),
    "transforms.scalar_evals": (
        "transforms.GammaMixture.survival",
        "transforms.GammaMixture.density",
        "transforms.GammaMixture.cdf",
    ),
}


def _sizer(layer: str, qualname: str):
    if (layer, qualname) in _SIZED:
        return _SIZED[(layer, qualname)]
    if "." in qualname:
        return _SIZED.get((layer, "*." + qualname.rsplit(".", 1)[1]))
    return None


def self_time_by_layer(records: np.ndarray, layer_of_name: np.ndarray, n_layers: int) -> np.ndarray:
    """Self nanoseconds per layer from span records.

    ``records`` has one row (name, start, end, parent, op) per span, where
    ``parent`` is the row index of the enclosing span or -1.  A span's self
    time is its duration minus the durations of its direct children, so the
    self times of all spans sum exactly to the durations of the root spans.
    """
    name, start, end, parent = records[:, 0], records[:, 1], records[:, 2], records[:, 3]
    dur = end - start
    child = np.zeros(len(records), dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    per_layer = np.zeros(n_layers, dtype=np.int64)
    np.add.at(per_layer, layer_of_name[name], dur - child)
    return per_layer


@dataclass
class OpTrace:
    """Reduced trace of one op: durations in nanoseconds."""

    op_ns: int
    self_ns: dict[str, int]
    calls: Counter
    counts: Counter


class Tracer:
    """Installs span-recording wrappers on the package and reduces spans per op."""

    def __init__(self):
        self.layers = [BENCH]
        self.names = [BENCH + ".op"]
        self._layer_of_name = [0]
        self._spans = array("q")
        self._stack: list[int] = []
        self._counts: Counter = Counter()
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # -- installation -------------------------------------------------------

    def _modules(self):
        root = importlib.import_module(PACKAGE)
        mods = [root]
        for info in pkgutil.iter_modules(root.__path__):
            mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
        return mods

    def _name_id(self, layer: str, qualname: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        self.names.append(f"{layer}.{qualname}")
        self._layer_of_name.append(self.layers.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, layer: str):
        name_id = self._name_id(layer, fn.__qualname__)
        sizer = _sizer(layer, fn.__qualname__)
        signature = inspect.signature(fn) if sizer is not None else None
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer._spans
            idx = len(spans) // _FIELDS
            spans.extend((name_id, 0, 0, tracer._stack[-1], tracer._op_id))
            tracer._stack.append(idx)
            spans[idx * _FIELDS + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _FIELDS + 2] = clock()
                tracer._stack.pop()
            if sizer is not None:
                sizer(signature.bind(*args, **kwargs).arguments, result, tracer._counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of each package module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        wrapped: dict[int, object] = {}
        for mod in mods[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, layer))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, layer)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # -- per-op recording ---------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the op's root span; package calls until :meth:`end_op` nest under it."""
        self._spans = array("q")
        self._counts = Counter()
        self._op_id = op_id
        self._stack = [-1]
        self._spans.extend((0, 0, 0, -1, op_id))
        self._stack.append(0)
        self.active = True
        self._spans[1] = time.perf_counter_ns()

    def end_op(self) -> OpTrace:
        """Close the root span and reduce the op's spans to an :class:`OpTrace`."""
        self._spans[2] = time.perf_counter_ns()
        self.active = False
        if len(self._stack) != 2:
            raise RuntimeError(f"{len(self._stack) - 2} spans still open at op end")
        records = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, _FIELDS)
        layer_of_name = np.asarray(self._layer_of_name, dtype=np.int64)
        per_layer = self_time_by_layer(records, layer_of_name, len(self.layers))
        name_calls = np.bincount(records[1:, 0], minlength=len(self.names))
        calls = Counter()
        for i in np.nonzero(name_calls)[0]:
            calls[self.names[i]] = int(name_calls[i])
        trace = OpTrace(
            op_ns=int(records[0, 2] - records[0, 1]),
            self_ns={layer: int(ns) for layer, ns in zip(self.layers, per_layer)},
            calls=calls,
            counts=self._counts,
        )
        self._spans = array("q")
        self._counts = Counter()
        return trace
