"""Spans around the library's public entry points, kept in memory.

``install`` replaces each entry point in ``ENTRY_POINTS`` by a wrapper that
records one span per call: name, start and end (``perf_counter_ns``), the
index of the enclosing span (-1 at the top) and an operation id.  Methods
are wrapped on their class; a module-level function is replaced in every
loaded ``ovklearn`` module that holds it, so calls through names imported
elsewhere in the library are caught too.  The library's own files are not
touched.  An entry point that no longer exists is skipped and listed in
``Tracer.missing``; its metrics then read 0.

The operation id of a top-level span is (stream, n): the workload names the
stream (one learner's run, the batch fits, the CLI calls) and n counts
top-level calls within it, so for a step it is the step index.  Nested
spans inherit their top-level span's id.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module, attribute); the span name is <module>.<function>
ENTRY_POINTS = [
    ("kernels.call", "ovklearn.kernels", "SeparableGaussian.__call__"),
    ("kernels.call", "ovklearn.kernels", "NonSeparablePoly.__call__"),
    ("kernels.expansion", "ovklearn.kernels", "SeparableGaussian.expansion"),
    ("kernels.expansion", "ovklearn.kernels", "NonSeparablePoly.expansion"),
    ("kernels.gram", "ovklearn.kernels", "SeparableGaussian.gram"),
    ("kernels.gram", "ovklearn.kernels", "NonSeparablePoly.gram"),
    ("kernels.operator_norm_bound", "ovklearn.kernels", "operator_norm_bound"),
    ("losses.value", "ovklearn.losses", "SquaredLoss.value"),
    ("losses.gradient", "ovklearn.losses", "SquaredLoss.gradient"),
    ("onorma.step", "ovklearn.onorma", "ONORMA.step"),
    ("onorma.fit", "ovklearn.onorma", "ONORMA.fit"),
    ("onorma.predict", "ovklearn.onorma", "ONORMA.predict"),
    ("onorma.norm_recursion", "ovklearn.onorma", "norm_recursion"),
    ("monorma.step", "ovklearn.monorma", "MONORMA.step"),
    ("monorma.predict", "ovklearn.monorma", "MONORMA.predict"),
    ("monorma.per_kernel_norm_sq", "ovklearn.monorma", "MONORMA.per_kernel_norm_sq"),
    ("monorma.delta_update", "ovklearn.monorma", "delta_update"),
    ("batch.fit", "ovklearn.batch", "fit"),
    ("batch.predict", "ovklearn.batch", "BatchModel.predict"),
    ("batch.regularized_risk", "ovklearn.batch", "regularized_risk"),
    # the dense factor and solve, as batch.fit calls them through scipy.linalg
    ("batch.cho_factor", "scipy.linalg", "cho_factor"),
    ("batch.cho_solve", "scipy.linalg", "cho_solve"),
    ("bounds.check_hypotheses", "ovklearn.bounds", "check_hypotheses"),
    ("bounds.compute_constants", "ovklearn.bounds", "compute_constants"),
    ("bounds.check_cumulative_bound", "ovklearn.bounds", "check_cumulative_bound"),
    ("data.gen_synthetic", "ovklearn.data", "gen_synthetic"),
    ("data.split_and_normalize", "ovklearn.data", "split_and_normalize"),
    ("checkpoint.save_model", "ovklearn.checkpoint", "save_model"),
    ("checkpoint.load_model", "ovklearn.checkpoint", "load_model"),
    ("experiments.read_config", "ovklearn.experiments", "read_config"),
    ("experiments.bound_check", "ovklearn.experiments", "bound_check"),
    ("cli.main", "ovklearn.cli", "main"),
]

SPAN_NAMES = sorted({name for name, _, _ in ENTRY_POINTS})


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return 1 if shape is None or len(shape) < 2 else shape[0]


def _count_expansion(counts, args, kwargs):
    kernel, support, query, coeffs = args[:4]
    terms = len(support) * _rows(query)
    counts["kernels.expansion.terms"] += terms
    # each query reads every support row (p floats) and coefficient (d floats)
    width = (support.shape[1] if getattr(support, "ndim", 1) == 2 else 0) + kernel.dim
    counts["kernels.expansion.bytes_computed"] += 8 * terms * width


def _count_gram(counts, args, kwargs):
    kernel, xs = args[:2]
    counts["kernels.gram.bytes_computed"] += 8 * (len(xs) * kernel.dim) ** 2


def _count_norm_sq(counts, args, kwargs):
    model = args[0]
    counts["monorma.per_kernel_norm_sq.gram_entries"] += (model.support_size * model.dim) ** 2


def _count_fit(counts, args, kwargs):
    kernel, xs = args[:2]
    counts["batch.system_bytes_computed"] += 8 * (len(xs) * kernel.dim) ** 2


def _count_save(counts, args, kwargs):
    path = str(args[0])
    counts["checkpoint.bytes"] += os.path.getsize(path if path.endswith(".npz") else path + ".npz")


COUNTERS = {
    "kernels.expansion": _count_expansion,
    "kernels.gram": _count_gram,
    "monorma.per_kernel_norm_sq": _count_norm_sq,
    "batch.fit": _count_fit,
    "checkpoint.save_model": _count_save,
}


COUNT_NAMES = [
    "kernels.expansion.terms",
    "kernels.expansion.bytes_computed",
    "kernels.gram.bytes_computed",
    "monorma.per_kernel_norm_sq.gram_entries",
    "batch.system_bytes_computed",
    "checkpoint.bytes",
]


class Tracer:
    """Spans and counters of one traced run, kept in memory until ``write``.

    Spans are stored column-wise in typed arrays (48 bytes a span),
    so a run of a million spans stays small: ``name`` and ``op_stream``
    index ``SPAN_NAMES`` and ``self.streams``, ``parent`` is the index of
    the enclosing span or -1, and ``op_index`` counts the top-level calls
    of the stream.
    """

    FIELDS = ("name", "start_ns", "end_ns", "parent", "op_stream", "op_index")

    def __init__(self):
        self.columns = {f: array("q") for f in self.FIELDS}
        self.counts = defaultdict(float)
        self.streams = ["setup"]
        self.missing = []
        self.patches = []  # (holder, attribute, original)
        self._stack = []
        self._stream = 0
        self._ops = 0

    def __len__(self) -> int:
        return len(self.columns["name"])

    def stream(self, label: str, first: int = 0) -> None:
        """Name the operations that follow; their ids count up from ``first``."""
        if label not in self.streams:
            self.streams.append(label)
        self._stream = self.streams.index(label)
        self._ops = first

    def wrap(self, name, fn):
        names, starts, ends, parents, op_streams, op_indices = (
            self.columns[f] for f in self.FIELDS
        )
        stack, counts = self._stack, self.counts
        name_id = SPAN_NAMES.index(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            if stack:
                parent = stack[-1]
                op_streams.append(op_streams[parent])
                op_indices.append(op_indices[parent])
            else:
                parent = -1
                op_streams.append(self._stream)
                op_indices.append(self._ops)
                self._ops += 1
            names.append(name_id)
            parents.append(parent)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if counter is not None:
                    counter(counts, args, kwargs)

        return traced

    def write(self, path, meta: dict) -> None:
        """Every span as one array per field, in a compressed .npz."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path,
            meta=np.array(json.dumps(meta)),
            names=np.array(SPAN_NAMES),
            streams=np.array(self.streams),
            **{f: np.frombuffer(col, dtype=np.int64) for f, col in self.columns.items()},
        )


def install(tracer: Tracer) -> None:
    """Wrap every entry point that exists; record the ones that do not."""
    for name, module_name, attr in ENTRY_POINTS:
        module = sys.modules.get(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, fn_name, None) if owner is not None else None
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(name, original)
        if owner_name:
            # a method, possibly inherited: set it on the named class
            tracer.patches.append((owner, fn_name, vars(owner).get(fn_name)))
            setattr(owner, fn_name, wrapped)
            continue
        holders = [module] + [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "ovklearn" or mod_name.startswith("ovklearn.")
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    tracer.patches.append((holder, key, original))


def uninstall(tracer: Tracer) -> None:
    """Put back every original that ``install`` replaced."""
    for holder, key, original in reversed(tracer.patches):
        if original is None:
            delattr(holder, key)
        else:
            setattr(holder, key, original)
    tracer.patches.clear()


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Additive totals of spans lo..hi-1: calls, busy and self seconds per name.

    Self time is a span's duration minus the durations of its direct
    children (one thread, closed loop: children never overlap).
    """
    col = {f: np.frombuffer(c, dtype=np.int64)[lo:hi] for f, c in tracer.columns.items()}
    dur = col["end_ns"] - col["start_ns"]
    nested = col["parent"] >= 0
    child = np.bincount(col["parent"][nested] - lo, weights=dur[nested], minlength=hi - lo)
    n = len(SPAN_NAMES)
    calls = np.bincount(col["name"], minlength=n)
    busy = np.bincount(col["name"], weights=dur, minlength=n)
    own = np.bincount(col["name"], weights=dur - child, minlength=n)
    out = defaultdict(float)
    for i, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = float(calls[i])
        out[f"{name}.busy_s"] = busy[i] / 1e9
        out[f"{name}.self_s"] = own[i] / 1e9
    parent_name = col["name"][np.where(nested, col["parent"] - lo, 0)]
    out["kernels.expansion.in_monorma_step"] = float(np.count_nonzero(
        nested
        & (col["name"] == SPAN_NAMES.index("kernels.expansion"))
        & (parent_name == SPAN_NAMES.index("monorma.step"))
    ))
    return out


def derive(totals: dict) -> dict:
    """Every per-layer metric from additive totals (absent ones read 0)."""
    out = {}
    for name in SPAN_NAMES:
        for field in ("calls", "busy_s", "self_s"):
            out[f"{name}.{field}"] = totals.get(f"{name}.{field}", 0.0)
    for name in COUNT_NAMES:
        out[name] = totals.get(name, 0.0)
    steps = totals.get("monorma.step.calls", 0.0)
    out["kernels.expansion.calls_per_monorma_step"] = (
        totals.get("kernels.expansion.in_monorma_step", 0.0) / steps if steps else 0.0
    )
    fits = totals.get("batch.fit.calls", 0.0)
    factors = totals.get("batch.cho_factor.calls", 0.0)
    out["batch.factor_retries"] = max(0.0, factors / fits - 1.0) if fits else 0.0
    return out
