"""Spans around the public functions of each mdsclt module, and the span
arithmetic the benchmark derives its per-layer metrics from.

Nothing in the library is edited: ``install`` rebinds the module attributes
the callers look up (and two class attributes) to wrappers that record one
span per call. Spans are kept in memory and handed back as plain dicts.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
import threading
import time

# Tail percentiles in permille, highest first. The reported tail is the
# highest one that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_PERMILLE = (999, 990, 900, 500)
TAIL_MIN_BEYOND = 10


class Recorder:
    """Collects spans from every thread of one process.

    A span opened on a thread with no open span of its own (a worker of the
    harness thread pool) takes as parent the innermost open span of the
    thread that created the recorder, so pool work is attributed to the
    ``harness.run`` call that is waiting for it.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.get_ident()

    def _stack(self, tid):
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def current(self):
        """The innermost open span of the calling thread, or None."""
        stack = self._stacks.get(threading.get_ident())
        return stack[-1] if stack else None

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` recording a span per call; ``attrs(args, kwargs,
        result)`` may add counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stack(tid)
            outer = stack or self._stacks.get(self._main)
            span = {"name": name, "id": next(self._ids),
                    "parent": outer[-1]["id"] if outer else None,
                    "thread": tid, "attrs": {}}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            return result

        return traced


def _rebind(modules, original, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _top_eigs_attrs(args, kwargs, result):
    return {"k": int(kwargs["k"] if "k" in kwargs else args[1])}


def _perturb_attrs(args, kwargs, result):
    arrays = {}
    for value in result.values():
        if value is not None:
            arrays[id(value.data)] = value.data.nbytes
    return {"out_bytes": sum(arrays.values())}


def install(rec: Recorder) -> None:
    """Wrap the public layer functions of mdsclt in spans recorded by ``rec``.

    The iterative eigensolver is handed a LinearOperator that counts
    matrix-vector products; it performs the same products as the operator
    scipy builds from the dense array itself.
    """
    import scipy.sparse.linalg as spla

    from mdsclt import cli, clt, cmds, harness, matrixcore, noise, pointmodel

    modules = (cli, clt, cmds, harness, matrixcore, noise, pointmodel)
    layers = [
        (pointmodel, "sample"), (noise, "perturb"),
        (matrixcore, "double_center"), (matrixcore, "top_eigs"),
        (matrixcore, "norms"), (cmds, "embed"), (clt, "align"),
        (clt, "theory_cov"), (clt, "decompose"), (clt, "bound_checks"),
        (harness, "run"), (harness, "normality_check"), (cli, "dispatch"),
    ]
    for mod, attr in layers:
        name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(mod, attr)
        attrs = {"perturb": _perturb_attrs, "top_eigs": _top_eigs_attrs}.get(attr)
        _rebind(modules, original, rec.wrap(name, original, attrs))

    sym = matrixcore.SymmetricMatrix
    sym.__post_init__ = rec.wrap("matrixcore.SymmetricMatrix", sym.__post_init__)
    cloud = pointmodel.PointCloud
    cloud.distance_matrix = rec.wrap("pointmodel.distance_matrix",
                                     cloud.distance_matrix)

    eigsh = spla.eigsh

    @functools.wraps(eigsh)
    def counting_eigsh(A, *args, **kwargs):
        op = spla.aslinearoperator(A)
        calls = [0]

        def matvec(x):
            calls[0] += 1
            return op.matvec(x)

        counted = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        try:
            return eigsh(counted, *args, **kwargs)
        finally:
            span = rec.current()
            if span is not None:
                span["attrs"]["matvecs"] = span["attrs"].get("matvecs", 0) + calls[0]

    spla.eigsh = counting_eigsh


def union_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its child spans' intervals,
    so children running concurrently on two threads are counted once."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - union_length(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def tail(values):
    """(percentile, value): the highest of TAIL_PERMILLE with at least
    TAIL_MIN_BEYOND samples after its nearest-rank position, or the median
    when no higher percentile qualifies."""
    ordered = sorted(values)
    n = len(ordered)
    for pm in TAIL_PERMILLE[:-1]:
        if n - math.ceil(pm * n / 1000) >= TAIL_MIN_BEYOND:
            return pm / 10, ordered[math.ceil(pm * n / 1000) - 1]
    return 50.0, statistics.median(ordered)
