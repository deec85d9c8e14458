"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each layer of ``wmpinv`` in the
calling process only; an untraced run never imports this module.  Every
binding of a wrapped function is replaced, in every loaded ``wmpinv``
module and in the owning class, so a name imported elsewhere (``matrices``
imports ``poly_gcd``, ``poly_greville`` imports ``joint_reduce``) is
measured too.

Calls to the coarser layers are kept as spans in memory: name, start, end,
parent span and problem.  The hot scalar calls (up to hundreds of
thousands per pass) are aggregated into counters instead; a span records
how much of its interval such counted calls covered.  A layer's self time
is its duration minus the time covered by its child spans and counted
calls.  Self times are also summed per root span (the caller's phases), so
a layer's share of one phase can be read off.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (layer name, owner path, attribute)
COUNTED = (
    ("scalars.poly_gcd", "scalars", "poly_gcd"),
    ("scalars.Poly.mul", "scalars.Poly", "__mul__"),
    ("scalars.Poly.divmod", "scalars.Poly", "__divmod__"),
    ("scalars.RatFun.add", "scalars.RatFun", "__add__"),
    ("scalars.RatFun.mul", "scalars.RatFun", "__mul__"),
    ("scalars.joint_reduce", "scalars", "joint_reduce"),
)
SPANNED = (
    ("matrices.RfMatrix.mul", "matrices.RfMatrix", "__mul__"),
    *(
        (f"greville.{f}", "greville", f)
        for f in (
            "project_column",
            "weighted_schur_factor",
            "bottom_row",
            "extend_pinv",
            "bordering_step",
        )
    ),
    *(
        (f"poly_greville.{f}", "poly_greville", f)
        for f in (
            "init_fraction",
            "step_projection",
            "step_residual",
            "step_coupling",
            "step_bottom_row",
            "step_extend",
            "poly_bordering_step",
            "fraction_simplify",
        )
    ),
    ("verify.penrose_check", "verify", "penrose_check"),
    ("matrixio.format_matrix", "matrixio", "format_matrix"),
    ("matrixio.parse_matrix_file", "matrixio", "parse_matrix_file"),
)
LAYERS = tuple(name for name, _, _ in COUNTED + SPANNED)
# counted calls whose result is flagged: gcds that are constant
FLAGGED = {"scalars.poly_gcd": lambda g: g.degree == 0}


class Tracer:
    """Spans and counters of one process, kept in memory until ``take``."""

    def __init__(self):
        self.problem = None  # id shared by the spans of one problem
        # span: (name, start, end, parent index, problem, counted seconds)
        self.spans = []
        # layer -> [calls, seconds not covered by nested traced calls, flagged]
        self.counters = {}
        self._open = []  # indices of the open spans
        # per open call: [seconds of child spans, seconds of counted calls]
        self._frames = [[0.0, 0.0]]
        # root span name -> layer -> counted self seconds under it
        self._counted_by_root = {}

    @contextmanager
    def span(self, name):
        frame = [0.0, 0.0]
        parent = self._open[-1] if self._open else None
        if parent is None:
            before = {layer: stats[1] for layer, stats in self.counters.items()}
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        self._frames.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._frames.pop()
            self._open.pop()
            self._frames[-1][0] += end - start
            self.spans[index] = (name, start, end, parent, self.problem, frame[1])
            if parent is None:
                into = self._counted_by_root.setdefault(name, {})
                for layer, stats in self.counters.items():
                    into[layer] = into.get(layer, 0.0) + stats[1] - before[layer]

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name, fn, flag=None):
        """Wrap a hot call; ``flag(result)`` true counts it as flagged."""
        stats = self.counters.setdefault(name, [0, 0.0, 0])
        frames = self._frames

        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                frames[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[0] - frame[1]
            if flag is not None and flag(result):
                stats[2] += 1
            return result

        return wrapper

    def take(self):
        """Return (spans, layer stats, self seconds by root) recorded since
        the last take, and start afresh.  Layer stats map each layer to
        (calls, self seconds, flagged calls); self seconds by root map each
        root span name to each layer's self seconds under it."""
        spans, counters, by_root = self.spans, self.counters, self._counted_by_root
        covered = [0.0] * len(spans)
        roots = []
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                covered[parent] += end - start
            roots.append(name if parent is None else roots[parent])
        stats = {name: [0, 0.0, 0] for name in LAYERS}
        for name, calls in counters.items():
            stats[name] = list(calls)
        for (name, start, end, _, _, counted), child, root in zip(spans, covered, roots):
            self_s = end - start - child - counted
            entry = stats.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += self_s
            into = by_root.setdefault(root, {})
            into[name] = into.get(name, 0.0) + self_s
        for calls in counters.values():
            calls[:] = [0, 0.0, 0]
        self.spans, self._counted_by_root = [], {}
        return spans, stats, by_root


def _resolve(path):
    obj = sys.modules["wmpinv." + path.split(".")[0]]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


@contextmanager
def install(tracer):
    """Wrap every layer function for the duration of the block."""
    import wmpinv  # noqa: F401  (loads every layer module)

    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "wmpinv"]
    patched = []
    try:
        for kind, table in (("counted", COUNTED), ("spanned", SPANNED)):
            for name, owner_path, attr in table:
                owner = _resolve(owner_path)
                original = vars(owner)[attr]
                if kind == "counted":
                    wrapper = tracer.counted(name, original, FLAGGED.get(name))
                else:
                    wrapper = tracer.spanned(name, original)
                # ``__rmul__ = __mul__`` and ``from .scalars import poly_gcd``
                # are further bindings of the same function object
                for target in (owner, *namespaces):
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            patched.append((target, key, original))
        yield tracer
    finally:
        for target, key, original in reversed(patched):
            setattr(target, key, original)
