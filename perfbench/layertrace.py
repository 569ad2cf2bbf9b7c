"""Per-layer spans for polyball, recorded from outside the package.

``LayerTracer.install()`` replaces the public functions of each layer module,
and the public methods of its public classes, by timing wrappers.  A function
imported elsewhere with ``from .x import y`` is replaced in every polyball
module that holds it, so calls through the imported name are traced too.
``uninstall()`` puts the originals back.  Spans stay in memory until
``write()``.

A span's self time is its duration minus the durations of its direct child
spans; numpy and scipy time counts to the layer that called them.  Every
traced op runs under the ``cli.main`` span, so the self times of one op add up
to that span's duration.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from types import FunctionType

LAYERS = ("words", "fock", "toeplitz", "berezin", "naimark", "pluriharm",
          "serialize", "verify", "sampling", "cli")

# Trivial accessors and constructors-by-another-name.  They are called millions
# of times per op, so a wrapper would cost more than the work it times; their
# time counts to the caller.
SKIP = {
    "words.Word.concat", "words.Word.reverse",
    "words.MultiWord.concat", "words.MultiWord.reverse", "words.MultiWord.lengths",
    "words.word", "words.empty_word", "words.multiword", "words.identity_multiword",
    "fock.FockTruncation.factor_words", "fock.FockTruncation.factor_word_index",
    "fock.FockTruncation.basis_index", "fock.FockTruncation.basis_word",
    "fock.FockTruncation.admits",
    "toeplitz.MultiToeplitzSymbol.coeff", "toeplitz.MultiToeplitzSymbol.items",
    "berezin.PolyballPoint.entry",
    "naimark.ToeplitzKernel.value",
    "pluriharm.CbMapData.value",
}

INDEX_MAPS = ("fock.FockTruncation.factor_map", "fock.FockTruncation.letter_map",
              "fock.FockTruncation.product_map", "fock.monomial_indices",
              "fock.word_operator")
PAIR_ENUMERATIONS = ("words.lambda_pairs_up_to_total", "words.lambda_pairs_within_degrees")


class LayerTracer:
    """Times calls into polyball layers.  Not thread-safe: one client only."""

    def __init__(self):
        self.names: list[str] = []          # span name by function id
        self.spans: list[list] = []         # [fid, parent, op, t0, t1]
        self.op = -1
        self.pairs_out: dict[int, int] = defaultdict(int)
        self.dim_max: dict[int, int] = defaultdict(int)
        self.cauchy_dims: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.rank_ratio: dict[int, float] = {}
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._plan:
            self._build_plan()
        for owner, name, _, wrapper in self._plan:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._plan):
            setattr(owner, name, original)

    def _build_plan(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "polyball" or name.startswith("polyball."))]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"polyball.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType) and f"{layer}.{name}" not in SKIP:
                    replaced[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._plan_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, FunctionType):
                    self._plan.append((mod, name, obj, replaced[id(obj)]))
        self._plan_fock_dims(sys.modules["polyball.fock"].FockTruncation)

    def _plan_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{name}"
            if name.startswith("_") or qual in SKIP:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                wrapper = type(attr)(self.wrap(qual, attr.__func__))
            elif isinstance(attr, FunctionType):
                wrapper = self.wrap(qual, attr)
            else:
                continue
            self._plan.append((cls, name, attr, wrapper))

    def _plan_fock_dims(self, cls) -> None:
        """Record the size of every truncated Fock space built (no span)."""
        init = cls.__dict__["__init__"]
        tracer = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.dim_max[tracer.op] = max(tracer.dim_max[tracer.op], obj.dim)

        self._plan.append((cls, "__init__", init, __init__))

    def wrap(self, qual: str, fn):
        """``fn`` recording a span named ``qual`` per call."""
        fid = len(self.names)
        self.names.append(qual)
        observe = self._observer(qual)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [fid, stack[-1] if stack else -1, tracer.op, clock(), 0.0]
            # Append before pushing: a probe sample taken by a signal handler
            # in between must not take this span's index.
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _observer(self, qual: str):
        """Counts read at the layer boundary from arguments and results."""
        if qual in PAIR_ENUMERATIONS:
            def observe(args, result):
                self.pairs_out[self.op] += len(result)
        elif qual == "berezin.cauchy_operator":
            def observe(args, result):
                self.cauchy_dims[self.op].append((result.matrix.shape[0], args[1].k))
        elif qual == "naimark.naimark_dilate":
            def observe(args, result):
                ratio = result.space_dim / (len(result.monomials) * result.e_dim)
                self.rank_ratio[self.op] = min(ratio, self.rank_ratio.get(self.op, ratio))
        else:
            return None
        return observe

    # -- analysis -----------------------------------------------------------

    def op_summary(self, op: int) -> dict[str, float]:
        """Self seconds and call counts of one op, per layer and per function,
        and ``root_s``, the summed duration of its outermost spans."""
        child: dict[int, float] = defaultdict(float)
        mine = [(k, s) for k, s in enumerate(self.spans) if s[2] == op]
        for _, s in mine:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        out: dict[str, float] = defaultdict(float)
        for k, s in mine:
            qual = self.names[s[0]]
            layer = qual.split(".", 1)[0]
            dur = s[4] - s[3]
            self_s = dur - child[k]
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
            out[f"{qual}.self_s"] += self_s
            out[f"{qual}.calls"] += 1
            if qual in INDEX_MAPS:
                out["fock.index_map_calls"] += 1
            if s[1] < 0:
                out["root_s"] += dur
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["fid", "parent", "op", "t0", "t1"],
                       "spans": self.spans}, fh)
