"""Span tracing of the virlog layers from outside the package.

A Tracer swaps wrappers in for the layers' public functions and methods
while it is active and restores the originals when it exits; nothing
under src/ is edited.  Methods are replaced on their class, under every
alias the class holds (MultiPoly.__rmul__ is __mul__).  Module-level
functions are replaced in every virlog module that bound them by name,
and in wlog._COCYCLES, which holds cocycle_residue by reference.

Each wrapped call records one span: name, start, end and the span that
was open when it began.  Spans stay in flat arrays in memory; per-layer
figures are computed from them after the run, and dump() writes them out.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _targets():
    """(span name, owner, attribute) for every wrapped layer entry point."""
    # virlog.serialize is shadowed by the function of that name on the package
    cli, fusion, linalg, modules, polynomial, serialize, virasoro, wlog = (
        importlib.import_module(f"virlog.{name}")
        for name in ("cli", "fusion", "linalg", "modules", "polynomial", "serialize",
                     "virasoro", "wlog")
    )
    return [
        ("polynomial.init", polynomial.MultiPoly, "__init__"),
        ("polynomial.mul", polynomial.MultiPoly, "__mul__"),
        ("polynomial.add", polynomial.MultiPoly, "__add__"),
        ("polynomial.divexact", polynomial.MultiPoly, "divexact"),
        ("polynomial.rational_roots", polynomial, "rational_roots"),
        ("linalg.bareiss", linalg.ExactMatrix, "determinant"),
        ("linalg.rref", linalg.ExactMatrix, "rref"),
        ("modules.gram", modules, "shapovalov_matrix"),
        ("modules.apply_mode", modules.ModuleVector, "apply_mode"),
        ("modules.singular", modules, "singular_vectors"),
        ("fusion.pipeline", fusion, "fusion_indicial"),
        ("fusion.descent", fusion, "descent_operator"),
        ("fusion.indicial", fusion, "indicial_data"),
        ("fusion.solve", fusion, "solve_euler"),
        ("wlog.cocycle_residue", wlog, "cocycle_residue"),
        ("wlog.laurent_derivative", wlog.LaurentField, "derivative"),
        ("wlog.bracket", wlog, "wlog_bracket"),
        ("wlog.vev", wlog, "vacuum_expectation"),
        ("virasoro.bracket", virasoro.UEAElement, "bracket"),
        ("serialize.serialize", serialize, "serialize"),
        ("cli.main", cli, "main"),
    ]


class Tracer:
    """Context manager: wrappers installed on enter, originals back on exit.

    Besides spans it keeps the distinct argument pairs of cocycle_residue
    and the largest quotient divexact returned.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self._undo: list = []
        self.cocycle_pairs: set = set()
        self.max_quotient_terms = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        targets = _targets()
        virlog_modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "virlog"]
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            homes = [owner] if isinstance(owner, type) else virlog_modules
            for home in homes:
                for alias, value in list(vars(home).items()):
                    if value is original:
                        self._undo.append((home, alias, original))
                        setattr(home, alias, wrapper)
            if name == "wlog.cocycle_residue":
                table = owner._COCYCLES
                for key, value in list(table.items()):
                    if value is original:
                        self._undo.append((table, key, original))
                        table[key] = wrapper
        return self

    def __exit__(self, *exc):
        for home, key, original in reversed(self._undo):
            if isinstance(home, dict):
                home[key] = original
            else:
                setattr(home, key, original)
        self._undo.clear()
        return False

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name == "wlog.cocycle_residue":
            pairs, plain = self.cocycle_pairs, wrapper

            def wrapper(*args, **kwargs):
                pairs.add(args)
                return plain(*args, **kwargs)

        elif name == "polynomial.divexact":
            tracer, plain = self, wrapper

            def wrapper(*args, **kwargs):
                result = plain(*args, **kwargs)
                tracer.max_quotient_terms = max(tracer.max_quotient_terms, len(result.terms))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """{name: {"calls", "self_s", "total_s"}} from the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children.  Total time counts a span only when no enclosing span
        has the same name, so recursive calls are not counted twice.
        """
        names, ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        count = len(starts)
        child = [0.0] * count
        enclosing = [0] * count  # bit set of the names of enclosing spans
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                enclosing[i] = enclosing[p] | (1 << ids[p])
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
        for i in range(count):
            row = out[names[ids[i]]]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += duration - child[i]
            if not (enclosing[i] >> ids[i]) & 1:
                row["total_s"] += duration
        return out

    def dump(self, stem: Path) -> None:
        """Write the spans as <stem>.json (names, span count) and <stem>.bin
        (int32 name ids, int32 parents, float64 starts, float64 ends)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.starts)}, fh)


# (metric, unit) for every per-layer figure a traced run reports, in
# BENCHMARK.json order; trace.overhead_frac is computed by run.py.
PER_LAYER = (
    [(f"polynomial.{op}.{f}", "count" if f == "calls" else "s")
     for op in ("init", "mul", "add", "divexact") for f in ("calls", "self_s")]
    + [("polynomial.divexact.total_s", "s"), ("polynomial.divexact.max_terms", "count"),
       ("polynomial.rational_roots.calls", "count"), ("polynomial.rational_roots.total_s", "s")]
    + [(f"linalg.{op}.{f}", "count" if f == "calls" else "s")
       for op in ("bareiss", "rref") for f in ("calls", "self_s", "total_s")]
    + [("modules.gram.calls", "count"), ("modules.gram.self_s", "s"),
       ("modules.gram.total_s", "s"), ("modules.apply_mode.calls", "count"),
       ("modules.apply_mode.self_s", "s"), ("modules.singular.total_s", "s"),
       ("modules.action_memo_entries", "count"), ("modules.prepend_memo_entries", "count")]
    + [(f"fusion.{op}.total_s", "s") for op in ("pipeline", "descent", "indicial", "solve")]
    + [("wlog.cocycle_residue.calls", "count"), ("wlog.cocycle_residue.self_s", "s"),
       ("wlog.cocycle_residue.total_s", "s"), ("wlog.cocycle_residue.distinct_ratio", "ratio"),
       ("wlog.laurent_derivative.calls", "count"), ("wlog.laurent_derivative.self_s", "s"),
       ("wlog.bracket.calls", "count"), ("wlog.bracket.total_s", "s"),
       ("wlog.vev.total_s", "s")]
    + [("virasoro.bracket.calls", "count"), ("virasoro.bracket.total_s", "s"),
       ("virasoro.straighten_memo_entries", "count")]
    + [("serialize.serialize.calls", "count"), ("serialize.serialize.total_s", "s"),
       ("cli.main.calls", "count"), ("cli.main.self_s", "s")]
    + [("trace.overhead_frac", "ratio")]
)


def self_by_layer(summary: dict) -> dict:
    """Self seconds summed per layer (the part of a span name before the
    first dot); "job" is the benchmark's own code around a job."""
    out: dict = {}
    for name, row in summary.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def layer_metrics(tracer: Tracer, spans: dict, memo: dict) -> dict:
    """Every PER_LAYER value but trace.overhead_frac, from one traced pass:
    its Tracer, the Tracer's summary() and the memo sizes read after it."""
    residue_calls = spans["wlog.cocycle_residue"]["calls"]
    extra = {
        "polynomial.divexact.max_terms": tracer.max_quotient_terms,
        "modules.action_memo_entries": memo["action"],
        "modules.prepend_memo_entries": memo["prepend"],
        "virasoro.straighten_memo_entries": memo["straighten"],
        "wlog.cocycle_residue.distinct_ratio":
            len(tracer.cocycle_pairs) / residue_calls if residue_calls else 0.0,
    }
    out = {}
    for metric, _unit in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
        elif metric != "trace.overhead_frac":
            span, _, field = metric.rpartition(".")
            out[metric] = spans[span][field]
    return out
