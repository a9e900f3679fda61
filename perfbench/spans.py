"""Span tracing for the traced benchmark run.

Tracing is installed from outside the program: each traced public
function is replaced by a wrapper, by assigning to the module attribute
(in every ``trivalent`` module that imported the name) or to the class
attribute.  Nothing under ``src/`` knows about it.

Spans live in columnar arrays (name id, op id, parent index, start ns,
end ns) in the order they start, and are written out when the run ends.
A span's *self time* is its duration minus the part of its interval
that its child spans cover.
"""
from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from itertools import islice
from pathlib import Path

_COLUMNS = (("name", "H"), ("op", "q"), ("parent", "q"), ("start", "q"), ("end", "q"))


class Tracer:
    """In-memory span store plus the counters measured at the same
    boundaries.  One tracer per process; ``op`` is the id of the op that
    new spans belong to."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {col: array(code) for col, code in _COLUMNS}
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        #: off while the benchmark checks an op's output
        self.on = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.cols["start"])

    def begin(self, nid: int) -> int:
        c = self.cols
        idx = len(c["start"])
        c["name"].append(nid)
        c["op"].append(self.op)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["end"].append(0)
        self.stack.append(idx)
        c["start"].append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.cols["end"][idx] = time.perf_counter_ns()
        self.stack.pop()

    def close_all(self) -> None:
        """End every open span, after an op was interrupted (possibly
        inside ``begin``, so drop a half-appended span first)."""
        n = min(len(col) for col in self.cols.values())
        for col in self.cols.values():
            del col[n:]
        now = time.perf_counter_ns()
        while self.stack:
            idx = self.stack.pop()
            if idx < n and self.cols["end"][idx] == 0:
                self.cols["end"][idx] = now

    def count(self, key: str, amount: float = 1) -> None:
        if self.on:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span called ``name``.  A call made while the
        innermost open span already has that name (recursion, or one
        oracle entry point calling another) records no second span.
        ``after(args, result)`` runs once the span has ended."""
        nid = self.name_id(name)
        names = self.cols["name"]
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.on or (stack and names[stack[-1]] == nid):
                return fn(*args, **kwargs)
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def absorb(self, other: dict, parent: int) -> None:
        """Append spans loaded from another process (``load_spans``);
        their root spans become children of span ``parent``."""
        base = len(self)
        remap = [self.name_id(n) for n in other["names"]]
        c = self.cols
        oc = other["cols"]
        c["name"].extend(array("H", (remap[n] for n in oc["name"])))
        c["op"].extend(array("q", [self.op]) * len(oc["op"]))
        c["parent"].extend(array("q", (p + base if p >= 0 else parent for p in oc["parent"])))
        c["start"].extend(oc["start"])
        c["end"].extend(oc["end"])
        for key, value in other["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value

    def dump(self, path: Path) -> None:
        """Gzip of one JSON header line (names, counters, column layout)
        followed by the raw columns in header order."""
        header = {
            "names": self.names,
            "counters": self.counters,
            "n": len(self),
            "columns": [[col, code] for col, code in _COLUMNS],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                self.cols[col].tofile(fh)


def load_spans(path: Path) -> dict:
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in header["columns"]:
            cols[col] = array(code)
            cols[col].fromfile(fh, header["n"])
    return {"names": header["names"], "counters": header["counters"], "cols": cols}


def totals(names: list[str], cols: dict) -> dict[str, int]:
    """Summed duration in ns of the spans of each name."""
    out: dict[str, int] = {}
    for nid, lo, hi in zip(cols["name"], cols["start"], cols["end"]):
        out[names[nid]] = out.get(names[nid], 0) + hi - lo
    return out


def self_times(parent, start, end) -> array:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    n = len(start)
    own = array("q", (hi - lo for lo, hi in zip(start, end)))
    reach = array("q", start)  # per parent: end of its children's union so far
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(order, key=start.__getitem__)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], reach[p]), min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            reach[p] = hi
    return own


# ---------------------------------------------------------------------------
# What is traced

def _count_search(tracer: Tracer, fn):
    """``complete_search`` with a memo the benchmark can see.  One memo
    lookup happens per visited node, so the lookups of a call are the
    root plus the premisses of every node it added to the memo."""

    def search(logic, b, strategy="leftmost", use_memo=True, memo=None):
        if memo is None:
            memo = {}  # what complete_search would create itself
        before = len(memo)
        tree = fn(logic, b, strategy, use_memo, memo)
        added = len(memo) - before
        if use_memo:
            lookups = 1 + sum(
                len(t.children) for t in islice(reversed(memo.values()), added)
            )
            tracer.count("prover.lookups", lookups)
            tracer.count("prover.distinct", added)
        return tree

    return search


def _count_assignments(tracer: Tracer, fn):
    def assignments(*args, **kwargs):
        n = 0
        try:
            for h in fn(*args, **kwargs):
                n += 1
                yield h
        finally:
            tracer.count("semantics.assignments", n)

    return assignments


def _distinct_nodes(tree) -> int:
    seen = set()
    todo = [tree]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            todo.extend(t.children)
    return len(seen)


def _dict_nodes(d: dict) -> int:
    return 1 + sum(_dict_nodes(c) for c in d.get("children", ()))


def _after_render(tracer: Tracer, kind: str):
    def after(args, result):
        if kind == "text":
            tracer.count("prover.render.bytes", len(result.encode()))
            tracer.count("prover.render.emitted", result.count("\n") + 1)
        else:
            tracer.count("prover.render.bytes", len(json.dumps(result).encode()))
            tracer.count("prover.render.emitted", _dict_nodes(result))
        tracer.count("prover.render.distinct", _distinct_nodes(args[0]))

    return after


def _after_rule(tracer: Tracer):
    def after(args, result):
        tracer.count("calculus.premisses", len(result))

    return after


def _after_interpolate(tracer: Tracer):
    def after(args, result):
        formula = result[0] if isinstance(result, tuple) else result
        disj = getattr(formula, "connective", "")
        parts, todo = [], [formula]
        while todo:
            f = todo.pop()
            if disj.startswith("or") and getattr(f, "connective", None) == disj:
                todo.extend(f.args)
            else:
                parts.append(f)
        tracer.count("interpolation.disjuncts", len(parts))
        tracer.count("interpolation.duplicates", len(parts) - len(set(parts)))

    return after


def install(tracer: Tracer, setup: bool = False):
    """Swap the traced functions for wrappers; returns a function that
    puts the originals back.  ``setup`` traces only the loading done
    before a workload is ready (logic registry, tables, rule catalogs)."""
    # ``trivalent.bisequent`` is also the name of a function the package
    # re-exports, so modules are fetched by their full names
    bisequent, calculus, formula, interpolation, logics, prover, semantics = (
        importlib.import_module(f"trivalent.{m}") for m in
        ("bisequent", "calculus", "formula", "interpolation", "logics", "prover", "semantics"))
    P = prover.ProofTree
    if setup:
        plan = [
            (logics, "load_tables", "logics.load", None, None),
            (logics, "load_logics", "logics.load", None, None),
            (calculus, "catalog", "calculus.catalog", None, None),
        ]
    else:
        plan = [
            (formula, "parse_formula", "formula.parse", None, None),
            (bisequent, "bisequent", "bisequent.build", None, None),
            (bisequent, "is_axiomatic", "bisequent.axiom_test", None, None),
            (calculus, "apply_rule", "calculus.apply_rule", None, _after_rule(tracer)),
            (prover, "complete_search", "prover.search", _count_search, None),
            (prover, "countermodel_from_leaf", "prover.countermodel", None, None),
            (P, "open_leaves", "prover.open_leaves", None, None),
            (P, "to_text", "prover.render", None, _after_render(tracer, "text")),
            (P, "to_dict", "prover.render", None, _after_render(tracer, "dict")),
            (semantics, "matrix_consequence", "semantics.oracle", None, None),
            (semantics, "falsifying_assignments", "semantics.oracle", None, None),
            (semantics, "bisequent_valid", "semantics.oracle", None, None),
            (semantics, "falsifies", "semantics.oracle", None, None),
            (semantics, "assignments_over", None, _count_assignments, None),
            (interpolation, "interpolate", "interpolation.build", None, _after_interpolate(tracer)),
            (interpolation, "interpolate_extended", "interpolation.build", None, _after_interpolate(tracer)),
            (interpolation, "verify_interpolant", "interpolation.verify", None, None),
        ]
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "trivalent" or name.startswith("trivalent.")]
    undo = []
    for owner, attr, span, counting, after in plan:
        original = owner.__dict__[attr]
        fn = counting(tracer, original) if counting else original
        wrapper = tracer.wrap(span, fn, after) if span else fn
        for target in [owner] if isinstance(owner, type) else modules:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    undo.append((target, key, original))
    if not setup:
        # only the oracle's top-level evaluations: ``evaluate`` recurses
        # through its own module global, which stays untraced
        original = semantics.evaluate
        semantics.evaluate = tracer.wrap("logics.evaluate", original)
        undo.append((semantics, "evaluate", original))

    def restore() -> None:
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics

#: the program's modules, in the order the metrics list them
LAYERS = ("formula", "logics", "bisequent", "calculus", "prover", "semantics",
          "interpolation", "cli")

#: per-layer metric name -> unit; "/op" figures are averages over the
#: traced ops, shares are of the traced ops' wall time
LAYER_METRICS = {
    "bisequent.build.calls": "calls/op",
    "bisequent.build.ms": "ms/op",
    "bisequent.axiom_test.calls": "calls/op",
    "bisequent.axiom_test.ms": "ms/op",
    "calculus.apply_rule.calls": "calls/op",
    "calculus.apply_rule.ms": "ms/op",
    "calculus.premisses_per_rule": "ratio",
    "prover.search.self_ms": "ms/op",
    "prover.nodes.distinct": "count/op",
    "prover.memo.hit_ratio": "ratio",
    "prover.open_leaves.ms": "ms/op",
    "prover.countermodel.calls": "calls/op",
    "prover.countermodel.ms": "ms/op",
    "prover.render.ms": "ms/op",
    "prover.render.bytes": "bytes/op",
    "prover.render.nodes_per_distinct": "ratio",
    "semantics.oracle.calls": "calls/op",
    "semantics.oracle.self_ms": "ms/op",
    "semantics.assignments": "count/op",
    "semantics.assignments_per_s": "1/s",
    "logics.evaluate.calls": "calls/op",
    "interpolation.build.ms": "ms/op",
    "interpolation.verify.ms": "ms/op",
    "interpolation.duplicate_disjunct_ratio": "ratio",
    "formula.parse.calls": "calls/op",
    "formula.parse.ms": "ms/op",
    "cli.run.ms": "ms/op",
    "cli.startup_ms": "ms/op",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "untraced.self_share": "ratio",
    "logics.load.ms": "ms",
    "calculus.catalog.ms": "ms",
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op_name: str = "op") -> dict[str, float]:
    """Metrics of the spans and counters of a traced phase whose ops are
    the root spans named ``op_name``.  Leaves out the set-up metrics and
    the tracing overhead, which come from elsewhere."""
    c = tracer.cols
    names, parent, start, end = c["name"], c["parent"], c["start"], c["end"]
    selfs = self_times(parent, start, end)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    startup = 0
    for i in range(len(start)):
        name = tracer.names[names[i]]
        dur = end[i] - start[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        own[name] = own.get(name, 0) + selfs[i]
        if name == "cli.run" and parent[i] >= 0:
            p = parent[i]
            startup += (end[p] - start[p]) - dur
    n_ops = calls.get(op_name, 0)
    op_ns = total.get(op_name, 0)
    k = tracer.counters.get
    per_op = lambda x: _ratio(x, n_ops)
    ms = lambda key, table=total: per_op(table.get(key, 0)) / 1e6
    out = {
        "bisequent.build.calls": per_op(calls.get("bisequent.build", 0)),
        "bisequent.build.ms": ms("bisequent.build"),
        "bisequent.axiom_test.calls": per_op(calls.get("bisequent.axiom_test", 0)),
        "bisequent.axiom_test.ms": ms("bisequent.axiom_test"),
        "calculus.apply_rule.calls": per_op(calls.get("calculus.apply_rule", 0)),
        "calculus.apply_rule.ms": ms("calculus.apply_rule"),
        "calculus.premisses_per_rule": _ratio(k("calculus.premisses", 0),
                                              calls.get("calculus.apply_rule", 0)),
        "prover.search.self_ms": ms("prover.search", own),
        "prover.nodes.distinct": per_op(k("prover.distinct", 0)),
        "prover.memo.hit_ratio": _ratio(k("prover.lookups", 0) - k("prover.distinct", 0),
                                        k("prover.lookups", 0)),
        "prover.open_leaves.ms": ms("prover.open_leaves"),
        "prover.countermodel.calls": per_op(calls.get("prover.countermodel", 0)),
        "prover.countermodel.ms": ms("prover.countermodel"),
        "prover.render.ms": ms("prover.render"),
        "prover.render.bytes": per_op(k("prover.render.bytes", 0)),
        "prover.render.nodes_per_distinct": _ratio(k("prover.render.emitted", 0),
                                                   k("prover.render.distinct", 0)),
        "semantics.oracle.calls": per_op(calls.get("semantics.oracle", 0)),
        "semantics.oracle.self_ms": ms("semantics.oracle", own),
        "semantics.assignments": per_op(k("semantics.assignments", 0)),
        "semantics.assignments_per_s": _ratio(k("semantics.assignments", 0),
                                              total.get("semantics.oracle", 0) / 1e9),
        "logics.evaluate.calls": per_op(calls.get("logics.evaluate", 0)),
        "interpolation.build.ms": ms("interpolation.build"),
        "interpolation.verify.ms": ms("interpolation.verify"),
        "interpolation.duplicate_disjunct_ratio": _ratio(k("interpolation.duplicates", 0),
                                                         k("interpolation.disjuncts", 0)),
        "formula.parse.calls": per_op(calls.get("formula.parse", 0)),
        "formula.parse.ms": ms("formula.parse"),
        "cli.run.ms": ms("cli.run"),
        "cli.startup_ms": per_op(startup) / 1e6,
    }
    for layer in LAYERS:
        layer_self = sum(v for name, v in own.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_share"] = _ratio(layer_self, op_ns)
    out["untraced.self_share"] = _ratio(own.get(op_name, 0), op_ns)
    return out
