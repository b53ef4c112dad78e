"""Spans and counters around t2mc's layers, installed from outside.

`Tracer.install` replaces each traced function in every t2mc namespace that
binds it (``solve`` is bound in qlinalg, mcdg and torus_rep; ``rref`` is a
method of ``Matrix``) with a wrapper.  Span wrappers record
``[name, start, end, parent, attrs]`` in memory; the hot arithmetic
operators of t2forms and gca get counters and a per-module timer instead of
spans.  Self time is computed from the spans after the pass: a span's
duration minus its child spans and the operator time spent directly in it.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# span name -> (module, attribute path in that module)
SPANS = {
    "qlinalg.rref": ("qlinalg", "Matrix.rref"),
    "qlinalg.solve": ("qlinalg", "solve"),
    "qlinalg.rank_kernel": ("qlinalg", "rank_kernel"),
    "qlinalg.invert": ("qlinalg", "invert"),
    "qlinalg.det": ("qlinalg", "det"),
    "qlinalg.matmul": ("qlinalg", "Matrix.__mul__"),
    "mcdg.rep_to_mc": ("mcdg", "rep_to_mc"),
    "mcdg.straighten": ("mcdg", "straighten"),
    "mcdg.rep_extension": ("mcdg", "rep_extension"),
    "mcdg.extension_class": ("mcdg", "extension_class"),
    "mcdg.twisted_d": ("mcdg", "twisted_d"),
    "mcdg.mc_check": ("mcdg", "mc_check"),
    "mcdg.realize_mc": ("mcdg", "realize_mc"),
    "torus_rep.semisimplify": ("torus_rep", "semisimplify"),
    "torus_rep.cellular_complex": ("torus_rep", "cellular_complex"),
    "torus_rep.hom_rep": ("torus_rep", "hom_rep"),
    "torus_rep.parse_rep": ("torus_rep", "parse_rep"),
    "torus_rep.validate": ("torus_rep", "validate"),
    "torus_rep.intertwiner_space": ("torus_rep", "intertwiner_space"),
    "torus_rep.is_isomorphic": ("torus_rep", "is_isomorphic"),
    "cochain.betti": ("cochain", "TwistedComplex.betti"),
    "xmodel.twisted_invariants_complex": ("xmodel",
                                          "twisted_invariants_complex"),
    "xmodel.invariant_basis": ("xmodel", "invariant_basis"),
    "xmodel.nilpotent_model": ("xmodel", "nilpotent_model"),
    "xmodel.verify_chain_map": ("xmodel", "verify_chain_map"),
    "xmodel.compare_actions": ("xmodel", "compare_actions"),
    "cli.main": ("cli", "main"),
}

# counter name -> (module, attribute paths); operators are timed per module
_FORM_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")
_ELEMENT_OPS = _FORM_OPS + ("__rsub__",)
OPERATORS = {
    "t2forms.form_ops": ("t2forms", [f"{cls}.{op}" for cls in ("Form1", "Form2")
                                     for op in _FORM_OPS]),
    "gca.element_ops": ("gca", [f"Element.{op}" for op in _ELEMENT_OPS]),
}
COUNTERS = {
    "gca.enumerate_basis.calls": ("gca", "AlgebraPresentation.enumerate_basis"),
}


def _entry_bits(entries):
    return max((max(e.numerator.bit_length(), e.denominator.bit_length())
                for e in entries), default=0)


def _rref_attrs(args, kwargs, result):
    m = args[0]
    rows, pivots = result
    out_bits = _entry_bits(e for row in rows for e in row)
    return {"rows": m.rows, "cols": m.cols,
            "nnz": sum(1 for e in m.entries if e != 0),
            "pivots": len(pivots),
            "bits": max(_entry_bits(m.entries), out_bits)}


def _solve_attrs(args, kwargs, result):
    a = args[0]
    return {"rows": a.rows, "cols": a.cols, "inconsistent": result is None}


def _iso_attrs(args, kwargs, result):
    return {"status": result.status}


def _complex_attrs(args, kwargs, result):
    return {"dims": sum(len(labels) for labels in result.basis.values())}


PROBES = {
    "qlinalg.rref": _rref_attrs,
    "qlinalg.solve": _solve_attrs,
    "torus_rep.is_isomorphic": _iso_attrs,
    "xmodel.twisted_invariants_complex": _complex_attrs,
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """One traced pass: install on freshly imported t2mc modules, run, read."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_stack = []
        self.counts = {name: 0 for name in list(OPERATORS) + list(COUNTERS)}
        self.op_self = {module: 0.0 for module, _ in OPERATORS.values()}
        self.wrapped = {}  # id of the original function -> wrapper
        self.probe_s = 0.0

    # -- installation ---------------------------------------------------------

    def install(self, package):
        """Wrap every traced function wherever a t2mc namespace binds it:
        the package, its modules, and the classes they define."""
        modules = {name[len("t2mc."):]: module
                   for name, module in sys.modules.items()
                   if name.startswith("t2mc.")}
        for name, (mod, path) in SPANS.items():
            owner, attr = _resolve(modules[mod], path)
            original = getattr(owner, attr)
            if name == "qlinalg.matmul":
                self.wrapped[id(original)] = self._matmul_wrapper(
                    original, modules["qlinalg"].Matrix)
            else:
                self.wrapped[id(original)] = self._span_wrapper(
                    name, original, PROBES.get(name))
        for name, (mod, paths) in OPERATORS.items():
            for path in paths:
                owner, attr = _resolve(modules[mod], path)
                original = owner.__dict__[attr]
                self.wrapped[id(original)] = self._op_wrapper(name, mod,
                                                              original)
        for name, (mod, path) in COUNTERS.items():
            owner, attr = _resolve(modules[mod], path)
            original = getattr(owner, attr)
            self.wrapped[id(original)] = self._counter_wrapper(name,
                                                               original)
        namespaces = [package] + list(modules.values())
        namespaces += [value for module in modules.values()
                       for value in vars(module).values()
                       if isinstance(value, type)
                       and value.__module__.startswith("t2mc.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in self.wrapped:
                    setattr(ns, attr, self.wrapped[id(value)])

    def _span_wrapper(self, name, fn, probe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = perf_counter()
                stack.pop()
                record[4] = {"raised": type(exc).__name__}
                raise
            record[2] = perf_counter()
            stack.pop()
            if probe is not None:
                record[4] = probe(args, kwargs, result)
                # the probe's own time is tracer overhead, not parent work
                if record[3] >= 0:
                    elapsed = perf_counter() - record[2]
                    self.probe_s += elapsed
                    spans[record[3]][5] += elapsed
            return result

        return wrapper

    def _matmul_wrapper(self, fn, matrix_type):
        span = self._span_wrapper("qlinalg.matmul", fn, None)

        @functools.wraps(fn)
        def wrapper(self_, other):
            if isinstance(other, matrix_type):
                return span(self_, other)
            return fn(self_, other)

        return wrapper

    def _op_wrapper(self, counter, module, fn):
        counts, op_stack, op_self = self.counts, self.op_stack, self.op_self
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            counts[counter] += 1
            if op_stack and op_stack[-1][0] == module:
                return fn(*args)
            frame = [module, 0.0]
            op_stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                op_stack.pop()
                op_self[module] += elapsed - frame[1]
                if op_stack:
                    op_stack[-1][1] += elapsed
                elif stack:
                    spans[stack[-1]][5] += elapsed

        return wrapper

    def _counter_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reading ----------------------------------------------------------------

    def self_times(self):
        """Self seconds per span name, and the total wall time of root spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in SPANS}
        root = 0.0
        for idx, (name, start, end, parent, _, excluded) in enumerate(
                self.spans):
            out[name] += (end - start) - child[idx] - excluded
            if parent < 0:
                root += end - start
        return out, root

    def layer_metrics(self, report_bytes):
        """Deterministic counts and self times of one traced pass."""
        spans = self.spans
        calls = {name: 0 for name in SPANS}
        for record in spans:
            calls[record[0]] += 1

        def attrs(name):
            return [r[4] for r in spans if r[0] == name and r[4] is not None]

        def has_ancestor(record, name):
            parent = record[3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        rref = attrs("qlinalg.rref")
        solve = attrs("qlinalg.solve")
        cells = sum(a["rows"] * a["cols"] for a in rref)
        rows = sum(a["rows"] for a in rref)
        nnz = sum(a["nnz"] for a in rref)
        pivots = sum(a["pivots"] for a in rref)
        rref_in_solve = sum(1 for r in spans if r[0] == "qlinalg.rref"
                            and has_ancestor(r, "qlinalg.solve"))
        straighten_solves = [r[4] for r in spans if r[0] == "qlinalg.solve"
                             and r[3] >= 0
                             and spans[r[3]][0] == "mcdg.straighten"]
        det_evals = sum(1 for r in spans if r[0] == "qlinalg.det" and r[3] >= 0
                        and spans[r[3]][0] == "torus_rep.is_isomorphic")
        counts = {f"{name}.calls": calls[name] for name in SPANS}
        counts.update({
            "qlinalg.rref.cells": cells,
            "qlinalg.rref.nnz": nnz,
            "qlinalg.rref.pivots": pivots,
            "qlinalg.rref.max_bits": max((a["bits"] for a in rref), default=0),
            "qlinalg.solve.max_rows": max((a["rows"] for a in solve),
                                          default=0),
            "qlinalg.solve.max_cols": max((a["cols"] for a in solve),
                                          default=0),
            "qlinalg.solve.inconsistent": sum(a["inconsistent"]
                                              for a in solve),
            "mcdg.straighten.failed": sum(
                1 for a in attrs("mcdg.straighten") if "raised" in a),
            "mcdg.straighten.system_rows": max(
                (a["rows"] for a in straighten_solves), default=0),
            "mcdg.straighten.system_cols": max(
                (a["cols"] for a in straighten_solves), default=0),
            "torus_rep.is_isomorphic.det_evals": det_evals,
            "torus_rep.is_isomorphic.inconclusive": sum(
                1 for a in attrs("torus_rep.is_isomorphic")
                if a.get("status") == "inconclusive"),
            "xmodel.complex_dims": sum(
                a["dims"] for a in attrs("xmodel.twisted_invariants_complex")),
            "cli.report_bytes": report_bytes,
        })
        counts.update(self.counts)
        ratios = {
            "qlinalg.rref.density": nnz / cells if cells else 0.0,
            "qlinalg.rref.rank_ratio": pivots / rows if rows else 0.0,
            "qlinalg.rref_per_solve": (rref_in_solve / calls["qlinalg.solve"]
                                       if calls["qlinalg.solve"] else 0.0),
        }
        self_s, root = self.self_times()
        times = {f"{name}.self_s": self_s[name] for name in SPANS}
        times.update({f"{module}.self_s": t for module, t in self.op_self.items()})
        accounted = (sum(self_s.values()) + sum(self.op_self.values())
                     + self.probe_s)
        return counts, ratios, times, root, accounted

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")
