"""The three workloads: what one pass runs, and how each item is checked.

Every item is timed from the moment it starts reading its inputs to the
moment the call into t2mc returns; the checks run afterwards, outside the
timed region.  t2mc is reached only through its public functions and
`t2mc.cli.main`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from inputs import GENERATORS, matmul

# sha256 of the `t2mc verify --out` report at default parameters.  The
# report is the behaviour gate: an optimisation must keep it byte-identical.
VERIFY_DIGEST = ("98278952c54c3961b2bbfda0e34fef09f29968892eebd0a6509fd4178"
                 "febbdd8")


def _cli(t2mc, argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = t2mc.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class Outcome:
    """The checked result of one item: ok, why not, and report size."""

    __slots__ = ("ok", "problem", "report_bytes")

    def __init__(self, problem=None, report_bytes=0):
        self.ok = problem is None
        self.problem = problem
        self.report_bytes = report_bytes


class Workload:
    """One workload: seeded inputs, a fixed item list, per-item checks.

    `reaches` names the spans a pass must enter and `avoids` those it must
    not; a traced run that misses either has lost a layer.
    """

    name = ""
    largest = ""
    reaches = ()
    avoids = ()

    def generate(self, seed, workdir):
        return GENERATORS[self.name](seed, workdir)

    def expectations(self, t2mc, items):
        """Reference values computed once per run, never timed."""
        return {}

    def run(self, t2mc, item):
        raise NotImplementedError

    def check(self, t2mc, item, result, expected) -> Outcome:
        raise NotImplementedError


_ELIMINATION = ("qlinalg.rref", "qlinalg.solve", "qlinalg.rank_kernel",
                "qlinalg.invert", "qlinalg.det", "qlinalg.matmul")
_PIPELINE = ("mcdg.rep_to_mc", "mcdg.straighten", "mcdg.rep_extension",
             "mcdg.extension_class", "mcdg.twisted_d", "mcdg.mc_check")


class Verify(Workload):
    name = "verify"
    largest = "verify"
    reaches = _ELIMINATION + _PIPELINE + (
        "mcdg.realize_mc", "torus_rep.semisimplify",
        "torus_rep.cellular_complex", "torus_rep.validate",
        "torus_rep.intertwiner_space", "torus_rep.is_isomorphic",
        "cochain.betti", "xmodel.twisted_invariants_complex",
        "xmodel.invariant_basis", "xmodel.nilpotent_model",
        "xmodel.verify_chain_map", "xmodel.compare_actions", "cli.main")

    def run(self, t2mc, item):
        return _cli(t2mc, ["verify", "--out", item["out"]])

    def check(self, t2mc, item, result, expected):
        code, stdout = result
        report = _read_bytes(item["out"])
        size = len(report) + len(stdout.encode())
        if code != 0:
            return Outcome(f"exit code {code}", size)
        digest = hashlib.sha256(report).hexdigest()
        if digest != VERIFY_DIGEST:
            return Outcome(f"report digest {digest}", size)
        return Outcome(None, size)


class JordanLadder(Workload):
    name = "jordan_ladder"
    largest = "unipotent6"
    reaches = _ELIMINATION + _PIPELINE + (
        "torus_rep.semisimplify", "torus_rep.cellular_complex",
        "torus_rep.parse_rep", "torus_rep.validate", "cochain.betti",
        "xmodel.twisted_invariants_complex", "xmodel.invariant_basis",
        "cli.main")
    avoids = ("torus_rep.hom_rep", "torus_rep.is_isomorphic")

    def run(self, t2mc, item):
        return _cli(t2mc, ["t2-cohomology", item["rep"], "--backend", "both",
                           "--bound", str(item["bound"]), "--out",
                           item["out"]])

    def check(self, t2mc, item, result, expected):
        code, stdout = result
        if code != 0:
            return Outcome(f"exit code {code}: {stdout.strip()}")
        report = _read_bytes(item["out"])
        size = len(report) + len(stdout.encode())
        payload = json.loads(report)
        cell, model = payload["betti_cellular"], payload["betti_model"]
        if item["unipotent"]:
            closed = [1, 2, 1]
        elif not item["trivial_character"]:
            closed = [0, 0, 0]
        else:
            closed = cell
        if not (cell == model == closed and payload["agree"]):
            return Outcome(f"betti cellular {cell} model {model} "
                           f"closed form {closed}", size)
        return Outcome(None, size)


class DenseHom(Workload):
    name = "dense_hom"
    largest = "hom6"
    reaches = ("qlinalg.rref", "qlinalg.rank_kernel", "qlinalg.invert",
               "qlinalg.det", "qlinalg.matmul", "torus_rep.cellular_complex",
               "torus_rep.hom_rep", "torus_rep.parse_rep",
               "torus_rep.validate", "torus_rep.intertwiner_space",
               "torus_rep.is_isomorphic", "cochain.betti", "cli.main")
    avoids = _PIPELINE + ("mcdg.realize_mc", "qlinalg.solve")

    def expectations(self, t2mc, items):
        """b0 = dim Hom_{Z^2}(V, W) and, by Poincare duality,
        b2 = dim Hom_{Z^2}(W, V)."""
        out = {}
        for item in items:
            if item["kind"] == "hom":
                v = t2mc.parse_rep(_read(item["v"]))
                w = t2mc.parse_rep(_read(item["w"]))
                out[item["name"]] = (
                    len(t2mc.torus_rep.intertwiner_space(v, w)),
                    len(t2mc.torus_rep.intertwiner_space(w, v)))
        return out

    def run(self, t2mc, item):
        v = t2mc.parse_rep(_read(item["v"]))
        w = t2mc.parse_rep(_read(item["w"]))
        if item["kind"] == "iso":
            return t2mc.is_isomorphic(v, w), v, w
        text = t2mc.torus_rep.rep_to_text(t2mc.hom_rep(v, w))
        with open(item["hom"], "w", encoding="utf-8") as fh:
            fh.write(text)
        return _cli(t2mc, ["t2-cohomology", item["hom"], "--backend",
                           "cellular", "--out", item["out"]])

    def check(self, t2mc, item, result, expected):
        if item["kind"] == "iso":
            res, v, w = result
            if res.status != item["expect"]:
                return Outcome(f"is_isomorphic: {res.status}")
            if res.conjugator is not None and not all(
                    matmul(res.conjugator.to_rows(), v.g(i).to_rows())
                    == matmul(w.g(i).to_rows(), res.conjugator.to_rows())
                    for i in (1, 2)):
                return Outcome("conjugator does not intertwine")
            return Outcome()
        code, stdout = result
        if code != 0:
            return Outcome(f"exit code {code}: {stdout.strip()}")
        report = _read_bytes(item["out"])
        size = len(report) + len(stdout.encode())
        b0, b2 = expected[item["name"]]
        betti = json.loads(report)["betti_cellular"]
        n = item["n"]
        # g2 is a polynomial in g1 with one Jordan block per eigenvalue, so
        # End(V) has dimension n
        if (b0, b2) != (n, n) or betti != [b0, b0 + b2, b2]:
            return Outcome(f"betti {betti}, intertwiners {b0} and {b2}, "
                           f"expected {n}", size)
        return Outcome(None, size)


WORKLOADS = {w.name: w for w in (Verify(), JordanLadder(), DenseHom())}
