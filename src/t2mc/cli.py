"""Command-line surface: reproducible verification runs and computations.

Three subcommands:

* ``ssify FILE``          - semisimplify a representation file and print its
                            constant Maurer-Cartan normal form.
* ``t2-cohomology FILE``  - Betti numbers of H*(T^2, V) by the cellular
                            backend, the twisted-model backend, or both
                            (disagreement exits 4).
* ``verify``              - run the built-in verification battery of
                            reference values and the variant report.

All output is deterministic: fixed key order, fixed basis orders, rationals
as 'p/q' strings.  Exit codes: 0 ok, 2 input-domain error, 3 parse error,
4 internal cross-check mismatch.

``main`` builds its argument parser once per process, on the first call,
and can be called repeatedly in process; each call only parses its argv.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import CrossCheckError, DomainError, ParseError
from .gca import Element
from .mcdg import (HomElement, MCObject, build_extension, extension_iso,
                   fm_dt_parts, mc_to_s, rep_extension, rep_to_mc, twisted_d)
from .qlinalg import Matrix, frac, frac_str
from .t2forms import Form1, build_fiber_algebra, build_local_system
from .torus_rep import (TorusRep, cellular_complex, parse_rep,
                        unipotent_summand)
from .xmodel import (ParameterSpec, build_total_model, build_torus_model,
                     compare_actions, invariant_basis, nilpotent_model,
                     recover_homotopy_action, subalgebra_monomials,
                     twisted_invariants_complex, verify_chain_map)

SCHEMA_VERSION = 1
# error class -> exit code, matched in this order
_EXIT_CODES = {ParseError: 3, DomainError: 2, CrossCheckError: 4}


def matrix_json(m: Matrix):
    return [[frac_str(e) for e in m.row(i)] for i in range(m.rows)]


def element_json(e: Element):
    return repr(e).replace(" ", "")


def _parse_params(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ParseError("--params needs a1,b1,a2,b2")
    try:
        return tuple(frac(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad parameter value: {exc}") from exc


def _parse_relations(text: str):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ParseError(f"bad relation {chunk!r}")
        try:
            out.append(tuple(int(t) for t in chunk[1:-1].split(",")))
        except ValueError as exc:
            raise ParseError(f"bad relation {chunk!r}") from exc
    return out


def _parse_bound(text: str) -> int:
    try:
        bound = int(text)
    except ValueError:
        bound = -1
    if bound < 0:
        raise ParseError(f"--bound needs a nonnegative integer, not {text!r}")
    return bound


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _read_rep(path: str) -> TorusRep:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_rep(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def cmd_ssify(args) -> int:
    bound = _parse_bound(args.bound)
    result = rep_to_mc(_read_rep(args.rep_file), bound=bound)
    m1, m2 = fm_dt_parts(result.mc.eta)
    pres = build_torus_model().pres
    s1, s2 = pres.generator("s1"), pres.generator("s2")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "ssify",
        "input": args.rep_file,
        "characters": [[frac_str(c1), frac_str(c2)]
                       for c1, c2 in result.mc.characters],
        "eta_dt1": matrix_json(m1),
        "eta_dt2": matrix_json(m2),
        "eta_s": [[element_json(s1.scale(m1[(i, j)]) + s2.scale(m2[(i, j)]))
                   for j in range(m1.cols)] for i in range(m1.rows)],
    }
    _emit(payload, args.out)
    return 0


def _model_betti(rep: TorusRep, bound: int):
    """The model route's Betti numbers, from V_(1,1) alone: on a
    complement V' some g_i - 1 is invertible, so the Koszul complex of
    (g1 - 1, g2 - 1) on V' is the cone of an isomorphism, hence acyclic."""
    summand = unipotent_summand(rep)
    return _normal_form_betti(rep_to_mc(summand, bound=bound).mc)


def _normal_form_betti(mc: MCObject):
    """Betti numbers 0-2 of the twisted-invariants complex of a normal form."""
    cx = twisted_invariants_complex(build_torus_model(), mc_to_s(mc), 2)
    return cx.betti(range(3))


def cmd_t2_cohomology(args) -> int:
    bound = _parse_bound(args.bound)
    rep = _read_rep(args.rep_file)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "t2_cohomology",
        "input": args.rep_file,
        "backend": args.backend,
    }
    agree = True
    if args.backend in ("cellular", "both"):
        payload["betti_cellular"] = list(cellular_complex(rep).betti(range(3)))
    if args.backend in ("model", "both"):
        payload["betti_model"] = list(_model_betti(rep, bound))
    if args.backend == "both":
        agree = payload["betti_cellular"] == payload["betti_model"]
        payload["agree"] = agree
    _emit(payload, args.out)
    if not agree:
        raise CrossCheckError(
            "cellular and model Betti numbers disagree: cellular "
            f"{payload['betti_cellular']}, model {payload['betti_model']}")
    return 0


# -- the battery ----------------------------------------------------------------

ONE_GEN_TUPLES = ((2, 3, 5, 7), (1, 1, 1, 0), (1, 2, 3, 4),
                  (Fraction(1, 2), 1, 2, 3), (3, -1, 2, -2))
TWO_GEN_TUPLES = ((1, 2, 1, 3), (2, 1, 3, 1), (1, 1, 1, 1),
                  (Fraction(1, 2), 2, 2, 3), (-1, 3, 1, -2))


def _jordan3_rep(c, e, f, h) -> TorusRep:
    g1 = Matrix.from_rows([[c, e, h], [0, c, f], [0, 0, c]])
    return TorusRep(g1, Matrix.identity(3))


def _two_gen_rep(c1, e1, c2, e2) -> TorusRep:
    g1 = Matrix.from_rows([[c1, e1, 0], [0, c1, 0], [0, 0, c1]])
    g2 = Matrix.from_rows([[c2, 0, e2], [0, c2, 0], [0, 0, c2]])
    return TorusRep(g1, g2)


def _jordan3_expected_eta(c, e, f, h) -> Matrix:
    c, e, f, h = frac(c), frac(e), frac(f), frac(h)
    s = -1 / (c * c)
    return Matrix.from_rows([[0, s * c * e, s * (c * h - e * f / 2)],
                             [0, 0, s * c * f],
                             [0, 0, 0]])


def _normal_form_section(one_gen_mc, two_gen_mc):
    one_gen = []
    for (c, e, f, h) in ONE_GEN_TUPLES:
        m1, m2 = fm_dt_parts(one_gen_mc[(c, e, f, h)].eta)
        ok = (m1 == _jordan3_expected_eta(c, e, f, h)) and m2.is_zero()
        one_gen.append({"tuple": [frac_str(frac(t)) for t in (c, e, f, h)],
                   "eta_dt1": matrix_json(m1), "matches_formula": ok})
    two_gen = []
    for (c1, e1, c2, e2) in TWO_GEN_TUPLES:
        m1, m2 = fm_dt_parts(two_gen_mc[(c1, e1, c2, e2)].eta)
        expect1 = Matrix.from_rows([[0, -frac(e1) / frac(c1), 0],
                                    [0, 0, 0], [0, 0, 0]])
        expect2 = Matrix.from_rows([[0, 0, -frac(e2) / frac(c2)],
                                    [0, 0, 0], [0, 0, 0]])
        ok = m1 == expect1 and m2 == expect2
        two_gen.append({"tuple": [frac_str(frac(t)) for t in (c1, e1, c2, e2)],
                   "eta_dt1": matrix_json(m1), "eta_dt2": matrix_json(m2),
                   "matches_formula": ok})
    ok = all(r["matches_formula"] for r in one_gen + two_gen)
    return {"one_generator_family": one_gen, "two_generator_family": two_gen,
            "pass": ok}


def _iso_section():
    c, e = Fraction(2), Fraction(3)
    jordan = TorusRep(Matrix.from_rows([[c, e], [0, c]]), Matrix.identity(2))
    ext1 = rep_extension(jordan)
    mc = rep_to_mc(jordan).mc
    omega = HomElement([[mc.eta[0][1]]], 1)
    ext2 = build_extension(omega, MCObject.semisimple([(c, 1)]),
                           MCObject.semisimple([(c, 1)]))
    iso = extension_iso(ext1, ext2)
    entries = iso.map.entries
    expected = (repr(entries[0][0]) == "(1)"
                and repr(entries[0][1]) == "t1(3/2)"
                and entries[1][0].is_zero()
                and repr(entries[1][1]) == "(1)")
    cocycle = twisted_d(iso.map, ext1.total, ext2.total).is_zero()
    eye = HomElement.from_matrix(Matrix.identity(2))
    # over the commutative ring Q[t1, t2] a one-sided inverse is two-sided
    invertible = iso.map * (eye + eye - iso.map) == eye
    return {
        "map": [[repr(x) for x in row] for row in entries],
        "matches_reference": expected,
        "twisted_cocycle": cocycle,
        "invertible": invertible,
        "pass": expected and cocycle and invertible,
    }


def _integrity_section(chain_reports, m_s2):
    fiber_ok = not build_fiber_algebra().check_d_square(8)
    n_ok = not build_torus_model().pres.check_d_square(8)
    m_s1 = build_total_model(ParameterSpec.generic(), "s1")
    s2_ok = not m_s2.pres.check_d_square(8)
    s1_fail = m_s1.pres.check_d_square(8)
    s1_defects = [f"d(d({name})) = {ddg!r}"
                  for name, ddg in m_s1.pres.d_square_defects]
    # every variant's chain-map run reports on the same local system
    reports = next(iter(chain_reports.values())).section_reports
    x_rep, w_rep = reports["x_prime"], reports["w_prime"]
    consts = {name: reports[name].ok for name in ("y", "z", "u")}
    # the reference edge value of the x-section: both faces give -x
    alg = x_rep.edge_values[1].alg
    minus_x = x_rep.edge_values[1] == Form1.const(alg, -alg.generator("x"))
    return {
        "d_squared": {
            "fiber_algebra": fiber_ok,
            "torus_model": n_ok,
            "total_model_s2": s2_ok,
            "total_model_s1": not s1_fail,
            "total_model_s1_defects": s1_defects,
        },
        "face_maps_commute": True,
        "sections": {"x_prime": x_rep.ok, "w_prime": w_rep.ok, **consts},
        "x_prime_edge_value_is_minus_x": minus_x,
        "pass": (fiber_ok and n_ok and s2_ok and x_rep.ok and w_rep.ok
                 and all(consts.values()) and minus_x),
        "note_s1": "the s1 variant has a nonzero d-square on the degree-6 "
                   "generator; reported informationally",
    }


def _chain_map_section(chain_reports):
    out = {}
    for variant, rep in chain_reports.items():
        out[variant] = {
            "generators": {v.name: v.ok for v in rep.verdicts},
            "failing": rep.failing_generators(),
            "sections_ok": all(r.ok for r in rep.section_reports.values()),
        }
        if variant == "s1":
            xb = next(v for v in rep.verdicts if v.name == "xb")
            out[variant]["xb_lhs"] = xb.lhs
            out[variant]["xb_rhs"] = xb.rhs
    expectations = {"s1": ["xb"], "s2": []}
    out["pass"] = all(out[v]["failing"] == expectations[v]
                      and out[v]["sections_ok"] for v in chain_reports)
    return out


def _actions_section(ls, models):
    compared = {v: compare_actions(ls, 3, m) for v, m in models.items()}
    mono3 = next(iter(compared.values())).monodromy
    out = {"monodromy_deg3": {"g1": matrix_json(mono3.g1),
                              "g2": matrix_json(mono3.g2)}}
    for variant, cmp_ in compared.items():
        out[variant] = {
            "recovered_g1": matrix_json(cmp_.recovered.g1),
            "recovered_g2": matrix_json(cmp_.recovered.g2),
            "status": cmp_.status,
            "conjugator": (matrix_json(cmp_.conjugator)
                           if cmp_.conjugator is not None else None),
        }
    rec5 = recover_homotopy_action(list(models.values())[-1], 5)
    out["deg5_characters"] = [frac_str(rec5.g1[(0, 0)]),
                              frac_str(rec5.g2[(0, 0)])]
    expectations = {"s1": "not_isomorphic", "s2": "isomorphic"}
    out["pass"] = all(out[v]["status"] == expectations[v] for v in models)
    return out


def _oracle_section(one_gen_mc):
    trivial, character = TorusRep.trivial(1), TorusRep.character(2, 1)
    cases = [
        ("trivial", trivial, rep_to_mc(trivial).mc, (1, 2, 1)),
        ("character_2_1", character, rep_to_mc(character).mc, (0, 0, 0)),
        ("unipotent_3dim", _jordan3_rep(1, 1, 1, 0),
         one_gen_mc[(1, 1, 1, 0)], (1, 2, 1)),
    ]
    rows = []
    for name, rep, mc, expected in cases:
        cell = tuple(cellular_complex(rep).betti(range(3)))
        model = tuple(_normal_form_betti(mc))
        rows.append({"name": name, "cellular": list(cell),
                     "model": list(model), "expected": list(expected),
                     "agree": cell == model == expected})
    return {"cases": rows, "pass": all(r["agree"] for r in rows)}


def _nilpotent_section(gen):
    res = nilpotent_model(ParameterSpec.specialized(
        2, Fraction(1, 2), 3, Fraction(1, 3)))
    pres = res.model.pres
    sub_gens = [pres.generator("s1"), pres.generator("s2"),
                pres.generator("xb") * pres.generator("yb"),
                pres.generator("yb") * pres.generator("zb"),
                pres.generator("ub"), pres.generator("wb")]
    sub = subalgebra_monomials(pres, sub_gens, 8)
    inv = {n: sorted(m for m, _ in invariant_basis(
        res.model, [(Fraction(1), Fraction(1))], n)) for n in range(9)}
    sub_agree = all(sorted(sub[n]) == inv[n] for n in range(9))
    gen_ok = (gen.dims == (1, 2, 1, 0, 0, 0, 0, 0, 0)
              and gen.betti == (1, 2, 1, 0, 0, 0, 0, 0, 0))
    return {
        "generic_dims": list(gen.dims),
        "generic_betti": list(gen.betti),
        "resonant_dims": list(res.dims),
        "resonant_betti": list(res.betti),
        "resonant_bases": {str(n): res.bases[n] for n in sorted(res.bases)},
        "resonant_matches_subalgebra": sub_agree,
        "pass": gen_ok and sub_agree,
    }


def _x_complex_section(one_gen_mc, two_gen_mc, model):
    rows = []
    for (c, e, f, h) in ONE_GEN_TUPLES:
        mc = mc_to_s(one_gen_mc[(c, e, f, h)])
        cx = twisted_invariants_complex(model, mc, 3)
        entry = {"tuple": [frac_str(frac(t)) for t in (c, e, f, h)],
                 "d_squared_zero": not cx.d_square_failures()}
        if frac(c) == 1:
            betti = cx.betti(range(3))
            entry["betti_0_2"] = list(betti)
            cell = cellular_complex(_jordan3_rep(c, e, f, h))
            entry["oracle_agree"] = betti == cell.betti(range(3))
        rows.append(entry)
    two_gen_rows = []
    for (c1, e1, c2, e2) in TWO_GEN_TUPLES:
        mc = mc_to_s(two_gen_mc[(c1, e1, c2, e2)])
        cx = twisted_invariants_complex(model, mc, 3)
        two_gen_rows.append(
            {"tuple": [frac_str(frac(t)) for t in (c1, e1, c2, e2)],
             "d_squared_zero": not cx.d_square_failures()})
    # with e = f = h = 0 the twist vanishes and the complex is untwisted
    plain = mc_to_s(rep_to_mc(_jordan3_rep(1, 0, 0, 0)).mc)
    untwisted = plain.eta.is_zero()
    ok = (all(r["d_squared_zero"] for r in rows + two_gen_rows)
          and all(r.get("oracle_agree", True) for r in rows) and untwisted)
    return {"one_generator_family": rows, "two_generator_family": two_gen_rows,
            "zero_parameters_untwisted": untwisted, "pass": ok}


def _relations_section(relations, gen):
    """Declared relations only make more characters trivial, so every
    generic invariant stays invariant, degree by degree, and degree 0 is
    still spanned by the unit cocycle."""
    nil = nilpotent_model(ParameterSpec.generic(relations))
    contains = all(set(gen.bases[n]) <= set(nil.bases[n])
                   for n in gen.bases)
    return {
        "relations": [list(r) for r in relations],
        "dims": list(nil.dims),
        "betti": list(nil.betti),
        "pass": contains and nil.dims[0] == nil.betti[0] == 1,
    }


def build_verification_report(values, variants=("s1", "s2"),
                              relations=None) -> dict:
    # the normal forms of the two battery families, shared by three sections
    one_gen_mc = {t: rep_to_mc(_jordan3_rep(*t)).mc for t in ONE_GEN_TUPLES}
    two_gen_mc = {t: rep_to_mc(_two_gen_rep(*t)).mc for t in TWO_GEN_TUPLES}
    ls = build_local_system(*values)
    # each total model is built once, for every section that reads it
    models = {v: build_total_model(ParameterSpec.specialized(*ls.params), v)
              for v in variants}
    generic_s2 = build_total_model(ParameterSpec.generic(), "s2")
    chain_reports = {v: verify_chain_map(ls, m) for v, m in models.items()}
    generic = nilpotent_model(ParameterSpec.generic())
    sections = {
        "mc_normal_forms": _normal_form_section(one_gen_mc, two_gen_mc),
        "extension_isomorphism": _iso_section(),
        "model_integrity": _integrity_section(chain_reports, generic_s2),
        "chain_map": _chain_map_section(chain_reports),
        "action_comparison": _actions_section(ls, models),
        "betti_oracle": _oracle_section(one_gen_mc),
        "nilpotent_models": _nilpotent_section(generic),
        "x_complexes": _x_complex_section(one_gen_mc, two_gen_mc,
                                          generic_s2),
    }
    if relations:
        sections["declared_relations"] = _relations_section(relations,
                                                            generic)
    ok = all(sec["pass"] for sec in sections.values())
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "params": [frac_str(frac(v)) for v in values],
        "variants": list(variants),
        "sections": sections,
        "pass": ok,
    }


def cmd_verify(args) -> int:
    values = ((2, 3, 5, 7) if args.params is None
              else _parse_params(args.params))
    relations = (None if args.relations is None
                 else _parse_relations(args.relations))
    variants = (args.variant,) if args.variant else ("s1", "s2")
    report = build_verification_report(values, variants, relations)
    if args.out:  # an unwritable --out fails before any line is printed
        _emit(report, args.out)
    for name, sec in report["sections"].items():
        status = "ok" if sec["pass"] else "FAIL"
        print(f"[{status}] {name}")
        if name == "chain_map":
            for v in variants:
                print(f"       {v} failing generators: {sec[v]['failing']}")
        if name == "model_integrity":
            for defect in sec["d_squared"]["total_model_s1_defects"]:
                print(f"       s1 variant defect: {defect}")
        if name == "action_comparison":
            for v in variants:
                line = f"       {v}: {sec[v]['status']}"
                if sec[v]["conjugator"] is not None:
                    line += f" via {sec[v]['conjugator']}"
                print(line)
    print("overall:", "ok" if report["pass"] else "FAIL")
    if not args.out:
        _emit(report, None)
    return 0 if report["pass"] else 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first `main` call; `parse_args` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="t2mc",
        description="Exact computations with local systems on the torus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ssify = sub.add_parser("ssify", help="representation to its constant "
                                           "Maurer-Cartan normal form")
    p_ssify.add_argument("rep_file")
    # --bound is parsed by the commands, so a malformed value exits 3
    bound_help = ("polynomial degree bound for the straightening chains "
                  "(default 4)")
    p_ssify.add_argument("--bound", default="4", help=bound_help)
    p_ssify.add_argument("--out", default=None)
    p_ssify.set_defaults(func=cmd_ssify)

    p_coh = sub.add_parser("t2-cohomology",
                           help="Betti numbers of H*(T^2, V)")
    p_coh.add_argument("rep_file")
    p_coh.add_argument("--backend", choices=("cellular", "model", "both"),
                       default="both")
    p_coh.add_argument("--bound", default="4", help=bound_help)
    p_coh.add_argument("--out", default=None)
    p_coh.set_defaults(func=cmd_t2_cohomology)

    p_chk = sub.add_parser("verify",
                           help="run the built-in verification battery")
    # parsed by cmd_verify, so a malformed value exits 3 with its message
    p_chk.add_argument("--params", default=None, metavar="a1,b1,a2,b2",
                       help="the four parameters; a negative first one "
                            "needs the = form, --params=-1,2,3,4 (after a "
                            "space it is read as an option)")
    p_chk.add_argument("--relations", default=None,
                       metavar="'(k,l,m,n);...'")
    p_chk.add_argument("--variant", choices=("s1", "s2"), default=None,
                       help="restrict informational sections to one variant")
    p_chk.add_argument("--out", default=None)
    p_chk.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
