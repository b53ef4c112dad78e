"""Acceptance gate: every criterion prints one pass/fail line and asserts.

The representation suite uses upper-triangular commuting pairs of dimensions
1 to 4 with entries drawn from {1, -1, 2, -2, 3, 1/2}.
"""

import json
import time
from fractions import Fraction

from t2mc.cli import build_verification_report
from t2mc.mcdg import (HomElement, MCObject, build_extension,
                       fm_dt_parts, extension_iso, mc_to_s, realize_mc,
                       rep_extension, rep_to_mc, twisted_d)
from t2mc.qlinalg import Matrix, frac
from t2mc.t2forms import (Form1, build_local_system, constant_section, is_global_section,
                          section_w, section_x, build_fiber_algebra)
from t2mc.torus_rep import TorusRep, cellular_complex, is_isomorphic, validate
from t2mc.xmodel import (GENERIC, ParameterSpec, build_total_model,
                         build_torus_model, compare_actions,
                         invariant_basis, nilpotent_model,
                         subalgebra_monomials,
                         twisted_invariants_complex, verify_chain_map)


def _criterion(number, label, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def _rep(rows1, rows2=None):
    g1 = Matrix.from_rows(rows1)
    g2 = Matrix.from_rows(rows2) if rows2 is not None else Matrix.identity(
        g1.rows)
    return TorusRep(g1, g2)


def _jordan3(c, e, f, h):
    return _rep([[c, e, h], [0, c, f], [0, 0, c]])


def _two_gen(c1, e1, c2, e2):
    return _rep([[c1, e1, 0], [0, c1, 0], [0, 0, c1]],
                [[c2, 0, e2], [0, c2, 0], [0, 0, c2]])


H = Fraction(1, 2)

SUITE = [
    # dimension 1
    _rep([[1]]),
    _rep([[2]]),
    _rep([[1]], [[H]]),
    _rep([[-1]], [[3]]),
    _rep([[H]], [[H]]),
    # dimension 2
    _rep([[2, 3], [0, 2]]),
    _rep([[1, 1], [0, 1]]),
    _rep([[2, 1], [0, 1]]),
    _rep([[1, 1], [0, 1]], [[1, -2], [0, 1]]),
    _rep([[3, H], [0, 3]], [[-1, 0], [0, -1]]),
    _rep([[2, 1], [0, 1]], [[3, 0], [0, 3]]),
    # dimension 3
    _jordan3(2, 3, 1, -1),
    _jordan3(1, 1, 1, 0),
    _two_gen(1, 2, 1, 3),
    _two_gen(1, 1, 1, 1),
    _rep([[1, 1, 1], [0, 1, 1], [0, 0, 1]],
         [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
    _rep([[2, 0, 1], [0, 1, 0], [0, 0, 2]]),
    _rep([[1, 0, 0], [0, 2, 0], [0, 0, 3]],
         [[H, 0, 0], [0, -1, 0], [0, 0, 3]]),
    # dimension 4
    _rep([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
         [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
    _rep([[2, 2, 0, 0], [0, 2, 0, 0], [0, 0, 2, 2], [0, 0, 0, 2]],
         [[H, 0, H, 0], [0, H, 0, H], [0, 0, H, 0], [0, 0, 0, H]]),
    _rep([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
         [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, H, 0], [0, 0, 0, H]]),
    _rep([[1, 1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
    _rep([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
         [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
]

ONE_GEN_TUPLES = [(2, 3, 5, 7), (1, 1, 1, 0), (1, 2, 3, 4),
             (Fraction(1, 2), 1, 2, 3), (3, -1, 2, -2)]
TWO_GEN_TUPLES = [(1, 2, 1, 3), (2, 1, 3, 1), (1, 1, 1, 1),
             (Fraction(1, 2), 2, 2, 3), (-1, 3, 1, -2)]


def test_suite_is_valid():
    assert len(SUITE) >= 20
    for rep in SUITE:
        assert validate(rep).ok
        for i in range(rep.dim):
            for j in range(i):
                assert rep.g1[(i, j)] == 0 and rep.g2[(i, j)] == 0


def test_criterion_1_example_reproduction():
    start = time.monotonic()
    ok = True
    for (c, e, f, h) in ONE_GEN_TUPLES:
        c, e, f, h = frac(c), frac(e), frac(f), frac(h)
        m1, m2 = fm_dt_parts(rep_to_mc(_jordan3(c, e, f, h)).mc.eta)
        s = -1 / c ** 2
        expected = Matrix.from_rows([[0, s * c * e, s * (c * h - e * f / 2)],
                                     [0, 0, s * c * f], [0, 0, 0]])
        ok = ok and m1 == expected and m2.is_zero()
    for (c, e) in [(2, 3), (1, 1), (3, -2), (Fraction(1, 2), 1), (-1, 2)]:
        c, e = frac(c), frac(e)
        m1, m2 = fm_dt_parts(rep_to_mc(_rep([[c, e], [0, c]])).mc.eta)
        ok = ok and m1 == Matrix.from_rows([[0, -e / c], [0, 0]]) \
            and m2.is_zero()
    for (c1, e1, c2, e2) in TWO_GEN_TUPLES:
        c1, e1, c2, e2 = frac(c1), frac(e1), frac(c2), frac(e2)
        m1, m2 = fm_dt_parts(rep_to_mc(_two_gen(c1, e1, c2, e2)).mc.eta)
        ok = (ok and m1 == Matrix.from_rows(
            [[0, -e1 / c1, 0], [0, 0, 0], [0, 0, 0]])
            and m2 == Matrix.from_rows(
                [[0, 0, -e2 / c2], [0, 0, 0], [0, 0, 0]]))
    # the extension isomorphism [[1, (e/c) t1], [0, 1]]
    c, e = Fraction(2), Fraction(3)
    v1 = _rep([[c, e], [0, c]])
    ext1 = rep_extension(v1)
    mc = rep_to_mc(v1).mc
    omega = HomElement([[mc.eta[0][1]]], 1)
    chi = MCObject.semisimple([(c, 1)])
    ext2 = build_extension(omega, chi, chi)
    iso = extension_iso(ext1, ext2)
    from t2mc.t2forms import sq
    ok = ok and iso.map.entries[0][1] == sq(e / c, e1=1)
    ok = ok and iso.map.entries[0][0] == sq(1)
    ok = ok and twisted_d(iso.map, ext1.total, ext2.total).is_zero()
    eye = HomElement.from_matrix(Matrix.identity(2))
    ok = ok and iso.map * (eye + eye - iso.map) == eye
    elapsed = time.monotonic() - start
    _criterion(1, f"normal forms and extension isomorphism exact "
                  f"({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_2_oracle_equivalence():
    start = time.monotonic()
    model = build_torus_model()
    ok = True
    for rep in SUITE:
        cell = cellular_complex(rep).betti(range(3))
        mc = mc_to_s(rep_to_mc(rep).mc)
        cx = twisted_invariants_complex(model, mc, 2)
        ok = ok and cx.betti(range(3)) == cell
    ok = ok and cellular_complex(_rep([[1]])).betti(range(3)) == (1, 2, 1)
    ok = ok and cellular_complex(_rep([[2]])).betti(range(3)) == (0, 0, 0)
    ok = ok and cellular_complex(_jordan3(1, 1, 1, 0)).betti(range(3)) == (1, 2, 1)
    elapsed = time.monotonic() - start
    _criterion(2, f"cellular and twisted-model Betti agree on "
                  f"{len(SUITE)} representations ({elapsed:.2f}s < 10s)",
               ok and elapsed < 10.0)


def test_criterion_3_realization_roundtrip():
    ok = True
    for rep in SUITE:
        result = rep_to_mc(rep)
        realized = realize_mc(result.mc)
        ok = ok and realized.g1 * realized.g2 == realized.g2 * realized.g1
        ok = ok and is_isomorphic(rep, realized).status == "isomorphic"
    _criterion(3, "realization of the MC normal form is isomorphic to the "
                  "input and commutes", ok)


def test_criterion_4a_d_square_fiber_torus_and_s2_models():
    ok = (build_fiber_algebra().check_d_square(8) == []
          and build_torus_model().pres.check_d_square(8) == []
          and build_total_model(GENERIC, "s2").pres.check_d_square(8) == [])
    _criterion("4a", "d² = 0 for the fiber algebra, the torus model and the "
                     "s2-variant total model through degree 9", ok)


def test_criterion_4b_d_square_s1_variant():
    # stated requirement: both variants have d² = 0.  The s1 variant does
    # not: d(d(wb)) = -s1*s2*yb*zb survives in degree 8, under any Leibniz
    # convention.  The check is implemented faithfully and fails.
    failures = build_total_model(GENERIC, "s1").pres.check_d_square(8)
    _criterion("4b", "d² = 0 for the s1-variant total model through degree 9",
               failures == [])


def test_criterion_4c_local_system_integrity():
    ls = build_local_system(2, 3, 5, 7)
    ok = True
    from t2mc.t2forms import Form2
    for i in (1, 2):
        for g in ls.alg.generators:
            gen = ls.alg.generator(g.name)
            ok = ok and (ls.apply_face(i, 0, Form2.const(ls.alg, gen.d()))
                         == ls.apply_face(i, 0, Form2.const(ls.alg, gen)).d())
            ok = ok and (ls.apply_edge(i, 0, Form1.const(ls.alg, gen.d()))
                         == ls.apply_edge(i, 0,
                                          Form1.const(ls.alg, gen)).d())
    x_report = is_global_section(ls, section_x(ls))
    w_report = is_global_section(ls, section_w(ls))
    ok = ok and x_report.ok and w_report.ok
    for name in ("y", "z", "u"):
        ok = ok and is_global_section(ls, constant_section(ls, name)).ok
    # the displayed boundary computation: both faces of the x-section on
    # edge 1 equal -x
    minus_x = Form1.const(ls.alg, -ls.alg.generator("x"))
    ok = ok and x_report.edge_values[1] == minus_x
    _criterion("4c", "face maps commute with d; x' and w' are global "
                     "sections with the displayed edge value", ok)


def test_criterion_5_discrepancy_detection():
    ls = build_local_system(2, 3, 5, 7)
    pspec = ParameterSpec.specialized(*ls.params)
    m_s1 = build_total_model(pspec, "s1")
    m_s2 = build_total_model(pspec, "s2")
    s1 = verify_chain_map(ls, m_s1)
    s2 = verify_chain_map(ls, m_s2)
    xb = next(v for v in s1.verdicts if v.name == "xb")
    wb = next(v for v in s2.verdicts if v.name == "wb")
    ok = (s1.failing_generators() == ["xb"]
          and xb.lhs == "dt1(z)" and xb.rhs == "dt2(z)"
          and s2.failing_generators() == []
          and wb.ok)
    cmp_s2 = compare_actions(ls, 3, m_s2)
    cmp_s1 = compare_actions(ls, 3, m_s1)
    ok = (ok and cmp_s2.status == "isomorphic"
          and cmp_s2.conjugator == Matrix.diagonal([-1, 1, 1])
          and cmp_s1.status == "not_isomorphic")
    _criterion(5, "s1 fails exactly at xb, s2 passes everywhere; the "
                  "degree-3 actions compare as expected", ok)


def test_criterion_6_nilpotent_models():
    start = time.monotonic()
    gen = nilpotent_model(ParameterSpec.generic())
    ok = (gen.dims == (1, 2, 1, 0, 0, 0, 0, 0, 0)
          and gen.betti == (1, 2, 1, 0, 0, 0, 0, 0, 0))
    pspec = ParameterSpec.specialized(2, Fraction(1, 2), 3, Fraction(1, 3))
    res = nilpotent_model(pspec)
    pres = res.model.pres
    gens = [pres.generator("s1"), pres.generator("s2"),
            pres.generator("xb") * pres.generator("yb"),
            pres.generator("yb") * pres.generator("zb"),
            pres.generator("ub"), pres.generator("wb")]
    sub = subalgebra_monomials(pres, gens, 8)
    for n in range(9):
        inv = sorted(m for m, _ in invariant_basis(
            res.model, [(Fraction(1), Fraction(1))], n))
        ok = ok and sorted(sub[n]) == inv
    elapsed = time.monotonic() - start
    _criterion(6, f"generic and resonant invariant subalgebras "
                  f"({elapsed:.2f}s < 10s)", ok and elapsed < 10.0)


def test_criterion_7_x_level_complexes():
    model = build_total_model(GENERIC, "s2")
    ok = True
    oracle_checked = False
    for (c, e, f, h) in ONE_GEN_TUPLES:
        mc = mc_to_s(rep_to_mc(_jordan3(c, e, f, h)).mc)
        cx = twisted_invariants_complex(model, mc, 3)
        ok = ok and cx.d_square_failures() == []
        if frac(c) == 1:
            cell = cellular_complex(_jordan3(c, e, f, h)).betti(range(3))
            ok = ok and cx.betti(range(3)) == cell == (1, 2, 1) \
                if (e, f, h) == (1, 1, 0) else ok and \
                cx.betti(range(3)) == cell
            oracle_checked = True
    for (c1, e1, c2, e2) in TWO_GEN_TUPLES:
        mc = mc_to_s(rep_to_mc(_two_gen(c1, e1, c2, e2)).mc)
        cx = twisted_invariants_complex(model, mc, 3)
        ok = ok and cx.d_square_failures() == []
    # with e = f = h = 0 the twist vanishes: the complex coincides with the
    # untwisted invariants complex
    plain_mc = mc_to_s(rep_to_mc(_jordan3(1, 0, 0, 0)).mc)
    untwisted = MCObject.semisimple(plain_mc.characters, ambient="salgebra")
    cx1 = twisted_invariants_complex(model, plain_mc, 3)
    cx2 = twisted_invariants_complex(model, untwisted, 3)
    ok = ok and all(cx1.d[n] == cx2.d[n] for n in cx1.d) \
        and cx1.basis == cx2.basis
    _criterion(7, "D² = 0 and D'² = 0 at 5 parameter tuples; degrees 0-2 "
                  "match the torus oracle; zero parameters give the "
                  "untwisted complex", ok and oracle_checked)


def test_criterion_8_determinism(tmp_path):
    r1 = build_verification_report((2, 3, 5, 7))
    r2 = build_verification_report((2, 3, 5, 7))
    b1 = json.dumps(r1, indent=2).encode()
    b2 = json.dumps(r2, indent=2).encode()
    _criterion(8, "two runs of the verification battery produce "
                  "byte-identical JSON", b1 == b2 and r1["pass"])
