import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import t2mc.xmodel as xmodel
from t2mc.cochain import ComplexError, TwistedComplex
from t2mc.errors import DomainError
from t2mc.mcdg import (HomElement, MCObject, NonConstantCoefficientsError,
                       SALGEBRA, fm_dt_parts, mc_to_s, rep_to_mc)
from t2mc.qlinalg import Matrix, in_lattice, invert
from t2mc.t2forms import build_local_system, sq
from t2mc.torus_rep import (TorusRep, cellular_complex, parse_rep,
                            unipotent_summand)
from t2mc.xmodel import (GENERIC, INDEPENDENT, MCInconsistentError,
                         ParameterSpec, build_total_model, build_torus_model, compare_actions,
                         invariant_basis, nilpotent_model,
                         recover_homotopy_action,
                         subalgebra_monomials, twisted_invariants_complex,
                         verify_chain_map)

VALUES = (2, 3, 5, 7)


def _conjugate(r, p):
    """The pair p^-1·g_i·p, in the basis given by the columns of p."""
    pinv = invert(p)
    return TorusRep(pinv * r.g1 * p, pinv * r.g2 * p)


def test_build_torus_model_shape():
    model = build_torus_model()
    assert [(g.name, g.degree, g.character) for g in model.pres.generators] \
        == [("s1", 1, (0, 0, 0, 0)), ("s2", 1, (0, 0, 0, 0))]
    assert all(g.differential.is_zero() or g.differential is None
               for g in model.pres.generators
               if g.differential is not None)


def test_build_total_model_differentials():
    m = build_total_model(GENERIC, "s1")
    pres = m.pres
    s1, s2 = pres.generator("s1"), pres.generator("s2")
    xb, yb, zb = (pres.generator("xb"), pres.generator("yb"),
                  pres.generator("zb"))
    ub = pres.generator("ub")
    assert pres.generator_spec("xb").differential == s1 * zb
    assert pres.generator_spec("wb").differential == s1 * xb * yb - s1 * s2 * ub
    assert pres.generator_spec("ub").differential == yb * zb
    m2 = build_total_model(GENERIC, "s2")
    assert m2.pres.generator_spec("xb").differential == \
        m2.pres.generator("s2") * m2.pres.generator("zb")


def test_build_total_model_d_square_status():
    s1 = build_total_model(GENERIC, "s1")
    s2 = build_total_model(GENERIC, "s2")
    assert s2.pres.d_square_defects == []
    assert s2.pres.check_d_square(8) == []
    assert [name for name, _ in s1.pres.d_square_defects] == ["wb"]
    defect = s1.pres.d_square_defects[0][1]
    pres = s1.pres
    expected = -(pres.generator("s1") * pres.generator("s2")
                 * pres.generator("yb") * pres.generator("zb"))
    assert defect == expected


def test_invariant_basis_generic_trivial_coefficients():
    model = build_total_model(GENERIC, "s2")
    trivial = [(Fraction(1), Fraction(1))]
    dims = [len(invariant_basis(model, trivial, n)) for n in range(4)]
    assert dims == [1, 2, 1, 0]


def test_invariant_basis_resonant_degree_six():
    pspec = ParameterSpec.generic([(1, 1, 0, 0), (0, 0, 1, 1)])
    model = build_total_model(pspec, "s2")
    basis = invariant_basis(model, [(0, 0, 0, 0)], 6)
    names = {model.pres.mono_str(m) for m, _ in basis}
    assert names == {"xb*yb", "yb*zb", "wb", "s1*ub", "s2*ub"}
    assert len(basis) == 5


def test_invariant_basis_independent_coefficient_is_empty():
    model = build_total_model(GENERIC, "s2")
    for n in range(7):
        assert invariant_basis(model, [INDEPENDENT] * 3, n) == []


def test_invariant_basis_vector_coefficients():
    pspec = ParameterSpec.generic([(1, 1, 1, 1)])
    model = build_total_model(pspec, "s2")
    # coefficient with character vector (-1,-1,-1,-1) pairs with wb
    basis = invariant_basis(model, [(-1, -1, -1, -1)], 6)
    names = {model.pres.mono_str(m) for m, _ in basis}
    assert "wb" in names


def test_invariant_basis_is_kept_per_model_and_returned_fresh():
    model = build_total_model(GENERIC, "s2")
    chars = [(-1, -1, -1, -1), (0, 0, 0, 0)]
    first = invariant_basis(model, chars, 6)
    expected = list(first)
    first.clear()
    first.append("junk")
    again = invariant_basis(model, chars, 6)
    assert again == expected and again is not first
    # another model, or other characters, get their own basis
    other = build_total_model(ParameterSpec.generic([(1, 1, 1, 1)]), "s2")
    assert invariant_basis(other, chars, 6) != expected
    assert invariant_basis(model, chars[1:], 6) != expected


def test_twisted_complex_untwisted():
    cx = twisted_invariants_complex(
        build_torus_model(), MCObject.semisimple([(1, 1)], ambient=SALGEBRA), 2)
    assert cx.betti(range(3)) == (1, 2, 1)


def _jordan3_rep(c, e, f, h):
    g1 = Matrix.from_rows([[c, e, h], [0, c, f], [0, 0, c]])
    return TorusRep(g1, Matrix.identity(3))


def test_twisted_complex_jordan3_over_torus_model():
    mc = mc_to_s(rep_to_mc(_jordan3_rep(1, 1, 1, 0)).mc)
    cx = twisted_invariants_complex(build_torus_model(), mc, 2)
    assert cx.betti(range(3)) == (1, 2, 1)
    assert cx.d_square_failures() == []


def test_twisted_complex_jordan3_over_total_model():
    mc = mc_to_s(rep_to_mc(_jordan3_rep(1, 1, 1, 0)).mc)
    cx = twisted_invariants_complex(build_total_model(GENERIC, "s2"), mc, 2)
    assert cx.betti(range(3)) == (1, 2, 1)


def test_twisted_complex_rejects_non_equivariant_twist():
    # a twist entry between different characters maps the invariant line of
    # coordinate 0 out of the invariant span
    eta = HomElement.linear(Matrix.from_rows([[0, 0], [1, 0]]),
                            Matrix.zero(2, 2))
    bad = MCObject(SALGEBRA, TorusRep.diagonal([(1, 1), (2, 1)]), eta,
                   [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))])
    with pytest.raises(MCInconsistentError):
        twisted_invariants_complex(build_torus_model(), bad, 2)


def test_twisted_complex_rejects_a_non_constant_twist():
    # an s-algebra twist reads m1·dt1 + m2·dt2 as m1·s1 + m2·s2; a
    # t-dependent entry has no such reading
    eta = HomElement.zero(2, 2, 1)
    eta[0][1] = sq(1, e1=1, mask=1)
    o = MCObject.semisimple([(1, 1), (1, 1)], eta, ambient=SALGEBRA)
    with pytest.raises(NonConstantCoefficientsError):
        twisted_invariants_complex(build_torus_model(), o, 2)


def test_betti_of_zero_differential():
    cx = TwistedComplex({0: ["a"], 1: ["b", "c"], 2: ["d"]},
                        {0: Matrix.zero(2, 1), 1: Matrix.zero(1, 2)})
    assert cx.betti(range(3)) == (1, 2, 1)


def test_euler_characteristic_matches_dimension_count():
    for rep in (TorusRep.trivial(2), TorusRep.character(2, 1)):
        mc = mc_to_s(rep_to_mc(rep).mc)
        cx = twisted_invariants_complex(build_torus_model(), mc, 2)
        dims = [cx.dim(n) for n in range(3)]
        b = cx.betti(range(3))
        assert (b[0] - b[1] + b[2]) == dims[0] - dims[1] + dims[2]


def test_euler_characteristic_zero_for_trivial_characters():
    # torus-model complexes with trivially-charactered coefficients have
    # dimensions (n, 2n, n), so the alternating sum vanishes
    reps = [TorusRep.trivial(3),
            TorusRep(Matrix.from_rows([[1, 2], [0, 1]]),
                     Matrix.from_rows([[1, 1], [0, 1]]))]
    for rep in reps:
        mc = mc_to_s(rep_to_mc(rep).mc)
        cx = twisted_invariants_complex(build_torus_model(), mc, 2)
        assert sum((-1) ** n * cx.dim(n) for n in cx.degrees()) == 0
        assert sum((-1) ** n * b for n, b in enumerate(cx.betti(range(3)))) == 0


def test_nilpotent_model_generic():
    nil = nilpotent_model(ParameterSpec.generic())
    assert nil.dims == (1, 2, 1, 0, 0, 0, 0, 0, 0)
    assert nil.betti == (1, 2, 1, 0, 0, 0, 0, 0, 0)


def test_nilpotent_model_resonant_matches_subalgebra():
    pspec = ParameterSpec.specialized(2, Fraction(1, 2), 3, Fraction(1, 3))
    nil = nilpotent_model(pspec)
    pres = nil.model.pres
    gens = [pres.generator("s1"), pres.generator("s2"),
            pres.generator("xb") * pres.generator("yb"),
            pres.generator("yb") * pres.generator("zb"),
            pres.generator("ub"), pres.generator("wb")]
    sub = subalgebra_monomials(pres, gens, 8)
    for n in range(9):
        inv = sorted(m for m, _ in invariant_basis(
            nil.model, [(Fraction(1), Fraction(1))], n))
        assert sorted(sub[n]) == inv


def test_nilpotent_model_minus_one_parameter():
    # a1 = -1 is an order-2 unit: invariance is decided by exponent parity
    pspec = ParameterSpec.specialized(-1, 1, 2, 3)
    model = build_total_model(pspec, "s2")
    assert invariant_basis(model, [(Fraction(1), Fraction(1))], 3) == []
    pspec2 = ParameterSpec.specialized(-1, 1, 1, 1)
    model2 = build_total_model(pspec2, "s2")
    names = {model2.pres.mono_str(m) for m, _ in invariant_basis(
        model2, [(Fraction(1), Fraction(1))], 6)}
    # xb*zb picks up (-1)^2 = 1; everything with a single a1-exponent flips sign
    assert names == {"xb*zb"}


def test_specialized_trivial_chars_match_the_relation_lattice():
    # a1^k b1^l a2^m b2^n = 1 exactly on these hand-written lattices; a1 = -1
    # has order 2
    rng = random.Random(73)
    for values, lattice in (
            ((2, Fraction(1, 2), 3, Fraction(1, 3)),
             [(1, 1, 0, 0), (0, 0, 1, 1)]),
            ((-1, 1, 2, 3), [(2, 0, 0, 0), (0, 1, 0, 0)])):
        pspec = ParameterSpec.specialized(*values)
        for _ in range(40):
            vec = tuple(rng.randint(-3, 3) for _ in range(4))
            assert pspec.is_trivial_char(vec) == in_lattice(lattice, vec)


def test_relations_reject_non_integer_entries():
    for relations in ([(Fraction(1, 2), 1, 0, 0)], [(1, 0, 0)],
                      [("x", 0, 0, 0)]):
        with pytest.raises(DomainError, match="integer 4-vectors"):
            ParameterSpec.generic(relations)
    assert ParameterSpec.generic([(Fraction(2), "1", 0, 0)]).relations == [
        (2, 1, 0, 0)]


def test_recover_homotopy_action_degree_three():
    pspec = ParameterSpec.specialized(*VALUES)
    rep = recover_homotopy_action(build_total_model(pspec, "s1"), 3)
    assert rep.g1.to_rows() == [[2, 0, -2], [0, 3, 0], [0, 0, 2]]
    assert rep.g2.to_rows() == [[5, 0, 0], [0, 7, 0], [0, 0, 5]]
    rep2 = recover_homotopy_action(build_total_model(pspec, "s2"), 3)
    assert rep2.g1.to_rows() == [[2, 0, 0], [0, 3, 0], [0, 0, 2]]
    assert rep2.g2.to_rows() == [[5, 0, -5], [0, 7, 0], [0, 0, 5]]


def test_recover_homotopy_action_degrees_five_and_six():
    pspec = ParameterSpec.specialized(*VALUES)
    model = build_total_model(pspec, "s2")
    rep5 = recover_homotopy_action(model, 5)
    assert rep5.g1.to_rows() == [[6]] and rep5.g2.to_rows() == [[35]]
    rep6 = recover_homotopy_action(model, 6)
    assert rep6.g1.to_rows() == [[6]] and rep6.g2.to_rows() == [[35]]


def _total_at(ls, variant):
    """The total model specialized at the parameters of `ls`."""
    return build_total_model(ParameterSpec.specialized(*ls.params), variant)


def test_verify_chain_map_variant_s2_all_pass():
    ls = build_local_system(*VALUES)
    report = verify_chain_map(ls, _total_at(ls, "s2"))
    assert report.ok
    assert report.failing_generators() == []
    assert all(r.ok for r in report.section_reports.values())


def test_verify_chain_map_variant_s1_fails_exactly_at_xb():
    ls = build_local_system(*VALUES)
    report = verify_chain_map(ls, _total_at(ls, "s1"))
    assert report.failing_generators() == ["xb"]
    xb = next(v for v in report.verdicts if v.name == "xb")
    assert xb.lhs == "dt1(z)"
    assert xb.rhs == "dt2(z)"
    # the sections themselves are fine under either variant
    assert all(r.ok for r in report.section_reports.values())


def test_verify_chain_map_variants_share_one_local_systems_reports():
    # both variants read one local system's section reports, built once;
    # the s1 variant still fails exactly at xb
    ls = build_local_system(*VALUES)
    s1 = verify_chain_map(ls, _total_at(ls, "s1"))
    s2 = verify_chain_map(ls, _total_at(ls, "s2"))
    assert s1.section_reports == s2.section_reports
    assert list(s1.section_reports) == ["x_prime", "w_prime", "y", "z", "u"]
    assert s1.failing_generators() == ["xb"] and s2.ok


def test_verify_chain_map_reports_belong_to_their_local_system(monkeypatch):
    import t2mc.xmodel as xmodel

    checked = []
    real = xmodel.is_global_section

    def is_global_section(ls, s):
        checked.append(ls)
        return real(ls, s)

    monkeypatch.setattr(xmodel, "is_global_section", is_global_section)
    first = build_local_system(*VALUES)
    second = build_local_system(Fraction(1, 2), 3, -2, Fraction(5, 3))
    reports = {}
    for ls in (first, second, first, second):
        reports[ls] = verify_chain_map(ls, _total_at(ls, "s2"))
    # each local system's five reports are checked on it, once
    assert checked == [first] * 5 + [second] * 5
    one, two = (reports[ls].section_reports for ls in (first, second))
    assert all(one[name] is not two[name] and one[name].ok and two[name].ok
               for name in one)


def test_verify_chain_map_w_identity_is_checked():
    # F(d(wb)) = d(w') holds under both variants (it does not involve xb's d)
    ls = build_local_system(*VALUES)
    for variant in ("s1", "s2"):
        report = verify_chain_map(ls, _total_at(ls, variant))
        wb = next(v for v in report.verdicts if v.name == "wb")
        assert wb.ok


def test_verify_chain_map_generic_rational_parameters():
    ls = build_local_system(Fraction(1, 2), 3, -2, Fraction(5, 3))
    report = verify_chain_map(ls, _total_at(ls, "s2"))
    assert report.ok


def test_compare_actions_pinned():
    ls = build_local_system(*VALUES)
    s2 = compare_actions(ls, 3, _total_at(ls, "s2"))
    assert s2.status == "isomorphic"
    assert s2.conjugator == Matrix.diagonal([-1, 1, 1])
    s1 = compare_actions(ls, 3, _total_at(ls, "s1"))
    assert s1.status == "not_isomorphic"
    assert s1.conjugator is None


def test_compare_actions_degree_five():
    ls = build_local_system(*VALUES)
    report = compare_actions(ls, 5, _total_at(ls, "s2"))
    assert report.status == "isomorphic"
    assert report.conjugator == Matrix.identity(1)


def test_chain_map_and_actions_reject_a_model_at_other_parameters():
    ls = build_local_system(*VALUES)
    for model in (build_total_model(GENERIC, "s2"),
                  build_total_model(ParameterSpec.specialized(2, 3, 5, 8),
                                    "s2")):
        with pytest.raises(DomainError, match="not specialized at"):
            verify_chain_map(ls, model)
        with pytest.raises(DomainError, match="not specialized at"):
            compare_actions(ls, 3, model)


def test_oracle_equivalence_randomized():
    # random commuting pairs: diagonal characters with repetitions, a random
    # strictly-upper twist on equal-character pairs, the second twist a
    # polynomial in the first; realized exactly, then optionally conjugated
    # so the pipeline has to triangularize
    from t2mc.mcdg import HomElement, MCObject as MC, realize_mc
    from t2mc.qlinalg import invert
    rng = random.Random(79)
    chars = [Fraction(1), Fraction(1), Fraction(2), Fraction(-1)]
    model = build_torus_model()
    for trial in range(8):
        n = rng.randint(2, 4)
        diag = [(rng.choice(chars), rng.choice(chars)) for _ in range(n)]
        f1 = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if diag[i] == diag[j]:
                    f1[i][j] = Fraction(rng.randint(-2, 2))
        m1 = Matrix.from_rows(f1)
        m2 = m1.scale(rng.randint(-2, 2)) + (m1 * m1).scale(
            rng.randint(-1, 1))
        mc = MC.semisimple(diag, HomElement.linear(m1, m2))
        rep = realize_mc(mc)
        if trial % 2:
            p_rows = [[Fraction(int(i == j)) for j in range(n)]
                      for i in range(n)]
            p_rows[0][n - 1] = Fraction(1)
            rep = _conjugate(rep, Matrix.from_rows(p_rows))
        cell = cellular_complex(rep).betti(range(3))
        out = mc_to_s(rep_to_mc(rep).mc)
        cx = twisted_invariants_complex(model, out, 2)
        assert cx.betti(range(3)) == cell


def test_oracle_equivalence_small_suite():
    reps = [
        TorusRep.trivial(1),
        TorusRep.character(2, 1),
        TorusRep.character(1, Fraction(1, 2)),
        _jordan3_rep(1, 1, 1, 0),
        _jordan3_rep(2, 3, 5, 7),
        TorusRep(Matrix.from_rows([[1, 1], [0, 1]]),
                 Matrix.from_rows([[1, -2], [0, 1]])),
    ]
    model = build_torus_model()
    for rep in reps:
        cell = cellular_complex(rep).betti(range(3))
        mc = mc_to_s(rep_to_mc(rep).mc)
        cx = twisted_invariants_complex(model, mc, 2)
        assert cx.betti(range(3)) == cell
        assert cx.d_square_failures() == []


# -- oracles for the model side: the direct constructions it replaced ---------

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def _reference_basis(model, coeff_chars, n):
    """Invariance decided afresh for every (monomial, coefficient)."""
    out = []
    for mono in model.pres.enumerate_basis(n):
        mchar = model.pres.mono_character(mono)
        for idx, coeff in enumerate(coeff_chars):
            if xmodel._coeff_invariant(model.pspec, mchar, coeff):
                out.append((mono, idx))
    return out


def _reference_complex(model, o, bound):
    """The twist as a matrix of model elements m1·s1 + m2·s2, one element
    product per (column, nonzero entry), d(mono) formed for every column."""
    m1, m2 = fm_dt_parts(o.eta)
    coeff_chars = list(o.characters)
    pres = model.pres
    s1, s2 = pres.generator("s1"), pres.generator("s2")
    eta_model = [[s1.scale(m1[(i, j)]) + s2.scale(m2[(i, j)])
                  for j in range(o.dim)] for i in range(o.dim)]
    bases = {n: _reference_basis(model, coeff_chars, n)
             for n in range(bound + 2)}
    index = {n: {key: pos for pos, key in enumerate(bases[n])}
             for n in bases}
    mats = {}
    for n in range(bound + 1):
        rows = [[Fraction(0)] * len(bases[n]) for _ in bases[n + 1]]
        for col, (mono, q) in enumerate(bases[n]):
            image = {}
            dmono = pres._d_mono(mono)
            for mm, c in dmono.coeffs.items():
                image[(mm, q)] = image.get((mm, q), Fraction(0)) + c
            mono_el = pres.mono_element(mono)
            for p in range(o.dim):
                entry = eta_model[p][q]
                if entry.is_zero():
                    continue
                for mm, c in (entry * mono_el).coeffs.items():
                    image[(mm, p)] = image.get((mm, p), Fraction(0)) + c
            for key, c in image.items():
                if c == 0:
                    continue
                if key not in index[n + 1]:
                    raise MCInconsistentError(
                        f"differential leaves the invariant span at degree "
                        f"{n}: {key}")
                rows[index[n + 1][key]][col] = c
        mats[n] = (Matrix.from_rows(rows) if rows and rows[0] else
                   Matrix(len(bases[n + 1]), len(bases[n]), []))
    labels = {n: [f"{pres.mono_str(mono)}@{idx}" for mono, idx in bases[n]]
              for n in bases}
    return labels, mats


def _outcome(build):
    """The labels and matrices of a complex, or the error it raised."""
    try:
        return build()
    except (MCInconsistentError, ComplexError) as exc:
        return type(exc), str(exc)


def _assert_matches_reference(model, o, bound):
    def ours():
        cx = twisted_invariants_complex(model, o, bound)
        return cx.basis, cx.d

    def reference():
        labels, mats = _reference_complex(model, o, bound)
        TwistedComplex(labels, mats)  # the D² check the constructor makes
        return labels, mats

    got = _outcome(ours)
    want = _outcome(reference)
    if isinstance(want[0], type):
        assert got == (MCInconsistentError, want[1])
    else:
        assert got == want
    for n in range(bound + 2):
        assert (invariant_basis(model, list(o.characters), n)
                == _reference_basis(model, list(o.characters), n))


def _jordan_ladder_reps(tmp_path):
    spec = importlib.util.spec_from_file_location("_bench_inputs",
                                                  BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(parse_rep(Path(item["rep"]).read_text()), item["bound"])
            for item in inputs.jordan_ladder_inputs(1, str(tmp_path))]


def test_torus_complexes_match_the_reference_on_jordan_ladder(tmp_path):
    model = build_torus_model()
    reps = _jordan_ladder_reps(tmp_path)
    assert len(reps) == 6
    for rep, bound in reps:
        for r in (rep, unipotent_summand(rep)):
            _assert_matches_reference(model, mc_to_s(
                rep_to_mc(r, bound=bound).mc), 2)


def test_torus_complexes_match_the_reference_on_seeded_twists():
    # constant nilpotent twists, m2 a polynomial in m1 so the pair commutes,
    # entries only between equal characters
    rng = random.Random(83)
    model = build_torus_model()
    for n in range(1, 7):
        for _ in range(3):
            chars = [rng.choice([(1, 1), (1, 1), (2, 1)]) for _ in range(n)]
            m1 = Matrix.from_rows(
                [[rng.randint(-3, 3) if j > i and chars[i] == chars[j] else 0
                  for j in range(n)] for i in range(n)])
            m2 = m1.scale(rng.randint(-2, 2)) + (m1 * m1).scale(
                rng.randint(-1, 1))
            o = MCObject.semisimple(chars, HomElement.linear(m1, m2),
                                    ambient=SALGEBRA)
            _assert_matches_reference(model, o, 2)
    # a twist entry between different characters leaves the invariant span
    eta = HomElement.linear(Matrix.from_rows([[0, 0], [1, 0]]),
                            Matrix.zero(2, 2))
    bad = MCObject(SALGEBRA, TorusRep.diagonal([(1, 1), (2, 1)]), eta,
                   [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))])
    _assert_matches_reference(model, bad, 2)


def test_total_complexes_match_the_reference_on_the_battery():
    from t2mc import cli

    mcs = [mc_to_s(rep_to_mc(cli._jordan3_rep(*t)).mc)
           for t in cli.ONE_GEN_TUPLES]
    mcs += [mc_to_s(rep_to_mc(cli._two_gen_rep(*t)).mc)
            for t in cli.TWO_GEN_TUPLES]
    assert len(mcs) == 10
    for pspec in (GENERIC, ParameterSpec.specialized(*VALUES)):
        for variant in ("s1", "s2"):
            model = build_total_model(pspec, variant)
            for mc in mcs:
                _assert_matches_reference(model, mc, 3)


def test_trivial_twist_matches_the_reference_at_bound_eight():
    trivial = MCObject.semisimple([(1, 1)], ambient=SALGEBRA)
    for pspec in (GENERIC, ParameterSpec.specialized(
            2, Fraction(1, 2), 3, Fraction(1, 3))):
        _assert_matches_reference(build_total_model(pspec), trivial, 8)


def test_models_of_a_kind_share_one_presentation():
    s2 = build_total_model(GENERIC, "s2").pres
    assert s2 is build_total_model(ParameterSpec.specialized(*VALUES),
                                   "s2").pres
    assert s2 is not build_total_model(GENERIC, "s1").pres
    assert build_torus_model().pres is build_torus_model().pres


def test_shared_differentials_match_a_fresh_presentation():
    for variant in (None, "s1", "s2"):
        shared = xmodel._presentation(variant)
        fresh = xmodel._presentation.__wrapped__(variant)
        assert fresh is not shared
        shared.check_d_square(8)
        for n in range(10):
            for m in shared.enumerate_basis(n):
                assert shared._d_mono(m) is shared._d_mono(m)
                assert shared._d_mono(m).coeffs == fresh._d_mono(m).coeffs


# -- each check once per object -----------------------------------------------

def test_a_second_d_square_check_multiplies_nothing(monkeypatch):
    mc = mc_to_s(rep_to_mc(_jordan3_rep(1, 1, 1, 0)).mc)
    cx = twisted_invariants_complex(build_total_model(GENERIC, "s2"), mc, 3)
    products = []
    real = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__",
                        lambda a, b: products.append(1) or real(a, b))
    first = cx.d_square_failures()
    assert first == [] and products == []
    first.append(0)  # a fresh list each time
    assert cx.d_square_failures() == [] and products == []
    # an unchecked complex multiplies its differentials on the first call
    unchecked = TwistedComplex(cx.basis, cx.d, check=False)
    assert unchecked.d_square_failures() == [] and products
    count = len(products)
    assert unchecked.d_square_failures() == [] and len(products) == count
