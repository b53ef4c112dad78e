import hashlib
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import t2mc.mcdg as mcdg
from t2mc.errors import DomainError
from t2mc.gca import SCALAR_ALGEBRA, AlgebraPresentation
from t2mc.mcdg import (SALGEBRA, HomElement, MCObject, NoGammaAtBoundError,
                       NotEquivariantError, build_extension,
                       extension_class, fm_dt_parts, extension_iso, mc_check,
                       mc_to_s, realize_mc, rep_extension, rep_to_mc,
                       straighten, twisted_d)
from t2mc.qlinalg import Matrix, invert, rank, rank_kernel
from t2mc.t2forms import Form1, Form2, sq
from t2mc.torus_rep import TorusRep, is_isomorphic


def _conjugate(r, p):
    """The pair p^-1·g_i·p, in the basis given by the columns of p."""
    pinv = invert(p)
    return TorusRep(pinv * r.g1 * p, pinv * r.g2 * p)


def rep(rows1, rows2=None):
    g1 = Matrix.from_rows(rows1)
    g2 = Matrix.from_rows(rows2) if rows2 is not None else Matrix.identity(
        g1.rows)
    return TorusRep(g1, g2)


def jordan2_rep(c, e):
    return rep([[c, e], [0, c]])


def jordan3_rep(c, e, f, h):
    return rep([[c, e, h], [0, c, f], [0, 0, c]])


# a test-side exterior algebra on two degree-1 generators, the oracle the
# s-algebra twists are read in: m1·dt1 + m2·dt2 stands for m1·s1 + m2·s2
S_EXTERIOR = AlgebraPresentation(bound=2)
S_EXTERIOR.add_generator("s1", 1)
S_EXTERIOR.add_generator("s2", 1)
S_EXTERIOR.finalize()


def s_entries(eta):
    """The entries m1·s1 + m2·s2 of a constant twist, in S_EXTERIOR."""
    m1, m2 = fm_dt_parts(eta)
    s1, s2 = S_EXTERIOR.generator("s1"), S_EXTERIOR.generator("s2")
    return [[s1.scale(m1[(i, j)]) + s2.scale(m2[(i, j)])
             for j in range(m1.cols)] for i in range(m1.rows)]


def two_gen_rep(c1, e1, c2, e2):
    return rep([[c1, e1, 0], [0, c1, 0], [0, 0, c1]],
               [[c2, 0, e2], [0, c2, 0], [0, 0, c2]])


def jordan2_object(c, e):
    eta = HomElement.zero(2, 2, 1)
    eta[0][1] = sq(Fraction(-e, 1) / c, mask=1)
    return MCObject.semisimple([(c, 1), (c, 1)], eta)


# -- twisted differential ------------------------------------------------------

def test_twisted_d_untwisted_is_plain_d():
    triv = MCObject.semisimple([(1, 1)])
    f = HomElement([[sq(1, e1=2)]], 0)
    out = twisted_d(f, triv, triv)
    assert out.entries[0][0] == sq(2, e1=1, mask=1)
    assert out.degree == 1


def test_twisted_d_on_the_v1_isomorphism():
    c, e = Fraction(2), Fraction(3)
    phi = HomElement([[sq(1), sq(e / c, e1=1)], [sq(0), sq(1)]], 0)
    out = twisted_d(phi, jordan2_rep(c, e), jordan2_object(c, e))
    assert out.is_zero()


def test_twisted_d_quadratic_chain():
    c, e = Fraction(2), Fraction(3)
    chain = HomElement([[sq(1, e1=1) - sq(1, e1=2)], [sq(0)]], 0)
    out = twisted_d(chain, MCObject.semisimple([(c, 1)]), jordan2_object(c, e))
    assert out.entries[0][0] == sq(1, mask=1) - sq(2, e1=1, mask=1)
    assert out.entries[1][0].is_zero()


def test_twisted_d_squares_to_zero_random():
    rng = random.Random(61)
    c, e = Fraction(2), Fraction(3)
    endpoints = [
        (MCObject.semisimple([(c, 1)]), jordan2_object(c, e)),
        (jordan2_object(c, e), jordan2_object(c, e)),
        (MCObject.from_rep(jordan3_rep(2, 3, 5, 7)), jordan2_object(2, 3)),
    ]
    for src, dst in endpoints:
        for _ in range(6):
            deg = rng.choice([0, 1])
            entries = fm_zero(dst.dim, src.dim)
            for i in range(dst.dim):
                for j in range(src.dim):
                    if deg == 0:
                        entries[i][j] = sq(rng.randint(-3, 3),
                                           e1=rng.randint(0, 2),
                                           e2=rng.randint(0, 2))
                    else:
                        entries[i][j] = sq(rng.randint(-3, 3),
                                           e1=rng.randint(0, 2),
                                           mask=rng.choice([1, 2]))
            f = HomElement(entries, deg)
            ddf = twisted_d(twisted_d(f, src, dst), src, dst)
            assert ddf.is_zero()


# -- the list-of-lists oracle ---------------------------------------------------
#
# Form-matrix arithmetic on plain lists of rows, independent of `HomElement`:
# the oracle of its algebra and of the product routes below.

def fm_zero(rows, cols):
    return [[Form2.zero(SCALAR_ALGEBRA) for _ in range(cols)]
            for _ in range(rows)]


def fm_add(a, b):
    """Entrywise sum; a zero form on either side is not added."""
    return [[(x + y if x.terms else y) if y.terms else x
             for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fm_sub(a, b):
    """Entrywise difference of square- or interval-form matrices; a zero
    form on the right is not subtracted."""
    return [[x - y if y.terms else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def _accumulate(addends_by_row, cols, zero):
    """Rows of a form matrix from (column, form) addends, each entry summed
    in the order its addends come; entries with none are `zero`."""
    out = []
    for addends in addends_by_row:
        acc = [None] * cols
        for j, f in addends:
            acc[j] = f if acc[j] is None else acc[j] + f
        out.append([zero if f is None else f for f in acc])
    return out


def fm_mul(a, b):
    """Form-matrix product, row by row over nonzero forms only; each entry
    is summed over k in increasing order."""
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch in form-matrix product")
    return _accumulate(([(j, x * y) for x, b_row in zip(a_row, b) if x.terms
                         for j, y in enumerate(b_row) if y.terms]
                        for a_row in a),
                       len(b[0]) if b else 0, Form2.zero(SCALAR_ALGEBRA))


def fm_d(a):
    return [[x.d() for x in row] for row in a]


def fm_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def fm_eq(a, b):
    return (len(a) == len(b)
            and all(len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
                    for ra, rb in zip(a, b)))


# -- form-matrix products -----------------------------------------------------
#
# The interval-form route of the face conditions: restrict a square-form
# matrix to an edge, and multiply by rational matrices on either side.  The
# library checks these conditions on sparse coordinates; the tests keep this
# route as the independent oracle.

def fm_restrict(a, i, j):
    return [[x.restrict_edge(i, j) if x.terms else Form1.zero(SCALAR_ALGEBRA)
             for x in row] for row in a]


def f1m_scalar_mul(m: Matrix, a):
    """Rational matrix times interval-form matrix, over nonzeros only."""
    a_rows = [[(j, f) for j, f in enumerate(row) if f.terms] for row in a]
    return _accumulate(([(j, f if c == 1 else f.scale(c))
                         for k, c in m_row for j, f in a_rows[k]]
                        for m_row in m.sparse_rows()),
                       len(a[0]) if a else 0, Form1.zero(SCALAR_ALGEBRA))


def f1m_mul_scalar(a, m: Matrix):
    """Interval-form matrix times rational matrix, over nonzeros only."""
    m_rows = m.sparse_rows()
    return _accumulate(([(j, f if c == 1 else f.scale(c))
                         for f, m_row in zip(row, m_rows) if f.terms
                         for j, c in m_row]
                        for row in a),
                       m.cols, Form1.zero(SCALAR_ALGEBRA))


def _defects_by_products(f, src, dst):
    """The face defects of f by restriction and products: for each edge i,
    g_{3-i}(dst)·f|_{t_i-edge, 0}·g_{3-i}(src)^{-1} - f|_{t_i-edge, 1}."""
    defects = []
    for i in (1, 2):
        cross = 3 - i
        lhs = f1m_mul_scalar(
            f1m_scalar_mul(dst.base.g(cross), fm_restrict(f.entries, i, 0)),
            src.base.g_inv(cross))
        diff = fm_sub(lhs, fm_restrict(f.entries, i, 1))
        if not fm_is_zero(diff):
            defects.append((i, diff))
    return defects


def _random_square_form(rng):
    """Zero about a third of the time, else a few random square-form terms."""
    if rng.random() < 0.35:
        return Form2.zero(SCALAR_ALGEBRA)
    out = Form2.zero(SCALAR_ALGEBRA)
    for _ in range(rng.randint(1, 3)):
        out = out + sq(rng.randint(-3, 3), e1=rng.randint(0, 2),
                       e2=rng.randint(0, 2), mask=rng.choice([0, 0, 1, 2, 3]))
    return out


def _random_interval_form(rng):
    if rng.random() < 0.35:
        return Form1.zero(SCALAR_ALGEBRA)
    out = Form1.zero(SCALAR_ALGEBRA)
    for _ in range(rng.randint(1, 3)):
        out = out + Form1.monomial(SCALAR_ALGEBRA, rng.randint(-3, 3),
                                   e=rng.randint(0, 2), dt=rng.choice([0, 1]))
    return out


def _random_rational_matrix(rng, rows, cols):
    return Matrix(rows, cols, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               if rng.random() < 0.5 else 0
                               for _ in range(rows * cols)])


def _terms(matrix):
    """Every form's terms in insertion order, so order differences show."""
    return [[list(f.terms.items()) for f in row] for row in matrix]


def _dense_sum(zero, addends):
    acc = zero
    for x in addends:
        acc = acc + x
    return acc


def _dense_restrict(x, i, j):
    """Face substitution with every coefficient scaled by t_cross := 1 - j
    to its power."""
    value = Fraction(1 - j)
    cross_bit = 2 if i == 1 else 1
    out = {}
    for (mask, e1, e2), a in x.terms.items():
        if mask & cross_bit:
            continue
        par_e, cross_e = (e1, e2) if i == 1 else (e2, e1)
        coeff = a * value ** cross_e
        if not coeff:
            continue
        key = (1 if mask else 0, par_e, 0)
        out[key] = coeff if key not in out else out[key] + coeff
    return Form1(SCALAR_ALGEBRA, out)


def test_form_matrix_products_match_dense_reference():
    rng = random.Random(97)
    zero1 = Form1.zero(SCALAR_ALGEBRA)
    zero2 = Form2.zero(SCALAR_ALGEBRA)
    for _ in range(25):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        a = [[_random_square_form(rng) for _ in range(k)] for _ in range(n)]
        b = [[_random_square_form(rng) for _ in range(m)] for _ in range(k)]
        expected = [[_dense_sum(zero2, (a[i][kk] * b[kk][j]
                                        for kk in range(k)))
                     for j in range(m)] for i in range(n)]
        assert _terms(fm_mul(a, b)) == _terms(expected)
        for i in (1, 2):
            for j in (0, 1):
                assert _terms(fm_restrict(a, i, j)) == _terms(
                    [[_dense_restrict(x, i, j) for x in row] for row in a])
        f = [[_random_interval_form(rng) for _ in range(m)] for _ in range(k)]
        r = _random_rational_matrix(rng, n, k)
        expected = [[_dense_sum(zero1, (f[kk][j].scale(r[(i, kk)])
                                        for kk in range(k)))
                     for j in range(m)] for i in range(n)]
        assert _terms(f1m_scalar_mul(r, f)) == _terms(expected)
        r = _random_rational_matrix(rng, m, n)
        expected = [[_dense_sum(zero1, (f[i][kk].scale(r[(kk, j)])
                                        for kk in range(m)))
                     for j in range(n)] for i in range(k)]
        assert _terms(f1m_mul_scalar(f, r)) == _terms(expected)


def test_hom_element_algebra_matches_the_oracle():
    """+, -, *, d, is_zero and == of HomElement against the list-of-lists
    oracle, term for term, on seeded random form matrices."""
    rng = random.Random(103)
    seen = set()
    for _ in range(80):
        n, k, m = (rng.randint(0, 3) for _ in range(3))
        da, db = rng.choice([0, 1]), rng.choice([0, 1])
        a = [[_random_square_form(rng) for _ in range(k)] for _ in range(n)]
        b = [[_random_square_form(rng) for _ in range(k)] for _ in range(n)]
        c = [[_random_square_form(rng) for _ in range(m)] for _ in range(k)]
        if rng.random() < 0.2:
            a = fm_zero(n, k)
        ha, hb, hc = HomElement(a, da), HomElement(b, da), HomElement(c, db)
        for got, want, degree in (
                (ha + hb, fm_add(a, b), da),
                (ha - hb, fm_sub(a, b), da),
                (-ha, [[-x for x in row] for row in a], da),
                (ha * hc, fm_mul(a, c), da + db),
                (ha.d(), fm_d(a), da + 1)):
            assert _terms(got) == _terms(want)
            assert got.degree == degree
            assert got.shape() == (len(want), len(want[0]) if want else 0)
        assert ha.is_zero() == fm_is_zero(a)
        assert ha == HomElement([list(row) for row in a], da)
        assert (ha == hb) == fm_eq(a, b)
        assert ha != HomElement(a, 1 - da) and ha != a
        if n and k:
            edited = [list(row) for row in a]
            edited[0][0] = edited[0][0] + sq(1, e2=1)
            assert not fm_eq(a, edited) and ha != HomElement(edited, da)
            with pytest.raises(ValueError, match="shape mismatch"):
                ha * HomElement(fm_zero(k + 1, m), db)
            with pytest.raises(ValueError, match="shape mismatch"):
                fm_mul(a, fm_zero(k + 1, m))
        seen.update(key[0] for row in a + c for x in row for key in x.terms)
        seen.update(("zero entry" for row in a for x in row if not x.terms))
        seen.update(("empty",) if 0 in (n, k, m) else ())
    assert seen == {0, 1, 2, 3, "zero entry", "empty"}


def test_mcdg_has_one_form_matrix_type():
    assert {name for name in vars(mcdg) if name.startswith("fm_")} == {
        "fm_dt_parts"}


# -- MC checks -----------------------------------------------------------------

def test_mc_check_zero_twist():
    assert mc_check(MCObject.semisimple([(1, 1), (2, 5)])).ok


def test_mc_check_jordan3_normal_form():
    c, e, f, h = (Fraction(x) for x in (2, 3, 5, 7))
    s = -1 / c ** 2
    eta = HomElement.zero(3, 3, 1)
    eta[0][1] = sq(s * c * e, mask=1)
    eta[0][2] = sq(s * (c * h - e * f / 2), mask=1)
    eta[1][2] = sq(s * c * f, mask=1)
    assert mc_check(MCObject.semisimple([(c, 1)] * 3, eta)).ok


def test_mc_check_polynomial_entry_and_equivariance():
    eta = HomElement.zero(2, 2, 1)
    eta[0][1] = sq(1, e1=1, mask=1)  # t1 dt1
    same = MCObject.semisimple([(2, 3), (2, 3)], eta)
    assert mc_check(same).ok
    different = MCObject.semisimple([(2, 3), (2, 5)], eta)
    report = mc_check(different)
    assert not report.ok
    assert "equivariance" in report.failures


def test_mc_check_detects_broken_mc_equation():
    # t2(1-t2) dt1 is a global section but d of it is nonzero
    eta = HomElement.zero(1, 1, 1)
    eta[0][0] = sq(1, e2=1, mask=1) - sq(1, e2=2, mask=1)
    report = mc_check(MCObject.semisimple([(1, 1)], eta))
    assert not report.ok
    assert report.failures == ["mc_equation"]


def test_mc_check_salgebra_needs_constant_coefficients():
    # (1 - 2·t1) dt1 satisfies the MC equation and the face conditions, but
    # has no reading as m1·s1 + m2·s2; the same twist passes in forms
    eta = HomElement([[sq(1, mask=1) - sq(2, e1=1, mask=1)]], 1)
    report = mc_check(MCObject.semisimple([(1, 1)], eta, ambient=SALGEBRA))
    assert not report.ok
    assert report.failures == ["constant_coefficients"]
    assert mc_check(MCObject.semisimple([(1, 1)], eta)).ok


def _salgebra_check_reference(o):
    """The per-entry s-algebra check mc_check ran before it read every twist
    as square forms: nonzero entries of degree 1 between equal characters,
    and eta·eta = 0 in the exterior algebra, entry by entry."""
    from t2mc.mcdg import McReport

    failures = []
    n = o.dim
    eta = s_entries(o.eta)
    for i in range(n):
        for j in range(n):
            entry = eta[i][j]
            if not entry.is_zero():
                if entry.degree() != 1:
                    failures.append(f"entry_degree[{i}][{j}]")
                if o.characters[i] != o.characters[j]:
                    failures.append(f"equivariance[{i}][{j}]")
    for i in range(n):
        for j in range(n):
            acc = S_EXTERIOR.zero()
            for k in range(n):
                acc = acc + eta[i][k] * eta[k][j]
            if not acc.is_zero():
                failures.append(f"mc_equation[{i}][{j}]")
    return McReport(failures)


def _salgebra_twist(rng, chars, breaking):
    """A strictly upper-triangular s-algebra twist on `chars`.  Every
    nonzero entry is a multiple of one x = c1·s1 + c2·s2 with c1, c2 != 0,
    so eta·eta = 0; with `breaking` the (1, 2) entry is made independent of
    the (0, 1) one, so eta·eta != 0 at (0, 2)."""
    n = len(chars)
    c1, c2 = (rng.choice([-2, -1, 1, 3]) for _ in range(2))
    m1, m2 = ([[0] * n for _ in range(n)] for _ in range(2))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7 or (i, j) == (0, 1):
                scale = rng.choice([-3, -1, 1, 2])
                m1[i][j], m2[i][j] = scale * c1, scale * c2
    if breaking:
        m1[0][1], m2[0][1] = c1, c2
        m1[1][2], m2[1][2] = c1, c2 + 1
    eta = HomElement.linear(Matrix.from_rows(m1), Matrix.from_rows(m2))
    chars = [(Fraction(a), Fraction(b)) for a, b in chars]
    return MCObject(SALGEBRA, TorusRep.diagonal(chars), eta, chars)


def test_salgebra_mc_check_matches_the_per_entry_check():
    # the twists carry both s1 and s2 on each nonzero entry: an entry
    # c·s1 alone between characters that agree in g2 satisfies the face
    # conditions, which the per-entry check did not look at
    rng = random.Random(107)
    kinds = {"equal": 0, "unequal": 0, "breaking": 0}
    for kind in kinds:
        for _ in range(8):
            n = rng.randint(3, 4)
            if kind == "unequal":
                chars = [rng.choice([(1, 1), (2, 1), (1, 3)])
                         for _ in range(n)]
                chars[1] = (2, 3)  # unequal to every other character
            else:
                chars = [(rng.choice([1, 2]), 3)] * n
            o = _salgebra_twist(rng, chars, kind == "breaking")
            got, want = mc_check(o), _salgebra_check_reference(o)
            assert got.ok == want.ok == (kind == "equal")
            assert set(got.failures) <= {"mc_equation", "equivariance"}
            assert ("mc_equation" in got.failures) == (kind == "breaking")
            assert ("equivariance" in got.failures) == (kind == "unequal")
            kinds[kind] += 1
    assert kinds == {"equal": 8, "unequal": 8, "breaking": 8}


def test_mc_check_rejects_an_unknown_ambient():
    from t2mc.mcdg import AmbientMismatchError

    o = MCObject("other", TorusRep.trivial(1), HomElement.zero(1, 1, 1))
    with pytest.raises(AmbientMismatchError, match="unknown ambient"):
        mc_check(o)


# -- extensions ----------------------------------------------------------------

def test_build_extension_direct_sum():
    top = MCObject.semisimple([(2, 1)])
    bottom = MCObject.semisimple([(3, 1)])
    omega = HomElement.zero(1, 1, 1)
    ext = build_extension(omega, top, bottom)
    assert ext.total.eta.is_zero()
    assert ext.total.characters == [(2, 1), (3, 1)]


def test_build_extension_takes_forms_endpoints_only():
    from t2mc.mcdg import AmbientMismatchError

    forms = MCObject.semisimple([(2, 1)])
    s_alg = MCObject.semisimple([(2, 1)], ambient=SALGEBRA)
    omega = HomElement.zero(1, 1, 1)
    for top, bottom in ((forms, s_alg), (s_alg, forms), (s_alg, s_alg)):
        with pytest.raises(AmbientMismatchError, match="forms ambient"):
            build_extension(omega, top, bottom)


def test_build_extension_jordan2_normal_form():
    c, e = Fraction(2), Fraction(3)
    omega = HomElement([[sq(-e / c, mask=1)]], 1)
    chi = MCObject.semisimple([(c, 1)])
    ext = build_extension(omega, chi, chi)
    assert ext.total.eta[0][1] == sq(-e / c, mask=1)
    cls = extension_class(ext)
    assert cls.entries[0][0] == sq(-e / c, mask=1)


def test_build_extension_two_generator_block():
    c1, e1, c2, e2 = (Fraction(x) for x in (1, 2, 1, 3))
    top = MCObject.semisimple([(c1, c2)])
    bottom = MCObject.semisimple([(c1, c2), (c1, c2)])
    omega = HomElement([[sq(-e1 / c1, mask=1), sq(-e2 / c2, mask=2)]], 1)
    ext = build_extension(omega, top, bottom)
    assert ext.total.eta[0][1] == sq(-e1 / c1, mask=1)
    assert ext.total.eta[0][2] == sq(-e2 / c2, mask=2)
    assert mc_check(ext.total).ok


def test_extension_class_of_split_extension():
    ext = rep_extension(TorusRep.diagonal([(2, 1), (3, 1)]))
    assert extension_class(ext).is_zero()


def test_extension_class_recovers_omega_exactly():
    # [[1, -lam], [0, 1]] is the two-block realization of lam·dt1
    lam = Fraction(5, 2)
    ext = rep_extension(rep([[1, -lam], [0, 1]]))
    cls = extension_class(ext)
    assert cls.entries[0][0] == sq(lam, mask=1)


def test_extension_class_jordan3_over_jordan2():
    c, e, f, h = (Fraction(x) for x in (2, 3, 5, 7))
    ext = rep_extension(jordan3_rep(c, e, f, h))
    cls = extension_class(ext)
    s = -1 / c ** 2
    assert cls.entries[0][0] == sq(s * (c * h - e * f), mask=1)
    assert cls.entries[1][0] == sq(s * c * f, mask=1)


# -- comparing split extensions ---------------------------------------------------

def test_extension_iso_identical_extensions_give_identity():
    c, e = Fraction(2), Fraction(3)
    ext = rep_extension(jordan2_rep(c, e))
    result = extension_iso(ext, ext)
    assert result.map.entries[0][0] == sq(1)
    assert result.map.entries[1][1] == sq(1)
    assert result.map.entries[0][1].is_zero()
    assert result.map.entries[1][0].is_zero()
    assert result.gamma.is_zero()


def test_extension_iso_jordan2_to_normal_form():
    c, e = Fraction(2), Fraction(3)
    ext1 = rep_extension(jordan2_rep(c, e))
    mc = rep_to_mc(jordan2_rep(c, e)).mc
    omega = HomElement([[mc.eta[0][1]]], 1)
    chi = MCObject.semisimple([(c, 1)])
    ext2 = build_extension(omega, chi, chi)
    result = extension_iso(ext1, ext2)
    assert result.map.entries[0][0] == sq(1)
    assert result.map.entries[0][1] == sq(e / c, e1=1)
    assert result.map.entries[1][0].is_zero()
    assert result.map.entries[1][1] == sq(1)


def test_extension_iso_classes_differ():
    triv = MCObject.semisimple([(1, 1)])
    zero = HomElement.zero(1, 1, 1)
    dt1 = HomElement([[sq(1, mask=1)]], 1)
    ext0 = build_extension(zero, triv, triv)
    ext1 = build_extension(dt1, triv, triv)
    with pytest.raises(NoGammaAtBoundError) as info:
        extension_iso(ext0, ext1)
    assert info.value.classes_differ


def _splitting_maps(ext):
    """The block splitting of ext as form matrices, built from its corner:
    p = [id; 0], q = [0, id], alpha = [id, -psi] and beta = [psi; id]."""
    nt = ext.top.dim
    eye = HomElement.from_matrix(Matrix.identity(ext.total.dim))
    p = HomElement([row[:nt] for row in eye], 0)
    q = HomElement(eye[nt:], 0)
    alpha = HomElement([row[:nt] + corner
                        for row, corner in zip(eye, -ext.psi)], 0)
    beta = HomElement(ext.psi.entries + [row[nt:] for row in eye[nt:]], 0)
    return p, q, alpha, beta


def _iso_by_products(e1, e2, gamma):
    """p2·alpha1 + beta2·q1 - p2·gamma·q1 by form-matrix products."""
    p2, _, _, b2 = (m.entries for m in _splitting_maps(e2))
    _, q1, a1, _ = (m.entries for m in _splitting_maps(e1))
    return HomElement(fm_sub(fm_add(fm_mul(p2, a1), fm_mul(b2, q1)),
                             fm_mul(fm_mul(p2, gamma.entries), q1)), 0)


def _iso_pairs():
    c, e = Fraction(2), Fraction(3)
    # the pair of the verify report: J2 against its normal form
    mc = rep_to_mc(jordan2_rep(c, e)).mc
    chi = MCObject.semisimple([(c, 1)])
    yield (rep_extension(jordan2_rep(c, e)),
           build_extension(HomElement([[mc.eta[0][1]]], 1), chi, chi))
    # corners that are not linear in t: a pair and its conjugate by a
    # block unipotent, which moves the class by a coboundary
    general = rep([[1, 1, 1], [0, 1, 1], [0, 0, 1]],
                  [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    shear = Matrix.from_rows([[1, 0, 2], [0, 1, -1], [0, 0, 1]])
    yield (rep_extension(general),
           rep_extension(_conjugate(general, shear)))
    # twisted endpoints: omega and omega + d(h) for a constant section h
    top, bottom = jordan2_object(c, e), MCObject.semisimple([(c, 1)])
    omega = HomElement([[sq(1, mask=1)], [sq(0)]], 1)
    dh = twisted_d(HomElement([[sq(0)], [sq(1)]], 0), bottom, top)
    yield (build_extension(omega, top, bottom),
           build_extension(HomElement(fm_add(omega.entries, dh.entries), 1),
                           top, bottom))


def test_extension_iso_matches_the_product_formula():
    solved = 0
    for e1, e2 in _iso_pairs():
        result = extension_iso(e1, e2)
        assert result.map == _iso_by_products(e1, e2, result.gamma)
        assert result.map != HomElement.from_matrix(
            Matrix.identity(e1.total.dim))
        solved += not result.gamma.is_zero()
    assert solved >= 2


def test_extension_data_rejects_mismatched_dimensions():
    chi = MCObject.semisimple([(1, 1)])
    with pytest.raises(ValueError, match="dimension"):
        mcdg.ExtensionData(chi, chi, chi, HomElement.zero(1, 1))


# -- realization ------------------------------------------------------------------
# On one extension step realize_mc is the two-block realization: the constant
# class f1·dt1 + f2·dt2 from the last character to the others gives
# g_i = [[D_i, -D_i·f_i], [0, d_i]].

def _realized(chars, twist):
    """realize_mc of the semisimple object on `chars` twisted by the forms
    `twist`, {(row, column): form}."""
    eta = HomElement.zero(len(chars), len(chars), 1)
    for (i, j), form in twist.items():
        eta[i][j] = form
    return realize_mc(MCObject.semisimple(chars, eta))


def test_realize_rep_zero_class_is_block_diagonal():
    # J2 with eigenvalue 2 (its normal form twist) under a zero class
    r = _realized([(2, 1), (2, 1), (3, 1)],
                  {(0, 1): sq(Fraction(-1, 2), mask=1)})
    assert r.g1.to_rows() == [[2, 1, 0], [0, 2, 0], [0, 0, 3]]


def test_realize_rep_trivial_with_dt1_class():
    lam = Fraction(7)
    r = _realized([(1, 1), (1, 1)], {(0, 1): sq(lam, mask=1)})
    assert r.g1.to_rows() == [[1, -lam], [0, 1]]
    assert r.g2 == Matrix.identity(2)


def test_realize_rep_degree_three_action():
    a1, b1, a2, b2 = (Fraction(x) for x in (2, 3, 5, 7))
    r = _realized([(a1, a2), (b1, b2), (a1, a2)], {(0, 2): sq(1, mask=1)})
    assert r.g1.to_rows() == [[a1, 0, -a1], [0, b1, 0], [0, 0, a1]]
    assert r.g2.to_rows() == [[a2, 0, 0], [0, b2, 0], [0, 0, a2]]


def test_realize_rep_checks_equivariance():
    # a dt1 class between characters that differ in g2
    with pytest.raises(DomainError, match="equivariance"):
        _realized([(2, 1), (2, 5)], {(0, 1): sq(1, mask=1)})


def test_realized_pair_commutes_whenever_precondition_holds():
    # f_i's entries vanish unless the characters agree in g_{3-i}
    rng = random.Random(67)
    chars = [1, -1, 2, 3, Fraction(1, 2)]
    for _ in range(15):
        n = rng.randint(1, 3)
        top_chars = [(rng.choice(chars), rng.choice(chars)) for _ in range(n)]
        bot = (rng.choice(chars), rng.choice(chars))
        twist = {}
        for i, (c1, c2) in enumerate(top_chars):
            form = (sq(rng.randint(-2, 2) if c2 == bot[1] else 0, mask=1)
                    + sq(rng.randint(-2, 2) if c1 == bot[0] else 0, mask=2))
            if not form.is_zero():
                twist[(i, n)] = form
        r = _realized(top_chars + [bot], twist)
        assert r.g1 * r.g2 == r.g2 * r.g1


# The split-extension data (p, q, alpha, beta) of each builder, entry by
# entry, as recorded before the builders were merged into one; the four
# maps are built from the stored corner by `_splitting_maps`.
SPLITTING_PINS = {
    "fast": {
        "p": [["(1)", "0"], ["0", "(1)"], ["0", "0"]],
        "q": [["0", "0", "(1)"]],
        "alpha": [["(1)", "0", "t1(-1)"], ["0", "(1)", "t1(1)"]],
        "beta": [["t1(1)"], ["t1(-1)"], ["(1)"]],
    },
    "general": {
        "p": [["(1)", "0"], ["0", "(1)"], ["0", "0"]],
        "q": [["0", "0", "(1)"]],
        "alpha": [["(1)", "0", "t2(-1) + t1t2(-1)"],
                  ["0", "(1)", "t2(1) + t1(1)"]],
        "beta": [["t2(1) + t1t2(1)"], ["t2(-1) + t1(-1)"], ["(1)"]],
    },
    "realize": {
        "p": [["(1)", "0"], ["0", "(1)"], ["0", "0"]],
        "q": [["0", "0", "(1)"]],
        "alpha": [["(1)", "0", "t2(1/2) + t1(-1)"],
                  ["0", "(1)", "t2(-3) + t1(-2)"]],
        "beta": [["t2(-1/2) + t1(1)"], ["t2(3) + t1(2)"], ["(1)"]],
    },
    "build": {
        "p": [["(1)"], ["0"], ["0"]],
        "q": [["0", "(1)", "0"], ["0", "0", "(1)"]],
        "alpha": [["(1)", "0", "0"]],
        "beta": [["0", "0"], ["(1)", "0"], ["0", "(1)"]],
    },
}


def _splitting_for(case):
    if case == "fast":  # unipotent J3: the corner is linear in t
        return rep_extension(rep([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    if case == "general":  # the corner is not linear in t
        return rep_extension(rep([[1, 1, 1], [0, 1, 1], [0, 0, 1]],
                                 [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    if case == "realize":  # the two-block realization of t1·f1 + t2·f2
        # for f1 = (1, 2) and f2 = (-1/2, 3): the corner is linear in t
        return rep_extension(rep([[1, 0, -1], [0, 1, -2], [0, 0, 1]],
                                 [[1, 0, Fraction(1, 2)], [0, 1, -3],
                                  [0, 0, 1]]))
    omega = HomElement([[sq(-2, mask=1), sq(-3, mask=2)]], 1)
    return build_extension(omega, MCObject.semisimple([(1, 1)]),
                           MCObject.semisimple([(1, 1), (1, 1)]))


@pytest.mark.parametrize("case", sorted(SPLITTING_PINS))
def test_splitting_data_pinned(case, monkeypatch):
    solves = []
    real = mcdg._solve_sparse
    monkeypatch.setattr(mcdg, "_solve_sparse",
                        lambda *a: solves.append(1) or real(*a))
    ext = _splitting_for(case)
    got = {name: [[repr(x) for x in row] for row in m.entries]
           for name, m in zip(("p", "q", "alpha", "beta"),
                              _splitting_maps(ext))}
    assert got == SPLITTING_PINS[case]
    # every corner is written in closed form: no case solves a system
    assert solves == []


@pytest.mark.parametrize("case", ["fast", "general", "realize"])
def test_extension_validates_only_its_inputs(case, monkeypatch):
    import t2mc.torus_rep as torus_rep

    calls = []
    real = torus_rep.validate
    monkeypatch.setattr(torus_rep, "validate",
                        lambda r: calls.append(r.dim) or real(r))
    ext = _splitting_for(case)
    # rep_extension validates its input once; ExtensionData wraps its blocks
    # without re-checking them
    assert calls == [3]
    assert ext.total.dim == 3


CORNER_CHARACTERS = ((1, 1), (2, 1), (Fraction(1, 2), 3), (-1, -2))


def _seeded_triangular_pairs(seed, count):
    """Seeded upper triangular commuting pairs of dimension 2-7.  g1 has
    seeded integers above a diagonal of first components a of
    CORNER_CHARACTERS, one a throughout in about a third of them, and
    g2 = s·g1^k, k <= 3, s = 1 or a seeded scale, times p(g1) in about
    half of them, for p the cubic with p(a) = b on every character (a, b)."""
    rng = random.Random(seed)
    xs = [Fraction(a) for a, _ in CORNER_CHARACTERS]
    for _ in range(count):
        n = rng.randint(2, 7)
        diag = ([rng.choice(xs)] * n if rng.random() < 1 / 3
                else [rng.choice(xs) for _ in range(n)])
        g1 = Matrix.from_rows([[diag[i] if i == j else rng.randint(-2, 2)
                                * (j > i) for j in range(n)]
                               for i in range(n)])
        eye = Matrix.identity(n)
        g2 = eye.scale(rng.choice([1, 1, 2, Fraction(-1, 3)]))
        for _ in range(rng.randint(0, 3)):
            g2 = g2 * g1
        if rng.random() < 1 / 2:
            p = Matrix.zero(n, n)
            for a, b in CORNER_CHARACTERS:
                term = eye.scale(b)
                for x in xs:
                    if x != a:
                        term = term * (g1 - eye.scale(x)).scale(1 / (a - x))
                p = p + term
            g2 = g2 * p
        yield TorusRep(g1, g2)


def _linear_corner(r):
    """-t1·A1^-1·N1 - t2·A2^-1·N2 for g_c = [[A_c, N_c], [0, b_c]], the
    corner the fast path of earlier versions returned, when it applied:
    when A_c'·A_c^-1·N_c = b_c'·A_c^-1·N_c for c' the other generator (the
    corner is then a splitting); else None."""
    last = r.dim - 1
    blocks = [Matrix.from_rows([g.row(i)[:last] for i in range(last)])
              for g in (r.g1, r.g2)]
    h = [invert(a) * Matrix.from_rows([[g[(i, last)]] for i in range(last)])
         for a, g in zip(blocks, (r.g1, r.g2))]
    for c in (0, 1):
        if blocks[1 - c] * h[c] != h[c].scale(r.g(2 - c)[(last, last)]):
            return None
    return HomElement([[sq(-h[0][(p, 0)], e1=1) + sq(-h[1][(p, 0)], e2=1)]
                       for p in range(last)], 0)


def test_rep_extension_writes_every_corner_in_closed_form(monkeypatch):
    def no_system(*args):
        raise AssertionError("the splitting solved a linear system")

    monkeypatch.setattr(mcdg, "_solve_sparse", no_system)
    monkeypatch.setattr(mcdg, "solve", no_system)
    linear = one_character = 0
    for r in _seeded_triangular_pairs(71, 80):
        ext = rep_extension(r)  # validated: p, q and alpha pass
        assert (ext.top.dim, ext.bottom.dim) == (r.dim - 1, 1)
        if len({(r.g1[(i, i)], r.g2[(i, i)]) for i in range(r.dim)}) == 1:
            one_character += 1
            # one character: the corner is unique up to a constant, and
            # neither form has one
            expected = _linear_corner(r)
            if expected is not None:
                assert ext.psi == expected
                linear += 1
    assert one_character >= 20 and linear >= 10


def test_rep_extension_needs_an_upper_triangular_pair():
    # block upper triangular at the last entry, but not upper triangular
    with pytest.raises(DomainError, match="not upper triangular"):
        rep_extension(rep([[1, 1, 1], [1, 2, 0], [0, 0, 1]]))
    with pytest.raises(ValueError) as info:
        rep_extension(rep([[2]]))
    assert not isinstance(info.value, DomainError)


# -- the pipeline -------------------------------------------------------------------

def test_straighten_unipotent_j4_last_stage_pinned():
    # the last stage of rep_to_mc on the unipotent J4 at bound 4: the pushed
    # extension class of the fourth basis vector over the twisted J3 part
    partial_eta = HomElement.zero(3, 3, 1)
    partial_eta[0][1] = sq(-1, mask=1)
    partial_eta[0][2] = sq(Fraction(1, 2), mask=1)
    partial_eta[1][2] = sq(-1, mask=1)
    partial = MCObject.semisimple([(1, 1)] * 3, partial_eta)
    bottom = MCObject.semisimple([(1, 1)])
    omega = HomElement([[sq(-1, mask=1) + sq(Fraction(3, 2), e1=1, mask=1)
                         + sq(Fraction(-1, 2), e1=2, mask=1)],
                        [sq(1, mask=1) + sq(-1, e1=1, mask=1)],
                        [sq(-1, mask=1)]], 1)
    k1, k2, chain = straighten(omega, bottom, partial, 4)
    assert k1 == Matrix.from_rows([[Fraction(-1, 3)], [Fraction(1, 2)], [-1]])
    assert k2 == Matrix.zero(3, 1)
    expected = [[sq(Fraction(-2, 3), e1=1) + sq(1, e1=2)
                 + sq(Fraction(-1, 3), e1=3)],
                [sq(Fraction(1, 2), e1=1) + sq(Fraction(-1, 2), e1=2)],
                [Form2.zero(SCALAR_ALGEBRA)]]
    assert chain.degree == 0
    assert _terms(chain.entries) == _terms(expected)


def _random_triangular_pair(rng, n):
    """A commuting pair: g1 upper triangular with eigenvalues 1 and 2 (so
    mixed characters), g2 an invertible polynomial in g1, both conjugated
    by a product of n integer shears, which is unimodular."""
    g1 = Matrix.from_rows([[rng.choice((1, 2)) if i == j
                            else rng.randint(-2, 2) * (j > i)
                            for j in range(n)] for i in range(n)])
    while True:
        c = [rng.randint(-2, 2) for _ in range(3)]
        if all(c[0] + c[1] * lam + c[2] * lam * lam for lam in (1, 2)):
            break
    g2 = (Matrix.identity(n).scale(c[0]) + g1.scale(c[1])
          + (g1 * g1).scale(c[2]))
    p = Matrix.identity(n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        shear = Matrix.identity(n).to_rows()
        shear[i][j] = rng.choice((1, -1, 2, -2))
        p = p * Matrix.from_rows(shear)
    p_inv = invert(p)
    return TorusRep(p * g1 * p_inv, p * g2 * p_inv)


def _entry_solution(problem, x):
    """(k1, k2, chain form) of a 1 x 1 straighten block's solution x."""
    k1, k2 = fm_dt_parts(problem.assemble(x, "k"))
    return k1[(0, 0)], k2[(0, 0)], problem.assemble(x, "chain")[0][0]


def test_straighten_constant_part_is_unique(monkeypatch):
    # the fact straighten's entry-by-entry order rests on, on every block
    # rep_to_mc meets: each entry's unknowns (k and the chain without its
    # constant term on equal characters, the whole chain otherwise) have
    # independent images, so k and the chain are unique, and the closed
    # form is the block's one solution on every right side met; a block
    # depends only on (character ratio, bound)
    met = {}  # (ratio, bound) -> the right sides straightened
    real = mcdg._entry_primitive

    def primitive(terms, ratio, bound):
        met.setdefault((ratio, bound), []).append(dict(terms))
        return real(terms, ratio, bound)

    monkeypatch.setattr(mcdg, "_entry_primitive", primitive)
    rng = random.Random(5)
    for _ in range(40):
        rep_to_mc(_random_triangular_pair(rng, rng.randint(2, 5)))
    rep_to_mc(rep([[int(j in (i, i + 1)) for j in range(5)]
                   for i in range(5)]))
    unequal = 0
    for (ratio, bound), sides in met.items():
        problem = mcdg._straightening_problem(
            MCObject.semisimple([(1, 1)]), MCObject.semisimple([ratio]),
            bound)
        coords = sorted(set().union(*problem.images), key=repr)
        a = Matrix.from_rows([[img.get(c, 0) for img in problem.images]
                              for c in coords])
        assert rank(a) == a.cols == len(problem.vars)
        for terms in sides:
            x = mcdg._solve_sparse(problem.images, {
                ("eq", 0, 0, key): v for key, v in terms.items()})
            assert x is not None
            assert real(terms, ratio, bound) == _entry_solution(problem, x)
        unequal += ratio != (1, 1)
    assert len(met) >= 16 and unequal >= 6


def _pair_block(dst_char, src_char, bound):
    """The straighten entry block as built per character pair, and the
    columns of a left inverse P of it (the rows of I beside its pivots in
    [A | I] reduced): the oracle of the closed form."""
    from t2mc.qlinalg import _reduce

    problem = mcdg._straightening_problem(MCObject.semisimple([src_char]),
                                          MCObject.semisimple([dst_char]),
                                          bound)
    m, rows = len(problem.images), {}
    for j, img in enumerate(problem.images):
        for c, v in img.items():
            rows.setdefault(c, []).append((j, v))
    left, _ = _reduce([(*row, (m + i, Fraction(1)))
                       for i, row in enumerate(rows.values())], m + len(rows))
    return problem, {c: [(j, x) for j, row in enumerate(left[:m])
                         if (x := row.get(m + i))] for i, c in enumerate(rows)}


def _solvable_side(problem, rng):
    """The twisted differential part of A·x for a seeded x whose face
    defects vanish: a right side the 1 x 1 block `problem` solves."""
    coords = sorted({c for img in problem.images for c in img
                     if c[0] != "eq"}, key=repr)
    _, kernel = rank_kernel(Matrix.from_rows(
        [[img.get(c, 0) for img in problem.images] for c in coords]))
    weights = [rng.randint(-2, 2) for _ in kernel]
    x = [sum(w * v[j] for w, v in zip(weights, kernel))
         for j in range(len(problem.images))]
    side = {}
    for xj, img in zip(x, problem.images):
        for (tag, _, _, key), v in img.items():
            if tag == "eq":
                side[key] = side.get(key, 0) + xj * v
    return Form2(SCALAR_ALGEBRA, side)


def test_entry_block_by_ratio_matches_the_per_pair_block():
    # every pair of characters with ratio dst / src straightens alike: on a
    # right side its block solves, straighten on that 1 x 1 pair returns
    # x = P·rhs of the pair's own block, which solves it, and every pair
    # sharing the ratio returns the same (k, c) on the same right side
    rng, weights = random.Random(17), random.Random(19)
    values = [Fraction(v) for v in (1, -1, 2, -2, 3, "1/2", "-2/3")]
    steps = [Fraction(v) for v in (1, 1, -1, 2, "-1/3")]
    equal, pairs, sides = 0, {}, {}  # (ratio, bound) -> pairs, (rhs, out)
    for _ in range(30):
        src = (rng.choice(values), rng.choice(values))
        dst = tuple(c * rng.choice(steps) for c in src)
        bound = rng.choice((2, 4))
        ratio = tuple(a / b for a, b in zip(dst, src))
        problem, left = _pair_block(dst, src, bound)
        key = (ratio, bound)
        if key not in sides:
            sides[key] = (_solvable_side(problem, weights), None)
        rhs, shared = sides[key]
        x = [0] * len(problem.images)
        for k, v in rhs.terms.items():
            for j, a in left.get(("eq", 0, 0, k), ()):
                x[j] += a * v
        image = {}
        for xj, img in zip(x, problem.images):
            for c, v in img.items():
                image[c] = image.get(c, 0) + xj * v
        assert {c: v for c, v in image.items() if v} == {
            ("eq", 0, 0, k): v for k, v in rhs.terms.items()}
        k1, k2, chain = straighten(HomElement([[rhs]], 1),
                                   MCObject.semisimple([src]),
                                   MCObject.semisimple([dst]), bound)
        out = (k1[(0, 0)], k2[(0, 0)], chain[0][0])
        assert out == _entry_solution(problem, x)
        assert shared in (None, out)
        sides[key] = (rhs, out)
        equal += dst == src
        pairs.setdefault(key, set()).add((dst, src))
    shared = sum(len(met) > 1 for (ratio, _), met in pairs.items()
                 if ratio != (1, 1))
    assert equal >= 3 and 30 - equal >= 20 and shared >= 4
    assert sum(bool(rhs.terms) for rhs, _ in sides.values()) >= len(sides) - 2


def test_rep_to_mc_semisimple_input():
    mc = rep_to_mc(TorusRep.diagonal([(2, 1), (3, 5)])).mc
    assert mc.eta.is_zero()


def test_rep_to_mc_jordan3_pinned():
    res = rep_to_mc(jordan3_rep(2, 3, 5, 7))
    m1, m2 = fm_dt_parts(res.mc.eta)
    assert m1 == Matrix.from_rows([[0, Fraction(-3, 2), Fraction(-13, 8)],
                                   [0, 0, Fraction(-5, 2)],
                                   [0, 0, 0]])
    assert m2.is_zero()
    assert res.mc.characters == [(2, 1)] * 3


def test_rep_to_mc_jordan3_formula_random_parameters():
    rng = random.Random(71)
    for _ in range(6):
        c = rng.choice([1, 2, 3, Fraction(1, 2), -1])
        e, f, h = (Fraction(rng.randint(-4, 4)) for _ in range(3))
        res = rep_to_mc(jordan3_rep(c, e, f, h))
        m1, m2 = fm_dt_parts(res.mc.eta)
        s = Fraction(-1) / (Fraction(c) ** 2)
        expected = Matrix.from_rows(
            [[0, s * c * e, s * (c * h - e * f / 2)],
             [0, 0, s * c * f],
             [0, 0, 0]])
        assert m1 == expected and m2.is_zero()


def test_rep_to_mc_two_generator_pinned():
    res = rep_to_mc(two_gen_rep(1, 2, 1, 3))
    m1, m2 = fm_dt_parts(res.mc.eta)
    assert m1 == Matrix.from_rows([[0, -2, 0], [0, 0, 0], [0, 0, 0]])
    assert m2 == Matrix.from_rows([[0, 0, -3], [0, 0, 0], [0, 0, 0]])


def test_rep_to_mc_iso_is_certified():
    # the returned isomorphism is validated inside; spot-check the pinned one
    res = rep_to_mc(jordan2_rep(2, 3))
    assert res.iso.entries[0][1] == sq(Fraction(3, 2), e1=1)


def test_mc_to_s_pinned():
    # the s-algebra twist is the same HomElement under the salgebra label
    res = rep_to_mc(jordan3_rep(2, 3, 5, 7))
    out = mc_to_s(res.mc)
    assert out.ambient == SALGEBRA and isinstance(out.eta, HomElement)
    assert out.eta == res.mc.eta and out.characters == res.mc.characters
    m1, m2 = fm_dt_parts(out.eta)
    assert m1 == Matrix.from_rows([[0, Fraction(-3, 2), Fraction(-13, 8)],
                                   [0, 0, Fraction(-5, 2)], [0, 0, 0]])
    assert m2.is_zero()
    res5 = rep_to_mc(two_gen_rep(1, 2, 1, 3))
    out5 = mc_to_s(res5.mc)
    assert out5.eta == HomElement.linear(
        Matrix.from_rows([[0, -2, 0], [0, 0, 0], [0, 0, 0]]),
        Matrix.from_rows([[0, 0, -3], [0, 0, 0], [0, 0, 0]]))


def test_mc_to_s_zero():
    out = mc_to_s(MCObject.semisimple([(2, 1)]))
    assert out.eta == HomElement.zero(1, 1, 1)


def test_every_twist_is_a_hom_element():
    # one twist type: the s-algebra is a label, with no second matrix type
    for name in ("S_ALGEBRA", "s_element", "s_coefficients"):
        assert not hasattr(mcdg, name)
    assert not hasattr(MCObject, "eta_forms")
    for ambient in (mcdg.FORMS, SALGEBRA):
        o = MCObject.semisimple([(1, 1), (2, 1)], ambient=ambient)
        assert o.eta == HomElement.zero(2, 2, 1)


def test_mc_to_s_rejects_polynomial_entries():
    from t2mc.mcdg import NonConstantCoefficientsError
    eta = HomElement.zero(2, 2, 1)
    eta[0][1] = sq(1, e1=1, mask=1)
    o = MCObject.semisimple([(1, 1), (1, 1)], eta)
    with pytest.raises(NonConstantCoefficientsError):
        mc_to_s(o)


def _count_mc_checks(monkeypatch):
    calls, real = [], mcdg.mc_check
    monkeypatch.setattr(mcdg, "mc_check", lambda o: calls.append(o) or real(o))
    return calls


def test_mc_to_s_inherits_the_pipelines_check(monkeypatch):
    mc = rep_to_mc(jordan3_rep(2, 3, 5, 7)).mc
    calls = _count_mc_checks(monkeypatch)
    out = mc_to_s(mc)
    assert calls == [] and (out.eta, out.base) == (mc.eta, mc.base)
    # the pass covers the twist's value: an equal new twist keeps it, an
    # entry written in place (dt2 beside dt1 breaks the MC equation) does not
    mc.eta = HomElement([list(row) for row in mc.eta], 1)
    assert mc_to_s(mc).eta is mc.eta and calls == []
    mc.eta[1][2] = sq(1, mask=2)
    with pytest.raises(DomainError, match="mc_equation"):
        mc_to_s(mc)
    assert len(calls) == 1


def test_mc_to_s_checks_what_no_recorded_pass_covers(monkeypatch):
    # dt1 between the characters (2, 3) and (2, 5) breaks equivariance;
    # E01·dt1 + E12·dt2 between equal characters breaks the MC equation
    eta = HomElement.zero(2, 2, 1)
    eta[0][1] = sq(1, mask=1)
    never_checked = MCObject.semisimple([(2, 3), (2, 5)], eta)
    failed = MCObject.semisimple([(2, 3), (2, 5)], eta)
    assert mc_check(failed).failures == ["equivariance"]
    replaced = rep_to_mc(jordan3_rep(2, 3, 5, 7)).mc
    replaced.eta = HomElement.linear(
        Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]]))
    calls = _count_mc_checks(monkeypatch)
    for o, failure in ((never_checked, "equivariance"),
                       (failed, "equivariance"),
                       (replaced, "mc_equation")):
        with pytest.raises(DomainError, match=failure):
            mc_to_s(o)
    assert len(calls) == 3


def test_realize_roundtrip_both_generators_twisted():
    # both generators carry nilpotent parts that interact
    g1 = Matrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    g2 = Matrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    v = TorusRep(g1, g2)
    res = rep_to_mc(v)
    assert mc_check(res.mc).ok
    realized = realize_mc(res.mc)
    assert realized.g1 * realized.g2 == realized.g2 * realized.g1
    assert is_isomorphic(v, realized).status == "isomorphic"


def test_rep_to_mc_accepts_conjugated_input():
    # a non-triangular input is triangularized first; the pipeline output
    # still realizes back to an isomorphic pair
    base = jordan3_rep(1, 1, 1, 0)
    p = Matrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    conj = _conjugate(base, p)
    assert conj.g1 != base.g1
    res = rep_to_mc(conj)
    assert mc_check(res.mc).ok
    realized = realize_mc(res.mc)
    assert is_isomorphic(conj, realized).status == "isomorphic"


def test_rep_to_mc_stable_under_larger_bound():
    v = jordan3_rep(2, 3, 5, 7)
    low = fm_dt_parts(rep_to_mc(v, bound=4).mc.eta)
    high = fm_dt_parts(rep_to_mc(v, bound=6).mc.eta)
    assert low == high


def test_rep_to_mc_mixed_characters_supported_on_equal_pairs():
    g1 = Matrix.from_rows([[2, 1, 3], [0, 1, 0], [0, 0, 2]])
    g2 = Matrix.identity(3)
    v = TorusRep(g1, g2)
    res = rep_to_mc(v)
    for i in range(3):
        for j in range(3):
            if not res.mc.eta[i][j].is_zero():
                assert res.mc.characters[i] == res.mc.characters[j]
    realized = realize_mc(res.mc)
    assert is_isomorphic(v, realized).status == "isomorphic"


def test_scalar_form_matrices_carry_fraction_coefficients():
    j4 = rep([[int(j in (i, i + 1)) for j in range(4)] for i in range(4)])
    res = rep_to_mc(j4, bound=4)
    m = Matrix.from_rows([[1, Fraction(-2, 3)], [0, 5]])
    t_linear = HomElement([[sq(x, e1=1) + sq(x, e2=1) for x in m.row(i)]
                           for i in range(m.rows)], 0)
    matrices = (res.mc.eta, res.iso, HomElement.linear(m, m * m), t_linear,
                HomElement.from_matrix(m))
    coeffs = [c for h in matrices for row in h for f in row
              for c in f.terms.values()]
    assert len(coeffs) > 20
    assert all(type(c) is Fraction for c in coeffs)


def test_mc_check_skips_validating_an_invertible_diagonal_base(monkeypatch):
    import t2mc.torus_rep as torus_rep

    calls = []
    real = torus_rep.validate
    monkeypatch.setattr(torus_rep, "validate",
                        lambda r: calls.append(r) or real(r))
    eta = HomElement([[sq(0), sq(1, mask=1)], [sq(0), sq(0)]], 1)
    assert mc_check(MCObject.semisimple([(2, 3), (2, 3)], eta)).ok
    assert calls == []
    # a base that is not diagonal is validated
    assert mc_check(MCObject(mcdg.FORMS, jordan2_rep(2, 3),
                             HomElement.zero(2, 2, 1))).ok
    assert len(calls) == 1


def test_mc_check_still_rejects_an_invalid_base():
    from t2mc.torus_rep import NonCommutingError, SingularError

    zero = HomElement.zero(2, 2, 1)
    base = rep([[1, 1], [0, 1]], [[1, 0], [1, 1]])
    with pytest.raises(NonCommutingError):
        mc_check(MCObject(mcdg.FORMS, base, zero))
    singular = TorusRep(Matrix.diagonal([2, 0]), Matrix.identity(2))
    with pytest.raises(SingularError):
        mc_check(MCObject(mcdg.FORMS, singular, zero))


def test_rep_to_mc_unipotent_j5_elimination_counts(monkeypatch):
    """Regression bounds on the exact eliminations behind rep_to_mc on the
    unipotent J5 at bound 4; the generator inverses are computed once per
    representation.  Every elimination (`Matrix.rref`, `solve`,
    `rank_kernel`, `invert`) runs through the one kernel `_reduce`."""
    import t2mc.qlinalg as qlinalg
    import t2mc.torus_rep as torus_rep

    calls = {"invert": 0, "reduce": 0}
    invert, reduce = qlinalg.invert, qlinalg._reduce

    def counting_invert(m):
        calls["invert"] += 1
        return invert(m)

    def counting_reduce(rows, width):
        calls["reduce"] += 1
        return reduce(rows, width)

    for module in (qlinalg, torus_rep):
        monkeypatch.setattr(module, "invert", counting_invert)
    monkeypatch.setattr(qlinalg, "_reduce", counting_reduce)
    n = 5
    j5 = rep([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
    rep_to_mc(j5, bound=4)
    assert calls["invert"] <= 42
    assert calls["reduce"] <= 80


# -- chain images built from the unit's support --------------------------------

def _image_by_products(src, dst, p, q, key, eq=True):
    """The reference construction of an unknown's image: the unit form
    matrix through `twisted_d` (the unit itself for a dt unit) and the
    interval-form products of `_defects_by_products`, flattened; face
    coordinates carry the edge key (dt, e) of an interval form."""
    def flatten(tag, mat):
        for r, row in enumerate(mat):
            for s, form in enumerate(row):
                for fkey, c in form.terms.items():
                    k = (tag, r, s, fkey if tag == "eq" else fkey[:2])
                    img[k] = img.get(k, Fraction(0)) + c

    mask, e1, e2 = key
    unit = fm_zero(dst.dim, src.dim)
    unit[p][q] = sq(1, e1, e2, mask)
    h = HomElement(unit, 1 if mask else 0)
    img = {}
    if eq:
        flatten("eq", unit if mask else twisted_d(h, src, dst).entries)
    for i, diff in _defects_by_products(h, src, dst):
        flatten(("gs", i), diff)
    return img


def _face_images(problem):
    """The face-only images of the unknowns of `problem`."""
    return [problem.image(p, q, key, eq=False)
            for _kind, p, q, key in problem.vars]


def _assert_images_match(src, dst, bound, allowed=(), eq=True):
    problem = mcdg._ChainProblem(src, dst, bound)
    problem.add_constant_dt_vars(allowed)
    problem.add_chain_vars(skip_constant_on=frozenset(allowed))
    images = problem.images if eq else _face_images(problem)
    assert len(problem.vars) == len(images) > 0
    for (_kind, p, q, key), img in zip(problem.vars, images):
        assert img == _image_by_products(src, dst, p, q, key, eq)
        assert all(type(v) is Fraction and v for v in img.values())


def _equal_pairs(src, dst):
    return [(p, q) for p in range(dst.dim) for q in range(src.dim)
            if dst.characters[p] == src.characters[q]]


def test_chain_images_match_products_on_straighten_endpoints(monkeypatch):
    seen = []
    real = mcdg.straighten
    monkeypatch.setattr(mcdg, "straighten",
                        lambda omega, src, dst, bound=4:
                        seen.append((src, dst, bound))
                        or real(omega, src, dst, bound))
    for n in (4, 5):
        rep_to_mc(rep([[int(j in (i, i + 1)) for j in range(n)]
                       for i in range(n)]), bound=4)
    rep_to_mc(TorusRep(Matrix.from_rows([[2, 1, 3], [0, 1, 0], [0, 0, 2]]),
                       Matrix.identity(3)))
    assert len(seen) == 3 + 4 + 2
    for src, dst, bound in seen:
        _assert_images_match(src, dst, bound, _equal_pairs(src, dst))


def test_chain_images_form_each_face_product_once(monkeypatch):
    # a face product depends on (edge, p, q) only, so it is formed once for
    # all monomials; the eta_src terms are negated before any image; a
    # coordinate is added to only when a second contribution lands on it,
    # and on the straighten systems only the restriction at (p, q) does
    seen = []
    real = mcdg.straighten
    monkeypatch.setattr(mcdg, "straighten",
                        lambda omega, src, dst, bound=4:
                        seen.append((src, dst, bound))
                        or real(omega, src, dst, bound))
    rep_to_mc(rep([[int(j in (i, i + 1)) for j in range(4)]
                   for i in range(4)]), bound=4)
    rep_to_mc(_seeded_mixed_pairs(47, 1)[0][0])
    monkeypatch.undo()
    # twisted on both ends: End of each partial normal form
    seen += [(dst, dst, bound) for _, dst, bound in seen]
    counts = dict.fromkeys(("mul", "add", "neg"), 0)
    for src, dst, bound in seen:
        allowed = _equal_pairs(src, dst)
        problem = mcdg._ChainProblem(src, dst, bound)
        for name, ops in (("mul", ("__mul__", "__rmul__")),
                          ("add", ("__add__", "__radd__", "__sub__",
                                   "__rsub__")),
                          ("neg", ("__neg__",))):
            for op in ops:
                real_op = getattr(Fraction, op)
                monkeypatch.setattr(
                    Fraction, op,
                    lambda a, b=None, _n=name, _f=real_op: counts.__setitem__(
                        _n, counts[_n] + 1) or (_f(a) if b is None
                                                else _f(a, b)))
        problem.add_constant_dt_vars(allowed)
        problem.add_chain_vars(skip_constant_on=frozenset(allowed))
        monkeypatch.undo()
        products = collisions = 0
        for i in (1, 2):
            g, g_inv = dst.base.g(3 - i), src.base.g_inv(3 - i)
            products += (sum(map(bool, g.entries))
                         * sum(map(bool, g_inv.entries)))
            for _kind, p, q, (mask, e1, e2) in problem.vars:
                cross_e = e2 if i == 1 else e1
                collisions += (not mask & (3 - i) and not cross_e
                               and bool(g[(p, p)] * g_inv[(q, q)]))
        assert counts == {"mul": products, "add": collisions, "neg": 0}
        counts = dict.fromkeys(counts, 0)
    assert any(not src.eta.is_zero() for src, _, _ in seen)
    assert len(seen) >= 5


def _random_eta(rng, n, polynomial):
    eta = HomElement.zero(n, n, 1)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.5 and (i, j) != (0, n - 1):
                continue
            for _ in range(rng.randint(1, 2)):
                e1, e2 = ((rng.randint(0, 2), rng.randint(0, 2))
                          if polynomial else (0, 0))
                eta[i][j] = eta[i][j] + sq(rng.choice([-3, -2, -1, 1, 2, 3]),
                                           e1, e2, mask=rng.choice([1, 2]))
    return eta


def test_chain_images_match_products_with_twisted_endpoints():
    # nonzero eta on both ends, constant and polynomial: the t^a·eta_src
    # term is one straighten never reaches
    rng = random.Random(83)
    chars = [(1, 1), (2, 1), (1, 1), (Fraction(1, 2), 3)]
    for polynomial in (False, True):
        for _ in range(3):
            ns, nd = rng.randint(1, 3), rng.randint(1, 3)
            cs, cd = rng.sample(chars, ns), rng.sample(chars, nd)
            src = MCObject.semisimple(cs, _random_eta(rng, ns, polynomial))
            dst = MCObject.semisimple(cd, _random_eta(rng, nd, polynomial))
            assert not src.eta.is_zero() and not dst.eta.is_zero()
            _assert_images_match(src, dst, 3, _equal_pairs(src, dst))


def test_chain_images_match_products_on_non_diagonal_bases():
    # non-diagonal endpoints, as solve_gamma and the `_defects` checks meet
    bottom = MCObject.from_rep(jordan2_rep(2, 3))
    top = MCObject.from_rep(rep([[1, 1, 1], [0, 1, 1], [0, 0, 1]],
                                [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    for src, dst in ((bottom, MCObject.from_rep(jordan3_rep(2, 3, 5, 7))),
                     (MCObject.from_rep(TorusRep.trivial(1)), top),
                     (bottom, jordan2_object(2, 3))):
        for eq in (True, False):
            _assert_images_match(src, dst, 3, eq=eq)


def test_chain_image_crossing_exponent_drops_the_plain_restriction():
    triv = MCObject.semisimple([(1, 1)])
    problem = mcdg._ChainProblem(triv, triv, 2)
    # t1: the twisted and plain restrictions to edge 1 cancel; edge 2 sees
    # the constant on its twisted face only
    assert problem.image(0, 0, (0, 1, 0)) == {
        ("eq", 0, 0, (1, 0, 0)): 1, (("gs", 2), 0, 0, (0, 0)): 1}
    # t1·t2: the crossing exponent is nonzero on both edges
    assert problem.image(0, 0, (0, 1, 1)) == {
        ("eq", 0, 0, (1, 0, 1)): 1, ("eq", 0, 0, (2, 1, 0)): 1,
        (("gs", 1), 0, 0, (0, 1)): 1, (("gs", 2), 0, 0, (0, 1)): 1}
    assert problem.image(0, 0, (0, 1, 1)) == _image_by_products(
        triv, triv, 0, 0, (0, 1, 1))
    # dt units: the unit itself, and no defect along the edge its dt crosses
    assert problem.image(0, 0, (2, 0, 0)) == {("eq", 0, 0, (2, 0, 0)): 1}
    other = MCObject.from_rep(TorusRep(Matrix.from_rows([[3]]),
                                       Matrix.from_rows([[2]])))
    assert mcdg._ChainProblem(triv, other, 0).image(0, 0, (1, 0, 0)) == {
        ("eq", 0, 0, (1, 0, 0)): 1, (("gs", 1), 0, 0, (1, 0)): 1}


def test_rep_to_mc_unipotent_j5_builds_no_unit_products(monkeypatch):
    calls = {"twisted_d": 0, "_defects": 0}
    for name in calls:
        real = getattr(mcdg, name)
        monkeypatch.setattr(
            mcdg, name, lambda *a, _real=real, _name=name, **kw:
            calls.__setitem__(_name, calls[_name] + 1) or _real(*a, **kw))
    n = 5
    rep_to_mc(rep([[int(j in (i, i + 1)) for j in range(n)]
                   for i in range(n)]), bound=4)
    assert calls["twisted_d"] <= 20
    assert calls["_defects"] <= 40


# -- checks on sparse coordinates ------------------------------------------------

def _flat(tag, mat):
    """The nonzero scalar coefficients of a form matrix under `tag`; face
    coordinates carry the edge key (dt, e) of an interval form."""
    return {(tag, r, s, key if tag == "eq" else key[:2]): c
            for r, row in enumerate(mat) for s, form in enumerate(row)
            for key, c in form.terms.items()}


def _random_hom(rng, rows, cols, zero_forms):
    """A random scalar form matrix: polynomial 0-forms only, or any mix of
    polynomial, dt1, dt2 and dt1·dt2 terms."""
    out = [[_random_square_form(rng) for _ in range(cols)]
           for _ in range(rows)]
    if zero_forms:
        out = [[Form2(SCALAR_ALGEBRA, {k: c for k, c in f.terms.items()
                                       if not k[0]}) for f in row]
               for row in out]
    return out


def _check_endpoints(rng):
    """Diagonal bases, twisted and not, and non-diagonal ones."""
    chars = [(1, 1), (2, 1), (1, 1), (Fraction(1, 2), 3)]
    diagonal = [MCObject.semisimple(chars[:n], _random_eta(rng, n, poly))
                for n, poly in ((1, False), (2, True), (3, False), (4, True))]
    diagonal.append(MCObject.semisimple([(2, 1), (2, 5)]))
    general = [MCObject.from_rep(r) for r in (
        jordan2_rep(2, 3), jordan3_rep(2, 3, 5, 7),
        rep([[1, 1, 1], [0, 1, 1], [0, 0, 1]],
            [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))]
    return diagonal + general


def test_defects_match_the_product_route():
    rng = random.Random(89)
    objects = _check_endpoints(rng)
    seen = {"empty": 0, "defect": 0}
    for _ in range(60):
        src, dst = rng.choice(objects), rng.choice(objects)
        degree = rng.choice([0, 1])
        zero_forms = degree == 0 and rng.random() < 0.5
        f = HomElement(_random_hom(rng, dst.dim, src.dim, zero_forms), degree)
        expected = _defects_by_products(f, src, dst)
        flat = {}
        for i, diff in expected:
            flat.update(_flat(("gs", i), diff))
        assert mcdg._defects(f, src, dst) == flat
        if zero_forms:
            flat.update(_flat("eq", twisted_d(f, src, dst).entries))
            assert mcdg._defects(f, src, dst, cocycle=True) == flat
        seen["defect" if expected else "empty"] += 1
    # global sections: the zero map and the pipeline isomorphisms
    for r in (jordan3_rep(2, 3, 5, 7), two_gen_rep(1, 2, 1, 3)):
        res = rep_to_mc(r)
        src = MCObject.from_rep(r)
        for f in (res.iso, HomElement.zero(3, 3)):
            assert _defects_by_products(f, src, res.mc) == []
            assert mcdg._defects(f, src, res.mc) == {}
            assert mcdg._defects(f, src, res.mc, cocycle=True) == {}
            seen["empty"] += 1
    assert seen["empty"] >= 4 and seen["defect"] >= 40


def _defects_by_fraction_sums(f, src, dst, cocycle=False):
    """`_defects` summed term by term as `Fraction` products c·v, in the
    same order: the oracle of its integer sums."""
    image = mcdg._ChainProblem(src, dst, 0).image
    out = {}
    for p, row in enumerate(f):
        for q, form in enumerate(row):
            for key, c in form.terms.items():
                for k, v in image(p, q, key, cocycle).items():
                    out[k] = c * v if (o := out.get(k)) is None else o + c * v
    return {k: v for k, v in out.items() if v}


def _require_outcome(coords, section=True):
    try:
        mcdg._require("f", coords, section)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


def _rational_term(rng):
    return sq(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                       rng.randint(1, 12)),
              e1=rng.randint(0, 2), e2=rng.randint(0, 2))


def test_defects_integer_sums_match_fraction_sums():
    # seeded pipeline isomorphisms (rational coefficients, characters of
    # ratio 2 and 1/2) corrupted by a rational term so that defects exist,
    # and rational random morphisms between twisted and non-diagonal
    # endpoints: the integer sums give the Fraction sums' coordinates, in
    # the same order, with equal values, and `_require` the same error
    rng = random.Random(101)
    cases = []
    for _ in range(12):
        r = _random_triangular_pair(rng, rng.randint(2, 4))
        res = rep_to_mc(r)
        src = MCObject.from_rep(r)
        for corrupt in (False, True, True):
            f = HomElement([list(row) for row in res.iso], 0)
            if corrupt:
                p, q = rng.randrange(len(f)), rng.randrange(len(f[0]))
                f[p][q] = f[p][q] + _rational_term(rng)
            cases += [(f, src, res.mc, False), (f, src, res.mc, True)]
    objects = _check_endpoints(rng)
    for _ in range(30):
        src, dst = rng.choice(objects), rng.choice(objects)
        scale = Fraction(rng.randint(1, 7), rng.randint(1, 9))
        f = HomElement([[Form2(SCALAR_ALGEBRA, {k: c * scale for k, c in
                                                form.terms.items()})
                         for form in row]
                        for row in _random_hom(rng, dst.dim, src.dim, False)],
                       1)
        cases.append((f, src, dst, False))
    seen = {"empty": 0, "defect": 0, "cocycle": 0}
    for f, src, dst, cocycle in cases:
        coords = mcdg._defects(f, src, dst, cocycle)
        expected = _defects_by_fraction_sums(f, src, dst, cocycle)
        assert list(coords.items()) == list(expected.items())
        assert all(type(v) is Fraction for v in coords.values())
        for section in (True, False):
            assert (_require_outcome(coords, section)
                    == _require_outcome(expected, section))
        seen["defect" if coords else "empty"] += 1
        seen["cocycle"] += any(k[0] == "eq" for k in coords)
    assert seen["empty"] >= 20 and seen["defect"] >= 40
    assert seen["cocycle"] >= 10


def test_global_section_builds_no_interval_forms(monkeypatch):
    res = rep_to_mc(jordan3_rep(2, 3, 5, 7))
    src = MCObject.from_rep(jordan3_rep(2, 3, 5, 7))
    built = []
    real = Form1.__init__
    monkeypatch.setattr(Form1, "__init__",
                        lambda self, *a: built.append(1) or real(self, *a))
    assert mcdg._defects(res.iso, src, res.mc) == {}
    assert built == []


def test_defects_reject_what_they_cannot_sum():
    from t2mc.mcdg import AmbientMismatchError

    triv = MCObject.semisimple([(1, 1)])
    f = HomElement([[Form2(S_EXTERIOR,
                           {(0, 1, 0): S_EXTERIOR.generator("s1")})]], 0)
    with pytest.raises(AmbientMismatchError, match=r"entry \(0, 0\)"):
        mcdg._defects(f, triv, triv)
    # the twisted differential is summed over degree-0 0-forms only
    for f in (HomElement([[sq(1, mask=1)]], 1),
              HomElement([[sq(1, mask=1)]], 0)):
        with pytest.raises(ValueError, match="degree-0 0-forms"):
            mcdg._defects(f, triv, triv, cocycle=True)
    with pytest.raises(ValueError, match="shape"):
        mcdg._defects(HomElement.zero(1, 2), triv, triv)


def test_errors_name_the_first_defect():
    from t2mc.mcdg import NotACocycleError

    triv = MCObject.semisimple([(1, 1)])
    # d(t1) = dt1, and t1 is no global section along edge 2
    coords = mcdg._defects(HomElement([[sq(1, e1=1)]], 0), triv, triv,
                           cocycle=True)
    with pytest.raises(NotACocycleError) as info:
        mcdg._require("chain", coords)
    assert str(info.value) == ("chain is not a cocycle "
                               "(entry (0, 0), key (1, 0, 0))")
    with pytest.raises(NotEquivariantError) as info:
        mcdg._require("chain", {k: v for k, v in coords.items()
                                if k[0] != "eq"})
    assert str(info.value) == ("chain is not a global section "
                               "(edge 2, entry (0, 0), key (0, 0))")
    # only the cocycle condition when asked
    mcdg._require("chain", {k: v for k, v in coords.items() if k[0] != "eq"},
                  section=False)
    # omega = dt1 between characters that differ in g2: edge 1 fails
    with pytest.raises(NotEquivariantError) as info:
        build_extension(HomElement([[sq(1, mask=1)]], 1),
                        MCObject.semisimple([(2, 1)]),
                        MCObject.semisimple([(2, 5)]))
    assert str(info.value) == ("omega is not a global section "
                               "(edge 1, entry (0, 0), key (1, 0))")


def _first_face_defect(defects):
    i, diff = defects[0]
    r, s, key = min((r, s, key[:2]) for r, row in enumerate(diff)
                    for s, x in enumerate(row) for key in x.terms)
    return f"(edge {i}, entry ({r}, {s}), key {key})"


def _validate_by_products(ext):
    """The splitting checks through twisted_d, the interval-form face route
    and form-matrix products, with the messages of ExtensionData.validate."""
    from t2mc.errors import DomainError
    from t2mc.mcdg import NotACocycleError

    top, bottom, total = ext.top, ext.bottom, ext.total
    p, q, alpha, beta = _splitting_maps(ext)
    for name, f, src, dst in (("p", p, top, total),
                              ("q", q, total, bottom)):
        if not twisted_d(f, src, dst).is_zero():
            raise NotACocycleError(f"{name} is not a cocycle")
        if _defects_by_products(f, src, dst):
            raise NotEquivariantError(f"{name} is not a global section")
    for name, f, src, dst in (("alpha", alpha, total, top),
                              ("beta", beta, bottom, total)):
        defects = _defects_by_products(f, src, dst)
        if defects:
            raise NotEquivariantError(f"{name} is not a global section "
                                      f"{_first_face_defect(defects)}")
    ident = [HomElement.from_matrix(Matrix.identity(o.dim)).entries
             for o in (top, bottom, total)]
    a, b, p, q = (m.entries for m in (alpha, beta, p, q))
    for label, defect in (
            ("alpha·p = id", fm_sub(fm_mul(a, p), ident[0])),
            ("q·beta = id", fm_sub(fm_mul(q, b), ident[1])),
            ("alpha·beta = 0", fm_mul(a, b)),
            ("p·alpha + beta·q = id",
             fm_sub(fm_add(fm_mul(p, a), fm_mul(b, q)), ident[2]))):
        if not fm_is_zero(defect):
            raise DomainError(f"splitting identity failed: {label}")


def _outcome(check, ext):
    try:
        check(ext)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return None


def _tampered(ext, total=None, psi=None):
    """A copy of ext with its corner edited by `psi(rows)` and, optionally,
    another total object."""
    rows = [list(row) for row in ext.psi]
    if psi:
        psi(rows)
    return mcdg.ExtensionData(ext.top, ext.bottom, total or ext.total,
                              HomElement(rows, 0))


def _with_total(ext, g_edit=None, eta_edit=None):
    g1, g2 = (ext.total.base.g(i).to_rows() for i in (1, 2))
    eta = [list(row) for row in ext.total.eta]
    if g_edit:
        g_edit(g1)
    if eta_edit:
        eta_edit(eta)
    base = TorusRep(Matrix.from_rows(g1), Matrix.from_rows(g2))
    return MCObject(mcdg.FORMS, base, HomElement(eta, 1))


def _set(r, c, value):
    def edit(rows):
        rows[r][c] = value
    return edit


def _add(r, c, form):
    def edit(rows):
        rows[r][c] = rows[r][c] + form
    return edit


@pytest.mark.parametrize("case", sorted(SPLITTING_PINS))
def test_validate_matches_the_product_route_on_corrupted_splittings(case):
    ext = _splitting_for(case)
    n = ext.total.dim
    cases = [
        ("valid", ext),
        ("eta lower-left", _tampered(ext, _with_total(
            ext, eta_edit=_set(n - 1, 0, sq(1, mask=1))))),
        ("eta lower-right", _tampered(ext, _with_total(
            ext, eta_edit=_set(n - 1, n - 1, sq(1, mask=2))))),
        ("g lower-left", _tampered(ext, _with_total(
            ext, g_edit=_set(n - 1, 0, 1)))),
        ("g lower-right", _tampered(ext, _with_total(
            ext, g_edit=_set(n - 1, n - 1, 2)))),
        # another corner, which fails the face conditions
        ("corner t2^2", _tampered(ext, psi=_add(0, 0, sq(1, e2=2)))),
    ]
    outcomes = set()
    for label, tampered in cases:
        got = _outcome(mcdg.ExtensionData.validate, tampered)
        assert got == _outcome(_validate_by_products, tampered), label
        outcomes.add(got and got[1].split(" (")[0])
    # the valid splitting passes; the corruptions fail at five checks
    assert None in outcomes and len(outcomes) >= 6


def test_validate_forms_no_products_on_the_pipeline(monkeypatch):
    """One rep_to_mc of J5 at bound 4: each stage's validate sums the faces
    of alpha's corner alone, one `_defects` call, and neither validate nor
    extension_class forms a form-matrix product or a Form1."""
    calls = {"validate": 0, "extension_class": 0}
    inside = {}  # (scope, what) -> calls made within that scope
    scope = []

    def scoped(name, real):
        def run(*args):
            calls[name] += 1
            scope.append(name)
            try:
                return real(*args)
            finally:
                scope.pop()
        return run

    def counted(what, real):
        def run(*args, **kwargs):
            if scope:
                key = (scope[-1], what)
                inside[key] = inside.get(key, 0) + 1
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(mcdg.ExtensionData, "validate",
                        scoped("validate", mcdg.ExtensionData.validate))
    monkeypatch.setattr(mcdg, "extension_class",
                        scoped("extension_class", mcdg.extension_class))
    monkeypatch.setattr(mcdg, "_defects", counted("_defects", mcdg._defects))
    monkeypatch.setattr(mcdg.HomElement, "__mul__",
                        counted("product", mcdg.HomElement.__mul__))
    monkeypatch.setattr(Form1, "__init__", counted("Form1", Form1.__init__))
    n = 5
    rep_to_mc(rep([[int(j in (i, i + 1)) for j in range(n)]
                   for i in range(n)]), bound=4)
    assert calls == {"validate": 4, "extension_class": 4}
    assert scope == [] and inside == {("validate", "_defects"): 4}


def test_rep_to_mc_unipotent_j8_pinned():
    import hashlib

    n = 8
    res = rep_to_mc(rep([[int(j in (i, i + 1)) for j in range(n)]
                         for i in range(n)]), bound=7)
    digest = hashlib.sha256(
        (repr(res.mc.eta.entries) + repr(res.iso.entries)).encode()
    ).hexdigest()
    assert digest == ("3164bf8c5669f97cba669a2c5588e6170cd4b0f77e2ad25845d12"
                      "aa9df267fa4")


@pytest.mark.parametrize("n, square, digest", [
    (10, False, "6eb27f56dc2501a11bf1d99d2755b3947b6e979ddf1970868"
                "1ebfedca1eccae2"),
    (10, True, "3ac9fda752fc4e6a9bfdea016a52d49912ff71f1a23d4f778f"
               "f63c7ee037854e"),
    (12, False, "07dcacb68b28edcc09c5c28c9aadafff6c7f1db963d28ed85"
                "35903c308911f59"),
    (12, True, "98bc2d160ffc9f4f98b7994a2773a01ca890badd99f2dfbc89"
               "2c60abd5d6c5c2"),
])
def test_rep_to_mc_frontier_pinned(n, square, digest):
    # unipotent J_n at bound n - 1, with g2 = 1 and g2 = g1²: the entry
    # blocks and their integer left inverses above the bounds the other
    # pins reach
    res = rep_to_mc(_jordan(n, square), bound=n - 1)
    assert hashlib.sha256(
        (repr(res.mc.eta.entries) + repr(res.iso.entries)).encode()
    ).hexdigest() == digest


def test_straightening_failure_names_bound_shape_and_stage():
    from t2mc.mcdg import StraighteningFailedError

    n = 6
    j6 = rep([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
    with pytest.raises(StraighteningFailedError) as info:
        rep_to_mc(j6, bound=4)
    exc = info.value
    assert (exc.stage, exc.bound, exc.shape) == (5, 4, (160, 80))
    assert "stage 5" in str(exc) and "160 x 80" in str(exc)


BENCH_INPUTS_PATH = (Path(__file__).resolve().parents[1] / "bench"
                     / "inputs.py")


def _bench_pairs(tmp_path):
    """The `mixed4`, `mixed5` and `two_gen4` pairs of the benchmark's
    `jordan_ladder` workload at seed 1, read back from the files its input
    generator writes."""
    from t2mc.torus_rep import parse_rep

    spec = importlib.util.spec_from_file_location("_bench_inputs",
                                                  BENCH_INPUTS_PATH)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    items = {item["name"]: item
             for item in inputs.jordan_ladder_inputs(1, str(tmp_path))}
    return [(parse_rep(Path(items[name]["rep"]).read_text()),
             items[name]["bound"])
            for name in ("mixed4", "mixed5", "two_gen4")]


def _seeded_mixed_pairs(seed, count):
    """Commuting pairs, n <= 5: g1 upper triangular with characters drawn
    from {1, 2, 1/2, -1, 3}, g2 an invertible polynomial in g1, both
    conjugated by a product of n integer shears (unimodular)."""
    rng = random.Random(seed)
    chars = (1, 2, Fraction(1, 2), -1, 3)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 5)
        diag = [rng.choice(chars) for _ in range(n)]
        g1 = Matrix.from_rows([[diag[i] if i == j
                                else rng.randint(-2, 2) * (j > i)
                                for j in range(n)] for i in range(n)])
        c = [rng.randint(-2, 2) for _ in range(3)]
        if not all(c[0] + c[1] * lam + c[2] * lam * lam for lam in diag):
            continue
        g2 = (Matrix.identity(n).scale(c[0]) + g1.scale(c[1])
              + (g1 * g1).scale(c[2]))
        p = Matrix.identity(n)
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            shear = Matrix.identity(n).to_rows()
            shear[i][j] = rng.choice((1, -1, 2, -2))
            p = p * Matrix.from_rows(shear)
        p_inv = invert(p)
        pairs.append((TorusRep(p * g1 * p_inv, p * g2 * p_inv), max(4, n - 1)))
    return pairs


def test_rep_to_mc_outputs_pinned(tmp_path):
    # non-identity bases and mixed characters: every stage block, every
    # semisimplify step and every straighten system of these pairs is
    # fixed by this digest
    outputs, moved = [], 0
    for r, bound in _bench_pairs(tmp_path) + _seeded_mixed_pairs(47, 20):
        res = rep_to_mc(r, bound=bound)
        ss = res.ssdata
        moved += ss.basis != Matrix.identity(r.dim)
        outputs.append(repr((res.mc.eta.entries, res.iso.entries, ss.basis,
                             ss.tri.g1, ss.tri.g2, ss.characters)))
    assert moved >= 15
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == ("1e201680caa8cf1ad2d99269973b0e2289046eae9e683ac6a9b84"
                      "9a753a42882")


def test_rep_to_mc_inverts_the_basis_once(monkeypatch):
    # semisimplify's inverse of the basis is carried to the isomorphism;
    # every t2mc module that binds `invert` is counted
    import t2mc.qlinalg as qlinalg

    calls = []
    real = qlinalg.invert
    for name, module in list(sys.modules.items()):
        if name.startswith("t2mc") and hasattr(module, "invert"):
            monkeypatch.setattr(module, "invert",
                                lambda m: calls.append(m) or real(m))
    for r, bound in _seeded_mixed_pairs(47, 4):
        calls.clear()
        res = rep_to_mc(r, bound=bound)
        assert res.ssdata.basis != Matrix.identity(r.dim)
        assert calls.count(res.ssdata.basis) == 1
        assert res.ssdata.basis_inv == real(res.ssdata.basis)


def test_rep_to_mc_whole_mixed_pairs_match_cellular(tmp_path):
    # t2-cohomology sends only V_(1,1) through the pipeline; this keeps the
    # nontrivial characters of whole pairs cross-checked against the
    # cellular backend
    from t2mc.cli import _normal_form_betti
    from t2mc.torus_rep import cellular_complex, semisimplify

    mixed = [(r, bound) for r, bound in _seeded_mixed_pairs(53, 12)
             if len(set(semisimplify(r).characters)) > 1][:3]
    assert len(mixed) == 3
    for r, bound in _bench_pairs(tmp_path) + mixed:
        betti = _normal_form_betti(rep_to_mc(r, bound=bound).mc)
        assert betti == cellular_complex(r).betti(range(3))


# -- straighten against the global solve it replaced --------------------------

def _global_straighten(omega, src, dst, bound=4):
    """The reference: straighten as one sparse system over the unknowns of
    every entry at once, reduced by `solve`, whose particular solution is
    the unique one."""
    allowed = [(p, q) for p in range(dst.dim) for q in range(src.dim)
               if dst.characters[p] == src.characters[q]]
    problem = mcdg._ChainProblem(src, dst, bound)
    problem.add_constant_dt_vars(allowed)
    problem.add_chain_vars(skip_constant_on=frozenset(allowed))
    rhs = mcdg._flatten(omega)
    coeffs = mcdg._solve_sparse(problem.images, rhs)
    if coeffs is None:
        raise problem.failure("no constant representative", rhs)
    k1, k2 = fm_dt_parts(problem.assemble(coeffs, "k"))
    return k1, k2, problem.assemble(coeffs, "chain")


def _beside_the_global_solve(monkeypatch):
    """Run the global reference beside every straighten of rep_to_mc: equal
    results are counted, and each failure is recorded as (message, shape)
    under both, before it propagates."""
    from t2mc.mcdg import StraighteningFailedError

    seen = {"equal": 0, "failures": []}
    real = mcdg.straighten

    def both(*args):
        try:
            ours = real(*args)
        except StraighteningFailedError as exc:
            with pytest.raises(StraighteningFailedError) as info:
                _global_straighten(*args)
            seen["failures"].append(((str(exc), exc.shape),
                                     (str(info.value), info.value.shape)))
            raise
        assert ours == _global_straighten(*args)
        seen["equal"] += 1
        return ours

    monkeypatch.setattr(mcdg, "straighten", both)
    return seen


def _jordan(n, square):
    g1 = Matrix.from_rows([[int(j in (i, i + 1)) for j in range(n)]
                           for i in range(n)])
    return TorusRep(g1, g1 * g1 if square else Matrix.identity(n))


def test_straighten_matches_the_global_solve(tmp_path, monkeypatch):
    seen = _beside_the_global_solve(monkeypatch)
    pairs = [(_jordan(n, square), n - 1)
             for n in range(4, 11) for square in (False, True)]
    for r, bound in pairs + _bench_pairs(tmp_path) + _seeded_mixed_pairs(
            61, 20):
        rep_to_mc(r, bound=bound)
    assert seen["failures"] == []
    assert seen["equal"] >= 2 * sum(range(3, 10)) + 40


def _straightened(fn, *args):
    from t2mc.mcdg import StraighteningFailedError

    try:
        return fn(*args)
    except StraighteningFailedError as exc:
        return str(exc), exc.shape


def _seeded_straighten_args(rng, chars, bound):
    """(src, dst, omega) with both endpoints twisted, of seeded characters
    from `chars`, and omega = k·dt + d(c) for a seeded global-section chain
    c (a combination of the kernel of its face conditions)."""
    ends = []
    for n in (rng.randint(1, 3), rng.randint(2, 3)):
        eta = HomElement.zero(n, n, 1)
        for i in range(n):
            for j in range(i + 1, n):
                eta[i][j] = (sq(rng.randint(-2, 2), mask=1)
                             + sq(rng.randint(-2, 2), mask=2))
        ends.append(MCObject.semisimple(
            [rng.choice(chars) for _ in range(n)], eta))
    dst, src = ends
    allowed = frozenset(_equal_pairs(src, dst))
    faces = mcdg._ChainProblem(src, dst, bound)
    faces.add_chain_vars(skip_constant_on=allowed)
    images = _face_images(faces)
    coords = sorted(set().union(*images), key=repr)
    _, kernel = rank_kernel(Matrix.from_rows(
        [[img.get(x, 0) for img in images] for x in coords]))
    weights = [rng.randint(-2, 2) for _ in kernel]
    c = faces.assemble([sum(w * v[j] for w, v in zip(weights, kernel))
                        for j in range(len(images))], "chain")
    k = HomElement.zero(dst.dim, src.dim, 1)
    for p, q in allowed:
        k[p][q] = (sq(rng.randint(-2, 2), mask=1)
                   + sq(rng.randint(-2, 2), mask=2))
    return src, dst, twisted_d(c, src, dst) + k


def test_straighten_matches_the_global_solve_off_the_pipeline():
    # what rep_to_mc never passes: both endpoints twisted, several columns;
    # omega = k·dt + d(c) for a random global-section chain c (a combination
    # of the kernel of its face conditions), then with one random term
    # added, which may leave no solution
    rng = random.Random(67)
    chars = [(1, 1), (2, 1), (1, Fraction(1, 2))]
    bound, solved, failed = 2, 0, 0
    for _ in range(16):
        src, dst, omega = _seeded_straighten_args(rng, chars, bound)
        p, q = rng.randrange(dst.dim), rng.randrange(src.dim)
        stray = HomElement.zero(dst.dim, src.dim, 1)
        stray[p][q] = sq(1, rng.randint(0, 2), 0, rng.choice((1, 2)))
        for args in ((omega, src, dst, bound),
                     (omega + stray, src, dst, bound)):
            ours = _straightened(straighten, *args)
            assert ours == _straightened(_global_straighten, *args)
            solved += len(ours) == 3
            failed += len(ours) == 2
    assert solved >= 20 and failed >= 10


def test_straighten_fails_as_the_global_solve(monkeypatch):
    from t2mc.mcdg import StraighteningFailedError

    seen = _beside_the_global_solve(monkeypatch)
    with pytest.raises(StraighteningFailedError, match="stage 5"):
        rep_to_mc(_jordan(6, False), bound=4)
    [(ours, oracle)] = seen["failures"]
    assert ours == oracle
    assert "160 x 80" in ours[0] and ours[1] == (160, 80)


def test_rep_to_mc_j8_reduces_one_entry_block(monkeypatch):
    # J8 has the one character (1, 1): straighten integrates its 28 entries
    # in closed form, and reduces, solves and assembles no system
    import t2mc.qlinalg as qlinalg

    counts = {"_reduce": 0, "solve": 0, "_ChainProblem": 0,
              "_entry_primitive": 0}
    inside = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] += bool(inside)
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    def straighten(*args):
        inside.append(True)
        try:
            return real_straighten(*args)
        finally:
            inside.pop()

    real_straighten = mcdg.straighten
    counting(qlinalg, "_reduce")
    for name in ("solve", "_ChainProblem", "_entry_primitive"):
        counting(mcdg, name)
    monkeypatch.setattr(mcdg, "straighten", straighten)
    rep_to_mc(_jordan(8, True), bound=7)
    assert counts == {"_reduce": 0, "solve": 0, "_ChainProblem": 0,
                      "_entry_primitive": 28}


def test_straighten_closed_form_matches_the_global_solve_on_every_ratio(
        monkeypatch):
    # seeded systems whose entries meet each kind of character ratio:
    # rho1 != 1 only, rho2 != 1 only, both, and (1, 1); each straightens
    # as the global solve does, or fails as it does
    rng = random.Random(71)
    chars = [(1, 1), (3, 1), (1, Fraction(-1, 2)), (2, 2)]
    kinds, solved, failed = set(), 0, 0
    for _ in range(24):
        src, dst, omega = _seeded_straighten_args(rng, chars, 2)
        ratios = {(a1 / b1 != 1, a2 / b2 != 1)
                  for a1, a2 in dst.characters for b1, b2 in src.characters}
        p, q = rng.randrange(dst.dim), rng.randrange(src.dim)
        stray = HomElement.zero(dst.dim, src.dim, 1)
        stray[p][q] = sq(1, 0, rng.randint(0, 2), rng.choice((1, 2)))
        for args in ((omega, src, dst, 2), (omega + stray, src, dst, 2)):
            ours = _straightened(straighten, *args)
            assert ours == _straightened(_global_straighten, *args)
            solved += len(ours) == 3
            failed += len(ours) == 2
            if len(ours) == 3:
                kinds |= ratios
    assert kinds == {(False, False), (True, False), (False, True),
                     (True, True)}
    assert solved >= 20 and failed >= 10
    # unipotent J_n fails one bound short of its nilpotency index, with the
    # global solve's message and shape
    from t2mc.mcdg import StraighteningFailedError

    seen = _beside_the_global_solve(monkeypatch)
    for n in range(4, 8):
        with pytest.raises(StraighteningFailedError,
                           match=f"stage {n - 1}:"):
            rep_to_mc(_jordan(n, False), bound=n - 2)
    assert len(seen["failures"]) == 4
    assert all(ours == oracle for ours, oracle in seen["failures"])


def test_rep_to_mc_needs_no_system_at_a_huge_bound(monkeypatch):
    # the closed form has no system sized by the bound: a 2 x 2 Jordan
    # block at bound 10**9 gives its bound-4 result, and the only chain
    # problems built are the bound-0 image helpers of the exact checks
    r = rep([[1, 1], [0, 1]])
    small = rep_to_mc(r, bound=4)
    built, calls = [], []
    real = mcdg._ChainProblem
    for name in ("add_chain_vars", "add_constant_dt_vars"):
        monkeypatch.setattr(real, name,
                            lambda self, *a, name=name: calls.append(name))
    monkeypatch.setattr(mcdg, "_ChainProblem",
                        lambda *args: built.append(args[2]) or real(*args))
    huge = rep_to_mc(r, bound=10**9)
    assert built and set(built) == {0} and calls == []
    assert huge.mc.characters == small.mc.characters
    assert (huge.mc.eta, huge.iso) == (small.mc.eta, small.iso)
    assert not small.mc.eta.is_zero()


def test_straighten_needs_strictly_upper_triangular_twists():
    one = MCObject.semisimple([(1, 1)])
    for r, c in ((0, 0), (1, 0), (0, 1)):
        eta = HomElement.zero(2, 2, 1)
        eta[r][c] = sq(1, mask=1)
        two = MCObject.semisimple([(1, 1)] * 2, eta)
        if r < c:
            straighten(HomElement.zero(2, 1, 1), one, two)
            continue
        for omega, src, dst in ((HomElement.zero(2, 1, 1), one, two),
                                (HomElement.zero(1, 2, 1), two, one)):
            with pytest.raises(DomainError,
                               match="strictly upper triangular") as info:
                straighten(omega, src, dst)
            assert type(info.value) is DomainError
