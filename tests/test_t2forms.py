import random
from fractions import Fraction

import pytest

from t2mc.gca import SCALAR_ALGEBRA
from t2mc.t2forms import (Form1, Form2, ParameterZeroError,
                          SectionCandidate, _Form, build_local_system,
                          constant_section, is_global_section,
                          section_w, section_x, sq)

PARAMS = (2, 3, 5, 7)


@pytest.fixture(scope="module")
def ls():
    return build_local_system(*PARAMS)


@pytest.fixture(scope="module")
def fiber(ls):
    return ls.alg


def test_d_rham_poly():
    # t1(1 - t1) has differential (1 - 2 t1) dt1
    f = sq(1, e1=1) - sq(1, e1=2)
    assert f.d() == sq(1, mask=1) - sq(2, e1=1, mask=1)
    assert sq(5).d().is_zero()
    assert sq(1, e1=1, e2=1).d() == sq(1, e2=1, mask=1) + sq(1, e1=1, mask=2)


def test_d_rham_section_x(ls, fiber):
    x_tau = section_x(ls).tau
    expected = Form2.monomial(fiber, fiber.generator("z"), mask=2)
    assert x_tau.d() == expected


def test_d_rham_square_zero_random():
    rng = random.Random(41)
    for _ in range(25):
        f = Form2.zero(SCALAR_ALGEBRA)
        for _ in range(rng.randint(1, 5)):
            f = f + sq(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       e1=rng.randint(0, 4), e2=rng.randint(0, 4),
                       mask=rng.choice([0, 0, 1, 2, 3]))
        assert f.d().d().is_zero()


def test_d_rham_square_zero_with_coefficients(fiber):
    rng = random.Random(43)
    gens = [g.name for g in fiber.generators]
    for _ in range(15):
        f = Form2.zero(fiber)
        for _ in range(rng.randint(1, 4)):
            coeff = fiber.generator(rng.choice(gens)).scale(rng.randint(-2, 2))
            f = f + Form2.monomial(fiber, coeff, e1=rng.randint(0, 2),
                                   e2=rng.randint(0, 2),
                                   mask=rng.choice([0, 1, 2, 3]))
        assert f.d().d().is_zero()


def test_wedge_pinned(ls, fiber):
    dt1 = sq(1, mask=1)
    dt2 = sq(1, mask=2)
    assert (dt1 * dt2 + dt2 * dt1).is_zero()
    assert sq(1, e1=1, mask=1) * sq(1, e2=1, mask=2) == sq(1, e1=1, e2=1,
                                                           mask=3)
    # dt1 ∧ (x' y) = -dt1 (x y) - t2 dt1 (y z)
    dt1_l = Form2.monomial(fiber, fiber.unit(), mask=1)
    xy = fiber.generator("x") * fiber.generator("y")
    yz = fiber.generator("y") * fiber.generator("z")
    prod = dt1_l * section_x(ls).tau * fiber.generator("y")
    expected = (Form2.monomial(fiber, -xy, mask=1)
                + Form2.monomial(fiber, -yz, e2=1, mask=1))
    assert prod == expected


def test_wedge_graded_commutative_with_coefficients(fiber):
    rng = random.Random(47)
    degree_elems = {
        3: [fiber.generator("x"), fiber.generator("y"), fiber.generator("z")],
        5: [fiber.generator("u")],
        6: [fiber.generator("w")],
    }
    for _ in range(20):
        d1, d2 = rng.choice([3, 5, 6]), rng.choice([3, 5, 6])
        m1, m2 = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        a = Form2.monomial(fiber, rng.choice(degree_elems[d1]),
                           e1=rng.randint(0, 2), mask=m1)
        b = Form2.monomial(fiber, rng.choice(degree_elems[d2]),
                           e2=rng.randint(0, 2), mask=m2)
        da = d1 + (1 if m1 else 0)
        db = d2 + (1 if m2 else 0)
        sign = -1 if (da * db) % 2 else 1
        assert a * b == (b * a).scale(sign)


# -- the interval algebra is the square one in t1 alone -------------------------
#
# The interval product and differential as they were written on (dt, e) keys
# before the square's took their place, kept as the oracle.

def _oracle_mul(terms1, terms2):
    out = {}
    for (dt1, e1), a1 in terms1.items():
        a1_twisted = None
        for (dt2, e2), a2 in terms2.items():
            if dt1 and dt2:
                continue
            left = a1
            if dt2:
                # dt of the right factor passes the left coefficient
                if a1_twisted is None:
                    a1_twisted = a1.negate_odd()
                left = a1_twisted
            prod = left * a2
            if prod.is_zero():
                continue
            key = (dt1 | dt2, e1 + e2)
            cur = out.get(key)
            out[key] = prod if cur is None else cur + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def _oracle_d(alg, terms):
    out = {}

    def add(key, coeff):
        out[key] = coeff if key not in out else out[key] + coeff

    for (dt, e), a in terms.items():
        if dt == 0 and e > 0:
            add((1, e - 1), a.scale(e))
        da = alg.differential(a)
        if not da.is_zero():
            add((dt, e), da.scale(-1 if dt else 1))
    return {k: v for k, v in out.items() if not v.is_zero()}


def _edge_terms(f):
    """The terms of an interval form on (dt, e) keys."""
    assert all(type(f) is Form1 and key[2] == 0 for key in f.terms)
    return {key[:2]: a for key, a in f.terms.items()}


def _random_coefficient(rng, fiber):
    """A sum of up to three products of up to two generators, odd ones
    (x, y, z, u) included."""
    out = fiber.zero()
    for _ in range(rng.randint(1, 3)):
        term = fiber.unit().scale(rng.choice((-2, -1, 1, Fraction(1, 2), 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * fiber.generator(rng.choice("xyzwu"))
        out = out + term
    return out


def _random_interval_form(rng, fiber):
    f = Form1.zero(fiber)
    for _ in range(rng.randint(0, 3)):
        f = f + Form1.monomial(fiber, _random_coefficient(rng, fiber),
                               e=rng.randint(0, 3), dt=rng.choice((0, 1)))
    return f


def test_interval_product_and_differential_match_the_oracle(fiber):
    rng = random.Random(53)
    seen, twisted = set(), 0
    for _ in range(150):
        f, g = (_random_interval_form(rng, fiber) for _ in range(2))
        ft, gt = _edge_terms(f), _edge_terms(g)
        assert _edge_terms(f * g) == _oracle_mul(ft, gt)
        assert _edge_terms(f.d()) == _oracle_d(fiber, ft)
        c = _random_coefficient(rng, fiber)
        assert _edge_terms(f * c) == _oracle_mul(ft, {(0, 0): c})
        assert _edge_terms(c * f) == _oracle_mul({(0, 0): c}, ft)
        r = rng.choice((2, Fraction(-1, 3)))
        assert _edge_terms(f * r) == _oracle_mul(ft, {(0, 0): fiber.coerce(r)})
        seen.update((key[0], key2[0]) for key in f.terms for key2 in g.terms)
        odd = any(fiber.mono_degree(m) % 2 for a in f.terms.values()
                  for m in a.coeffs)
        twisted += odd and any(key[0] for key in g.terms)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}  # dt on either side
    assert twisted >= 20  # an odd coefficient passes the right factor's dt


def test_one_product_one_differential():
    # the interval forms share the square's code, not a copy of it
    assert (Form1.__dict__["__mul__"] is Form2.__dict__["__mul__"]
            is _Form.__dict__["__mul__"])
    assert Form1.d is Form2.d is _Form.d
    assert Form1.degree is Form2.degree is _Form.degree
    for name in ("d", "degrees", "degree"):
        assert name not in Form1.__dict__ and name not in Form2.__dict__


def test_interval_degrees_count_dt(fiber):
    u = fiber.generator("u")
    assert Form1.monomial(fiber, u, e=2, dt=1).degree() == 6
    assert Form1.monomial(fiber, u, e=2).degrees() == {5}


def test_scalar_forms_carry_fractions_and_print_pinned():
    for f in (sq(Fraction(3, 2), e1=1), sq(-1, mask=3),
              sq(2, e2=1, mask=1) * sq(1, e1=1, mask=2),
              sq(1, e1=2).d() + sq(Fraction(-1, 3)),
              sq(5, e1=1, e2=1).restrict_edge(2, 0)):
        assert all(type(c) is Fraction for c in f.terms.values())
    assert repr(sq(Fraction(3, 2), e1=1)) == "t1(3/2)"
    assert repr(sq(-1, mask=3)) == "dt1dt2(-1)"
    assert repr(sq(2, e2=1, mask=1) * sq(1, e1=1, mask=2)) == "t1t2dt1dt2(2)"
    assert repr(sq(1, e1=2).d() + sq(Fraction(-1, 3))) == "(-1/3) + t1dt1(2)"
    assert repr(sq(5, e1=1, e2=1).restrict_edge(2, 0)) == "t(5)"
    assert repr(Form1.monomial(SCALAR_ALGEBRA, Fraction(-2, 5), e=2, dt=1)) \
        == "t^2dt(-2/5)"
    assert repr(sq(0)) == "0" and sq(0).is_zero()
    assert sq(1, mask=1).degree() == 1 and sq(1, e1=3).degree() == 0
    assert sq(1, e1=2).restrict_edge(1, 0).at_endpoint(Fraction(1, 2)) \
        == Fraction(1, 4)


def test_restrict_edge_pinned():
    assert sq(1, mask=2).restrict_edge(1, 0).is_zero()
    # t1 dt1 along edge 1 keeps its parameter: t dt
    assert sq(1, e1=1, mask=1).restrict_edge(1, 0) == Form1.monomial(
        SCALAR_ALGEBRA, 1, e=1, dt=1)
    # t2 dt1 at t2 = 1 becomes dt; at t2 = 0 it dies
    assert sq(1, e2=1, mask=1).restrict_edge(1, 0) == Form1.monomial(
        SCALAR_ALGEBRA, 1, dt=1)
    assert sq(1, e2=1, mask=1).restrict_edge(1, 1).is_zero()


def test_restrict_edge_is_algebra_map():
    rng = random.Random(53)

    def rand_form():
        f = Form2.zero(SCALAR_ALGEBRA)
        for _ in range(rng.randint(1, 4)):
            f = f + sq(rng.randint(-3, 3), e1=rng.randint(0, 3),
                       e2=rng.randint(0, 3), mask=rng.choice([0, 0, 1, 2]))
        return f

    for _ in range(20):
        a, b = rand_form(), rand_form()
        for i in (1, 2):
            for j in (0, 1):
                lhs = (a * b).restrict_edge(i, j)
                rhs = a.restrict_edge(i, j) * b.restrict_edge(i, j)
                assert lhs == rhs


def test_build_local_system_pinned_faces(ls, fiber):
    a1, b1, a2, b2 = (Fraction(p) for p in PARAMS)
    w = fiber.generator("w")
    x, y, z = fiber.generator("x"), fiber.generator("y"), fiber.generator("z")
    assert ls.edge_d0[1]["w"] == (w + x * y).scale(a1 * b1)
    assert ls.face_d0[1]["x"] == Form1.const(fiber, (x + z).scale(a2))
    # the twisted square face on w: a2 b2 (w - t y z - dt u)
    expected_w = (Form1.const(fiber, w)
                  - Form1.monomial(fiber, y * z, e=1)
                  - Form1.monomial(fiber, fiber.generator("u"), dt=1)).scale(a2 * b2)
    assert ls.face_d0[1]["w"] == expected_w


def test_build_local_system_chain_map_on_u(ls, fiber):
    # d(d10(u)) = d10(du) reduces to a2 b2 y z on both sides
    du = fiber.generator("u").d()
    lhs = ls.apply_face(1, 0, Form2.const(fiber, du))
    rhs = ls.apply_face(1, 0, Form2.const(fiber, fiber.generator("u"))).d()
    assert lhs == rhs
    a2, b2 = Fraction(PARAMS[2]), Fraction(PARAMS[3])
    assert lhs == Form1.const(fiber, (fiber.generator("y")
                                   * fiber.generator("z")).scale(a2 * b2))


def test_build_local_system_rejects_zero_parameters():
    with pytest.raises(ParameterZeroError):
        build_local_system(0, 1, 1, 1)


def test_sections_pass(ls):
    assert is_global_section(ls, section_x(ls)).ok
    assert is_global_section(ls, section_w(ls)).ok
    for name in ("y", "z", "u"):
        assert is_global_section(ls, constant_section(ls, name)).ok


def test_section_w_both_signs_pass(ls):
    w = section_w(ls)
    flipped = SectionCandidate(-w.tau, w.twist)
    assert is_global_section(ls, flipped).ok


def test_section_x_edge_values(ls, fiber):
    report = is_global_section(ls, section_x(ls))
    assert report.ok
    # both square faces on edge 1 give -x
    assert report.edge_values[1] == Form1.const(fiber, -fiber.generator("x"))
    assert report.point_value == -fiber.generator("x")


def test_constant_x_candidate_fails(ls, fiber):
    bad = SectionCandidate(Form2.const(fiber, fiber.generator("x")), twist=(1, 0))
    report = is_global_section(ls, bad)
    assert not report.ok
    assert any(tag == "face_equation_sigma1" for tag, _ in report.failures)
    assert all(tag != "face_equation_sigma2" for tag, _ in report.failures)


def test_monodromy_pinned(ls):
    a1, b1, a2, b2 = (Fraction(p) for p in PARAMS)
    rep3 = ls.monodromy_of(3)
    assert rep3.g1.to_rows() == [[a1, 0, 0], [0, b1, 0], [0, 0, a1]]
    assert rep3.g2.to_rows() == [[a2, 0, a2], [0, b2, 0], [0, 0, a2]]
    rep5 = ls.monodromy_of(5)
    assert rep5.g1.to_rows() == [[a1 * b1]]
    assert rep5.g2.to_rows() == [[a2 * b2]]
    assert ls.monodromy_of(4).dim == 0


def test_monodromy_not_linear_in_degree_six(ls):
    from t2mc.t2forms import NotLinearOnGeneratorsError
    with pytest.raises(NotLinearOnGeneratorsError):
        ls.monodromy_of(6)


def test_every_face_map_commutes_with_d(ls, fiber):
    # the constructor validates this; re-check explicitly on all generators
    for i in (1, 2):
        for g in fiber.generators:
            gen = fiber.generator(g.name)
            assert (ls.apply_face(i, 0, Form2.const(fiber, gen.d()))
                    == ls.apply_face(i, 0, Form2.const(fiber, gen)).d())
            assert (ls.apply_edge(i, 0, Form1.const(fiber, gen.d()))
                    == ls.apply_edge(i, 0, Form1.const(fiber, gen)).d())


def test_interval_form_endpoint_evaluation(fiber):
    f = (Form1.monomial(fiber, fiber.generator("x"), e=2)
         + Form1.monomial(fiber, fiber.generator("y"), dt=1))
    assert f.at_endpoint(1) == fiber.generator("x")
    assert f.at_endpoint(0).is_zero()
    g = Form1.monomial(fiber, fiber.unit(), e=1) - Form1.const(fiber, fiber.unit())
    assert g.at_endpoint(1).is_zero()


def test_degree_bookkeeping(ls, fiber):
    w_tau = section_w(ls).tau
    assert w_tau.degree() == 6
    assert section_x(ls).tau.degree() == 3
    with pytest.raises(ValueError):
        (Form2.const(fiber, fiber.generator("x"))
         + Form2.const(fiber, fiber.generator("u"))).degree()


@pytest.mark.parametrize("cls", [Form1, Form2])
def test_shared_term_algebra(cls, fiber):
    x, y = fiber.generator("x"), fiber.generator("y")
    one = cls.const(fiber, fiber.unit())
    f = cls.monomial(fiber, x, 1) + one  # t x + 1 (t1 x + 1 on the square)
    # rational constants add to and subtract from the constant term
    assert f + 2 == 2 + f == f + one.scale(2)
    assert f - Fraction(1, 2) == f + one.scale(Fraction(-1, 2))
    assert f - 1 == cls.monomial(fiber, x, 1)
    # coefficients multiply on either side, with the graded sign
    assert cls.monomial(fiber, x, 1) * y == cls.monomial(fiber, x * y, 1)
    assert y * cls.monomial(fiber, x, 1) == cls.monomial(fiber, y * x, 1)
    assert y * x == -(x * y)
    # negation and scaling by zero reach the zero form
    assert (f + (-f)).is_zero() and f - f == cls.zero(fiber)
    assert f.scale(0).is_zero() and 0 * f == cls.zero(fiber)
    assert -f == f.scale(-1)
    # zero coefficients are dropped by the constructor
    key = next(iter(cls.monomial(fiber, x, 1).terms))
    g = cls(fiber, {key: x, (0,) * len(key): fiber.zero()})
    assert g.terms == {key: x}
    # equality is strict about the class
    terms = {(0, 0, 0): x}
    other = Form2 if cls is Form1 else Form1
    assert cls(fiber, terms) != other(fiber, terms)
    assert cls(fiber, terms) == cls(fiber, dict(terms))
