import random
from fractions import Fraction

import pytest

from t2mc.gca import SCALAR_ALGEBRA
from t2mc.t2forms import (Form1, Form2, ParameterZeroError,
                          SectionCandidate, build_local_system,
                          constant_section, is_global_section,
                          parse_local_system, local_system_to_text,
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


def test_restrict_edge_pinned():
    assert sq(1, mask=2).restrict_edge(1, 0).is_zero()
    # t1 dt1 along edge 1 keeps its parameter: t dt
    assert sq(1, e1=1, mask=1).restrict_edge(1, 0) == Form1.monomial(
        SCALAR_ALGEBRA, SCALAR_ALGEBRA.scalar(1), e=1, dt=1)
    # t2 dt1 at t2 = 1 becomes dt; at t2 = 0 it dies
    assert sq(1, e2=1, mask=1).restrict_edge(1, 0) == Form1.monomial(
        SCALAR_ALGEBRA, SCALAR_ALGEBRA.scalar(1), dt=1)
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


def test_local_system_text_round_trip(ls):
    text = local_system_to_text(ls)
    back = parse_local_system(text)
    assert back.params == ls.params
    for i in (1, 2):
        for g in ls.alg.generators:
            assert back.edge_d0[i][g.name].coeffs == \
                ls.edge_d0[i][g.name].coeffs
            assert back.face_d0[i][g.name].terms.keys() == \
                ls.face_d0[i][g.name].terms.keys()
            for key, val in ls.face_d0[i][g.name].terms.items():
                assert back.face_d0[i][g.name].terms[key].coeffs == val.coeffs


def test_interval_form_endpoint_evaluation(fiber):
    f = (Form1.monomial(fiber, fiber.generator("x"), e=2)
         + Form1.monomial(fiber, fiber.generator("y"), dt=1))
    assert f.at_endpoint(1) == fiber.generator("x")
    assert f.at_endpoint(0).is_zero()
    g = Form1.monomial(fiber, fiber.unit(), e=1) - Form1.const(fiber, fiber.unit())
    assert g.at_endpoint(1).is_zero()


def test_parse_local_system_errors():
    import pytest as _pytest
    with _pytest.raises(ValueError):
        parse_local_system("edge1 x = a1*x\n")  # params must come first
    with _pytest.raises(ValueError):
        parse_local_system("params 1 2 3\n")


def test_parse_local_system_rejects_malformed_tables():
    from t2mc.errors import ParseError

    for text, message in (
            ("params 1 2 3 4\nedge3 x = x\n", "bad local-system line"),
            ("params 1 2 3 4\nedge1 x = x\n", "no edge1 line for generator"),
            ("params 1/0 2 3 4\n", "bad parameter value")):
        with pytest.raises(ParseError, match=message):
            parse_local_system(text)


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
    terms = {(0, 0): x}
    other = Form2 if cls is Form1 else Form1
    assert cls(fiber, terms) != other(fiber, terms)
    assert cls(fiber, terms) == cls(fiber, dict(terms))
