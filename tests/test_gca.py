import random

import pytest

from t2mc.gca import AlgebraPresentation, DifferentialSquareError
from t2mc.t2forms import build_fiber_algebra
from t2mc.xmodel import ParameterSpec, build_total_model, build_torus_model


@pytest.fixture(scope="module")
def fiber():
    return build_fiber_algebra()


@pytest.fixture(scope="module")
def model_m():
    return build_total_model(ParameterSpec.generic(), "s2").pres


@pytest.fixture(scope="module")
def lam_s():
    return build_torus_model().pres


def test_basis_lambda_s(lam_s):
    assert [lam_s.mono_str(m) for m in lam_s.enumerate_basis(1)] == ["s1", "s2"]
    assert lam_s.enumerate_basis(3) == []


def test_basis_m_degree_six(model_m):
    names = [model_m.mono_str(m) for m in model_m.enumerate_basis(6)]
    assert len(names) == 6
    assert set(names) == {"xb*yb", "xb*zb", "yb*zb", "wb", "s1*ub", "s2*ub"}


def test_multiply_odd_generators(lam_s):
    s1, s2 = lam_s.generator("s1"), lam_s.generator("s2")
    assert s1 * s2 == -(s2 * s1)
    assert (s1 * s1).is_zero()
    assert repr(s1 * s2) == "s1*s2"


def test_multiply_degree_three(model_m):
    yb, zb = model_m.generator("yb"), model_m.generator("zb")
    assert zb * yb == -(yb * zb)
    wb = model_m.generator("wb")
    assert not (wb * wb).is_zero()


def test_differential_pinned(fiber, model_m):
    u = fiber.generator("u")
    assert u.d() == fiber.generator("y") * fiber.generator("z")
    wb = model_m.generator("wb")
    s1, s2 = model_m.generator("s1"), model_m.generator("s2")
    xb, yb, ub = (model_m.generator("xb"), model_m.generator("yb"),
                  model_m.generator("ub"))
    assert wb.d() == s1 * xb * yb - s1 * s2 * ub
    assert (s1 * ub).d() == -(s1 * yb.__mul__(model_m.generator("zb")))


def test_differential_matrix(fiber, lam_s):
    for n in range(6):
        mat = lam_s.differential_matrix(n)
        assert mat.is_zero()
    mat = fiber.differential_matrix(5)
    basis5 = fiber.enumerate_basis(5)
    basis6 = fiber.enumerate_basis(6)
    assert [fiber.mono_str(m) for m in basis5] == ["u"]
    col = mat.col(0)
    yz = next(i for i, m in enumerate(basis6) if fiber.mono_str(m) == "y*z")
    assert col[yz] == 1
    assert sum(1 for c in col if c != 0) == 1


def test_d_square_matrices(fiber, model_m, lam_s):
    for pres in (fiber, model_m, lam_s):
        assert pres.check_d_square(8) == []


def test_check_d_square_builds_each_matrix_once(fiber, monkeypatch):
    built = []
    real = AlgebraPresentation.differential_matrix
    monkeypatch.setattr(AlgebraPresentation, "differential_matrix",
                        lambda self, n: built.append(n) or real(self, n))
    assert fiber.check_d_square(8) == []
    assert built == list(range(10))


def test_character_pinned(model_m):
    xb_yb = next(m for m in model_m.enumerate_basis(6)
                 if model_m.mono_str(m) == "xb*yb")
    assert model_m.mono_character(xb_yb) == (1, 1, 1, 1)
    s1s2 = next(m for m in model_m.enumerate_basis(2)
                if model_m.mono_str(m) == "s1*s2")
    assert model_m.mono_character(s1s2) == (0, 0, 0, 0)
    ub = next(m for m in model_m.enumerate_basis(5)
              if model_m.mono_str(m) == "ub")
    assert model_m.mono_character(ub) == (1, 1, 1, 1)


def _random_homogeneous(pres, rng, degree):
    basis = pres.enumerate_basis(degree)
    out = pres.zero()
    for mono in basis:
        if rng.random() < 0.6:
            out = out + pres.mono_element(mono, rng.randint(-3, 3))
    return out


def test_multiply_associative_and_graded_commutative(model_m):
    rng = random.Random(5)
    for _ in range(20):
        da = rng.randint(1, 6)
        db = rng.randint(1, 6)
        dc = rng.randint(1, 6)
        a = _random_homogeneous(model_m, rng, da)
        b = _random_homogeneous(model_m, rng, db)
        c = _random_homogeneous(model_m, rng, dc)
        assert (a * b) * c == a * (b * c)
        sign = -1 if (da * db) % 2 else 1
        assert a * b == (b * a).scale(sign)


def test_character_additive(model_m):
    rng = random.Random(9)
    for _ in range(30):
        m1 = rng.choice(model_m.enumerate_basis(rng.randint(1, 5)))
        m2 = rng.choice(model_m.enumerate_basis(rng.randint(1, 5)))
        sm = model_m.mono_mul(m1, m2)
        if sm is None:
            continue
        _, m = sm
        assert model_m.mono_character(m) == tuple(
            a + b for a, b in zip(model_m.mono_character(m1),
                                  model_m.mono_character(m2)))


def test_differential_character_preserving(fiber, model_m):
    for pres in (fiber, model_m):
        for g in pres.generators:
            dg = g.differential
            if dg is None or dg.is_zero():
                continue
            for mono in dg.coeffs:
                assert pres.mono_character(mono) == g.character


def test_leibniz_random(model_m):
    rng = random.Random(3)
    for _ in range(20):
        da = rng.randint(1, 4)
        db = rng.randint(1, 4)
        a = _random_homogeneous(model_m, rng, da)
        b = _random_homogeneous(model_m, rng, db)
        lhs = (a * b).d()
        rhs = a.d() * b + (a * b.d()).scale(-1 if da % 2 else 1)
        assert lhs == rhs


def test_presentation_rejects_bad_differential_degree():
    p = AlgebraPresentation()
    p.add_generator("a", 2)
    p.add_generator("b", 2)
    with pytest.raises(ValueError):
        p.set_differential("a", p.generator("b"))


def test_presentation_d_square_strictness():
    p = AlgebraPresentation()
    p.add_generator("s1", 1)
    p.add_generator("s2", 1)
    p.add_generator("y", 3)
    p.add_generator("z", 3)
    p.add_generator("u", 5)
    p.add_generator("w", 6)
    p.set_differential("u", p.generator("y") * p.generator("z"))
    p.set_differential("w", p.generator("s1") * p.generator("s2")
                       * p.generator("u"))
    with pytest.raises(DifferentialSquareError):
        p.finalize()
    q = AlgebraPresentation()
    q.add_generator("s1", 1)
    q.add_generator("s2", 1)
    q.add_generator("y", 3)
    q.add_generator("z", 3)
    q.add_generator("u", 5)
    q.add_generator("w", 6)
    q.set_differential("u", q.generator("y") * q.generator("z"))
    q.set_differential("w", q.generator("s1") * q.generator("s2")
                       * q.generator("u"))
    q.finalize(strict_d2=False)
    assert len(q.d_square_defects) == 1
    assert q.d_square_defects[0][0] == "w"


def _three_generators():
    p = AlgebraPresentation()
    p.add_generator("s", 1)
    p.add_generator("y", 3, (0, 1, 0, 1))
    p.add_generator("x", 3, (1, 0, 1, 0))
    return p


@pytest.mark.parametrize("step, message", [
    (lambda p: p.add_generator("x", 3, (0, 1, 0, 1)),
     "duplicate generator 'x'"),
    (lambda p: p.add_generator("v", 0), "degree must be positive"),
    (lambda p: p.add_generator("v", -2), "degree must be positive"),
    (lambda p: p.set_differential("x", p.generator("s")),
     r"d\(x\) must have degree 4"),
    (lambda p: p.set_differential("x", p.generator("s") * p.generator("y")),
     r"d\(x\) must have character \(1, 0, 1, 0\)"),
    (lambda p: p.finalize().set_differential(
        "x", p.generator("s") * p.generator("x")),
     "presentation already finalized"),
], ids=["duplicate", "degree_0", "degree_-2", "d_degree", "d_character",
        "d_after_finalize"])
def test_presentation_validation_errors(step, message):
    with pytest.raises(ValueError, match=message):
        step(_three_generators())


def test_element_truth_is_nonzero(fiber):
    # forms drop zero coefficients by truthiness, Elements and Fractions alike
    assert not fiber.zero() and fiber.unit() and fiber.generator("x")
    assert not (fiber.generator("x") - fiber.generator("x"))
    scalars = AlgebraPresentation(bound=0).finalize()
    assert not scalars.zero() and scalars.unit()
