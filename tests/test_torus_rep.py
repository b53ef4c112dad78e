import importlib.util
import functools
import itertools
import json
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import t2mc.cochain as cochain
import t2mc.qlinalg as qlinalg
import t2mc.torus_rep as torus_rep
from t2mc.errors import CrossCheckError, DomainError
from t2mc.qlinalg import Matrix, det, invert, rank, rank_kernel, solve
from t2mc.torus_rep import (GRID_CAP, IrrationalSpectrumError, IsoResult,
                            NonCommutingError, SingularError, TorusRep,
                            _candidate_key, _kronecker, cellular_complex,
                            char_poly, hom_rep, intertwiner_space,
                            is_isomorphic, parse_rep, rational_roots,
                            rep_to_text, require_valid, semisimplify,
                            unipotent_summand, validate)

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def _conjugate(r, p):
    """The pair p^-1·g_i·p, in the basis given by the columns of p."""
    pinv = invert(p)
    return TorusRep(pinv * r.g1 * p, pinv * r.g2 * p)


def rep(rows1, rows2=None):
    g1 = Matrix.from_rows(rows1)
    g2 = Matrix.from_rows(rows2) if rows2 is not None else Matrix.identity(
        g1.rows)
    return TorusRep(g1, g2)


def test_validate_pinned():
    assert validate(TorusRep.trivial(2)).ok
    bad = rep([[1, 1], [0, 1]], [[0, 1], [1, 0]])
    assert "non_commuting" in validate(bad).problems
    with pytest.raises(NonCommutingError):
        require_valid(bad)
    singular = rep([[0, 0], [0, 1]])
    assert "singular_g1" in validate(singular).problems
    with pytest.raises(SingularError):
        require_valid(singular)


def _reference_validate(r):
    """Validation as it stood with invertibility tested by a determinant."""
    problems = []
    if r.g1 * r.g2 != r.g2 * r.g1:
        problems.append("non_commuting")
    if det(r.g1) == 0:
        problems.append("singular_g1")
    if det(r.g2) == 0:
        problems.append("singular_g2")
    return problems


def _validation_pairs():
    """Seeded pairs with n = 1 to 8 and entries p/q: for each n a valid pair
    (g2 a polynomial in g1), commuting pairs with one and with two singular
    generators, a non-commuting pair and a non-commuting pair with a
    singular one."""
    rng = random.Random(59)

    def dense(n):
        return Matrix.from_rows([[Fraction(rng.randint(-9, 9),
                                           rng.choice((1, 2, 3)))
                                  for _ in range(n)] for _ in range(n)])

    def singular(n):
        rows = dense(n).to_rows()
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        rows[-1] = [c * e for e in rows[0]] if n > 1 else [0]
        if n > 2:
            rows[-1] = [x + y for x, y in zip(rows[-1], rows[1])]
        return Matrix.from_rows(rows)

    pairs = []
    for n in range(1, 9):
        g = dense(n)
        pairs.append(TorusRep(g, g * g))
        s, c = singular(n), Matrix.identity(n).scale(rng.choice((2, -3)))
        pairs.append(TorusRep(s, s * s))
        pairs.append(TorusRep(s, c) if n % 2 else TorusRep(c, s))
        pairs.append(TorusRep(dense(n), dense(n)))
        pairs.append(TorusRep(singular(n), dense(n)) if n % 2
                     else TorusRep(dense(n), singular(n)))
    return pairs


def test_validate_matches_determinant_reference(monkeypatch):
    dets = []
    real = torus_rep.det
    monkeypatch.setattr(torus_rep, "det",
                        lambda m: dets.append(m) or real(m))
    seen = set()
    for r in _validation_pairs():
        problems = validate(r).problems
        assert problems == _reference_validate(r)
        seen.add(tuple(problems))
    assert {(), ("singular_g1",), ("singular_g2",), ("non_commuting",),
            ("non_commuting", "singular_g1"),
            ("non_commuting", "singular_g2")} <= seen
    # invertibility is a rank test: validation takes no determinant
    assert dets == []


def test_validate_commutator_matches_the_product_route():
    # the commutator is decided on the integer cores of g1·g2 and g2·g1,
    # cross-scaled: on seeded rational pairs, with row and column
    # denominators that differ, commuting (g2 a rational polynomial in g1)
    # and not (one entry of such a g2 moved by a small fraction, or an
    # unrelated g2), from 0 x 0 up, it answers as the products compare
    rng = random.Random(61)

    def dense(n):
        return Matrix.from_rows([[Fraction(rng.randint(-9, 9),
                                           rng.choice((1, 2, 3, 5, 7)))
                                  for _ in range(n)] for _ in range(n)])

    seen = set()
    for n in [0, 0, 1, 1, 1] + [rng.randint(2, 6) for _ in range(12)]:
        g1 = dense(n)
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
             for _ in range(3)]
        poly = (Matrix.identity(n).scale(c[0]) + g1.scale(c[1])
                + (g1 * g1).scale(c[2]))
        moved = poly.to_rows()
        if n:
            moved[rng.randrange(n)][rng.randrange(n)] += Fraction(
                1, rng.choice((97, 101, 1024)))
        for g2 in (poly, Matrix.from_rows(moved) if n else poly, dense(n)):
            for a, b in ((g1, g2), (g2, g1)):
                commute = a * b == b * a
                assert a.commutes_with(b) is commute
                problems = validate(TorusRep(a, b)).problems
                assert ("non_commuting" in problems) is not commute
                seen.add((n > 1, commute))
    assert seen == {(False, True), (True, True), (True, False)}


def test_char_poly_and_rational_roots():
    m = Matrix.from_rows([[2, 1], [0, 3]])
    coeffs = char_poly(m)  # x^2 - 5x + 6
    assert coeffs == [Fraction(6), Fraction(-5), Fraction(1)]
    assert rational_roots(coeffs) == [Fraction(2), Fraction(3)]
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []
    assert rational_roots([Fraction(0), Fraction(1)]) == [Fraction(0)]


def _power_of_linear(p, q, k):
    """Ascending coefficients of (q·x - p)^k."""
    coeffs = [1]
    for _ in range(k):
        coeffs = [q * b - p * a for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def test_rational_roots_of_large_constant_terms():
    # 7^24 has 25 divisors, but trial division up to its square root
    # takes 7^12, about 1.4e10, steps
    assert rational_roots(_power_of_linear(7, 1, 24)) == [Fraction(7)]
    assert rational_roots(_power_of_linear(7, 3, 20)) == [Fraction(7, 3)]
    # the squarefree part x - p leaves one candidate pair, where the full
    # constant term asks for about 10^9 trial divisions ((x - p)^2) or has
    # 17^3 divisors ((x - 30)^16)
    big = 1000000007
    assert rational_roots(_power_of_linear(big, 1, 2)) == [Fraction(big)]
    assert rational_roots(_power_of_linear(30, 1, 16)) == [Fraction(30)]
    for v in range(1, 400):
        assert torus_rep._divisors(v) == [
            d for d in range(1, v + 1) if v % d == 0]


def test_semisimplify_jordan_block():
    v1 = rep([[2, 3], [0, 2]])
    data = semisimplify(v1)
    assert data.characters == [(2, 1), (2, 1)]
    assert data.tri.g1 == Matrix.from_rows([[2, 3], [0, 2]])
    assert data.tri.g2 == Matrix.identity(2)
    assert data.basis == Matrix.identity(2)


def test_semisimplify_diagonal():
    v = rep([[2, 0], [0, 3]], [[5, 0], [0, 7]])
    data = semisimplify(v)
    assert data.tri.g1 == Matrix.diagonal([2, 3])
    assert data.tri.g2 == Matrix.diagonal([5, 7])
    assert sorted(data.characters) == [(2, 5), (3, 7)]


def test_semisimplify_irrational():
    rot = rep([[0, -1], [1, 0]])
    with pytest.raises(IrrationalSpectrumError):
        semisimplify(rot)


def test_semisimplify_reconjugation_recovers_input():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        scalars = [rng.choice([1, -1, 2, 3, Fraction(1, 2)])
                   for _ in range(n)]
        upper1 = [[scalars[i] if i == j
                   else (rng.randint(-2, 2) if j > i else 0)
                   for j in range(n)] for i in range(n)]
        v = rep(upper1)
        p = Matrix.from_rows([[1 if i == j else (1 if (i, j) == (0, n - 1)
                                                 else 0)
                               for j in range(n)] for i in range(n)])
        conj = _conjugate(v, p)
        data = semisimplify(conj)
        binv = invert(data.basis)
        assert binv * conj.g1 * data.basis == data.tri.g1
        assert binv * conj.g2 * data.basis == data.tri.g2
        for i in range(n):
            for j in range(i):
                assert data.tri.g1[(i, j)] == 0
                assert data.tri.g2[(i, j)] == 0


def _product_form_semisimplify(r):
    """The product-form triangularization, as a reference: each step
    completes the common eigenvector vec of the trailing blocks by the unit
    vectors e_j, j != L (L indexing vec's last nonzero entry), embeds that
    basis change P in the identity, and conjugates the whole pair by it.
    Returns (characters, basis, tri1, tri2)."""
    n = r.dim
    lam1s = rational_roots(char_poly(r.g1)) if n > 1 else []
    lam2s = functools.cache(
        lambda lam1: torus_rep._eigenspace_spectrum(r.g1, r.g2, lam1))
    basis = Matrix.identity(n)
    a1, a2 = r.g1, r.g2
    for step in range(n - 1):
        m = n - step
        sub1, sub2 = (Matrix.from_rows([x[step:] for x in a.to_rows()[step:]])
                      for a in (a1, a2))
        vec = torus_rep._common_eigenvector(sub1, sub2, lam1s, lam2s)
        last = max(j for j in range(m) if vec[j])
        p_small = Matrix.from_rows(
            [[vec[k]] + [Fraction(int(k == j)) for j in range(m) if j != last]
             for k in range(m)])
        p_step = Matrix.from_rows(
            [[Fraction(int(i == j)) if i < step or j < step
              else p_small[(i - step, j - step)]
              for j in range(n)] for i in range(n)])
        basis = basis * p_step
        pinv = invert(p_step)
        a1, a2 = pinv * a1 * p_step, pinv * a2 * p_step
    return [(a1[(i, i)], a2[(i, i)]) for i in range(n)], basis, a1, a2


def test_semisimplify_matches_the_product_form_loop(monkeypatch):
    # each step works on the trailing blocks in closed form: the one
    # inversion is basis^-1, for the final tri_i = basis^-1·g_i·basis
    calls = []
    monkeypatch.setattr(torus_rep, "invert",
                        lambda m: calls.append(m) or invert(m))
    pairs = _seeded_commuting_pairs(41, 60)
    moved = 0
    for r in pairs:
        calls.clear()
        data = semisimplify(r)
        assert calls == [data.basis]
        want = _product_form_semisimplify(r)
        assert (data.characters, data.basis, data.tri.g1, data.tri.g2) == want
        assert repr((data.characters, data.basis, data.tri.g1,
                     data.tri.g2)) == repr(want)
        moved += r.dim > 2 and data.basis != Matrix.identity(r.dim)
    assert moved >= 10


def test_shift_subtracts_on_the_diagonal():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(0, 6)
        m = Matrix.from_rows([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(n)] for _ in range(n)])
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        shifted = torus_rep._shift(m, lam)
        assert shifted == m - Matrix.diagonal([lam] * n)
        assert all(type(e) is Fraction for e in shifted.entries)


def _block_triangular_pairs(seed, count):
    """Upper triangular pairs with random characters: block upper triangular
    at every index."""
    out = []
    for r in _seeded_commuting_pairs(seed, count):
        data = semisimplify(r)
        out.append(TorusRep(data.tri.g1, data.tri.g2))
    return out


def test_block_inherits_validity(monkeypatch):
    pairs = [r for r in _block_triangular_pairs(53, 30) if r.dim > 1]
    for r in pairs:
        require_valid(r)
        calls = []
        monkeypatch.setattr(torus_rep, "validate",
                            lambda v: calls.append(v) or validate(v))
        n = r.dim
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                b = r.block(lo, hi)
                assert b.g1 == Matrix.from_rows(
                    [row[lo:hi] for row in r.g1.to_rows()[lo:hi]])
                assert b.g2 == Matrix.from_rows(
                    [row[lo:hi] for row in r.g2.to_rows()[lo:hi]])
                require_valid(b)
                assert calls == []
        monkeypatch.undo()
    # a rep not yet validated hands down no validity
    fresh = TorusRep(pairs[0].g1, pairs[0].g2)
    calls = []
    monkeypatch.setattr(torus_rep, "validate",
                        lambda v: calls.append(v) or validate(v))
    b = fresh.block(0, 1)
    require_valid(b)
    require_valid(b)
    assert calls == [b]


def test_block_requires_block_triangularity():
    g1 = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 0, 1]])
    r = TorusRep(g1, Matrix.identity(3))
    assert r.block(0, 3) is not r and r.block(0, 3) == r
    for lo, hi in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)):
        with pytest.raises(DomainError, match="block upper triangular"):
            r.block(lo, hi)
    g2 = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 7, 1]])
    r = TorusRep(Matrix.identity(3), g2)
    r.block(0, 1)
    with pytest.raises(DomainError):
        r.block(0, 2)
    with pytest.raises(DomainError):
        r.block(2, 3)


def test_require_valid_records_success_only(monkeypatch):
    calls = []
    monkeypatch.setattr(torus_rep, "validate",
                        lambda v: calls.append(v) or validate(v))
    good = rep([[1, 1], [0, 1]])
    require_valid(good)
    require_valid(good)
    bad = rep([[1, 1], [0, 0]])
    for _ in range(2):
        with pytest.raises(SingularError):
            require_valid(bad)
    assert calls == [good, bad, bad]
    # validate returns the report and is not cached
    assert torus_rep.validate(good).ok and torus_rep.validate(good).ok
    assert len(calls) == 5


def test_semisimplify_triangularity_failure_is_a_cross_check(monkeypatch,
                                                             tmp_path):
    from t2mc.cli import main

    r = next(r for r in _seeded_commuting_pairs(41, 60)
             if semisimplify(r).basis != Matrix.identity(r.dim))
    monkeypatch.setattr(torus_rep, "invert", lambda m: Matrix.identity(
        m.rows))
    with pytest.raises(CrossCheckError, match="not upper triangular"):
        semisimplify(r)
    path = tmp_path / "r.rep"
    path.write_text(rep_to_text(r))
    assert main(["ssify", str(path)]) == 4


def test_is_isomorphic_wrong_conjugator_is_a_cross_check(monkeypatch):
    v = TorusRep.diagonal([(1, 1), (2, 1)])
    w = TorusRep.diagonal([(2, 1), (1, 1)])
    assert is_isomorphic(v, w)
    # End(V) in place of Hom(V, W): the same dimension, an invertible point
    # (the identity), and no intertwiner of v with w
    monkeypatch.setattr(torus_rep, "intertwiner_space",
                        lambda a, b: intertwiner_space(a, a))
    with pytest.raises(CrossCheckError, match="T·v.g_i != w.g_i·T"):
        is_isomorphic(v, w)


def test_semisimplify_completes_bases_without_rank(monkeypatch):
    calls = []
    real = torus_rep.rank
    monkeypatch.setattr(torus_rep, "rank",
                        lambda m: calls.append(m) or real(m))
    v = rep([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 3, 1], [0, 0, 0, 3]])
    p = Matrix.from_rows([[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0],
                          [0, 0, 1, 2]])
    u = _conjugate(v, p)
    data = semisimplify(u)
    assert sorted(data.characters) == [(2, 1), (2, 1), (3, 1), (3, 1)]
    # validation's invertibility tests are the only rank calls
    assert len(calls) == 2 and calls[0] is u.g1 and calls[1] is u.g2


def _jordan(lam, n):
    return Matrix.from_rows([[lam if i == j else int(j == i + 1)
                              for j in range(n)] for i in range(n)])


def test_semisimplify_with_large_eigenvalues():
    big = 1000000007
    data = semisimplify(TorusRep(_jordan(big, 2), Matrix.identity(2)))
    assert data.characters == [(big, 1)] * 2
    data = semisimplify(TorusRep(_jordan(30, 16), Matrix.identity(16)))
    assert data.characters == [(30, 1)] * 16
    # g2's eigenvalues are found one g1-eigenspace at a time, here one
    # prime each; g2's whole characteristic polynomial would put their
    # product, about 10^18, in front of the divisor search
    data = semisimplify(TorusRep.diagonal([(1, big), (2, big + 2)]))
    assert data.characters == [(1, big), (2, big + 2)]
    # no stage searches for the last character, nor for any of a 1-dim rep
    prod = big * (big + 2)
    data = semisimplify(TorusRep.diagonal([(1, 1), (2, prod)]))
    assert data.characters == [(1, 1), (2, prod)]
    assert semisimplify(TorusRep.diagonal([(prod, 1)])).characters == [
        (prod, 1)]


def _reference_common_eigenvector(a1, a2):
    """The per-stage reference: a1's rational eigenvalues in ascending
    order, and in the first eigenspace where a2's restriction has one, the
    smallest; each spectrum from its own characteristic polynomial."""
    n = a1.rows
    for lam1 in rational_roots(char_poly(a1)):
        _, e_basis = rank_kernel(a1 - Matrix.diagonal([lam1] * n))
        if not e_basis:
            continue
        emat = Matrix.from_rows([[v[i] for v in e_basis] for i in range(n)])
        cols = []
        ok = True
        for v in e_basis:
            img = (a2 * Matrix.column(v)).entries
            sol = solve(emat, img)
            if sol is None:
                ok = False
                break
            cols.append(sol)
        if not ok:
            continue
        m = len(e_basis)
        b = Matrix.from_rows([[cols[j][i] for j in range(m)] for i in range(m)])
        broots = rational_roots(char_poly(b))
        if not broots:
            continue
        lam2 = broots[0]
        _, w_basis = rank_kernel(b - Matrix.diagonal([lam2] * m))
        w = w_basis[0]
        vec = [sum((e_basis[j][i] * w[j] for j in range(m)), Fraction(0))
               for i in range(n)]
        return torus_rep._primitive(vec), lam1, lam2
    return None


def _upper(rng, n, scalars):
    return Matrix.from_rows(
        [[rng.choice(scalars) if i == j
          else (rng.choice([0, 0, 1, -1, 2]) if j > i else 0)
          for j in range(n)] for i in range(n)])


def _seeded_commuting_pairs(seed, count):
    """Commuting pairs of size 1 to 6, half of them conjugated by unimodular
    shears.  Most are an upper triangular g1 with eigenvalues from a fixed
    set and g2 one of id, g1² + id, g1³ - 2·g1 + 5 (invertible: neither
    polynomial has a rational root); the rest have a g2 that is no
    polynomial in g1, so that a g1-eigenspace holds several g2-eigenvalues:
    g1 = A ⊗ 1, g2 = 1 ⊗ B for upper triangular A, B."""
    rng = random.Random(seed)
    scalars = [1, 2, -1, 3, Fraction(1, 2), Fraction(-2, 3)]
    out = []
    for _ in range(count):
        if rng.random() < 0.25:
            k, l = rng.choice([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
            g1 = torus_rep._kronecker(_upper(rng, k, scalars[:3]),
                                      Matrix.identity(l))
            g2 = torus_rep._kronecker(Matrix.identity(k),
                                      _upper(rng, l, scalars[:3]))
        else:
            g1 = _upper(rng, rng.randint(1, 6), scalars)
            ident = Matrix.identity(g1.rows)
            g2 = rng.choice([ident, g1 * g1 + ident,
                             g1 * g1 * g1 - g1.scale(2) + ident.scale(5)])
        r, n = TorusRep(g1, g2), g1.rows
        if n > 1 and rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2)
                shear = [[int(a == b) for b in range(n)] for a in range(n)]
                shear[i][j] = rng.choice([1, -1, 2])
                r = _conjugate(r, Matrix.from_rows(shear))
        out.append(r)
    return out


def test_common_eigenvector_matches_the_per_stage_reference(monkeypatch):
    stages = []
    real = torus_rep._common_eigenvector

    def record(a1, a2, lam1s, lam2s):
        stages.append((a1, a2, lam1s, lam2s))
        return real(a1, a2, lam1s, lam2s)

    monkeypatch.setattr(torus_rep, "_common_eigenvector", record)
    pairs = _seeded_commuting_pairs(37, 200)
    for n in (8, 12):
        pairs.append(TorusRep(_jordan(2, n), _jordan(2, n) * _jordan(2, n)))
    for r in pairs:
        semisimplify(r)
    assert len(stages) >= 400
    for a1, a2, lam1s, lam2s in stages:
        ref = _reference_common_eigenvector(a1, a2)
        assert real(a1, a2, lam1s, lam2s) == ref[0]
    # the irrational summand: g1 = 2 ⊕ rotation, whose trailing block has
    # no rational eigenvector in either computation
    g1 = Matrix.from_rows([[2, 1, 0], [0, 0, -1], [0, 1, 0]])
    ident = Matrix.identity(3)
    lam1s = rational_roots(char_poly(g1))
    assert lam1s == [2] and torus_rep._eigenspace_spectrum(g1, ident, 2) == [1]
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    assert real(rot, Matrix.identity(2), lam1s, lambda lam1:
                torus_rep._eigenspace_spectrum(g1, ident, lam1)) is None
    assert _reference_common_eigenvector(rot, Matrix.identity(2)) is None
    with pytest.raises(IrrationalSpectrumError):
        semisimplify(TorusRep(g1, ident))


def test_semisimplify_factors_each_spectrum_once(monkeypatch):
    """One characteristic polynomial of g1, then one of g2 on each
    g1-eigenspace that a stage reaches; none per stage."""
    calls, reached = [], []
    real_poly = torus_rep.char_poly
    real_space = torus_rep._eigenspace_spectrum
    monkeypatch.setattr(torus_rep, "char_poly",
                        lambda m: calls.append(m.rows) or real_poly(m))
    monkeypatch.setattr(
        torus_rep, "_eigenspace_spectrum",
        lambda g1, g2, lam1: reached.append(lam1) or real_space(g1, g2, lam1))

    def run(r):
        calls.clear()
        reached.clear()
        semisimplify(r)
        return calls, reached

    j16 = _jordan(2, 16)
    assert run(TorusRep(j16, j16 * j16)) == ([16, 1], [2])
    # the last character is never searched for
    assert run(TorusRep.diagonal([(k, 1) for k in range(1, 9)])) == (
        [8] + [1] * 7, list(range(1, 8)))
    assert run(TorusRep.diagonal([(5, 1)])) == ([], [])
    for r in _seeded_commuting_pairs(41, 40):
        n = r.dim
        run(r)
        assert reached == sorted(set(reached))
        assert calls == [n] * (n > 1) + [
            n - rank(r.g1 - Matrix.diagonal([lam] * n)) for lam in reached]


def test_common_eigenvector_needs_no_solve_or_char_poly(monkeypatch):
    j = _jordan(3, 4)
    lam1s = rational_roots(char_poly(j))
    lam2s = {3: torus_rep._eigenspace_spectrum(j, j * j, 3)}.get

    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(torus_rep, "solve", forbidden)
    monkeypatch.setattr(torus_rep, "char_poly", forbidden)
    assert torus_rep._common_eigenvector(j, j * j, lam1s, lam2s) == [
        1, 0, 0, 0]


def test_hom_tensor_dual_pinned():
    h = hom_rep(TorusRep.trivial(2), TorusRep.trivial(3))
    assert h.dim == 6
    assert h.g1 == Matrix.identity(6) and h.g2 == Matrix.identity(6)
    # the dual is Hom(V, trivial)
    d = hom_rep(TorusRep.character(2, Fraction(1, 3)), TorusRep.trivial(1))
    assert d.g1 == Matrix.diagonal([Fraction(1, 2)])
    assert d.g2 == Matrix.diagonal([3])
    # the tensor generators are Kronecker products
    assert _kronecker(Matrix.diagonal([2]),
                      Matrix.diagonal([3])) == Matrix.diagonal([6])


def test_hom_rep_action_formula():
    rng = random.Random(31)
    v = rep([[1, 2], [0, Fraction(1, 2)]])
    w = rep([[3, 0], [0, 3]], [[1, 1], [0, 1]])
    h = hom_rep(v, w)
    f = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(2)]
                          for _ in range(2)])
    vec = [f[(k, l)] for k in range(2) for l in range(2)]
    image = (h.g1 * Matrix.column(vec)).entries
    expected = w.g1 * f * v.g_inv(1)
    assert list(image) == [expected[(k, l)] for k in range(2)
                           for l in range(2)]


def _reference_hom_rep(v, w):
    """Hom(V, W) from 2·n² unit-matrix products: column (k, l) of each
    generator is w.g · E_kl · v.g^{-1}, read row-major."""
    dim = v.dim * w.dim
    mats = []
    for i in (1, 2):
        cols = []
        for k in range(w.dim):
            for l in range(v.dim):
                unit = Matrix(w.dim, v.dim,
                              [int((a, b) == (k, l)) for a in range(w.dim)
                               for b in range(v.dim)])
                img = w.g(i) * unit * v.g_inv(i)
                cols.append(img.entries)
        mats.append(Matrix(dim, dim, [cols[c][r] for r in range(dim)
                                      for c in range(dim)]))
    return TorusRep(mats[0], mats[1])


def _seeded_reps(seed, count):
    """Commuting pairs of dimension 1 to 4: a random invertible upper
    triangular g1 and g2 one of g1², g1 or the identity."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        diag = [rng.choice((1, 1, 2, -1, Fraction(1, 2))) for _ in range(n)]
        g1 = Matrix.from_rows([[diag[i] if i == j else
                                (Fraction(rng.randint(-3, 3),
                                          rng.randint(1, 3)) if j > i else 0)
                                for j in range(n)] for i in range(n)])
        g2 = rng.choice((g1 * g1, g1, Matrix.identity(n)))
        out.append(TorusRep(g1, g2))
    return out


def test_hom_rep_matches_unit_product_reference(tmp_path):
    reps = _seeded_reps(53, 12)
    pairs = list(zip(reps, reps[1:]))
    pairs.append(_bench_pair(tmp_path, 1, "iso_conjugate"))
    for v, w in pairs:
        for a, b in ((v, w), (w, v), (v, v)):
            h = hom_rep(a, b)
            ref = _reference_hom_rep(a, b)
            assert h == ref
            assert rep_to_text(h) == rep_to_text(ref)
            assert all(type(e) is Fraction for e in h.g1.entries + h.g2.entries)


def test_g_inv_is_computed_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return invert(m)

    monkeypatch.setattr(torus_rep, "invert", counting)
    v = rep([[1, 2], [0, Fraction(1, 2)]], [[3, 0], [0, 3]])
    first = v.g_inv(1)
    assert first == invert(v.g1)
    assert v.g_inv(1) is first
    assert v.g_inv(2) == invert(v.g2)
    assert v.g_inv(2) is v.g_inv(2)
    # g2 = 3·id is diagonal: its inverse is the reciprocal diagonal
    assert calls == [v.g1]


def test_g_inv_singular_raises_on_every_call(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return invert(m)

    monkeypatch.setattr(torus_rep, "invert", counting)
    singular = rep([[0, 0], [0, 1]])
    for _ in range(3):
        with pytest.raises(SingularError):
            singular.g_inv(1)
    assert len(calls) == 3
    assert singular.g_inv(2) == Matrix.identity(2)


def test_constructor_built_diagonal_rep_inverts_without_elimination(
        monkeypatch):
    calls = []
    monkeypatch.setattr(torus_rep, "invert",
                        lambda m: calls.append(m) or invert(m))
    d = TorusRep(Matrix.from_rows([[2, 0], [0, Fraction(-1, 3)]]),
                 Matrix.from_rows([[5, 0], [0, 1]]))
    assert d.g_inv(1) == Matrix.diagonal([Fraction(1, 2), -3])
    assert d.g_inv(2) == Matrix.diagonal([Fraction(1, 5), 1])
    assert TorusRep(Matrix.zero(0, 0), Matrix.zero(0, 0)).g_inv(1) \
        == Matrix.zero(0, 0)
    assert calls == []
    assert d.is_invertible_diagonal()
    # a zero on the diagonal still ends in SingularError
    singular = TorusRep(Matrix.diagonal([3, 0]), Matrix.identity(2))
    assert not singular.is_invertible_diagonal()
    with pytest.raises(SingularError):
        singular.g_inv(1)
    assert not rep([[1, 1], [0, 1]]).is_invertible_diagonal()


def test_diagonal_rep_inverses_need_no_elimination(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return invert(m)

    monkeypatch.setattr(torus_rep, "invert", counting)
    d = TorusRep.diagonal([(2, Fraction(-1, 3)), (Fraction(5, 7), 1)])
    assert d.g_inv(1) == Matrix.diagonal([Fraction(1, 2), Fraction(7, 5)])
    assert d.g_inv(2) == Matrix.diagonal([-3, 1])
    assert d.g_inv(1) * d.g1 == Matrix.identity(2)
    assert calls == []
    # a zero character leaves that generator to invert(), on every call
    singular = TorusRep.diagonal([(0, 2), (1, 3)])
    for _ in range(3):
        with pytest.raises(SingularError):
            singular.g_inv(1)
    assert len(calls) == 3
    assert singular.g_inv(2) == Matrix.diagonal([Fraction(1, 2),
                                                 Fraction(1, 3)])
    assert len(calls) == 3
    assert TorusRep.diagonal([]).g_inv(1) == Matrix.identity(0)


def test_rep_equality_ignores_cached_inverses():
    a = rep([[1, 2], [0, 1]])
    b = rep([[1, 2], [0, 1]])
    a.g_inv(1)
    a.g_inv(2)
    assert a == b and b == a
    assert a != rep([[1, 3], [0, 1]])
    assert a != rep([[1, 2], [0, 1]], [[2, 0], [0, 2]])


def test_cellular_pinned():
    assert cellular_complex(TorusRep.trivial(1)).betti(range(3)) == (1, 2, 1)
    assert cellular_complex(TorusRep.character(2, 1)).betti(
        range(3)) == (0, 0, 0)
    unip = rep([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert cellular_complex(unip).betti(range(3)) == (1, 2, 1)


def test_cellular_d_square_and_euler():
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(1, 3)
        scalars = [rng.choice([1, 2, -1]) for _ in range(n)]
        g1 = Matrix.from_rows([[scalars[i] if i == j
                                else (rng.randint(-1, 1) if j > i else 0)
                                for j in range(n)] for i in range(n)])
        v = TorusRep(g1, Matrix.identity(n))
        cx = cellular_complex(v)
        assert cx.d_square_failures() == []
        assert sum((-1) ** k * cx.dim(k) for k in cx.degrees()) == 0
        b = cx.betti(range(3))
        assert b[0] - b[1] + b[2] == 0


def test_cellular_d1_d0_is_the_commutator(monkeypatch):
    """d1·d0 = g2g1 - g1g2 entrywise, commuting or not, so the commutator
    check of validation is the d² check and the complex does not repeat it."""
    monkeypatch.setattr(torus_rep, "require_valid", lambda r: None)
    commuting = 0
    for r in _validation_pairs():
        cx = cellular_complex(r)
        commutator = r.g2 * r.g1 - r.g1 * r.g2
        assert cx.d[1] * cx.d[0] == commutator
        commuting += commutator.is_zero()
    assert 0 < commuting < len(_validation_pairs())


def test_cellular_conjugation_invariance():
    v = rep([[1, 2, 3], [0, 1, 4], [0, 0, 2]])
    p = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    w = _conjugate(v, p)
    assert (cellular_complex(v).betti(range(3))
            == cellular_complex(w).betti(range(3)))


def test_character_betti_case_analysis():
    values = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
              Fraction(3)]
    for c1 in values:
        for c2 in values:
            b = cellular_complex(TorusRep.character(c1, c2)).betti(range(3))
            if c1 == 1 and c2 == 1:
                assert b == (1, 2, 1)
            else:
                assert b == (0, 0, 0)


def _rank_kernel_betti(cx):
    """Betti numbers of a three-degree complex from full kernel bases."""
    r0 = rank_kernel(cx.d[0])[0] if cx.dim(0) and cx.dim(1) else 0
    r1 = rank_kernel(cx.d[1])[0] if cx.dim(1) and cx.dim(2) else 0
    return (cx.dim(0) - r0, cx.dim(1) - r1 - r0, cx.dim(2) - r1)


def test_betti_reduces_each_differential_once(monkeypatch):
    ranks = []
    real = cochain.rank
    monkeypatch.setattr(cochain, "rank", lambda m: ranks.append(m) or real(m))
    v, w = _seeded_reps(59, 2)
    cx = cellular_complex(hom_rep(v, w))
    betti = cx.betti(range(3))
    assert sorted((m.rows, m.cols) for m in ranks) == sorted(
        (cx.d[n].rows, cx.d[n].cols) for n in (0, 1))
    assert betti == _rank_kernel_betti(cx)
    ranks.clear()
    assert cx.betti((1,))[0] == betti[1]
    assert len(ranks) == 2


def test_hom_betti_matches_rank_kernel_route():
    reps = _seeded_reps(61, 14)
    seen = set()
    for v, w in zip(reps, reps[1:]):
        cx = cellular_complex(hom_rep(v, w))
        betti = cx.betti(range(3))
        assert betti == _rank_kernel_betti(cx)
        if v.dim == w.dim:  # H^0 is Hom_{Z^2}(V, W)
            assert betti[0] == len(intertwiner_space(v, w))
        seen.add(betti)
    assert len(seen) > 2


def test_end_dim_certificate_matches_kernel(tmp_path):
    reps = _seeded_reps(67, 10)
    reps += _bench_pair(tmp_path, 2, "iso_conjugate")
    reps += [TorusRep.trivial(3), TorusRep(Matrix(0, 0, []), Matrix(0, 0, []))]
    for r in reps:
        assert torus_rep._end_dim(r) == len(intertwiner_space(r, r))


def test_is_isomorphic_identity():
    v = rep([[1, 1], [0, 1]])
    result = is_isomorphic(v, v)
    assert result.status == "isomorphic"
    assert result.conjugator == Matrix.identity(2)


def test_is_isomorphic_pinned_sign_flip():
    a1, b1, a2, b2 = 2, 3, 5, 7
    v = rep([[a1, 0, a1], [0, b1, 0], [0, 0, a1]],
            [[a2, 0, 0], [0, b2, 0], [0, 0, a2]])
    w = rep([[a1, 0, -a1], [0, b1, 0], [0, 0, a1]],
            [[a2, 0, 0], [0, b2, 0], [0, 0, a2]])
    result = is_isomorphic(v, w)
    assert result.status == "isomorphic"
    assert result.conjugator == Matrix.diagonal([-1, 1, 1])
    t = result.conjugator
    assert t * v.g1 == w.g1 * t and t * v.g2 == w.g2 * t


def test_is_isomorphic_distinct_characters():
    result = is_isomorphic(TorusRep.character(2, 1), TorusRep.character(3, 1))
    assert result.status == "not_isomorphic"
    assert result.conjugator is None
    assert result.space_dim == 0


def test_is_isomorphic_certified_negative_with_nonzero_space():
    # intertwiner space is nonzero but contains no invertible element
    v = rep([[2, 0, -2], [0, 3, 0], [0, 0, 2]],
            [[5, 0, 0], [0, 7, 0], [0, 0, 5]])
    w = rep([[2, 0, 0], [0, 3, 0], [0, 0, 2]],
            [[5, 0, 5], [0, 7, 0], [0, 0, 5]])
    result = is_isomorphic(v, w)
    assert result.status == "not_isomorphic"
    assert result.space_dim > 0


def test_is_isomorphic_conjugate_pair():
    v = rep([[1, 5, 2], [0, 2, 1], [0, 0, 1]])
    p = Matrix.from_rows([[1, 0, 2], [0, 1, 1], [0, 0, 1]])
    w = _conjugate(v, p)
    result = is_isomorphic(v, w)
    assert result.status == "isomorphic"
    t = result.conjugator
    assert t * v.g1 == w.g1 * t and t * v.g2 == w.g2 * t
    assert det(t) != 0


def _reference_is_isomorphic(v, w, seed=20260808):
    """The grid search as it stood before the dimension certificate and the
    integer candidates: Fraction combinations of the intertwiner basis, a
    determinant for every grid point, the least `_candidate_key` among the
    invertible ones."""
    if v.g1 == w.g1 and v.g2 == w.g2:
        return IsoResult("isomorphic", Matrix.identity(v.dim), None)
    space = intertwiner_space(v, w)
    k = len(space)
    if k == 0:
        return IsoResult("not_isomorphic", None, 0)
    n = v.dim
    values = [Fraction(0)]
    step = 1
    while len(values) < n + 1:
        values.extend((Fraction(step), Fraction(-step)))
        step += 1
    values = values[:max(n + 1, 5)]

    def combine(lam):
        t = space[0].scale(lam[0])
        for i in range(1, k):
            t = t + space[i].scale(lam[i])
        return t

    if len(values) ** k <= GRID_CAP:
        best = None
        for lam in itertools.product(values, repeat=k):
            t = combine(lam)
            if det(t) == 0:
                continue
            key = _candidate_key(t.entries)
            if best is None or key < best[0]:
                best = (key, t)
        if best is None:
            return IsoResult("not_isomorphic", None, k)
        return IsoResult("isomorphic", best[1], k)
    rng = random.Random(seed)
    for _ in range(500):
        t = combine([Fraction(rng.randint(-5, 5)) for _ in range(k)])
        if det(t) != 0:
            return IsoResult("isomorphic", t, k)
    return IsoResult("inconclusive", None, k)


def _random_triangular(rng, n):
    """A commuting upper-triangular pair: g1 with characters from {1, 2, 3}
    and small strictly upper entries, g2 a polynomial in g1."""
    diag = [rng.choice((1, 2, 3)) for _ in range(n)]
    g1 = Matrix.from_rows([[diag[i] if i == j else
                            (rng.choice((0, 0, 1, -1, 2)) if j > i else 0)
                            for j in range(n)] for i in range(n)])
    g2 = rng.choice((Matrix.identity(n), g1 * g1, g1.scale(2)))
    return TorusRep(g1, g2)


def _random_unimodular(rng, n):
    upper = Matrix.from_rows([[1 if i == j else
                               (rng.randint(-2, 2) if j > i else 0)
                               for j in range(n)] for i in range(n)])
    return upper.transpose() * upper


def _iso_pairs():
    """Seeded pairs with n <= 4: conjugates, diagonal parts and pairs with
    one perturbed entry.  The reference makes a Fraction determinant per
    grid point, so pairs whose grid has more than 5**4 points but fits under
    GRID_CAP are left out to keep its running time short; pairs past GRID_CAP
    reach the seeded random fallback and are kept."""
    rng = random.Random(43)
    pairs = []
    while len(pairs) < 12:
        n = rng.randint(2, 4)
        v = _random_triangular(rng, n)
        kind = len(pairs) % 3
        if kind == 0:
            w = _conjugate(v, _random_unimodular(rng, n))
        elif kind == 1:
            w = TorusRep.diagonal([(v.g1[(i, i)], v.g2[(i, i)])
                                   for i in range(n)])
        else:
            rows = v.g1.to_rows()
            i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            rows[i][j] += rng.choice((1, -1))
            g1 = Matrix.from_rows(rows)
            if validate(TorusRep(g1, g1 * g1)).problems:
                continue
            w = TorusRep(g1, g1 * g1)
            v = TorusRep(v.g1, v.g1 * v.g1)
        k = len(intertwiner_space(v, w))
        if v == w or 5 ** 4 < 5 ** k <= GRID_CAP:
            continue
        pairs.append((v, w))
    return pairs


def test_is_isomorphic_matches_reference_grid_search():
    statuses = set()
    for v, w in _iso_pairs():
        got = is_isomorphic(v, w)
        ref = _reference_is_isomorphic(v, w)
        statuses.add((ref.status, got.status))
        assert got.space_dim == ref.space_dim
        if ref.status == "inconclusive":
            assert got.status in ("not_isomorphic", "inconclusive")
            continue
        assert got.status == ref.status
        assert got.conjugator == ref.conjugator
        if got.conjugator is not None:
            assert repr(got.conjugator) == repr(ref.conjugator)
    assert {"isomorphic", "not_isomorphic", "inconclusive"} == {
        s for s, _ in statuses}


def test_is_isomorphic_random_fallback_matches_reference():
    # End(V) has dimension 10, so 5**10 grid points exceed GRID_CAP and both
    # searches draw the same seeded random coefficients
    v = rep([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    w = _conjugate(v, Matrix.from_rows([[1, 1, 0, 0], [0, 1, 2, 0],
                                        [0, 0, 1, -1], [0, 0, 0, 1]]))
    got, ref = is_isomorphic(v, w), _reference_is_isomorphic(v, w)
    assert got.space_dim == ref.space_dim == 10
    assert got.status == ref.status == "isomorphic"
    assert got.conjugator == ref.conjugator


def test_is_isomorphic_singular_grid():
    # V = Q[x, y]/(x, y)^2 with g1 = 2 + x, g2 = 3 + y, against its
    # transpose (the dual module up to inversion): Hom(V, W), End(V) and
    # End(W) all have dimension 3, and every intertwiner is singular
    v = rep([[2, 0, 0], [1, 2, 0], [0, 0, 2]],
            [[3, 0, 0], [0, 3, 0], [1, 0, 3]])
    w = TorusRep(v.g1.transpose(), v.g2.transpose())
    assert [len(intertwiner_space(a, b))
            for a, b in ((v, w), (v, v), (w, w))] == [3, 3, 3]
    result = is_isomorphic(v, w)
    assert result.status == "not_isomorphic"
    assert result.space_dim == 3
    ref = _reference_is_isomorphic(v, w)
    assert (ref.status, ref.space_dim) == (result.status, result.space_dim)


def test_is_isomorphic_dimension_certificate():
    # J2 + I3 against I5: Hom has dimension 20 and End(I5) 25, so no
    # isomorphism exists; the grid search alone could not decide this
    v = rep([[1 if i == j or (i, j) == (0, 1) else 0 for j in range(5)]
             for i in range(5)])
    result = is_isomorphic(v, TorusRep.trivial(5))
    assert result.status == "not_isomorphic"
    assert result.conjugator is None
    assert result.space_dim == 20


def _bench_pair(tmp_path, seed, name):
    spec = importlib.util.spec_from_file_location("_bench_inputs",
                                                  BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    items = {item["name"]: item
             for item in module.dense_hom_inputs(seed, str(tmp_path))}
    item = items[name]
    return (parse_rep(Path(item["v"]).read_text()),
            parse_rep(Path(item["w"]).read_text()))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_is_isomorphic_grid_determinant_count(tmp_path, monkeypatch, seed):
    """Operation count instead of timing: on the n = 4 pairs of the dense_hom
    benchmark the grid takes a determinant only for a candidate whose key
    could still win (625 grid points), and the diagonal pair is decided by
    the dimension certificate alone."""
    callers = []
    real = torus_rep.det

    def counting(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(m)

    monkeypatch.setattr(torus_rep, "det", counting)
    v, w = _bench_pair(tmp_path, seed, "iso_conjugate")
    assert is_isomorphic(v, w).status == "isomorphic"
    assert 0 < len(callers) <= 160 and set(callers) == {"invertible"}
    callers.clear()
    v, d = _bench_pair(tmp_path, seed, "iso_diagonal")
    assert is_isomorphic(v, d).status == "not_isomorphic"
    assert callers == []


def _reference_intertwiner_equations(v, w):
    """The intertwiner system built entry by entry with `+=` and `-=`."""
    n = v.dim
    entries = []
    for i in (1, 2):
        vg, wg = v.g(i), w.g(i)
        for a in range(n):
            for b in range(n):
                row = [Fraction(0)] * (n * n)
                for c in range(n):
                    row[a * n + c] += vg[(c, b)]
                    row[c * n + b] -= wg[(a, c)]
                entries += row
    return Matrix(2 * n * n, n * n, entries)


def test_intertwiner_equations_match_reference(monkeypatch):
    pairs = _validation_pairs()
    pairs = [(v, w) for v, w in zip(pairs, pairs[1:]) if v.dim == w.dim]
    refs = [_reference_intertwiner_equations(v, w) for v, w in pairs]
    adds = []
    add = Fraction.__add__
    monkeypatch.setattr(Fraction, "__add__",
                        lambda a, b: adds.append(a) or add(a, b))
    got = [torus_rep._intertwiner_equations(v, w) for v, w in pairs]
    monkeypatch.undo()
    # each entry is assigned; the diagonal one is a single subtraction
    assert adds == []
    for g, ref in zip(got, refs):
        assert g == ref
        assert all(type(e) is Fraction for e in g.entries)


def _reference_grid_is_isomorphic(v, w):
    """is_isomorphic with every grid point a sum of products per entry, as
    it stood before the partial sums: the result and its grid determinant
    count."""
    dets = []
    if v.g1 == w.g1 and v.g2 == w.g2:
        return IsoResult("isomorphic", Matrix.identity(v.dim), None), 0
    space = intertwiner_space(v, w)
    k = len(space)
    if k == 0:
        return IsoResult("not_isomorphic", None, 0), 0
    if k != torus_rep._end_dim(v) or k != torus_rep._end_dim(w):
        return IsoResult("not_isomorphic", None, k), 0
    n = v.dim
    den = math.lcm(*(e.denominator for t in space for e in t.entries))
    coeffs = list(zip(*([e.numerator * (den // e.denominator)
                         for e in t.entries] for t in space)))
    values = [0]
    step = 1
    while len(values) < n + 1:
        values.extend((step, -step))
        step += 1
    values = values[:max(n + 1, 5)]
    assert len(values) ** k <= GRID_CAP
    best = None
    for lam in itertools.product(values, repeat=k):
        entries = tuple([sum(map(operator.mul, lam, c)) for c in coeffs])
        key = _candidate_key(entries)
        if best is None or key < best[0]:
            dets.append(lam)
            if det(Matrix._exact(n, n, entries)) != 0:
                best = (key, entries)
    if best is None:
        return IsoResult("not_isomorphic", None, k), len(dets)
    t = Matrix(n, n, [Fraction(e, den) for e in best[1]])
    return IsoResult("isomorphic", t, k), len(dets)


def _grid_iso_pairs(count):
    """Seeded pairs with n <= 4 whose grid has at most 5**4 points:
    conjugates, diagonal parts and pairs with one perturbed entry."""
    rng = random.Random(67)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(1, 4)
        v = _random_triangular(rng, n)
        kind = len(pairs) % 3
        if kind == 0:
            w = _conjugate(v, _random_unimodular(rng, n))
        elif kind == 1:
            w = TorusRep.diagonal([(v.g1[(i, i)], v.g2[(i, i)])
                                   for i in range(n)])
        else:
            rows = v.g1.to_rows()
            i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            rows[i][j] += rng.choice((1, -1))
            g1 = Matrix.from_rows(rows)
            if validate(TorusRep(g1, g1 * g1)).problems:
                continue
            v, w = TorusRep(v.g1, v.g1 * v.g1), TorusRep(g1, g1 * g1)
        if 5 ** len(intertwiner_space(v, w)) <= 5 ** 4:
            pairs.append((v, w))
    return pairs


def test_is_isomorphic_grid_matches_sum_of_products_reference(monkeypatch):
    dets, muls = [], []
    real = torus_rep.det
    monkeypatch.setattr(torus_rep, "det",
                        lambda m: dets.append(m) or real(m))
    monkeypatch.setattr(torus_rep, "mul",
                        lambda a, b: muls.append(a) or a * b)
    statuses, grid_dets = set(), 0
    for v, w in _grid_iso_pairs(100):
        ref, ref_dets = _reference_grid_is_isomorphic(v, w)
        dets.clear()
        got = is_isomorphic(v, w)
        assert (got.status, got.space_dim) == (ref.status, ref.space_dim)
        assert got.conjugator == ref.conjugator
        assert len(dets) == ref_dets
        statuses.add(got.status)
        grid_dets += ref_dets
    assert statuses == {"isomorphic", "not_isomorphic"} and grid_dets > 0
    # each grid point is a partial sum plus one scaled basis matrix
    assert muls == []


def test_cellular_complex_count_gate(tmp_path, monkeypatch):
    """Operation count instead of timing: on the n = 6 Hom rep of the
    dense_hom benchmark the cellular complex subtracts 1 on the diagonal
    only, with no `Matrix.__sub__`; it takes no Bareiss elimination, since
    validation tests invertibility by rank and the Betti numbers are ranks;
    it forms no `Matrix` product, since validation decides g1·g2 = g2·g1 on
    the integer cores of the two products, g1·g2 and g2·g1 only, and d1·d0
    is their difference and is not formed again."""
    h = hom_rep(*_bench_pair(tmp_path, 1, "hom6"))
    m1, m2 = (g - Matrix.identity(h.dim) for g in (h.g1, h.g2))
    subs, muls, cores, bareiss_calls = [], [], [], []
    sub, mul, core = Matrix.__sub__, Matrix.__mul__, Matrix._int_times

    def counting_sub(a, b):
        subs.append((a, b))
        return sub(a, b)

    def counting_mul(a, b):
        muls.append((a, b))
        return mul(a, b)

    def counting_core(a, b):
        cores.append((a, b))
        return core(a, b)

    monkeypatch.setattr(Matrix, "__sub__", counting_sub)
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    monkeypatch.setattr(Matrix, "_int_times", counting_core)
    monkeypatch.setattr(qlinalg, "_bareiss",
                        lambda rows: bareiss_calls.append(rows))
    cx = cellular_complex(h)
    assert cx.betti(range(3)) == (6, 12, 6)
    assert subs == [] and bareiss_calls == []
    assert muls == []
    assert len(cores) == 2
    assert cores[0][0] is h.g1 and cores[0][1] is h.g2
    assert cores[1][0] is h.g2 and cores[1][1] is h.g1
    assert cx.d[0] == Matrix.from_rows(m1.to_rows() + m2.to_rows())
    assert cx.d[1] == Matrix.from_rows([r2 + [-e for e in r1] for r1, r2
                                        in zip(m1.to_rows(), m2.to_rows())])


def test_tensor_is_kronecker_product():
    v = rep([[1, 2], [0, 3]])
    w = rep([[2, 1], [0, 1]], [[4, 3], [0, 1]])  # second is the square
    t = TorusRep(_kronecker(v.g1, w.g1), _kronecker(v.g2, w.g2))
    for (k, l) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for (kk, ll) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert t.g1[(2 * k + l, 2 * kk + ll)] == \
                v.g1[(k, kk)] * w.g1[(l, ll)]
            assert t.g2[(2 * k + l, 2 * kk + ll)] == \
                v.g2[(k, kk)] * w.g2[(l, ll)]


def test_dual_is_inverse_transpose():
    v = rep([[1, 2], [0, 3]], [[2, 1], [0, 3]])
    d = hom_rep(v, TorusRep.trivial(1))
    assert d.g1 == invert(v.g1).transpose()
    assert d.g2 == invert(v.g2).transpose()


def test_zero_dimensional_rep_is_handled():
    from t2mc.mcdg import realize_mc, rep_to_mc
    empty = TorusRep(Matrix(0, 0, []), Matrix(0, 0, []))
    assert validate(empty).ok
    assert cellular_complex(empty).betti(range(3)) == (0, 0, 0)
    res = rep_to_mc(empty)
    assert res.mc.dim == 0
    assert realize_mc(res.mc).dim == 0


def test_rep_text_round_trip():
    v = rep([[Fraction(1, 2), 3], [0, 2]], [[1, 0], [0, 1]])
    text = rep_to_text(v)
    back = parse_rep(text)
    assert back.g1 == v.g1 and back.g2 == v.g2
    assert parse_rep("1\n[[2]]\n[[3]]").g1 == Matrix.diagonal([2])


def test_parse_rep_rejects_booleans():
    from t2mc.errors import ParseError

    for text in ("1\n[[true]]\n[[1]]", "1\n[[1]]\n[[false]]"):
        with pytest.raises(ParseError, match="boolean"):
            parse_rep(text)


def test_parse_rep_rejects_stray_text():
    from t2mc.errors import ParseError

    g1, g2 = '[["1","1"],["0","1"]]', '[["1","0"],["0","1"]]'
    assert parse_rep(f"2 # dim\n {g1} # g1\n\n\t{g2}\n") == parse_rep(
        f"2\n{g1}\n{g2}")
    for text in (f"2\nfoo {g1} bar\n baz {g2} qux",
                 f"2\n{g1}\n{g2}\n]", f"2\n{g1}, {g2}", f"2\n{g1}\n{g2} 7"):
        with pytest.raises(ParseError, match="unexpected text"):
            parse_rep(text)
    for text in (f"2\n{g1}", f"2\n{g1}\n{g2}\n{g2}"):
        with pytest.raises(ParseError, match="expected exactly two matrices"):
            parse_rep(text)


def test_parse_rep_shares_each_entry_string():
    from t2mc.errors import ParseError
    from t2mc.qlinalg import frac

    rng = random.Random(61)
    pool = ["0", "1", "-1", "3/4", "-3/4", "6/8", " 2 ", "+5", "10/2",
            "1.5", "-0", 2, -7, 0]
    for n in (1, 3, 5):
        data = [[[rng.choice(pool) for _ in range(n)] for _ in range(n)]
                for _ in range(2)]
        r = parse_rep(f"{n}\n{json.dumps(data[0])}\n{json.dumps(data[1])}")
        raw = [e for m in data for row in m for e in row]
        got = r.g1.entries + r.g2.entries
        assert got == tuple(frac(e) for e in raw)
        first = {}
        for e, x in zip(raw, got):
            if isinstance(e, str):
                # an equal string later in the file shares the Fraction
                assert first.setdefault(e, x) is x
    # numbers are not memoized: a float is rejected after an equal int or
    # string, and a bad string is rejected each time it appears
    for text in ("1\n[[1]]\n[[1.0]]", '1\n[["1"]]\n[[1.0]]',
                 '2\n[["1", 1.0], [0, 1]]\n[[1, 0], [0, 1]]',
                 '1\n[["x"]]\n[["x"]]'):
        with pytest.raises(ParseError):
            parse_rep(text)


# -- the unipotent summand V_(1,1) --------------------------------------------

def _sheared(rng, r):
    """r conjugated by a product of 2n integer shears (unimodular)."""
    n = r.dim
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        shear = Matrix.identity(n).to_rows()
        shear[i][j] = rng.choice((1, -1, 2, -2))
        r = _conjugate(r, Matrix.from_rows(shear))
    return r


def _direct_sum(a, b):
    n = a.rows + b.rows
    return Matrix.from_rows([
        [a[(i, j)] if i < a.rows and j < a.rows else
         b[(i - a.rows, j - a.rows)] if i >= a.rows and j >= a.rows else 0
         for j in range(n)] for i in range(n)])


def _split_pairs(seed):
    """Seeded pairs for the split: sums of blocks (λ·U, μ·U^k), U
    unipotent upper triangular, with λ, μ in {1, 2, 1/2, -1}, conjugated by
    a unimodular matrix; g1 = A ⊗ 1 and g2 = 1 ⊗ B, A and B upper
    triangular with eigenvalues from that set; J2 ⊕ [[0, 1], [2, 0]] with
    g2 = 1, whose ±√2 eigenvalues are irrational, as given and conjugated;
    and one conjugated unipotent pair (g1 = U, g2 = U²)."""
    rng = random.Random(seed)
    chars = (1, 2, Fraction(1, 2), -1)
    pairs = []
    for t in range(8):
        g1 = g2 = Matrix(0, 0, [])
        for b in range(rng.randint(2, 3)):
            size = rng.randint(1, 2)
            u = _upper(rng, size, [1])
            # a (1, 1) block first in three pairs of four
            lam, mu = (1, 1) if b == 0 < t % 4 else (rng.choice(chars),
                                                       rng.choice(chars))
            uk = (Matrix.identity(size), u, u * u)[rng.randint(0, 2)]
            g1, g2 = _direct_sum(g1, u.scale(lam)), _direct_sum(
                g2, uk.scale(mu))
        pairs.append(_sheared(rng, TorusRep(g1, g2)))
    for _ in range(4):
        a, b = _upper(rng, 2, chars), _upper(rng, 2, chars)
        one = Matrix.identity(2)
        pairs.append(TorusRep(_kronecker(a, one), _kronecker(one, b)))
    u = _upper(rng, 3, [1])
    pairs.append(_sheared(rng, TorusRep(u, u * u)))
    j2_root2 = rep([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])
    return pairs + [j2_root2, _sheared(rng, j2_root2)]


def _unipotent_defect(g, k):
    """(g - 1)^k."""
    m = Matrix.identity(g.rows)
    for _ in range(k):
        m = m * (g - Matrix.identity(g.rows))
    return m


def test_unipotent_summand_is_the_trivial_character_part():
    from t2mc.cli import _normal_form_betti
    from t2mc.mcdg import rep_to_mc

    sizes, irrational = set(), 0
    for r in _split_pairs(71):
        n = r.dim
        s = unipotent_summand(r)
        k = s.dim
        sizes.add((k, n))
        # B: the kernel of the stacked n-th powers of g_i - 1, taken here
        # by plain powers
        p1, p2 = (_unipotent_defect(g, n) for g in (r.g1, r.g2))
        _, kernel = rank_kernel(Matrix(2 * n, n, p1.entries + p2.entries))
        assert len(kernel) == k
        if k:
            b = Matrix.from_rows(list(zip(*kernel)))
            for i in (1, 2):
                assert r.g(i) * b == b * s.g(i)
        assert validate(s).ok
        assert all(_unipotent_defect(g, k).is_zero() for g in (s.g1, s.g2))
        try:
            chars = semisimplify(r).characters
        except IrrationalSpectrumError:
            irrational += 1
        else:
            assert k == chars.count((1, 1))
        betti = _normal_form_betti(rep_to_mc(s, bound=max(4, k - 1)).mc)
        assert betti == cellular_complex(r).betti(range(3))
    # empty, proper and whole summands all occur
    assert {0 < k < n for k, n in sizes} == {True, False}
    assert any(k == 0 for k, _ in sizes) and any(k == n for k, n in sizes)
    assert irrational == 2


def test_unipotent_summand_of_a_unipotent_pair_is_the_pair():
    j3 = rep([[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 2], [0, 1, 0],
                                                 [0, 0, 1]])
    assert unipotent_summand(j3) is j3
    empty = unipotent_summand(rep([[2, 1], [0, 2]], [[1, 0], [0, 1]]))
    assert empty.dim == 0 and empty._valid
    with pytest.raises(NonCommutingError):
        unipotent_summand(rep([[1, 1], [0, 1]], [[0, 1], [1, 0]]))
