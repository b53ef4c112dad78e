import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import t2mc.qlinalg as qlinalg
from t2mc.errors import ParseError
from t2mc.qlinalg import (Matrix, SparseMatrix, det, frac, frac_str,
                          in_lattice, invert, rank, rank_kernel, solve)
from t2mc.torus_rep import (TorusRep, _intertwiner_equations,
                            cellular_complex, hom_rep, parse_rep)


def _conjugate(r, p):
    """The pair p^-1·g_i·p, in the basis given by the columns of p."""
    pinv = invert(p)
    return TorusRep(pinv * r.g1 * p, pinv * r.g2 * p)


def test_frac_parsing_and_printing():
    assert frac("3/4") == Fraction(3, 4)
    assert frac("-2") == Fraction(-2)
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(5)) == "5"
    assert frac_str(Fraction(-1, 2)) == "-1/2"
    assert frac_str(7) == "7" and frac_str(-3) == "-3"


FRAC_CORPUS = (
    "3/4", "-0", "007", "0/5",                   # canonical
    " 3/4 ", "+3", "1_000", "3/ 4", "1/-2",      # not canonical
    "1.5", "1e3", "\u0663", "\u00b2",            # decimal, non-ASCII
    "", "-", "/3", "3/", "--3", "3/0")


def test_frac_strings_match_fraction():
    """A string gives what `Fraction(s.strip())` gives: the same value, or
    the same exception with the same message; `parse_rep` turns each
    rejected entry into a ParseError."""
    rejected = []
    for s in FRAC_CORPUS:
        try:
            expected = Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as info:
                frac(s)
            assert str(info.value) == str(exc)
            rejected.append(s)
        else:
            got = frac(s)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (
                expected.numerator, expected.denominator)
    assert "3/0" in rejected and "3/4" not in rejected
    for s in rejected:
        with pytest.raises(ParseError):
            parse_rep(f"1\n{json.dumps([[s]])}\n[[1]]")


def test_frac_rejects_booleans():
    for x in (True, False):
        with pytest.raises(TypeError):
            frac(x)
    with pytest.raises(TypeError):
        Matrix.from_rows([[True, False]])
    with pytest.raises(TypeError):
        Matrix.diagonal([1, True])
    assert frac(1) == 1 and frac(0) == 0


def test_rank_kernel_nilpotent_block():
    rank, kernel = rank_kernel(Matrix.from_rows([[0, 1], [0, 0]]))
    assert rank == 1
    assert kernel == [(Fraction(1), Fraction(0))]


def test_rank_kernel_identity():
    rank, kernel = rank_kernel(Matrix.identity(3))
    assert rank == 3
    assert kernel == []


def test_rank_kernel_rank_one():
    rank, kernel = rank_kernel(Matrix.from_rows([[1, 2], [2, 4]]))
    assert rank == 1
    assert kernel == [(Fraction(-2), Fraction(1))]


def test_solve_identity():
    assert solve(Matrix.identity(3), [1, 2, 3]) == (
        Fraction(1), Fraction(2), Fraction(3))


def test_solve_inconsistent():
    assert solve(Matrix.from_rows([[0, 0]]), [1]) is None


def test_solve_underdetermined():
    assert solve(Matrix.from_rows([[1, 1]]), [2]) == (Fraction(2),
                                                      Fraction(0))
    assert rank_kernel(Matrix.from_rows([[1, 1]])) == (
        1, [(Fraction(-1), Fraction(1))])


def test_invert_diagonal():
    inv = invert(Matrix.from_rows([[2, 0], [0, 3]]))
    assert inv == Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])


def test_invert_singular():
    assert invert(Matrix.from_rows([[1, 1], [1, 1]])) is None


def test_invert_unipotent():
    inv = invert(Matrix.from_rows([[1, 2], [0, 1]]))
    assert inv == Matrix.from_rows([[1, -2], [0, 1]])


def test_integer_routines_reject_non_integer_matrices():
    with pytest.raises(ValueError, match="5/2"):
        in_lattice([(2, 0, 0, 0)], (Fraction(5, 2), 0, 0, 0))
    with pytest.raises(ValueError, match="1/2"):
        in_lattice([(1, Fraction(1, 2))], (0, 0))
    assert in_lattice([(2, 0)], (Fraction(4), "0"))


def _random_matrix(rng, rows, cols):
    return Matrix(rows, cols,
                  [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                   for _ in range(rows * cols)])


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(20):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = _random_matrix(rng, rows, cols)
        rank, kernel = rank_kernel(m)
        assert rank + len(kernel) == cols
        for vec in kernel:
            assert all(x == 0 for x in (m * Matrix.column(vec)).entries)
        if kernel:
            span = Matrix.from_rows([list(v) for v in kernel])
            span_rank, _ = rank_kernel(span)
            assert span_rank == len(kernel)


def test_invert_roundtrip_random():
    rng = random.Random(13)
    found = 0
    while found < 10:
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, n)
        inv = invert(m)
        if inv is None:
            assert det(m) == 0
            continue
        found += 1
        assert m * inv == Matrix.identity(n)
        assert inv * m == Matrix.identity(n)


def test_solve_random_consistency():
    rng = random.Random(17)
    for _ in range(15):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = (a * Matrix.column(x)).entries
        particular = solve(a, b)
        assert particular is not None
        assert (a * Matrix.column(particular)).entries == tuple(b)
        for vec in rank_kernel(a)[1]:
            assert all(v == 0 for v in (a * Matrix.column(vec)).entries)


def test_lattice_membership():
    basis = [(1, 1, 0, 0), (0, 0, 1, 1)]
    assert in_lattice(basis, (1, 1, 1, 1))
    assert in_lattice(basis, (2, 2, -1, -1))
    assert not in_lattice(basis, (1, 0, 0, 0))
    assert in_lattice([], (0, 0, 0, 0))
    assert not in_lattice([], (1, 0, 0, 0))


def _minor_gcd(rows, r):
    """The gcd of the r x r minors of an integer matrix, given by its rows."""
    g = 0
    for rs in combinations(range(len(rows)), r):
        for cs in combinations(range(len(rows[0])), r):
            minor = Matrix.from_rows([[rows[i][j] for j in cs] for i in rs])
            g = gcd(g, det(minor).numerator)
    return g


def _lattice_oracle(basis, target):
    """x lies in the lattice of the rows B iff rank [B; x] = rank B = r and
    the r x r minors of [B; x] have the gcd of those of B."""
    r = rank(Matrix.from_rows(basis)) if basis else 0
    if rank(Matrix.from_rows(basis + [target])) != r:
        return False
    return r == 0 or _minor_gcd(basis + [target], r) == _minor_gcd(basis, r)


def test_in_lattice_matches_the_minor_gcd_oracle():
    """Seeded integer bases of dimension 1-5 with 0-4 rows, some of them
    dependent or zero; targets are random vectors, integer combinations
    of the rows, and combinations of the rows before one of them was scaled
    by 2 or 3 (in the rational span, often outside the lattice)."""
    rng = random.Random(41)
    seen = {"member": 0, "outside": 0, "outside the span": 0}
    for _ in range(2000):
        n, k = rng.randint(1, 5), rng.randint(0, 4)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if k >= 3 and rng.random() < 0.3:
            basis[2] = [2 * a - b for a, b in zip(basis[0], basis[1])]
        if k and rng.random() < 0.15:
            basis[-1] = [0] * n
        kind = rng.random()
        if kind < 0.3 or not basis:
            target = [rng.randint(-3, 3) for _ in range(n)]
        else:
            coeffs = [rng.randint(-3, 3) for _ in basis]
            target = [sum(c * row[j] for c, row in zip(coeffs, basis))
                      for j in range(n)]
            if kind > 0.6:
                i = rng.randrange(len(basis))
                basis[i] = [rng.choice((2, 3)) * x for x in basis[i]]
        expected = _lattice_oracle(basis, target)
        assert in_lattice(basis, target) == expected, (basis, target)
        full = rank(Matrix.from_rows(basis + [target]))
        in_span = full == (rank(Matrix.from_rows(basis)) if basis else 0)
        seen["member" if expected else
             "outside" if in_span else "outside the span"] += 1
    assert min(seen.values()) >= 200, seen


def _sparse_matrix(rng, rows, cols, density):
    return Matrix(rows, cols,
                  [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                            rng.randint(1, 5))
                   if rng.random() < density else Fraction(0)
                   for _ in range(rows * cols)])


def _oracle_cases():
    """Seeded matrices from 3 % to 100 % dense, up to 40x20, plus zero rows,
    zero columns, duplicate rows and empty shapes."""
    rng = random.Random(23)
    cases = [Matrix.zero(0, 4), Matrix.zero(4, 0), Matrix.zero(0, 0),
             Matrix.zero(3, 5)]
    for density in (0.03, 0.08, 0.2, 0.5, 1.0):
        for _ in range(6):
            cases.append(_sparse_matrix(rng, rng.randint(1, 40),
                                        rng.randint(1, 20), density))
    for _ in range(6):
        m = _sparse_matrix(rng, rng.randint(2, 12), rng.randint(2, 12), 0.4)
        rows = m.to_rows()
        rows[rng.randrange(len(rows))] = [0] * m.cols        # zero row
        dead = rng.randrange(m.cols)
        rows = [r[:dead] + [0] + r[dead + 1:] for r in rows]  # zero column
        rows.append(list(rows[rng.randrange(len(rows))]))   # duplicate row
        cases.append(Matrix.from_rows(rows))
    return cases


def _sympy_rref(sympy, m):
    """(rows, pivots) of m's RREF as computed by sympy, rows as Fractions."""
    sm = sympy.Matrix(m.rows, m.cols,
                      [sympy.Rational(e.numerator, e.denominator)
                       for e in m.entries])
    reduced, pivots = sm.rref()
    rows = [[Fraction(int(reduced[i, j].p), int(reduced[i, j].q))
             for j in range(m.cols)] for i in range(m.rows)]
    return rows, tuple(pivots)


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _oracle_cases():
        assert m.rref() == _sympy_rref(sympy, m)


def test_solve_and_rank_kernel_follow_sympy_rref():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    outcomes = set()
    for a in _oracle_cases():
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(a.cols)]
            b = (a * Matrix.column(x)).entries
        else:
            b = [Fraction(rng.randint(-3, 3)) for _ in range(a.rows)]
        rows, pivots = _sympy_rref(sympy, a)
        kernel = []
        for fc in range(a.cols):
            if fc not in pivots:
                v = [Fraction(0)] * a.cols
                v[fc] = Fraction(1)
                for r, pc in enumerate(pivots):
                    v[pc] = -rows[r][fc]
                kernel.append(tuple(v))
        assert rank_kernel(a) == (len(pivots), kernel)
        aug = Matrix(a.rows, a.cols + 1,
                     [e for i in range(a.rows) for e in (*a.row(i), b[i])])
        aug_rows, aug_pivots = _sympy_rref(sympy, aug)
        if a.cols in aug_pivots:
            expected = None
        else:
            x = [Fraction(0)] * a.cols
            for r, pc in enumerate(aug_pivots):
                x[pc] = aug_rows[r][a.cols]
            expected = tuple(x)
        assert solve(a, b) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_solve_reduces_once(monkeypatch):
    # one forward phase on [a | b] and no back phase: back substitution
    # reads the echelon form directly
    calls = []
    forward = qlinalg._forward

    def counting(rows, width):
        calls.append((len(rows), width))
        return forward(rows, width)

    monkeypatch.setattr(qlinalg, "_forward", counting)
    monkeypatch.setattr(qlinalg, "_reduce",
                        lambda *args: calls.append("_reduce"))
    rng = random.Random(31)
    systems = [(Matrix.identity(3), [1, 2, 3]),
               (Matrix.from_rows([[0, 0]]), [1]),
               (Matrix.from_rows([[1, 1]]), [2])]
    systems += [(a, [rng.randint(-2, 2) for _ in range(a.rows)])
                for a in _oracle_cases()[4:12]]
    for a, b in systems:
        calls.clear()
        solve(a, b)
        assert calls == [(a.rows, a.cols + 1)]


def _reduce_solve(a, b, reduce=qlinalg._reduce):
    """The reduced-row-echelon read-out of a·x = b: free variables 0, each
    pivot variable the reduced right-hand side of its row."""
    m = a.cols
    rows, pivots = reduce(
        [(*row, (m, v)) if v else row
         for row, v in zip(a.sparse_rows(), map(Fraction, b))], m + 1)
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for row, pc in zip(rows, pivots):
        x[pc] = row.get(m, Fraction(0))
    return tuple(x)


def _inconsistent_systems(rng, count):
    """a·x = b with b outside the column space: a random b on a matrix with
    duplicated rows, given different right-hand sides."""
    out = []
    while len(out) < count:
        a = _sparse_matrix(rng, rng.randint(2, 14), rng.randint(1, 10),
                           rng.choice((0.2, 0.5, 1.0)))
        rows = a.to_rows()
        k = rng.randrange(len(rows))
        a = Matrix.from_rows(rows + [[2 * e for e in rows[k]]])
        x = [rng.randint(-3, 3) for _ in range(a.cols)]
        b = list((a * Matrix.column(x)).entries)
        b[-1] += rng.choice((1, -1, Fraction(1, 3)))
        out.append((a, b))
    return out


def test_back_substitution_matches_the_reduced_read_out(monkeypatch):
    reduced = []
    monkeypatch.setattr(qlinalg, "_reduce",
                        lambda *args: reduced.append(args))
    rng = random.Random(37)
    systems = []
    for a in _oracle_cases():
        for consistent in (True, False):
            if consistent:
                x = [rng.randint(-3, 3) for _ in range(a.cols)]
                b = (a * Matrix.column(x)).entries
            else:
                b = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
                     for _ in range(a.rows)]
            systems.append((a, b))
    systems += _inconsistent_systems(rng, 30)
    outcomes = []
    for a, b in systems:
        x = solve(a, b)
        assert x == _reduce_solve(a, b)
        assert x is None or all(type(v) is Fraction for v in x)
        outcomes.append(x is None)
    assert reduced == []
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40


def _naive_product(a, b):
    """The dense triple loop: entry (i, j) is sum_k a_ik b_kj."""
    return Matrix(a.rows, b.cols,
                  [sum((a[(i, k)] * b[(k, j)] for k in range(a.cols)),
                       Fraction(0))
                   for i in range(a.rows) for j in range(b.cols)])


def _product_cases():
    """Seeded factor pairs from 0 % to 100 % dense, with zero rows and
    columns on either side, and the empty inner and outer shapes."""
    rng = random.Random(37)
    cases = [(Matrix.zero(0, 3), Matrix.zero(3, 0)),   # 0xk · kx0
             (Matrix.zero(4, 0), Matrix.zero(0, 5)),   # nx0 · 0xm
             (Matrix.zero(0, 0), Matrix.zero(0, 0)),
             (Matrix.zero(2, 3), Matrix.zero(3, 4))]
    for density in (0.0, 0.05, 0.2, 0.5, 1.0):
        for _ in range(5):
            n, k, m = (rng.randint(1, 12) for _ in range(3))
            cases.append((_sparse_matrix(rng, n, k, density),
                           _sparse_matrix(rng, k, m, density)))
    for _ in range(5):
        n, k, m = (rng.randint(2, 9) for _ in range(3))
        a = _sparse_matrix(rng, n, k, 0.6).to_rows()
        b = _sparse_matrix(rng, k, m, 0.6).to_rows()
        a[rng.randrange(n)] = [0] * k                       # zero row of a
        dead = rng.randrange(k)
        a = [r[:dead] + [0] + r[dead + 1:] for r in a]      # zero column of a
        b[rng.randrange(k)] = [0] * m                       # zero row of b
        dead = rng.randrange(m)
        b = [r[:dead] + [0] + r[dead + 1:] for r in b]      # zero column of b
        cases.append((Matrix.from_rows(a), Matrix.from_rows(b)))
    return cases


def test_product_and_apply_match_naive_reference():
    rng = random.Random(41)
    for a, b in _product_cases():
        prod = a * b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        assert prod == _naive_product(a, b)
        assert all(type(e) is Fraction for e in prod.entries)
        vec = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if
               rng.random() < 0.5 else 0 for _ in range(a.cols)]
        assert (a * Matrix.column(vec)).entries == tuple(
            _naive_product(a, Matrix.column(vec)).entries)


def test_product_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(m):
        return sympy.Matrix(m.rows, m.cols,
                            [sympy.Rational(e.numerator, e.denominator)
                             for e in m.entries])

    for a, b in _product_cases():
        expected = to_sympy(a) * to_sympy(b)
        assert (a * b).entries == tuple(
            Fraction(int(expected[i, j].p), int(expected[i, j].q))
            for i in range(a.rows) for j in range(b.cols))


def _fraction_loop_product(a, b):
    """The Fraction accumulation products ran on before the integer kernel:
    each nonzero a_ik adds a_ik times the sparse row k of b."""
    b_rows = b.sparse_rows()
    out = []
    for i in range(a.rows):
        acc = [Fraction(0)] * b.cols
        for x, b_row in zip(a.row(i), b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out += acc
    return Matrix(a.rows, b.cols, out)


def test_integer_product_matches_fraction_loop():
    rng = random.Random(43)

    def entry():
        return Fraction(rng.randint(-999, 999),
                        rng.choice((1, 2, 7, rng.randint(1, 10 ** 6))))

    def mixed(n, m, density):
        return Matrix(n, m, [entry() if rng.random() < density
                             else Fraction(0) for _ in range(n * m)])

    cases = list(_product_cases())
    for density in (0.1, 0.5, 1.0):
        for _ in range(4):
            n, k, m = (rng.randint(1, 10) for _ in range(3))
            cases.append((mixed(n, k, density), mixed(k, m, density)))
    for a, b in cases:
        prod = a * b
        assert prod.entries == _fraction_loop_product(a, b).entries
        assert all(type(e) is Fraction for e in prod.entries)
        for vec in ([entry() for _ in range(a.cols)],
                    [0] * a.cols, b.col(0) if b.cols else [0] * a.cols):
            assert (a * Matrix.column(vec)).entries == _fraction_loop_product(
                a, Matrix.column(vec)).entries


def test_product_shape_mismatch_raises():
    with pytest.raises(ValueError):
        Matrix.zero(2, 3) * Matrix.zero(2, 3)
    with pytest.raises(ValueError):
        Matrix.zero(2, 3) * Matrix.column([1, 2])


def test_scalar_product_unchanged():
    m = Matrix.from_rows([[1, Fraction(-2, 3)], [0, 5]])
    expected = Matrix.from_rows([[Fraction(3, 2), -1], [0, Fraction(15, 2)]])
    assert m * Fraction(3, 2) == expected
    assert Fraction(3, 2) * m == expected
    assert m * "3/2" == expected
    assert 0 * m == Matrix.zero(2, 2)
    assert (-1) * m == -m


# -- determinants ---------------------------------------------------------------

def _reference_det(m):
    """Gaussian elimination over Q, tracking row swaps: the Fraction loop
    `det` used before the integer Bareiss elimination."""
    rows = m.to_rows()
    n = m.rows
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d
        d *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def _det_cases():
    """Seeded square matrices from 0x0 to 12x12 at 0-100 % density with
    mixed denominators up to 10**6 and negative entries, plus singular and
    rank-deficient matrices, a zero first pivot that needs a row swap, and a
    zero first column."""
    rng = random.Random(41)

    def entry():
        return Fraction(rng.randint(-999, 999),
                        rng.choice((1, 2, 7, rng.randint(1, 10 ** 6))))

    def square(n, density):
        return [[entry() if rng.random() < density else Fraction(0)
                 for _ in range(n)] for _ in range(n)]

    cases = []
    for n in range(13):
        for density in (0.0, 0.1, 0.3, 0.6, 1.0):
            cases.append(Matrix.from_rows(square(n, density)))
    for n in range(2, 9):
        rows = square(n, 0.8)
        rows[-1] = list(rows[0])                                 # singular
        cases.append(Matrix.from_rows(rows))
        if n >= 4:
            rows = square(n, 0.8)
            a, b = entry(), entry()
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            rows[-2] = [b * x - y for x, y in zip(rows[0], rows[1])]
            cases.append(Matrix.from_rows(rows))              # rank n - 2
        rows = square(n, 1.0)
        rows[0][0] = Fraction(0)                      # swap at the first pivot
        cases.append(Matrix.from_rows(rows))
        rows = square(n, 1.0)
        for r in rows:
            r[0] = Fraction(0)                        # zero first column
        cases.append(Matrix.from_rows(rows))
    return cases


def test_det_matches_fraction_elimination():
    cases = _det_cases()
    values = [det(m) for m in cases]
    assert values == [_reference_det(m) for m in cases]
    assert any(v == 0 for v in values) and any(v != 0 for v in values)
    assert any(v.denominator > 10 ** 6 for v in values)
    assert det(Matrix.zero(0, 0)) == 1


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _det_cases():
        sm = sympy.Matrix(m.rows, m.cols,
                          [sympy.Rational(e.numerator, e.denominator)
                           for e in m.entries])
        expected = sm.det() if m.rows else sympy.Integer(1)
        assert det(m) == Fraction(int(expected.p), int(expected.q))


def test_det_reads_integer_entries():
    # the isomorphism grid passes matrices of plain ints
    for m in _det_cases():
        ints = [e.numerator for e in m.entries]
        assert det(Matrix._exact(m.rows, m.cols, ints)) == det(
            Matrix(m.rows, m.cols, ints))


def _hom_pairs():
    """Seeded pairs (V, W) built like the dense_hom benchmark's, n = 3 to 6:
    V has characters 1 and 2, one Jordan block each (superdiagonal 1, 2,
    3, ... times the character), and g2 = g1²; W is V in the basis of a
    product of 2n integer shears; each is conjugated by seeded signs."""
    rng = random.Random(53)

    def signed(r):
        return _conjugate(r, Matrix.diagonal([rng.choice((1, -1))
                                              for _ in range(r.dim)]))

    def jordan_entry(i, j, na):
        c = 1 if i < na else 2
        if j == i:
            return c
        return c * (1 + i % 3) if j == i + 1 != na else 0

    pairs = []
    for n in range(3, 7):
        na = (n + 1) // 2
        g1 = Matrix.from_rows([[jordan_entry(i, j, na) for j in range(n)]
                               for i in range(n)])
        v = TorusRep(g1, g1 * g1)
        p = Matrix.identity(n)
        for _ in range(2 * n):
            shear = Matrix.identity(n).to_rows()
            i, j = rng.sample(range(n), 2)
            shear[i][j] = rng.choice((1, -1, 2, -2))
            p = p * Matrix.from_rows(shear)
        pairs.append((signed(v), signed(_conjugate(v, p))))
    return pairs


def _rank_cases():
    """Seeded matrices for `rank`: square 0x0 to 12x12 with mixed
    denominators up to 10**6, and rectangular up to 72x36 with small ones,
    at 0-100 % density; low-rank products, zero rows and columns, and
    duplicate and dependent rows; empty shapes; and this library's own rank
    inputs: the cellular differentials of Hom(V, W) and the intertwiner
    systems of (V, W), (V, V) and (W, W) for the pairs of `_hom_pairs`."""
    rng = random.Random(47)

    def entry(big=True):
        den = rng.choice((1, 2, 7, rng.randint(1, 10 ** 6) if big else 5))
        return Fraction(rng.randint(-999, 999), den)

    def dense(n, m, density, big=True):
        return [[entry(big) if rng.random() < density else Fraction(0)
                 for _ in range(m)] for _ in range(n)]

    def flat(n, m, rows):
        return Matrix(n, m, [e for r in rows for e in r])

    cases = []
    for n in range(13):
        for density in (0.0, 0.1, 0.3, 0.6, 1.0):
            cases.append(flat(n, n, dense(n, n, density)))
    for n, m in ((72, 36), (36, 72), (40, 5), (5, 40), (1, 12), (12, 1),
                 (0, 7), (7, 0)):
        for density in (0.0, 0.05, 0.3, 1.0):
            cases.append(flat(n, m, dense(n, m, density, big=False)))
    for k in (1, 3, 8):  # rank k, well below both sides
        cases.append(flat(72, k, dense(72, k, 0.6, big=False))
                     * flat(k, 36, dense(k, 36, 0.6, big=False)))
    for _ in range(12):
        n, m = rng.randint(2, 12), rng.randint(2, 12)
        rows = dense(n, m, 0.7)
        rows[rng.randrange(n)] = [Fraction(0)] * m              # zero row
        dead = rng.randrange(m)
        for r in rows:
            r[dead] = Fraction(0)                               # zero column
        rows.append(list(rows[rng.randrange(n)]))           # duplicate row
        a, b = entry(), entry()
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
        cases.append(flat(len(rows), m, rows))
    for k in (0, 1, 2, 36):
        cases += [Matrix.zero(0, k), Matrix.zero(k, 0)]
    for v, w in _hom_pairs():
        cx = cellular_complex(hom_rep(v, w))
        cases += [cx.d[0], cx.d[1]]
        cases += [_intertwiner_equations(a, b)
                  for a, b in ((v, w), (v, v), (w, w))]
    return cases


def test_rank_matches_rank_kernel():
    cases = _rank_cases() + _oracle_cases()
    ranks = [rank(m) for m in cases]
    assert ranks == [rank_kernel(m)[0] for m in cases]
    assert any(0 < r < min(m.rows, m.cols) for r, m in zip(ranks, cases))


def test_rank_matches_sympy():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    for m in _rank_cases():
        dm = DomainMatrix([[QQ(e.numerator, e.denominator) for e in m.row(i)]
                           for i in range(m.rows)], (m.rows, m.cols), QQ)
        assert rank(m) == dm.rank()


def test_det_non_square_raises():
    for m in (Matrix.zero(2, 3), Matrix.zero(0, 1), Matrix.zero(3, 0)):
        with pytest.raises(ValueError):
            det(m)


# -- the elimination kernel against the Fraction loop it replaced -------------

def _fraction_rref(rows, cols):
    """The sparse Fraction Gauss-Jordan loop of `Matrix.rref` before the
    fraction-free kernel, kept as the oracle: rows as {column: nonzero
    Fraction} dicts, pivot columns leftmost-first, the candidate with the
    fewest nonzeros as pivot row, and every row operation in Fractions."""
    n = len(rows)
    rows = [dict(r) for r in rows]
    free = [r for r in rows if r]
    done = []
    pivots = []
    for c in range(cols):
        if not free:
            break
        cands = [r for r in free if c in r]
        if not cands:
            continue
        prow = min(cands, key=len)
        free = [r for r in free if r is not prow]
        inv = 1 / prow.pop(c)
        for j in prow:
            prow[j] *= inv
        for r in (*done, *cands):
            if r is prow or c not in r:
                continue
            f = r.pop(c)
            for j, v in prow.items():
                x = r.get(j)
                if x is None:
                    r[j] = -f * v
                else:
                    x -= f * v
                    if x:
                        r[j] = x
                    else:
                        del r[j]
        prow[c] = Fraction(1)
        done.append(prow)
        pivots.append(c)
    zero = Fraction(0)
    out = [[r.get(j, zero) for j in range(cols)] for r in done]
    out += [[zero] * cols for _ in range(n - len(done))]
    return out, tuple(pivots)


def _dict_rows(m):
    return [dict(r) for r in m.sparse_rows()]


def _oracle_kernel(rows, pivots, cols):
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            v = [Fraction(0)] * cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(tuple(v))
    return basis


def _oracle_solve(rows, cols, b):
    """`solve` on dict rows by the oracle: the particular solution read off
    one reduction of [a | b]."""
    aug = [{**r, cols: v} if v else r for r, v in zip(rows, b)]
    rows, pivots = _fraction_rref(aug, cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][cols]
    return tuple(x)


def _oracle_invert(m):
    n = m.rows
    aug = [{**r, n + i: Fraction(1)} for i, r in enumerate(_dict_rows(m))]
    rows, pivots = _fraction_rref(aug, 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return Matrix(n, n, [rows[i][n + j] for i in range(n) for j in range(n)])


def _as_sparse(a):
    return SparseMatrix(a.cols, _dict_rows(a))


def _kernel_cases():
    """Seeded matrices from 2 % to 100 % dense, up to 60x40 (20x13 from 40 %
    density on), with denominators up to 10**6; zero rows and columns, empty shapes, square
    invertible and singular matrices, low-rank products and dependent
    rows."""
    rng = random.Random(53)

    def entry():
        den = rng.choice((1, 1, 2, 7, rng.randint(1, 10 ** 6)))
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 3), den)

    def dense(n, m, density):
        return [[entry() if rng.random() < density else Fraction(0)
                 for _ in range(m)] for _ in range(n)]

    def flat(rows, m):
        return Matrix(len(rows), m, [e for r in rows for e in r])

    cases = [Matrix.zero(0, 4), Matrix.zero(4, 0), Matrix.zero(0, 0),
             Matrix.zero(3, 5), Matrix.zero(2, 2), Matrix.identity(4)]
    for density in (0.02, 0.05, 0.15, 0.4, 1.0):
        side = 60 if density < 0.3 else 20  # dense ones grow big entries
        for _ in range(4):
            n, m = rng.randint(1, side), rng.randint(1, side * 2 // 3)
            cases.append(flat(dense(n, m, density), m))
        for n in (1, 3, 6, 10):
            cases.append(flat(dense(n, n, density), n))
    for k in (1, 2, 3):  # rank k
        cases.append(flat(dense(30, k, 0.7), k) * flat(dense(k, 20, 0.7), 20))
        cases.append(flat(dense(6, k, 0.8), k) * flat(dense(k, 6, 0.8), 6))
    for _ in range(6):
        n, m = rng.randint(3, 15), rng.randint(3, 15)
        rows = dense(n, m, 0.5)
        rows[rng.randrange(n)] = [Fraction(0)] * m              # zero row
        dead = rng.randrange(m)
        for r in rows:
            r[dead] = Fraction(0)                               # zero column
        a, b = entry(), entry()
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
        rows.append(list(rows[-1]))                         # duplicate row
        cases.append(flat(rows, m))
    return cases


def test_rref_rank_kernel_and_invert_match_the_fraction_loop():
    cases = _kernel_cases()
    invertible = singular = deficient = 0
    for m in cases:
        rows, pivots = _fraction_rref(_dict_rows(m), m.cols)
        assert m.rref() == (rows, pivots)
        assert rank_kernel(m) == (len(pivots),
                                  _oracle_kernel(rows, pivots, m.cols))
        deficient += len(pivots) < min(m.rows, m.cols)
        if m.rows == m.cols:
            expected = _oracle_invert(m)
            assert invert(m) == expected
            invertible += expected is not None
            singular += expected is None
    assert invertible >= 5 and singular >= 5 and deficient >= 10
    assert any(e.denominator > 10 ** 5 for m in cases for e in m.entries)


def test_solve_matches_the_fraction_loop():
    rng = random.Random(59)
    outcomes = set()
    for a in _kernel_cases():
        for consistent in (True, False):
            if consistent:
                x = [Fraction(rng.randint(-5, 5), rng.randint(1, 9))
                     for _ in range(a.cols)]
                b = (a * Matrix.column(x)).entries
            else:
                b = [Fraction(rng.randint(-5, 5), rng.randint(1, 10 ** 6))
                     for _ in range(a.rows)]
            expected = _oracle_solve(_dict_rows(a), a.cols, b)
            assert solve(a, b) == expected
            assert solve(_as_sparse(a), b) == expected
            outcomes.add((consistent, expected is None))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_kernel_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _kernel_cases():
        if m.rows * m.cols <= 600:
            assert m.rref() == _sympy_rref(sympy, m)


def _pipeline_systems(monkeypatch):
    """The straighten systems of rep_to_mc on the unipotent J4-J8 at bound
    n-1, with g2 = 1 and with g2 = g1^2, as (stage, a, b) with a a
    `SparseMatrix`, and under the stage "solve" every system it hands to
    `solve` (there are none: the splitting corner is written in closed
    form).  `straighten` solves entry by entry, so its whole system is
    assembled here from `_ChainProblem`, row by row in first-seen
    coordinate order."""
    import t2mc.mcdg as mcdg
    from t2mc.mcdg import rep_to_mc
    from t2mc.torus_rep import TorusRep

    systems = []
    solve_, straighten_ = mcdg.solve, mcdg.straighten

    def capture(a, b):
        systems.append(("solve", a, list(b)))
        return solve_(a, b)

    def straighten(omega, src, dst, bound=4):
        allowed = [(p, q) for p in range(dst.dim) for q in range(src.dim)
                   if dst.characters[p] == src.characters[q]]
        problem = mcdg._ChainProblem(src, dst, bound)
        problem.add_constant_dt_vars(allowed)
        problem.add_chain_vars(skip_constant_on=frozenset(allowed))
        rhs = mcdg._flatten(omega)
        rows = {}
        for j, img in enumerate(problem.images):
            for k, v in img.items():
                rows.setdefault(k, {})[j] = v
        for k in rhs:
            rows.setdefault(k, {})
        systems.append(("straighten",
                        SparseMatrix(len(problem.images), list(rows.values())),
                        [rhs.get(k, Fraction(0)) for k in rows]))
        return straighten_(omega, src, dst, bound)

    monkeypatch.setattr(mcdg, "solve", capture)
    monkeypatch.setattr(mcdg, "straighten", straighten)
    for n in range(4, 9):
        g1 = Matrix.from_rows([[int(j in (i, i + 1)) for j in range(n)]
                               for i in range(n)])
        for g2 in (Matrix.identity(n), g1 * g1):
            rep_to_mc(TorusRep(g1, g2), bound=n - 1)
    return systems


def test_pipeline_systems_match_the_fraction_loop(monkeypatch):
    systems = _pipeline_systems(monkeypatch)
    monkeypatch.undo()
    assert {name for name, _, _ in systems} == {"straighten"}
    assert max(a.rows for _, a, _ in systems) >= 500
    for _, a, b in systems:
        expected = _oracle_solve(a.data, a.cols, b)
        assert expected is not None
        assert solve(a, b) == expected
