"""Finite-dimensional representations of Z x Z over Q.

A representation is a commuting pair of invertible rational matrices (the
images of the two generators g1, g2).  The module provides simultaneous
triangularization over Q (semi-simplification), the Hom representation (both
generators built by one Kronecker product), the 3-term cellular cochain
complex of the torus computing H*(T^2, V), and an exact isomorphism test.
Its negative answers are certified three ways: the intertwiner space
Hom(V, W) is zero, its dimension differs from dim End(V) or dim End(W) (each
n² minus the rank of its intertwiner system), or the determinant vanishes on
a coefficient grid large enough to show it vanishes identically.  Its
determinants are taken over Z (`qlinalg.det`, on integer grid candidates).
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, mul

from .cochain import TwistedComplex
from .errors import CrossCheckError, DomainError, ParseError
from .qlinalg import (Matrix, _integer_row, det, frac, frac_str, invert,
                      rank, rank_kernel, solve)


class NonCommutingError(DomainError):
    pass


class SingularError(DomainError):
    pass


class IrrationalSpectrumError(DomainError):
    """No rational eigenvalue at some triangularization stage."""


class TorusRep:
    """A pair of commuting invertible matrices acting on Q^dim.

    The rep is immutable, so each generator inverse is computed once, on
    first use, and kept, as is a passed `require_valid`; a `block` inherits
    both.  A diagonal generator's inverse is its reciprocal diagonal.
    """

    __slots__ = ("dim", "g1", "g2", "_inverses", "_valid")

    def __init__(self, g1: Matrix, g2: Matrix):
        if g1.rows != g1.cols or g2.rows != g2.cols or g1.rows != g2.rows:
            raise ValueError("generator matrices must be square of equal size")
        self.dim = g1.rows
        self.g1 = g1
        self.g2 = g2
        self._inverses = {}
        self._valid = False

    @classmethod
    def trivial(cls, dim: int = 1) -> "TorusRep":
        return cls(Matrix.identity(dim), Matrix.identity(dim))

    @classmethod
    def character(cls, c1, c2) -> "TorusRep":
        return cls(Matrix.diagonal([c1]), Matrix.diagonal([c2]))

    @classmethod
    def diagonal(cls, characters) -> "TorusRep":
        """Semisimple rep from a list of (g1-scalar, g2-scalar) pairs."""
        return cls(Matrix.diagonal([c[0] for c in characters]),
                   Matrix.diagonal([c[1] for c in characters]))

    def g(self, i: int) -> Matrix:
        if i == 1:
            return self.g1
        if i == 2:
            return self.g2
        raise ValueError("generator index must be 1 or 2")

    def g_inv(self, i: int) -> Matrix:
        inv = self._inverses.get(i)
        if inv is None:
            inv = _diagonal_inverse(self.g(i)) or invert(self.g(i))
            if inv is None:
                raise SingularError(f"g{i} is singular")
            self._inverses[i] = inv
        return inv

    def block(self, lo: int, hi: int) -> "TorusRep":
        """The diagonal block lo..hi-1 of a pair block upper triangular at
        lo and hi (else DomainError), inheriting the pair's validity."""
        if any(any(g.row(i)[:s]) for s in (lo, hi) for g in (self.g1, self.g2)
               for i in range(s, self.dim)):
            raise DomainError("representation is not block upper triangular "
                              f"at {lo} and {hi}")

        def cut(m):
            return Matrix._exact(hi - lo, hi - lo, [
                e for i in range(lo, hi) for e in m.row(i)[lo:hi]])

        out = TorusRep(cut(self.g1), cut(self.g2))
        out._valid = self._valid
        return out

    def is_invertible_diagonal(self) -> bool:
        """Both generators diagonal with no zero on the diagonal: such a
        pair commutes and is invertible, so it is valid."""
        return all(_diagonal_inverse(self.g(i)) is not None for i in (1, 2))

    def __eq__(self, other):
        return (isinstance(other, TorusRep) and self.g1 == other.g1
                and self.g2 == other.g2)

    def __repr__(self):
        return f"TorusRep(dim={self.dim}, g1={self.g1!r}, g2={self.g2!r})"


def _diagonal_inverse(m: Matrix):
    """m^{-1}, the reciprocal diagonal, when m is diagonal with no zero on
    its diagonal, else None."""
    e, step = m.entries, m.cols + 1
    diag = e[::step]
    # the entries strictly between two diagonal ones are off the diagonal
    if all(diag) and not any(any(e[k + 1:k + step])
                             for k in range(0, len(e) - 1, step)):
        return Matrix.diagonal([1 / d for d in diag])
    return None


class ValidationReport:
    __slots__ = ("ok", "problems")

    def __init__(self, problems):
        self.problems = list(problems)
        self.ok = not self.problems

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, problems={self.problems})"


def validate(r: TorusRep) -> ValidationReport:
    """Check that the generators commute, on the integer cores of the two
    products (`Matrix.commutes_with`), and are invertible, that is of full
    rank (the pivot count of the elimination kernel's forward phase)."""
    problems = []
    if not r.g1.commutes_with(r.g2):
        problems.append("non_commuting")
    if rank(r.g1) < r.dim:
        problems.append("singular_g1")
    if rank(r.g2) < r.dim:
        problems.append("singular_g2")
    return ValidationReport(problems)


def require_valid(r: TorusRep):
    """Raise unless r is valid; a pass is recorded on the immutable rep."""
    if r._valid:
        return
    report = validate(r)
    if "non_commuting" in report.problems:
        raise NonCommutingError("generator matrices do not commute")
    if not report.ok:
        raise SingularError("generator matrix is singular")
    r._valid = True


def unipotent_summand(r: TorusRep) -> TorusRep:
    """V_(1,1) = ker(g1 - 1)^N ∩ ker(g2 - 1)^N, N >= dim, the summand where
    both generators act unipotently, as the pair `_restrict`ed to the
    `rank_kernel` basis; r itself when that basis spans V.

    The summand is invariant because g1 and g2 commute, which validation has
    checked, and each restriction is unipotent, hence invertible: the
    summand inherits validity.
    """
    require_valid(r)
    n, e = r.dim, 1
    m1, m2 = _shift(r.g1, 1), _shift(r.g2, 1)
    while e < n:
        m1, m2, e = m1 * m1, m2 * m2, 2 * e
    _, basis = rank_kernel(Matrix._exact(2 * n, n, m1.entries + m2.entries))
    if len(basis) == n:
        return r
    out = TorusRep(*_restrict(basis, r.g1, r.g2))
    out._valid = True
    return out


def _restrict(basis, *gs):
    """Each g restricted to the g-invariant span of the `rank_kernel` basis
    vectors, as the A with g·B = B·A for B their columns.  Each vector is 1
    at its last nonzero entry (its free column) and 0 at the others' ones, so
    A is g·B read at those rows."""
    n, k = gs[0].rows, len(basis)
    free = [max(i for i, x in enumerate(v) if x) for v in basis]
    b = Matrix._exact(n, k, [v[i] for i in range(n) for v in basis])
    return [Matrix._exact(k, n, [e for f in free for e in g.row(f)]) * b
            for g in gs]


# -- characteristic polynomial and rational roots ---------------------------

def _shift(m: Matrix, lam) -> Matrix:
    """m - lam·id, subtracting lam on the diagonal only."""
    entries, step = list(m.entries), m.cols + 1
    entries[::step] = [e - lam for e in entries[::step]]
    return Matrix._exact(m.rows, m.cols, entries)


def char_poly(m: Matrix):
    """Coefficients of det(xI - m), ascending, interpolated at 0, ..., n."""
    n = m.rows
    points = range(n + 1)
    values = [(-1) ** n * det(_shift(m, x)) for x in points]
    vand = Matrix.from_rows([[x ** j for j in range(n + 1)] for x in points])
    return list(solve(vand, values))


def _divisors(v):
    """The positive divisors of v > 0, sorted, built from its factorization;
    trial division divides each factor out, so it stops at the larger of
    the second-largest prime factor and the square root of the largest (the
    largest itself when its square divides v), not at the square root of
    v."""
    divs, p = {1}, 2
    while p * p <= v:
        while v % p == 0:
            v //= p
            divs |= {d * p for d in divs}
        p += 1
    if v > 1:
        divs |= {d * v for d in divs}
    return sorted(divs)


def _poly_divmod(f, g):
    """Quotient and remainder of f by g (ascending Fraction coefficients);
    the remainder has no trailing zeros."""
    r, q = list(f), []
    while len(r) >= len(g):
        q.insert(0, r[-1] / g[-1])
        r = [x - q[0] * y for x, y in zip(r, [0] * (len(r) - len(g)) + g)]
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _squarefree(f):
    """f / gcd(f, f'), f's roots each once; Euclid keeps the gcd monic."""
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        b = [c / b[-1] for c in b]
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_divmod(f, a)[0]


def rational_roots(coeffs):
    """All rational roots of the polynomial (ascending coefficients), sorted.

    Candidates p/q come from the squarefree part and are tested on its
    primitive integer coefficients, as q^d·f(p/q) == 0.
    """
    coeffs = [frac(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    roots = set()
    while coeffs[0] == 0:  # strip powers of x
        roots.add(Fraction(0))
        coeffs.pop(0)
    if len(coeffs) > 1:
        ints = [c.numerator for c in _primitive(_squarefree(coeffs))]
        for p in _divisors(abs(ints[0])):
            for q in _divisors(abs(ints[-1])):
                for num in (p, -p):
                    acc, qk = 0, 1
                    for c in reversed(ints):
                        acc, qk = acc * num + c * qk, qk * q
                    if acc == 0:
                        roots.add(Fraction(num, q))
    return sorted(roots)


# -- semi-simplification -----------------------------------------------------

class SemiSimpleData:
    """Simultaneous triangularization data.

    `characters` lists the diagonal (g1-scalar, g2-scalar) pairs in filtration
    order (sub first), `basis` is the change-of-basis matrix, `basis_inv`
    its inverse and `tri` the pair basis^-1 · g_i · basis of upper triangular
    generators, whose diagonals are the characters; it is conjugate to the
    validated input, so it is valid by inheritance.
    """

    __slots__ = ("characters", "basis", "basis_inv", "tri")

    def __init__(self, characters, basis, basis_inv, tri):
        self.characters = characters
        self.basis = basis
        self.basis_inv = basis_inv
        self.tri = tri


def _primitive(vec):
    """The primitive integer multiple of vec whose first nonzero entry is
    positive."""
    _, ints = _integer_row([frac(v) for v in vec])
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [Fraction(v // g) for v in ints]


def _eigenspace_spectrum(g1: Matrix, g2: Matrix, lam1):
    """The ascending rational eigenvalues of g2 on ker(g1 - lam1)."""
    _, e_basis = rank_kernel(_shift(g1, lam1))
    return rational_roots(char_poly(_restrict(e_basis, g2)[0]))


def _common_eigenvector(a1: Matrix, a2: Matrix, lam1s, lam2s):
    """The first free-variable vector, made primitive, of the first nonzero
    kernel of [a1 - lam1; a2 - lam2], or None.  lam1 runs over `lam1s`, the
    full g1's rational eigenvalues, skipping those with det(a1 - lam1) != 0,
    and lam2 over `lam2s(lam1)`, the full g2's on g1's lam1-eigenspace: all
    ascending, they hold every rational eigenvalue pair of a1, a2.  The
    kernel lies in a1's lam1-eigenspace E, so the vector is E·w for w the
    first kernel vector of (a2 on E) minus its smallest eigenvalue: in both
    kernels it is the one, up to scale, whose last nonzero entry is first.
    """
    n = a1.rows
    for lam1 in lam1s:
        s1 = _shift(a1, lam1)
        if det(s1) != 0:
            continue
        for lam2 in lam2s(lam1):
            s2 = _shift(a2, lam2)
            _, kernel = rank_kernel(
                Matrix._exact(2 * n, n, s1.entries + s2.entries))
            if kernel:
                return _primitive(kernel[0])
    return None


def semisimplify(r: TorusRep) -> SemiSimpleData:
    """Simultaneously triangularize over Q; the diagonal lists the
    composition characters in filtration order.

    A step completes a common eigenvector vec of the trailing blocks A by
    e_j, j != L, its last nonzero index: as A·vec = λ·vec, the next blocks
    are A[j, k] - (vec_j / vec_L)·A[L, k], j, k != L, in closed form.

    g1's rational spectrum is found once, and g2's on a g1-eigenspace once,
    when a stage first reaches it.  Raises IrrationalSpectrumError when some
    stage has no rational eigenvalue (the pair is not triangularizable).
    """
    require_valid(r)
    n = r.dim
    lam1s = rational_roots(char_poly(r.g1)) if n > 1 else []
    lam2s = cache(lambda lam1: _eigenspace_spectrum(r.g1, r.g2, lam1))
    cols = Matrix.identity(n).to_rows()  # the basis columns
    a1, a2 = r.g1, r.g2
    for step in range(n - 1):
        vec = _common_eigenvector(a1, a2, lam1s, lam2s)
        if vec is None:
            raise IrrationalSpectrumError(
                "no common rational eigenvector; the pair is not "
                "triangularizable over Q")
        last = max(j for j, v in enumerate(vec) if v)
        rest = [j for j in range(n - step) if j != last]
        tail = cols[step:]
        head = [sum((v * c[i] for v, c in zip(vec, tail) if v), Fraction(0))
                for i in range(n)]
        cols[step:] = [head] + [tail[j] for j in rest]
        ratios = [vec[j] / vec[last] for j in rest]
        a1, a2 = (Matrix._exact(len(rest), len(rest), [
            a[(j, k)] - t * a[(last, k)] if t else a[(j, k)]
            for j, t in zip(rest, ratios) for k in rest]) for a in (a1, a2))
    basis = Matrix._exact(n, n, [c[i] for i in range(n) for c in cols])
    binv = invert(basis)
    tri = TorusRep(binv * r.g1 * basis, binv * r.g2 * basis)
    if any(any(t.row(i)[:i]) for t in (tri.g1, tri.g2) for i in range(n)):
        raise CrossCheckError("semisimplify: basis^-1·g_i·basis is not upper "
                              "triangular")
    tri._valid = True
    chars = [(tri.g1[(i, i)], tri.g2[(i, i)]) for i in range(n)]
    return SemiSimpleData(chars, basis, binv, tri)


# -- hom ---------------------------------------------------------------------

def _kronecker(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product a ⊗ b: entry a[k, kk]·b[l, ll] at row (k, l),
    column (kk, ll), both row-major."""
    zero = Fraction(0)
    b_rows = b.to_rows()
    return Matrix._exact(a.rows * b.rows, a.cols * b.cols, [
        x * y if x and y else zero
        for a_row in a.to_rows() for b_row in b_rows
        for x in a_row for y in b_row])


def hom_rep(v: TorusRep, w: TorusRep) -> TorusRep:
    """Hom(V, W) with the conjugate action f -> w.g ∘ f ∘ v.g^{-1}.

    Basis: matrix units E_{kl} (k a W-index, l a V-index), ordered row-major.
    The image of E_{kl} has entry w.g[a, k]·v.g^{-1}[l, b] at (a, b), so the
    generator is the Kronecker product w.g ⊗ (v.g^{-1})^T.
    """
    require_valid(v)
    require_valid(w)
    return TorusRep(*(_kronecker(w.g(i), v.g_inv(i).transpose())
                      for i in (1, 2)))


# -- cellular cochain complex ------------------------------------------------

def cellular_complex(v: TorusRep) -> TwistedComplex:
    """The cellular cochain complex of the square torus with coefficients in v.

    C^0 = V -> C^1 = V ⊕ V -> C^2 = V with
    d0(x) = ((g1-1)x, (g2-1)x) and d1(x1, x2) = (g2-1)x1 - (g1-1)x2;
    d1 ∘ d0 = (g2-1)(g1-1) - (g1-1)(g2-1) = g2g1 - g1g2, so d² = 0 is the
    commutator check that validation has just made, and is not repeated.
    """
    require_valid(v)
    n = v.dim
    # g - 1 changes only the diagonal; every entry is a Fraction already
    m1, m2 = ([[e - 1 if i == j else e for j, e in enumerate(g.row(i))]
               for i in range(n)] for g in (v.g1, v.g2))
    d0 = Matrix._exact(2 * n, n, [e for row in m1 + m2 for e in row])
    d1 = Matrix._exact(n, 2 * n, [e for r1, r2 in zip(m1, m2)
                                  for e in (*r2, *(-e for e in r1))])
    basis = {
        0: [f"pt[{k}]" for k in range(n)],
        1: [f"edge1[{k}]" for k in range(n)] + [f"edge2[{k}]" for k in range(n)],
        2: [f"square[{k}]" for k in range(n)],
    }
    return TwistedComplex(basis, {0: d0, 1: d1}, check=False)


# -- isomorphism testing -----------------------------------------------------

class IsoResult:
    """Outcome of the intertwiner search.

    status is 'isomorphic' (with a verified invertible conjugator),
    'not_isomorphic', or 'inconclusive' (nonzero space, no invertible point
    within budget).  'not_isomorphic' is reached three ways: the intertwiner
    space is zero; its dimension differs from dim End(V) or dim End(W); or
    the determinant vanishes on the whole coefficient grid.
    """

    __slots__ = ("status", "conjugator", "space_dim")

    def __init__(self, status, conjugator, space_dim):
        self.status = status
        self.conjugator = conjugator
        self.space_dim = space_dim

    def __bool__(self):
        return self.status == "isomorphic"

    def __repr__(self):
        return f"IsoResult({self.status}, dim={self.space_dim})"


def _intertwiner_equations(v: TorusRep, w: TorusRep) -> Matrix:
    """The 2n² x n² system T v.g_i - w.g_i T = 0 in the entries of T,
    row-major."""
    if v.dim != w.dim:
        raise ValueError("equal dimensions required")
    n = v.dim
    entries = []
    for i in (1, 2):
        vg, wg = v.g(i), w.g(i)
        vgt, neg_wg = vg.transpose().entries, [-e for e in wg.entries]
        # (T vg - wg T)[a, b] = sum_c T[a,c] vg[c,b] - wg[a,c] T[c,b]; the
        # two index sets a*n + c and c*n + b meet only at a*n + b
        for a in range(n):
            for b in range(n):
                row = [Fraction(0)] * (n * n)
                row[b::n] = neg_wg[a * n:(a + 1) * n]
                row[a * n:(a + 1) * n] = vgt[b * n:(b + 1) * n]
                row[a * n + b] = vg[(b, b)] - wg[(a, a)]
                entries += row
    return Matrix._exact(2 * n * n, n * n, entries)


def intertwiner_space(v: TorusRep, w: TorusRep):
    """Basis of {T : T v.g_i = w.g_i T, i = 1, 2} as dim x dim matrices."""
    _, kernel = rank_kernel(_intertwiner_equations(v, w))
    return [Matrix(v.dim, v.dim, k) for k in kernel]


def _end_dim(r: TorusRep) -> int:
    """dim End(V) = n² - rank of the intertwiner system of (V, V)."""
    return r.dim ** 2 - rank(_intertwiner_equations(r, r))


def _candidate_key(entries):
    # integer entries over one positive denominator order exactly like the
    # rationals they stand for
    return (max(map(abs, entries)),
            len(entries) - entries.count(0),
            len([e for e in entries if e < 0]),
            entries)


GRID_CAP = 120_000
# the seed of the random fallback past GRID_CAP
RANDOM_SEED = 20260808


def is_isomorphic(v: TorusRep, w: TorusRep) -> IsoResult:
    """Search for an invertible intertwiner; exact negative certificates.

    The solution space Hom(V, W) of the intertwiner equations is computed
    exactly.  It is 'not_isomorphic' when it is zero, or when its dimension
    differs from dim End(V) or dim End(W) (V ≅ W would make all three
    equal).  Otherwise its basis, scaled by one common denominator to
    integer matrices, is combined over a small-integer coefficient grid large
    enough to detect a vanishing determinant polynomial (degree <= dim per
    coefficient): among the invertible grid points the one with the least
    `_candidate_key` is the conjugator, and a candidate whose key cannot win
    costs no determinant.  A grid that is singular everywhere proves
    'not_isomorphic'.  Past GRID_CAP points the search falls back to random
    sampling seeded by RANDOM_SEED and may report 'inconclusive'.
    """
    require_valid(v)
    require_valid(w)
    if v.dim != w.dim:
        raise ValueError("equal dimensions required")
    if v.g1 == w.g1 and v.g2 == w.g2:
        return IsoResult("isomorphic", Matrix.identity(v.dim), None)
    space = intertwiner_space(v, w)
    k = len(space)
    if k == 0:
        return IsoResult("not_isomorphic", None, 0)
    if k != _end_dim(v) or k != _end_dim(w):
        return IsoResult("not_isomorphic", None, k)
    n = v.dim
    den = lcm(*(e.denominator for t in space for e in t.entries))
    # the entries of each basis matrix, times den
    basis = [[e.numerator * (den // e.denominator) for e in t.entries]
             for t in space]

    def candidate(lam):
        return tuple([sum(map(mul, lam, c)) for c in zip(*basis)])

    def invertible(entries):
        return det(Matrix._exact(n, n, entries)) != 0

    def found(entries):
        t = Matrix._exact(n, n, [Fraction(e, den) for e in entries])
        if t * v.g1 != w.g1 * t or t * v.g2 != w.g2 * t:
            raise CrossCheckError(f"is_isomorphic: T·v.g_i != w.g_i·T for "
                                  f"the conjugator T = {t!r}")
        return IsoResult("isomorphic", t, k)

    values = [0]
    step = 1
    while len(values) < n + 1:
        values.extend((step, -step))
        step += 1
    values = values[:max(n + 1, 5)]
    if len(values) ** k <= GRID_CAP:
        # scaled[d]: basis matrix d times each grid value
        scaled = [[tuple([x * e for e in b]) for x in values] for b in basis]

        def grid(d, partial):
            # the points in itertools.product order, each the partial sum
            # of coordinates 0..d-1 plus one scaled basis matrix
            for s in scaled[d]:
                point = tuple(map(add, partial, s))
                yield from grid(d + 1, point) if d + 1 < k else (point,)

        best = None
        for entries in grid(0, (0,) * (n * n)):
            key = _candidate_key(entries)
            if (best is None or key < best[0]) and invertible(entries):
                best = (key, entries)
        if best is None:
            # det vanishes on a full grid, hence identically: no invertible
            # intertwiner exists.
            return IsoResult("not_isomorphic", None, k)
        return found(best[1])
    rng = random.Random(RANDOM_SEED)
    for _ in range(500):
        entries = candidate([rng.randint(-5, 5) for _ in range(k)])
        if invertible(entries):
            return found(entries)
    return IsoResult("inconclusive", None, k)


# -- text format --------------------------------------------------------------

_SPACE = re.compile(r"\s*")


def parse_rep(text: str) -> TorusRep:
    """Parse the rep file format: a dimension line (an integer n >= 0), then
    two nested arrays of 'p/q' strings (bare integers also accepted).  '#'
    starts a comment; any text other than the two arrays and whitespace is
    an error."""
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    body = stripped.strip()
    if not body:
        raise ParseError("empty representation file")
    head, _, rest = body.partition("\n")
    try:
        dim = int(head.strip())
        if dim < 0:
            raise ValueError("negative dimension")
    except ValueError as exc:
        raise ParseError(f"bad dimension line {head!r}") from exc
    blocks = []
    decode = json.JSONDecoder().raw_decode
    pos = 0
    while (pos := _SPACE.match(rest, pos).end()) < len(rest):
        if rest[pos] != "[":
            raise ParseError(f"unexpected text {rest[pos:pos + 20]!r}")
        try:
            block, pos = decode(rest, pos)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad matrix block: {exc}") from exc
        blocks.append(block)
    if len(blocks) != 2:
        raise ParseError("expected exactly two matrices")
    # each distinct entry string is read once (a Fraction is immutable, so
    # equal ones may share it); not numbers: 1 == 1.0, but 1.0 is rejected
    read = cache(frac)

    def load(data):
        if len(data) != dim or any(not isinstance(r, list) or len(r) != dim
                                   for r in data):
            raise ParseError(f"matrix is not {dim}x{dim}")
        if any(isinstance(e, bool) for row in data for e in row):
            raise ParseError("bad matrix entry: a boolean is not a number")
        try:
            return Matrix._exact(dim, dim, [
                read(e) if type(e) is str else frac(e)
                for row in data for e in row])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad matrix entry: {exc}") from exc

    return TorusRep(load(blocks[0]), load(blocks[1]))


def rep_to_text(r: TorusRep) -> str:
    def dump(m: Matrix):
        return json.dumps([[frac_str(e) for e in m.row(i)]
                           for i in range(m.rows)])

    return f"{r.dim}\n{dump(r.g1)}\n{dump(r.g2)}\n"
