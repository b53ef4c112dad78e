"""Free graded-commutative differential algebras presented by generators.

A presentation is an ordered list of generators, each with a degree, a
character (integer exponent 4-vector over the unit parameters a1, b1, a2, b2)
and a differential assigned once all generators are declared.  Elements are
sparse rational combinations of monomials; a monomial is the exponent tuple
over the declared generator order.  Squares of odd generators vanish and the
Koszul sign is computed by counting inversions among odd factors.
"""

from __future__ import annotations

from fractions import Fraction

from .cochain import TwistedComplex
from .qlinalg import Matrix, frac, frac_str

# character exponent vectors: (exp a1, exp b1, exp a2, exp b2)
TRIVIAL_CHARACTER = (0, 0, 0, 0)


def char_add(c1, c2):
    return tuple(a + b for a, b in zip(c1, c2))


def char_scale(c, k: int):
    return tuple(k * a for a in c)


class DifferentialSquareError(ValueError):
    """d∘d is nonzero on some generator of the presentation."""


class GeneratorSpec:
    __slots__ = ("name", "degree", "character", "differential", "index")

    def __init__(self, name, degree, character, index):
        if degree < 1:
            raise ValueError(f"generator {name}: degree must be positive")
        self.name = name
        self.degree = int(degree)
        self.character = tuple(int(c) for c in character)
        self.differential = None  # set later; None means zero
        self.index = index

    @property
    def is_odd(self):
        return self.degree % 2 == 1

    def __repr__(self):
        return f"GeneratorSpec({self.name!r}, deg={self.degree})"


class Element:
    """Sparse element of a presented algebra: {monomial: coefficient}."""

    __slots__ = ("pres", "coeffs")

    def __init__(self, pres, coeffs):
        self.pres = pres
        self.coeffs = {m: c for m, c in coeffs.items() if c != 0}

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.pres is other.pres and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.pres), tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        other = self.pres.coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Element(self.pres, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self.pres.coerce(other))

    def __rsub__(self, other):
        return self.pres.coerce(other) + (-self)

    def __neg__(self):
        return Element(self.pres, {m: -c for m, c in self.coeffs.items()})

    def scale(self, c):
        c = frac(c)
        return Element(self.pres, {m: c * v for m, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented  # e.g. a form: its __rmul__ takes over
        other = self.pres.coerce(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                sm = self.pres.mono_mul(m1, m2)
                if sm is None:
                    continue
                sign, m = sm
                out[m] = out.get(m, Fraction(0)) + sign * c1 * c2
        return Element(self.pres, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.pres.coerce(other) * self

    def d(self):
        return self.pres.differential(self)

    def degree(self):
        """Total degree when homogeneous, None for 0, error when mixed."""
        degs = {self.pres.mono_degree(m) for m in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def negate_odd(self):
        """Flip the sign of the odd-degree monomials (Koszul parity twist)."""
        return Element(self.pres,
                       {m: (-c if self.pres.mono_degree(m) % 2 else c)
                        for m, c in self.coeffs.items()})

    def character(self):
        """Common character when all monomials agree, else error."""
        chars = {self.pres.mono_character(m) for m in self.coeffs}
        if not chars:
            return TRIVIAL_CHARACTER
        if len(chars) > 1:
            raise ValueError("element has mixed character")
        return chars.pop()

    def __repr__(self):
        return self.pres.element_str(self)


class AlgebraPresentation:
    """A free graded-commutative differential algebra with monomial bases.

    Generators are declared first (fixing the global order), differentials
    are assigned afterwards, and `finalize()` verifies that d is
    character-preserving and that d∘d vanishes on every generator.  Basis
    enumeration is cached per degree up to `bound`.
    """

    def __init__(self, bound: int = 10):
        self.bound = bound
        self.generators: list[GeneratorSpec] = []
        self._by_name: dict[str, GeneratorSpec] = {}
        self._basis_cache: dict[int, list[tuple]] = {}
        self.d_square_defects: list[tuple[str, "Element"]] = []
        self._finalized = False

    # -- construction ------------------------------------------------------

    def add_generator(self, name, degree, character=TRIVIAL_CHARACTER):
        if self._finalized:
            raise ValueError("presentation already finalized")
        if name in self._by_name:
            raise ValueError(f"duplicate generator {name!r}")
        g = GeneratorSpec(name, degree, character, len(self.generators))
        self.generators.append(g)
        self._by_name[name] = g
        return self.generator(name)

    def set_differential(self, name, value):
        g = self._by_name[name]
        value = self.coerce(value)
        if not value.is_zero():
            if value.degree() != g.degree + 1:
                raise ValueError(f"d({name}) must have degree {g.degree + 1}")
            if value.character() != g.character:
                raise ValueError(f"d({name}) must have character {g.character}")
        g.differential = value

    def finalize(self, strict_d2: bool = True):
        """Freeze the presentation and check d² = 0 on every generator.

        With strict_d2=False the defects are recorded in `d_square_defects`
        instead of raising, so intentionally broken differentials can still
        be inspected degree by degree.
        """
        self.d_square_defects = []
        for g in self.generators:
            dg = g.differential
            if dg is None or dg.is_zero():
                continue
            ddg = self.differential(dg)
            if not ddg.is_zero():
                self.d_square_defects.append((g.name, ddg))
        if strict_d2 and self.d_square_defects:
            name, ddg = self.d_square_defects[0]
            raise DifferentialSquareError(f"d(d({name})) = {ddg!r} != 0")
        self._finalized = True
        return self

    # -- elements ----------------------------------------------------------

    @property
    def n_gens(self):
        return len(self.generators)

    def zero(self):
        return Element(self, {})

    def unit(self):
        return Element(self, {(0,) * self.n_gens: Fraction(1)})

    def generator(self, name):
        g = self._by_name[name]
        mono = tuple(int(i == g.index) for i in range(self.n_gens))
        return Element(self, {mono: Fraction(1)})

    def generator_spec(self, name) -> GeneratorSpec:
        return self._by_name[name]

    def coerce(self, value) -> Element:
        if isinstance(value, Element):
            if value.pres is not self:
                raise ValueError("element belongs to a different presentation")
            return value
        if isinstance(value, (int, Fraction)):
            return Element(self, {(0,) * self.n_gens: frac(value)})
        raise TypeError(f"cannot coerce {value!r}")

    # -- monomials ---------------------------------------------------------

    def mono_degree(self, m):
        return sum(e * g.degree for e, g in zip(m, self.generators))

    def mono_character(self, m):
        c = TRIVIAL_CHARACTER
        for e, g in zip(m, self.generators):
            if e:
                c = char_add(c, char_scale(g.character, e))
        return c

    def mono_mul(self, m1, m2):
        """Product of monomials: (sign, monomial), or None when it vanishes."""
        sign = 1
        tail_odd = 0  # odd-degree exponents of m1 strictly after position i
        for i in range(self.n_gens - 1, -1, -1):
            g = self.generators[i]
            if g.is_odd:
                if m2[i]:
                    if m1[i]:
                        return None  # odd square
                    if tail_odd % 2:
                        sign = -sign
                tail_odd += m1[i]
        return sign, tuple(a + b for a, b in zip(m1, m2))

    def mono_element(self, m, coeff=1):
        return Element(self, {tuple(m): frac(coeff)})

    def enumerate_basis(self, n: int):
        """All monomials of total degree n, descending-lex in exponent tuples."""
        if n > self.bound:
            raise ValueError(f"degree {n} exceeds enumeration bound {self.bound}")
        if n < 0:
            return []
        if n not in self._basis_cache:
            monos = []

            def rec(idx, remaining, acc):
                if idx == self.n_gens:
                    if remaining == 0:
                        monos.append(tuple(acc))
                    return
                g = self.generators[idx]
                top = 1 if g.is_odd else remaining // g.degree
                for e in range(min(top, remaining // g.degree) + 1):
                    acc.append(e)
                    rec(idx + 1, remaining - e * g.degree, acc)
                    acc.pop()

            rec(0, n, [])
            monos.sort(reverse=True)
            self._basis_cache[n] = monos
        return list(self._basis_cache[n])

    # -- differential ------------------------------------------------------

    def differential(self, x) -> Element:
        """Leibniz extension of the generator differentials."""
        x = self.coerce(x)
        out = self.zero()
        for m, c in x.coeffs.items():
            out = out + self._d_mono(m).scale(c)
        return out

    def _d_mono(self, m) -> Element:
        out = self.zero()
        prefix_deg = 0
        for k, g in enumerate(self.generators):
            e = m[k]
            if e and g.differential is not None and not g.differential.is_zero():
                left = tuple(m[j] if j < k else (e - 1 if j == k else 0)
                             for j in range(self.n_gens))
                right = tuple(m[j] if j > k else 0 for j in range(self.n_gens))
                sign = -1 if prefix_deg % 2 else 1
                term = (self.mono_element(left) * g.differential
                        * self.mono_element(right))
                out = out + term.scale(sign * e)
            prefix_deg += e * g.degree
        return out

    def differential_matrix(self, n: int) -> Matrix:
        """Matrix of d from the degree-n basis to the degree-(n+1) basis.

        Rows are indexed by the degree-(n+1) basis, columns by degree n.
        """
        src = self.enumerate_basis(n)
        dst = self.enumerate_basis(n + 1)
        index = {m: i for i, m in enumerate(dst)}
        entries = [[Fraction(0)] * len(src) for _ in range(len(dst))]
        for j, m in enumerate(src):
            dm = self._d_mono(m)
            for mm, c in dm.coeffs.items():
                entries[index[mm]][j] = c
        return Matrix.from_rows(entries) if dst and src else Matrix(
            len(dst), len(src), [])

    def check_d_square(self, max_degree=None):
        """d_{n+1}·d_n as matrices for n <= max_degree, each d_n built once;
        returns the degrees where it fails."""
        if max_degree is None:
            max_degree = self.bound - 2
        basis = {n: self.enumerate_basis(n) for n in range(max_degree + 3)}
        d = {n: self.differential_matrix(n) for n in range(max_degree + 2)}
        return TwistedComplex(basis, d, check=False).d_square_failures()

    # -- printing ----------------------------------------------------------

    def mono_str(self, m):
        parts = []
        for e, g in zip(m, self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def element_str(self, x: Element):
        if not x.coeffs:
            return "0"
        terms = []
        for m in sorted(x.coeffs, reverse=True):
            c = x.coeffs[m]
            ms = self.mono_str(m)
            if ms == "1":
                terms.append(frac_str(c))
            elif c == 1:
                terms.append(ms)
            elif c == -1:
                terms.append(f"-{ms}")
            else:
                terms.append(f"{frac_str(c)}*{ms}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


# the coefficient "algebra" of plain scalar-valued forms
SCALAR_ALGEBRA = AlgebraPresentation(bound=0)
SCALAR_ALGEBRA.finalize()
