"""Polynomial differential forms on the square and interval, and the torus
cell structure with twisted face maps.

The square model of the torus has one 0-cell, two edges (sigma1 = {(t1, 0)},
sigma2 = {(0, t2)}) and one square cell tau.  Forms carry coefficients in a
presented graded algebra, plain `Fraction`s for scalar forms; a term is a
polynomial in t1, t2 times dt-monomial times coefficient, and the
differential includes the internal differential of the coefficient algebra
with the usual Koszul sign.  An interval form is a square form in t1 alone:
`Form1` and `Form2` share one term-key layout, (mask, e1, e2), and one
term-dict algebra (sums, products, scaling, the differential, degrees) in a
private base class, and differ only in monomials, faces and printing.

A local system assigns the value algebra to every cell and records the
twisted face maps d0 (the d1 faces are identities composed with the
substitution).  Global sections are cellular compatible families; the
predicate `is_global_section` checks all face equations, including an
optional character twist carried by the section.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .gca import SCALAR_ALGEBRA, AlgebraPresentation, Element
from .qlinalg import Matrix, frac, frac_str
from .torus_rep import TorusRep, require_valid


class ParameterZeroError(DomainError):
    pass


class NotLinearOnGeneratorsError(DomainError):
    pass


def _popcount(mask: int) -> int:
    return (mask & 1) + ((mask >> 1) & 1)


def _coeff(alg: AlgebraPresentation, value):
    """`value` as a coefficient over `alg`: a `Fraction` or an `Element`."""
    return frac(value) if alg is SCALAR_ALGEBRA else alg.coerce(value)


def _coeff_str(a):
    return frac_str(a) if isinstance(a, Fraction) else repr(a)


class _Form:
    """The term-dict algebra of interval and square forms: `terms` maps a
    key (mask, e1, e2) to a nonzero coefficient, mask bit 1 being dt1 and
    bit 2 dt2; interval forms use the keys (dt, e, 0).  Coefficients are
    `Fraction`s over `SCALAR_ALGEBRA`, else `Element`s of `alg` (`_coeff`).
    Subclasses supply `monomial`, the face restrictions and `__repr__`."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: AlgebraPresentation, terms=None):
        self.alg = alg
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def const(cls, alg, coeff):
        return cls.monomial(alg, coeff)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self.alg is other.alg
                and self.terms == other.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(self.alg, other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            cur = out.get(key)
            out[key] = coeff if cur is None else cur + coeff
        return type(self)(self.alg, out)

    def __neg__(self):
        return type(self)(self.alg, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = frac(c)
        return type(self)(self.alg, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Element):
            other = self.const(self.alg, other)
        out = {}
        for (m1, e1, f1), a1 in self.terms.items():
            a1_twisted = None
            for (m2, e2, f2), a2 in other.terms.items():
                if m1 & m2:
                    continue
                left = a1
                if _popcount(m2) % 2:
                    # the right factor's dt passes the left coefficient
                    if a1_twisted is None:
                        a1_twisted = (a1 if self.alg is SCALAR_ALGEBRA
                                      else a1.negate_odd())
                    left = a1_twisted
                prod = left * a2
                if (m1 & 2) and (m2 & 1):
                    prod = -prod  # dt2∧dt1 = -dt1∧dt2
                if not prod:
                    continue
                key = (m1 | m2, e1 + e2, f1 + f2)
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return type(self)(self.alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Element):
            return self.const(self.alg, other) * self
        return NotImplemented

    def d(self):
        """De Rham differential plus the internal coefficient differential:
        d(p·dtμ ⊗ a) = (dp)·dtμ ⊗ a + (-1)^{|dtμ|} p·dtμ ⊗ da."""
        parts = {}

        def put(key, coeff):
            cur = parts.get(key)
            parts[key] = coeff if cur is None else cur + coeff

        internal = self.alg is not SCALAR_ALGEBRA  # scalars are cocycles
        for (mask, e1, e2), a in self.terms.items():
            if e1 > 0 and not (mask & 1):
                put((mask | 1, e1 - 1, e2), a * e1)
            if e2 > 0 and not (mask & 2):
                put((mask | 2, e1, e2 - 1), a * (-e2 if mask & 1 else e2))
            if internal and (da := self.alg.differential(a)):
                put((mask, e1, e2), -da if _popcount(mask) % 2 else da)
        return type(self)(self.alg, parts)

    def degrees(self):
        if self.alg is SCALAR_ALGEBRA:  # scalar coefficients have degree 0
            return {_popcount(mask) for mask, _e1, _e2 in self.terms}
        return {_popcount(mask) + self.alg.mono_degree(mono)
                for (mask, _e1, _e2), a in self.terms.items()
                for mono in a.coeffs}

    def degree(self):
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop()


class Form1(_Form):
    """Polynomial form on the interval: sum of t^e * (dt?) * coefficient,
    keyed (dt, e, 0)."""

    __slots__ = ()
    # bound in the class body, not only inherited: bench/tracer.py counts
    # these operators through each class's own __dict__
    __add__ = __radd__ = _Form.__add__
    __neg__ = _Form.__neg__
    __sub__ = _Form.__sub__
    __mul__ = _Form.__mul__
    __rmul__ = _Form.__rmul__

    @classmethod
    def monomial(cls, alg, coeff, e: int = 0, dt: int = 0):
        return cls(alg, {(dt, e, 0): _coeff(alg, coeff)})

    def at_endpoint(self, value):
        """Substitute t := value and drop dt (face to the 0-cell)."""
        value = frac(value)
        out = _coeff(self.alg, 0)
        for (dt, e, _), a in self.terms.items():
            if dt:
                continue
            out = out + a * value ** e
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (dt, e, _), a in sorted(self.terms.items()):
            t = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
            bits.append(f"{t}{'dt' if dt else ''}({_coeff_str(a)})")
        return " + ".join(bits)


class Form2(_Form):
    """Polynomial form on the square: terms (mask, e1, e2) -> coefficient."""

    __slots__ = ()
    __add__ = __radd__ = _Form.__add__
    __neg__ = _Form.__neg__
    __sub__ = _Form.__sub__
    __mul__ = _Form.__mul__
    __rmul__ = _Form.__rmul__

    @classmethod
    def monomial(cls, alg, coeff, e1: int = 0, e2: int = 0, mask: int = 0):
        return cls(alg, {(mask, e1, e2): _coeff(alg, coeff)})

    def restrict_edge(self, i: int, j: int) -> Form1:
        """Face d_{ij} substitution part: t -> (t, 1-j) for i = 1 and
        (1-j, t) for i = 2; kills the crossing dt and renames the parameter."""
        if i not in (1, 2) or j not in (0, 1):
            raise ValueError("edge index i in {1,2}, vertex index j in {0,1}")
        cross_bit = 2 if i == 1 else 1
        out = {}
        for (mask, e1, e2), a in self.terms.items():
            if mask & cross_bit:
                continue
            par_e, cross_e = (e1, e2) if i == 1 else (e2, e1)
            if j and cross_e:
                continue  # the crossing coordinate is 0 on this edge
            key = (1 if mask else 0, par_e, 0)
            cur = out.get(key)
            out[key] = a if cur is None else cur + a
        return Form1(self.alg, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (mask, e1, e2), a in sorted(self.terms.items()):
            s = ""
            if e1:
                s += "t1" if e1 == 1 else f"t1^{e1}"
            if e2:
                s += "t2" if e2 == 1 else f"t2^{e2}"
            if mask & 1:
                s += "dt1"
            if mask & 2:
                s += "dt2"
            bits.append(f"{s}({_coeff_str(a)})")
        return " + ".join(bits)


# scalar form shorthands
def sq(coeff=1, e1=0, e2=0, mask=0) -> Form2:
    return Form2.monomial(SCALAR_ALGEBRA, coeff, e1, e2, mask)


def algebra_map_element(pres: AlgebraPresentation, images: dict, x: Element):
    """Extend a generator-image table multiplicatively to an element.

    Images live in any algebra supporting + and * (Elements, Form1, Form2);
    the unit of the target must be supplied as images['1']."""
    one = images["1"]
    out = one * 0
    for mono, coeff in x.coeffs.items():
        term = one
        for e, g in zip(mono, pres.generators):
            for _ in range(e):
                term = term * images[g.name]
        out = out + term * coeff
    return out


def build_fiber_algebra() -> AlgebraPresentation:
    """The fiber value algebra: generators x, y, z (degree 3, cocycles),
    w (degree 6, cocycle), u (degree 5) with du = y*z, through degree 10."""
    p = AlgebraPresentation(bound=10)
    p.add_generator("x", 3, (1, 0, 1, 0))
    p.add_generator("y", 3, (0, 1, 0, 1))
    p.add_generator("z", 3, (1, 0, 1, 0))
    p.add_generator("w", 6, (1, 1, 1, 1))
    p.add_generator("u", 5, (1, 1, 1, 1))
    p.set_differential("u", p.generator("y") * p.generator("z"))
    return p.finalize()


class LocalSystemT2:
    """Per-cell value algebras on the torus cell structure with face maps.

    `edge_d0[i]` gives the twisted face sigma_i -> point on generators
    (Elements); `face_d0[i]` gives the twisted face tau -> sigma_i on
    generators (interval forms).  The other faces are identities composed
    with the substitution.  Construction verifies that every face map
    commutes with the differentials on all generators.
    """

    def __init__(self, alg: AlgebraPresentation, params, edge_d0, face_d0):
        self.alg = alg
        self.params = tuple(frac(p) for p in params)
        if any(p == 0 for p in self.params):
            raise ParameterZeroError("parameters a1, b1, a2, b2 must be nonzero")
        self.edge_d0 = edge_d0
        self.face_d0 = face_d0
        self._validate()
        # the chain-map generator table and section reports, built once
        # by `xmodel.verify_chain_map`
        self._sections = None

    # parameter shorthands: params = (a1, b1, a2, b2)
    def a(self, i):
        return self.params[0 if i == 1 else 2]

    def b(self, i):
        return self.params[1 if i == 1 else 3]

    def _images_for_face(self, i: int, twisted: bool):
        one = Form1.const(self.alg, self.alg.unit())
        images = {"1": one}
        for g in self.alg.generators:
            if twisted:
                images[g.name] = self.face_d0[i][g.name]
            else:
                images[g.name] = Form1.const(self.alg, self.alg.generator(g.name))
        return images

    def apply_face(self, i: int, j: int, form: Form2) -> Form1:
        """The face map d_{ij}: L_tau -> L_sigma_i applied to a square form."""
        images = self._images_for_face(i, twisted=(j == 0))
        out = Form1.zero(self.alg)
        for (mask, e1, e2), a in form.terms.items():
            base = Form2(self.alg, {(mask, e1, e2): self.alg.unit()})
            restricted = base.restrict_edge(i, j)
            if restricted.is_zero():
                continue
            mapped = algebra_map_element(self.alg, images, a)
            out = out + restricted * mapped
        return out

    def apply_edge(self, i: int, j: int, form: Form1) -> Element:
        """The face map d_j: L_sigma_i -> L_pt applied to an interval form:
        the substitution t := 1 - j, then for j = 0 the twisted d0, which
        is linear."""
        value = form.at_endpoint(1 - j)
        if j:
            return value
        images = {"1": self.alg.unit()}
        images.update({g.name: self.edge_d0[i][g.name]
                       for g in self.alg.generators})
        return algebra_map_element(self.alg, images, value)

    def _validate(self):
        for i in (1, 2):
            for g in self.alg.generators:
                gen = self.alg.generator(g.name)
                dgen = self.alg.differential(gen)
                lhs = self.apply_face(i, 0, Form2.const(self.alg, dgen))
                rhs = self.apply_face(i, 0, Form2.const(self.alg, gen)).d()
                if lhs != rhs:
                    raise DomainError(
                        f"face d_{i}0 does not commute with d on {g.name}")
                lhs_e = self.apply_edge(i, 0, Form1.const(self.alg, dgen))
                rhs_e = self.alg.differential(
                    self.apply_edge(i, 0, Form1.const(self.alg, gen)))
                if lhs_e != rhs_e:
                    raise DomainError(
                        f"edge d_0 on sigma_{i} does not commute with d "
                        f"on {g.name}")

    def monodromy_of(self, n: int) -> TorusRep:
        """The pair of d0 matrices on the degree-n generator span.

        Generators are listed in reversed declaration order (so that
        sub-representations come first and twists sit strictly above the
        diagonal); raises when a face image leaves the generator span.
        """
        gens = [g for g in self.alg.generators if g.degree == n]
        gens.reverse()
        if not gens:
            return TorusRep.trivial(0)
        index = {}
        for pos, g in enumerate(gens):
            mono = tuple(int(k == g.index) for k in range(self.alg.n_gens))
            index[mono] = pos
        mats = []
        for i in (1, 2):
            rows = [[Fraction(0)] * len(gens) for _ in gens]
            for col, g in enumerate(gens):
                img = self.edge_d0[i][g.name]
                for mono, coeff in img.coeffs.items():
                    if mono not in index:
                        raise NotLinearOnGeneratorsError(
                            f"d_0 on sigma_{i} sends {g.name} outside the "
                            f"degree-{n} generator span")
                    rows[index[mono]][col] = coeff
            mats.append(Matrix.from_rows(rows))
        rep = TorusRep(mats[0], mats[1])
        require_valid(rep)
        return rep


def build_local_system(a1, b1, a2, b2) -> LocalSystemT2:
    """The local system on the torus with fiber algebra Λ(x, y, z, w, u).

    Face twists: on sigma_1, d0 scales (x, y, z) by (a1, b1, a1), sends
    w -> a1 b1 (w + x y) and u -> a1 b1 u; on sigma_2, d0 sends
    x -> a2(x + z), scales y, z by (b2, a2) and w, u by a2 b2.  The square
    faces twist by the crossing direction, with
    d_{10}(w) = a2 b2 (w - t y z - dt u) and d_{20}(w) = a1 b1 (w + x y).
    """
    alg = build_fiber_algebra()
    a1, b1, a2, b2 = frac(a1), frac(b1), frac(a2), frac(b2)
    x, y, z = alg.generator("x"), alg.generator("y"), alg.generator("z")
    w, u = alg.generator("w"), alg.generator("u")

    edge_d0 = {
        1: {"x": x.scale(a1), "y": y.scale(b1), "z": z.scale(a1),
            "w": (w + x * y).scale(a1 * b1), "u": u.scale(a1 * b1)},
        2: {"x": (x + z).scale(a2), "y": y.scale(b2), "z": z.scale(a2),
            "w": w.scale(a2 * b2), "u": u.scale(a2 * b2)},
    }

    def c(e):  # constant interval form
        return Form1.const(alg, e)

    face_d0 = {
        1: {"x": c((x + z).scale(a2)), "y": c(y.scale(b2)),
            "z": c(z.scale(a2)), "u": c(u.scale(a2 * b2)),
            "w": (c(w) - Form1.monomial(alg, y * z, e=1)
                  - Form1.monomial(alg, u, dt=1)).scale(a2 * b2)},
        2: {"x": c(x.scale(a1)), "y": c(y.scale(b1)), "z": c(z.scale(a1)),
            "u": c(u.scale(a1 * b1)),
            "w": (c(w) + c(x * y)).scale(a1 * b1)},
    }
    return LocalSystemT2(alg, (a1, b1, a2, b2), edge_d0, face_d0)


class SectionCandidate:
    """A would-be global section: square component plus an optional character
    twist (k, l), meaning the value lies in the system tensored with the
    character acting by a_i^{-k} b_i^{-l}."""

    __slots__ = ("tau", "twist")

    def __init__(self, tau: Form2, twist=(0, 0)):
        self.tau = tau
        self.twist = (int(twist[0]), int(twist[1]))


class SectionReport:
    __slots__ = ("ok", "failures", "edge_values", "point_value")

    def __init__(self, failures, edge_values, point_value):
        self.failures = list(failures)
        self.ok = not self.failures
        self.edge_values = edge_values
        self.point_value = point_value

    def __repr__(self):
        return f"SectionReport(ok={self.ok}, failures={self.failures})"


def is_global_section(ls: LocalSystemT2, s: SectionCandidate) -> SectionReport:
    """Check the cellular compatibility equations for the candidate.

    For each edge the two square faces must agree (the twisted face carries
    the extra character factor), and each edge value must have matching
    endpoints under the twisted and plain vertex faces.
    """
    k, l = s.twist
    failures = []
    edge_values = {}
    for i in (1, 2):
        other = 3 - i
        factor = (ls.a(other) ** (-k)) * (ls.b(other) ** (-l))
        twisted = ls.apply_face(i, 0, s.tau).scale(factor)
        plain = ls.apply_face(i, 1, s.tau)
        if twisted != plain:
            failures.append(
                (f"face_equation_sigma{i}",
                 f"d_{i}0 value {twisted!r} != d_{i}1 value {plain!r}"))
        edge_values[i] = plain
    point_value = None
    for i in (1, 2):
        factor = (ls.a(i) ** (-k)) * (ls.b(i) ** (-l))
        v0 = ls.apply_edge(i, 0, edge_values[i]).scale(factor)
        v1 = ls.apply_edge(i, 1, edge_values[i])
        if v0 != v1:
            failures.append(
                (f"vertex_equation_sigma{i}",
                 f"d_0 value {v0!r} != d_1 value {v1!r}"))
        if point_value is None:
            point_value = v1
        elif v1 != point_value:
            failures.append(("point_mismatch",
                             "edge values disagree at the 0-cell"))
    return SectionReport(failures, edge_values, point_value)


def section_x(ls: LocalSystemT2) -> SectionCandidate:
    """Degree-3 section with square component -x + t2 z, twisted by the
    character dual to the x-line (k, l) = (1, 0)."""
    alg = ls.alg
    tau = (Form2.const(alg, -alg.generator("x"))
           + Form2.monomial(alg, alg.generator("z"), e2=1))
    return SectionCandidate(tau, twist=(1, 0))


def section_w(ls: LocalSystemT2) -> SectionCandidate:
    """Degree-6 section with square component w - t1 x y + t2 dt1 u and
    character twist (1, 1).

    The sign is fixed so that d applied to the square component equals
    dt1 * (x-section) * y - dt1 dt2 u; the overall negative of this section
    is a global section as well.
    """
    alg = ls.alg
    xy = alg.generator("x") * alg.generator("y")
    tau = (Form2.const(alg, alg.generator("w"))
           - Form2.monomial(alg, xy, e1=1)
           + Form2.monomial(alg, alg.generator("u"), e2=1, mask=1))
    return SectionCandidate(tau, twist=(1, 1))


def constant_section(ls: LocalSystemT2, name: str) -> SectionCandidate:
    """The constant section carried by a single generator, twisted by the
    inverse of its own character (y, z and u admit these)."""
    g = ls.alg.generator_spec(name)
    twist = (g.character[0], g.character[1])
    return SectionCandidate(Form2.const(ls.alg, ls.alg.generator(name)), twist)

