"""Equivariant models of the torus and of the total space, and their
twisted-invariants complexes.

`build_torus_model` is the exterior algebra on two degree-1 cocycles with
trivial action; `build_total_model` is the seven-generator model with the
action table encoded in integer character vectors and a variant flag for the
ambiguous index in d(xb).  The two index conventions cannot both commute with
the local-system differentials; the module exposes both and
`verify_chain_map` reports which one is a chain map.

Invariance is decided exactly: with specialized rational parameter values by
evaluating characters, in generic mode by integer lattice membership of the
exponent vectors, so "generic" can never be accidentally resonant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cochain import ComplexError, TwistedComplex
from .errors import DomainError
from .gca import AlgebraPresentation, char_add
from .mcdg import (HomElement, MCObject, NonConstantCoefficientsError,
                   SALGEBRA, fm_dt_parts, realize_mc)
from .qlinalg import Matrix, _integer_vector, frac, frac_str, in_lattice
from .t2forms import (Form2, LocalSystemT2, constant_section,
                      is_global_section, section_x, section_w)
from .torus_rep import TorusRep, is_isomorphic

INDEPENDENT = "independent"


class MCInconsistentError(DomainError):
    """The twisted differential left the invariant span or D² != 0."""


class ParameterSpec:
    """Generic (formal) or specialized (rational) unit parameters, plus an
    optional list of character vectors declared trivial."""

    __slots__ = ("values", "relations")

    def __init__(self, values=None, relations=()):
        self.values = None
        if values is not None:
            self.values = tuple(frac(v) for v in values)
            if len(self.values) != 4 or any(v == 0 for v in self.values):
                raise DomainError("need four nonzero values a1, b1, a2, b2")
        try:
            self.relations = [tuple(_integer_vector(r)) for r in relations]
        except (TypeError, ValueError) as exc:
            raise DomainError("relations are integer 4-vectors") from exc
        if any(len(r) != 4 for r in self.relations):
            raise DomainError("relations are integer 4-vectors")

    @classmethod
    def generic(cls, relations=()):
        return cls(None, relations)

    @classmethod
    def specialized(cls, a1, b1, a2, b2):
        return cls((a1, b1, a2, b2))

    def evaluate(self, char):
        """The (g1, g2) scalar pair of a character vector at the values."""
        if self.values is None:
            raise DomainError("no parameter values assigned")
        a1, b1, a2, b2 = self.values
        k, l, m, n = char
        return (a1 ** k * b1 ** l, a2 ** m * b2 ** n)

    def is_trivial_char(self, char) -> bool:
        if self.values is not None:
            return self.evaluate(char) == (1, 1)
        return in_lattice(self.relations, char)

    def __repr__(self):
        if self.values is None:
            return f"ParameterSpec(generic, relations={self.relations})"
        return ("ParameterSpec(" +
                ", ".join(frac_str(v) for v in self.values) + ")")


GENERIC = ParameterSpec.generic()


class ModelPresentation:
    """An algebra presentation together with its parameter interpretation."""

    __slots__ = ("pres", "pspec", "variant", "name", "_bases")

    def __init__(self, pres: AlgebraPresentation, pspec: ParameterSpec,
                 variant=None, name=""):
        self.pres = pres
        self.pspec = pspec
        self.variant = variant
        self.name = name
        self._bases = {}  # (coefficient characters, degree) -> basis

    def degree_generators(self, n):
        return [g for g in self.pres.generators if g.degree == n]


@cache
def _presentation(variant):
    """The finalized presentation of the torus model (variant None) or of
    one variant of the total model, built once per process."""
    p = AlgebraPresentation(bound=10)
    p.add_generator("s1", 1)
    p.add_generator("s2", 1)
    if variant is None:
        return p.finalize()
    p.add_generator("xb", 3, (1, 0, 1, 0))
    p.add_generator("yb", 3, (0, 1, 0, 1))
    p.add_generator("zb", 3, (1, 0, 1, 0))
    p.add_generator("ub", 5, (1, 1, 1, 1))
    p.add_generator("wb", 6, (1, 1, 1, 1))
    s1, s2 = p.generator("s1"), p.generator("s2")
    xb, yb, zb = p.generator("xb"), p.generator("yb"), p.generator("zb")
    ub = p.generator("ub")
    p.set_differential("xb", (s1 if variant == "s1" else s2) * zb)
    p.set_differential("ub", yb * zb)
    p.set_differential("wb", s1 * xb * yb - s1 * s2 * ub)
    return p.finalize(strict_d2=False)


def build_torus_model() -> ModelPresentation:
    """The torus model, generic, through degree 10: two degree-1 cocycle
    generators with trivial action."""
    return ModelPresentation(_presentation(None), GENERIC, name="torus")


def build_total_model(pspec: ParameterSpec = GENERIC,
                      variant: str = "s2") -> ModelPresentation:
    """The seven-generator model of the total space, through degree 10.

    variant chooses the index in d(xb) = s?·zb.  Only the s2 choice yields
    d² = 0 (the s1 variant leaves d²(wb) = -s1 s2 yb zb, recorded in the
    presentation's defect list rather than raised, so the variant can still
    be inspected degree by degree).  Every model of a variant, whatever its
    parameters, shares that variant's presentation and what it caches.
    """
    if variant not in ("s1", "s2"):
        raise DomainError("variant must be 's1' or 's2'")
    return ModelPresentation(_presentation(variant), pspec, variant=variant,
                             name="total")


# -- invariant bases -----------------------------------------------------------

def _coeff_invariant(pspec: ParameterSpec, mono_char, coeff) -> bool:
    if coeff == INDEPENDENT:
        return False
    if isinstance(coeff, tuple) and len(coeff) == 4:
        return pspec.is_trivial_char(char_add(mono_char, coeff))
    if isinstance(coeff, tuple) and len(coeff) == 2:
        v1, v2 = frac(coeff[0]), frac(coeff[1])
        if pspec.values is not None:
            s1, s2 = pspec.evaluate(mono_char)
            return (s1 * v1, s2 * v2) == (1, 1)
        return (v1, v2) == (1, 1) and pspec.is_trivial_char(mono_char)
    raise TypeError(f"bad coefficient character {coeff!r}")


def invariant_basis(model: ModelPresentation, coeff_chars, n: int):
    """Ordered basis of the invariants of (model degree n) ⊗ coefficients.

    Coefficient characters are scalar pairs, exponent 4-vectors, or the
    INDEPENDENT marker (formally independent scalar: no invariants).  The
    order is monomial-major in the basis enumeration order.  Each basis is
    computed once per (characters, degree) and kept on the model, deciding
    invariance once per (monomial character, coefficient character); every
    call returns a fresh list.
    """
    key = (tuple(coeff_chars), n)
    if key not in model._bases:
        out = []
        invariant = cache(lambda c, v: _coeff_invariant(model.pspec, c, v))
        for mono in model.pres.enumerate_basis(n):
            mchar = model.pres.mono_character(mono)
            for idx, coeff in enumerate(coeff_chars):
                if invariant(mchar, coeff):
                    out.append((mono, idx))
        model._bases[key] = out
    return list(model._bases[key])


def _basis_label(model, mono, idx):
    return f"{model.pres.mono_str(mono)}@{idx}"


def twisted_invariants_complex(model: ModelPresentation, o: MCObject,
                               bound: int) -> TwistedComplex:
    """The complex ((model ⊗ coefficients)^invariants, d + eta·).

    D(mono ⊗ e_q) = d(mono) ⊗ e_q + sum_p (eta[p][q] · mono) ⊗ e_p, with the
    twist m1·dt1 + m2·dt2 written in the model's own s-generators as
    m1·s1 + m2·s2 and multiplied from the left: d(mono), s1·mono and s2·mono
    are formed once per monomial, and each column adds m1[p][q]·(s1·mono) +
    m2[p][q]·(s2·mono) over its nonzero twist entries.  D² = 0 is verified;
    a term leaving the invariant span signals a non-equivariant twist and
    raises MCInconsistentError.
    """
    if o.ambient != SALGEBRA:
        raise DomainError("the invariants complex takes an s-algebra twist")
    parts = fm_dt_parts(o.eta)
    if parts is None:
        raise NonConstantCoefficientsError(
            "the invariants complex takes a constant-coefficient twist")
    m1, m2 = parts
    twist_cols = [[(p, m1[(p, q)], m2[(p, q)]) for p in range(o.dim)
                   if m1[(p, q)] or m2[(p, q)]] for q in range(o.dim)]
    coeff_chars = list(o.characters)
    pres = model.pres
    s1 = pres.generator("s1")
    s2 = pres.generator("s2")
    bases = {}
    index = {}
    for n in range(bound + 2):
        bases[n] = invariant_basis(model, coeff_chars, n)
        index[n] = {key: pos for pos, key in enumerate(bases[n])}
    mats, products = {}, {}
    for n in range(bound + 1):
        rows = [[Fraction(0)] * len(bases[n]) for _ in bases[n + 1]]
        for col, (mono, q) in enumerate(bases[n]):
            if mono not in products:
                mono_el = pres.mono_element(mono)
                products[mono] = (pres._d_mono(mono), s1 * mono_el,
                                  s2 * mono_el)
            dmono, s1_mono, s2_mono = products[mono]
            image = {(mm, q): c for mm, c in dmono.coeffs.items()}
            for p, a1, a2 in twist_cols[q]:
                for a, prod in ((a1, s1_mono), (a2, s2_mono)):
                    for mm, c in (prod.coeffs.items() if a else ()):
                        image[mm, p] = image.get((mm, p), Fraction(0)) + a * c
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
    labels = {n: [_basis_label(model, mono, idx) for mono, idx in bases[n]]
              for n in range(bound + 2)}
    try:
        return TwistedComplex(labels, mats)
    except ComplexError as exc:
        raise MCInconsistentError(str(exc)) from exc


class NilpotentModel:
    __slots__ = ("model", "dims", "betti", "bases")

    def __init__(self, model, dims, betti_, bases):
        self.model = model
        self.dims = dims
        self.betti = betti_
        self.bases = bases


def nilpotent_model(pspec: ParameterSpec) -> NilpotentModel:
    """The invariant subalgebra of the total-space model with its cohomology.

    Returns degreewise dimensions, Betti numbers through degree 8, and the
    monomial bases, of the s2 variant.
    """
    model = build_total_model(pspec)
    trivial = [(Fraction(1), Fraction(1))]
    cx = twisted_invariants_complex(
        model, MCObject.semisimple(trivial, ambient=SALGEBRA), 8)
    degrees = range(9)
    dims = tuple(cx.dim(n) for n in degrees)
    bettis = cx.betti(degrees)
    bases = {n: [model.pres.mono_str(mono)
                 for mono, _ in invariant_basis(model, trivial, n)]
             for n in degrees}
    return NilpotentModel(model, dims, bettis, bases)


def subalgebra_monomials(pres: AlgebraPresentation, elements, bound: int):
    """Degreewise monomial support of the subalgebra generated by the given
    homogeneous elements (each a signed monomial), up to `bound`."""
    seen = {(0,) * pres.n_gens}
    frontier = [(0,) * pres.n_gens]
    while frontier:
        mono = frontier.pop()
        base = pres.mono_element(mono)
        for el in elements:
            prod = base * el
            for mm in prod.coeffs:
                if pres.mono_degree(mm) <= bound and mm not in seen:
                    seen.add(mm)
                    frontier.append(mm)
    out = {n: [] for n in range(bound + 1)}
    for mono in seen:
        out[pres.mono_degree(mono)].append(mono)
    for n in out:
        out[n].sort(reverse=True)
    return out


# -- homotopy-action recovery --------------------------------------------------

def recover_homotopy_action(model: ModelPresentation, i: int) -> TorusRep:
    """Extract the degree-1-times-generator component of d on the degree-i
    generators as a constant MC twist and realize it as a representation.

    Generators are listed in reversed declaration order so the twist sits
    strictly above the diagonal; requires specialized parameter values.
    """
    if model.pspec.values is None:
        raise DomainError("recovering the action needs specialized values")
    gens = model.degree_generators(i)
    gens.reverse()
    if not gens:
        raise DomainError(f"no generators in degree {i}")
    pres = model.pres
    n = len(gens)
    pos = {g.name: k for k, g in enumerate(gens)}
    chars = [model.pspec.evaluate(g.character) for g in gens]
    # the s1 and s2 coefficient matrices of the twist, row-major
    parts = {"s1": [Fraction(0)] * (n * n), "s2": [Fraction(0)] * (n * n)}
    for col, g in enumerate(gens):
        dg = g.differential
        if dg is None:
            continue
        for mono, coeff in dg.coeffs.items():
            # keep only (degree-1 generator)·(degree-i generator) monomials
            supp = [(k, e) for k, e in enumerate(mono) if e]
            if len(supp) != 2:
                continue
            names = {pres.generators[k].name: e for k, e in supp}
            one_gen = [nm for nm in names
                       if pres.generator_spec(nm).degree == 1]
            i_gen = [nm for nm in names
                     if pres.generator_spec(nm).degree == i]
            if (len(one_gen) != 1 or len(i_gen) != 1
                    or names[one_gen[0]] != 1 or names[i_gen[0]] != 1):
                continue
            parts[one_gen[0]][pos[i_gen[0]] * n + col] += coeff
    eta = HomElement.linear(Matrix(n, n, parts["s1"]),
                            Matrix(n, n, parts["s2"]))
    return realize_mc(MCObject.semisimple(chars, eta, ambient=SALGEBRA))


# -- the chain map into the local system ---------------------------------------

class GeneratorVerdict:
    __slots__ = ("name", "ok", "lhs", "rhs")

    def __init__(self, name, ok, lhs, rhs):
        self.name = name
        self.ok = ok
        self.lhs = lhs
        self.rhs = rhs


class ChainMapReport:
    """Outcome of the generator-by-generator chain-map verification."""

    __slots__ = ("variant", "section_reports", "verdicts")

    def __init__(self, variant, section_reports, verdicts):
        self.variant = variant
        self.section_reports = section_reports
        self.verdicts = verdicts

    @property
    def ok(self):
        return (all(r.ok for r in self.section_reports.values())
                and all(v.ok for v in self.verdicts))

    def failing_generators(self):
        return [v.name for v in self.verdicts if not v.ok]


def _sections(ls):
    """The generator table of the chain map into `ls` and the global-section
    reports of x', w', y, z and u, built on first use and kept on `ls`: they
    read `ls` alone, so every chain-map variant shares them."""
    if ls._sections is None:
        alg, unit = ls.alg, ls.alg.unit()
        x, w = section_x(ls), section_w(ls)
        y, z, u = (constant_section(ls, name) for name in "yzu")
        ls._sections = ({
            "s1": (Form2.monomial(alg, unit, mask=1), (0, 0)),
            "s2": (Form2.monomial(alg, unit, mask=2), (0, 0)),
            "xb": (x.tau, (1, 0)),
            "yb": (y.tau, (0, 1)),
            "zb": (z.tau, (1, 0)),
            "ub": (u.tau, (1, 1)),
            "wb": (w.tau, (1, 1)),
        }, {name: is_global_section(ls, section) for name, section in
            (("x_prime", x), ("w_prime", w), ("y", y), ("z", z), ("u", u))})
    return ls._sections


def _apply_sections(model: ModelPresentation, images, element):
    """Image of a model element under the generator table; returns
    (square form, twist) and checks the twist is consistent."""
    ls_alg = next(iter(images.values()))[0].alg
    total = Form2.zero(ls_alg)
    twist = None
    for mono, coeff in element.coeffs.items():
        term = Form2.const(ls_alg, ls_alg.unit())
        t = (0, 0)
        for e, g in zip(mono, model.pres.generators):
            for _ in range(e):
                img, tw = images[g.name]
                term = term * img
                t = (t[0] + tw[0], t[1] + tw[1])
        if twist is None:
            twist = t
        elif twist != t:
            raise DomainError("mixed character twists in one image")
        total = total + term.scale(coeff)
    return total, twist


def _require_specialized_at(ls: LocalSystemT2, model: ModelPresentation):
    if model.pspec.values != ls.params:
        raise DomainError("the model is not specialized at ls.params")


def verify_chain_map(ls: LocalSystemT2,
                     model: ModelPresentation) -> ChainMapReport:
    """Check that the generator table s_i -> dt_i, xb -> x', yb/zb/ub ->
    constant sections, wb -> w' from the total `model`, specialized at
    `ls.params`, into `ls` commutes with the differentials.

    Reports per-generator verdicts plus the global-section reports of the
    sections x', w', y, z and u; the s1 variant fails exactly at xb.  The
    table and the reports are built once per `ls` (`_sections`) and shared
    by every variant.
    """
    _require_specialized_at(ls, model)
    images, section_reports = _sections(ls)
    verdicts = []
    for g in model.pres.generators:
        dg = g.differential
        img, img_twist = images[g.name]
        rhs = img.d()
        if dg is None or dg.is_zero():
            lhs = Form2.zero(ls.alg)
        else:
            lhs, lhs_twist = _apply_sections(model, images, dg)
            if lhs_twist != img_twist:
                raise DomainError(
                    f"twist mismatch for d({g.name}): {lhs_twist} vs "
                    f"{img_twist}")
        verdicts.append(GeneratorVerdict(g.name, lhs == rhs, repr(lhs),
                                         repr(rhs)))
    return ChainMapReport(model.variant, dict(section_reports), verdicts)


class CompareReport:
    __slots__ = ("variant", "degree", "status", "conjugator", "recovered",
                 "monodromy")

    def __init__(self, variant, degree, status, conjugator, recovered,
                 monodromy):
        self.variant = variant
        self.degree = degree
        self.status = status
        self.conjugator = conjugator
        self.recovered = recovered
        self.monodromy = monodromy


def compare_actions(ls: LocalSystemT2, i: int,
                    model: ModelPresentation) -> CompareReport:
    """Compare the degree-i action recovered from `model`, specialized at
    `ls.params`, with the monodromy of `ls` up to isomorphism; the
    conjugator (or the negative certificate) comes from the exact
    intertwiner search."""
    _require_specialized_at(ls, model)
    recovered = recover_homotopy_action(model, i)
    mono = ls.monodromy_of(i)
    result = is_isomorphic(recovered, mono)
    return CompareReport(model.variant, i, result.status, result.conjugator,
                         recovered, mono)
