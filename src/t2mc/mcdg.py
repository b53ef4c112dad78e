"""Maurer-Cartan twists, twisted hom complexes, extensions and splittings.

Objects are pairs (base, eta): a commuting-pair representation together with
a Maurer-Cartan twist eta.  Morphisms and every twist are `HomElement`s,
the one form-matrix type: matrices of scalar square forms, which carry
`Fraction` coefficients, with a degree, sums, products and a differential.
An object's ambient is a label:

* ``forms``    - the twist is read in the hom complexes of the torus cell
                 structure, where morphisms and splittings live;
* ``salgebra`` - the same constant twist m1·dt1 + m2·dt2 read as
                 m1·s1 + m2·s2 in the invariant model of the torus, the
                 exterior algebra on two degree-1 cocycles s1, s2 whose
                 product is the wedge product of dt1 and dt2.

Morphisms are subject to the global-section (conjugation) conditions; the
twisted differential is d f = d_forms f + eta' f - (-1)^{|f|} f eta.
`mc_check` checks a twist of either ambient on its square forms.

The pipeline `rep_to_mc` peels an upper-triangular pair one diagonal entry at
a time: build the splitting of the next extension (its corner in closed
form), read off the extension-class cocycle, push it forward along the
isomorphism built so far, and straighten it to a constant-coefficient
representative supported on equal-character entry pairs.  The gauge is fixed
by forbidding constant terms of the straightening chain on equal-character
entries, which pins the same representative the step-by-step hand
computation produces.  Every stage is a `TorusRep.block` of that pair.

The comparison solve, the one whole system solved, runs over elementary
unknowns E_pq·t^a, each image (twisted differential and face defects)
written from its one-entry support into sparse coordinates: O(n) terms, no
form-matrix product, each face product once.  Straightening integrates each
entry in closed form, on integers (`_entry_primitive`), and the splitting
corner is written entry by entry from its face equations (`_corner_entry`).

The checks run on the same sparse coordinates, not on products: the
cocycle and global-section conditions of a morphism are summed from those
images over its terms (`_defects`), as integers over one denominator.
Every split extension is a block splitting, stored by `ExtensionData` as
its corner psi; its inclusion and projection are validated entry by entry
against the blocks of the extension and its splitting by one face check of
the corner, and its class and the isomorphism comparing two extensions are
written in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError
from .gca import SCALAR_ALGEBRA
from .qlinalg import Matrix, SparseMatrix, _integer_row, frac, solve
from .t2forms import Form2, sq
from .torus_rep import TorusRep, require_valid

_ZERO = Fraction(0)


class AmbientMismatchError(DomainError):
    pass


class NotACocycleError(DomainError):
    pass


class NotEquivariantError(DomainError):
    pass


class NonConstantCoefficientsError(DomainError):
    pass


class StraighteningFailedError(DomainError):
    """No straightening chain within the polynomial degree bound; names
    the bound, the (rows, columns) shape of the unsolvable system and,
    from `rep_to_mc`, the stage m."""

    def __init__(self, what, bound, shape, stage=None):
        self.what, self.bound, self.shape = what, bound, shape
        self.stage = stage
        where = "" if stage is None else f"stage {stage}: "
        rows, cols = shape
        super().__init__(f"{where}{what} within polynomial degree {bound} "
                         f"(the {rows} x {cols} linear system has no "
                         f"solution)")


class NoGammaAtBoundError(DomainError):
    """No comparison chain between two split extensions was found;
    `classes_differ` is True when the failure certifies a genuine class
    difference at the bound."""

    def __init__(self, message, classes_differ, bound):
        super().__init__(message)
        self.classes_differ = classes_differ
        self.bound = bound


FORMS = "forms"
SALGEBRA = "salgebra"


# -- matrices of scalar square forms ----------------------------------------
#
# A form matrix is a `HomElement`: rows of scalar Form2s with a homological
# degree.  Rational matrices enter through `HomElement.from_matrix` (constant
# 0-forms) and `HomElement.linear` (the constant 1-forms m1·dt1 + m2·dt2).
# Every split extension is stored by `ExtensionData` as its blocks and
# corner.


class HomElement:
    """A matrix of scalar square forms with a homological degree; it indexes
    and iterates as its rows.

    `+`, `-` and negation are entrywise and skip zero forms; the product `*`
    adds the degrees.
    """

    __slots__ = ("entries", "degree")

    def __init__(self, entries, degree: int):
        self.entries = entries
        self.degree = degree

    @classmethod
    def zero(cls, rows, cols, degree: int = 0):
        return cls([[Form2.zero(SCALAR_ALGEBRA) for _ in range(cols)]
                    for _ in range(rows)], degree)

    @classmethod
    def from_matrix(cls, m: Matrix):
        return cls([[sq(m[(i, j)]) for j in range(m.cols)]
                    for i in range(m.rows)], 0)

    @classmethod
    def linear(cls, m1: Matrix, m2: Matrix):
        """The constant 1-forms m1 dt1 + m2 dt2."""
        return cls([[sq(m1[(i, j)], mask=1) + sq(m2[(i, j)], mask=2)
                     for j in range(m1.cols)] for i in range(m1.rows)], 1)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def shape(self):
        return len(self.entries), len(self.entries[0]) if self.entries else 0

    def __eq__(self, other):
        return (isinstance(other, HomElement) and self.degree == other.degree
                and self.entries == other.entries)

    def is_zero(self):
        return not any(x.terms for row in self.entries for x in row)

    def __add__(self, other):
        return HomElement([[(x + y if x.terms else y) if y.terms else x
                            for x, y in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)],
                          self.degree)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return HomElement([[-x if x.terms else x for x in row]
                           for row in self.entries], self.degree)

    def __mul__(self, other):
        """The product, row by row over nonzero forms only; each entry is
        summed over k in increasing order."""
        a, b = self.entries, other.entries
        if a and len(a[0]) != len(b):
            raise ValueError("shape mismatch in form-matrix product")
        zero = Form2.zero(SCALAR_ALGEBRA)
        out = []
        for a_row in a:
            acc = [None] * (len(b[0]) if b else 0)
            for x, b_row in zip(a_row, b):
                if x.terms:
                    for j, y in enumerate(b_row):
                        if y.terms:
                            f = x * y
                            acc[j] = f if acc[j] is None else acc[j] + f
            out.append([zero if f is None else f for f in acc])
        return HomElement(out, self.degree + other.degree)

    def d(self):
        return HomElement([[x.d() for x in row] for row in self.entries],
                          self.degree + 1)


def fm_dt_parts(a):
    """Split a constant 1-form matrix into (m1, m2) with a = m1 dt1 + m2 dt2.

    Returns None when any entry has a t-dependent or non-1-form component.
    """
    rows, cols = a.shape()
    parts = {1: [_ZERO] * (rows * cols), 2: [_ZERO] * (rows * cols)}
    for i, row in enumerate(a):
        for j, form in enumerate(row):
            for (mask, e1, e2), coeff in form.terms.items():
                if (e1, e2) != (0, 0) or mask not in (1, 2):
                    return None
                parts[mask][i * cols + j] = coeff
    return Matrix(rows, cols, parts[1]), Matrix(rows, cols, parts[2])


# -- objects -----------------------------------------------------------------

class MCObject:
    """A semisimple base with a Maurer-Cartan twist.

    `characters` lists the diagonal (g1, g2) scalars when the base is
    diagonal; `base` is the underlying representation.  `eta` is a degree-1
    `HomElement` in either ambient; a ``salgebra`` twist has constant
    coefficients, m1·dt1 + m2·dt2 standing for m1·s1 + m2·s2.  A passed
    `mc_check` is recorded with the `base` and a copy of the `eta` it read.
    """

    __slots__ = ("ambient", "characters", "base", "eta", "_passed")

    def __init__(self, ambient, base: TorusRep, eta, characters=None):
        self.ambient = ambient
        self.base = base
        self.eta = eta
        self.characters = characters
        self._passed = None

    @classmethod
    def semisimple(cls, characters, eta=None, ambient=FORMS):
        characters = [(frac(c1), frac(c2)) for c1, c2 in characters]
        base = TorusRep.diagonal(characters)
        if eta is None:
            eta = HomElement.zero(len(characters), len(characters), 1)
        return cls(ambient, base, eta, characters)

    @classmethod
    def from_rep(cls, rep: TorusRep):
        require_valid(rep)
        return cls(FORMS, rep, HomElement.zero(rep.dim, rep.dim, 1), None)

    @property
    def dim(self):
        return self.base.dim


def as_object(x) -> MCObject:
    if isinstance(x, MCObject):
        return x
    if isinstance(x, TorusRep):
        return MCObject.from_rep(x)
    raise TypeError(f"expected a representation or MC object, got {x!r}")


def twisted_d(f: HomElement, source, target) -> HomElement:
    """d f = d_forms f + eta_target · f - (-1)^{|f|} f · eta_source."""
    src = as_object(source)
    dst = as_object(target)
    rows, cols = f.shape()
    if rows != dst.dim or cols != src.dim:
        raise ValueError("hom element shape does not match the endpoints")
    out = f.d()
    eta_t, eta_s = dst.eta, src.eta
    if not eta_t.is_zero():
        out = out + eta_t * f
    if not eta_s.is_zero():
        out = out - f * eta_s if f.degree % 2 == 0 else out + f * eta_s
    return out


def _defects(f: HomElement, source, target, cocycle=False):
    """The nonzero coordinates of f's face-compatibility defects and, with
    `cocycle`, of its twisted differential.

    Summed as c·(image of the unit E_pq·t^a) over the terms c·E_pq·t^a of f,
    by `_ChainProblem.image`, so no form-matrix product is built.  The sum
    runs on integers: the coefficients c over their lcm, the image values
    over theirs, and a `Fraction` is built only for a nonzero coordinate.
    The defects along edge i sit under ("gs", i), keyed (("gs", i), row,
    column, edge key (dt, e)); the twisted differential, for a degree-0 f of
    0-forms, sits under "eq".  Entries must be scalar (`Fraction`) forms.
    """
    src = as_object(source)
    dst = as_object(target)
    if len(f) != dst.dim or any(len(row) != src.dim for row in f):
        raise ValueError("hom element shape does not match the endpoints")
    image = _ChainProblem(src, dst, 0).image
    coeffs, images = [], []
    for p, row in enumerate(f):
        for q, form in enumerate(row):
            if form.alg is not SCALAR_ALGEBRA:
                raise AmbientMismatchError(
                    f"entry ({p}, {q}) has a non-scalar coefficient")
            for key, c in form.terms.items():
                if cocycle and (f.degree or key[0]):
                    raise ValueError("the twisted differential is summed "
                                     "over degree-0 0-forms only")
                coeffs.append(c)
                images.append(image(p, q, key, cocycle))
    c_den, coeffs = _integer_row(coeffs)
    v_den, values = _integer_row([v for img in images for v in img.values()])
    out, values = {}, iter(values)
    for c, img in zip(coeffs, images):
        for k, v in zip(img, values):
            out[k] = out.get(k, 0) + c * v
    return {k: Fraction(x, c_den * v_den) for k, x in out.items() if x}


_CHECKS = (("eq", NotACocycleError, "a cocycle"),
           (("gs", 1), NotEquivariantError, "a global section"),
           (("gs", 2), NotEquivariantError, "a global section"))


def _require(name, coords, section=True):
    """Raise on the first defect among `_defects` coordinates: a twisted
    differential one makes `name` no cocycle, then (unless `section` is
    False) a face one along edge 1, then 2, no global section.  The message
    names the edge, the entry and the form key of the least such coordinate.
    """
    for tag, error, what in _CHECKS[:3 if section else 1]:
        hits = [k[1:] for k in coords if k[0] == tag]
        if hits:
            r, s, key = min(hits)
            edge = "" if tag == "eq" else f"edge {tag[1]}, "
            raise error(f"{name} is not {what} "
                        f"({edge}entry ({r}, {s}), key {key})")


class McReport:
    __slots__ = ("ok", "failures")

    def __init__(self, failures):
        self.failures = list(failures)
        self.ok = not self.failures

    def __repr__(self):
        return f"McReport(ok={self.ok}, failures={self.failures})"


def mc_check(o: MCObject) -> McReport:
    """Verify the MC equation d(eta) + eta² = 0 ("mc_equation") and the
    face compatibility of eta over the base ("equivariance") on the square
    forms of `o.eta`, whichever its ambient: s_i is read as dt_i, and the
    exterior product of s1 and s2 as the wedge product of dt1 and dt2.  An
    s-algebra twist must also have constant coefficients
    ("constant_coefficients"), or it has no reading as m1·s1 + m2·s2.
    A pass is recorded on `o`, tied to its `base` and to a copy of its
    `eta`'s rows: it no longer covers a twist whose entries have changed."""
    if o.ambient not in (FORMS, SALGEBRA):
        raise AmbientMismatchError(f"unknown ambient {o.ambient!r}")
    eta = o.eta
    failures = []
    if o.ambient == SALGEBRA and fm_dt_parts(eta) is None:
        failures.append("constant_coefficients")
    if not (eta.d() + eta * eta).is_zero():
        failures.append("mc_equation")
    if not o.base.is_invertible_diagonal():
        require_valid(o.base)
    # the base is valid: wrap it untwisted, without re-validating it
    base = MCObject(FORMS, o.base, HomElement.zero(o.dim, o.dim, 1))
    if _defects(eta, base, base):
        failures.append("equivariance")
    o._passed = None if failures else (
        o.base, HomElement([list(row) for row in eta], eta.degree))
    return McReport(failures)


# -- extensions and splittings ------------------------------------------------

class ExtensionData:
    """A split extension top -> total -> bottom, stored as the nt x nb
    corner psi (a form matrix) of its block splitting: the constant
    inclusion p = [id; 0] and projection q = [0, id], alpha = [id, -psi]
    and beta = [psi; id].  For every psi, alpha·p = id, q·beta = id,
    alpha·beta = 0 and p·alpha + beta·q = id, so `validate` checks only
    cocycles and global sections.  Once p and q pass, total's g_i are
    [[A, N], [0, B]], and on each edge the face defects of alpha and beta
    are [0, E] and [-E; 0] for E = psi_r - (A·psi_f + N)·B⁻¹ (psi at the
    restriction and on the face): they vanish together.
    """

    __slots__ = ("top", "bottom", "total", "psi")

    def __init__(self, top, bottom, total, psi):
        self.top = as_object(top)
        self.bottom = as_object(bottom)
        self.total = as_object(total)
        if self.total.dim != self.top.dim + self.bottom.dim:
            raise ValueError("the total dimension is not the sum of the top "
                             "and bottom dimensions")
        self.psi = psi

    def validate(self):
        """Check that p and q are cocycles and global sections, then that
        alpha (hence beta) is a global section; raises on the first failure,
        in that order.  No form-matrix product is formed.

        p and q are read off the blocks of total: d(p) = 0 iff the first nt
        columns of total's eta are [eta_top; 0], and then d(q) = 0 iff its
        lower-right block is eta_bottom; p is a global section iff the first
        nt columns of each g_i of total are [g_i top; 0], and q iff its last
        nb rows are [0, g_i bottom].  Then alpha's face defects are its
        corner E = psi_r - (A·psi_f + N)·B⁻¹ alone, summed on integers as
        `_defects(-psi, bottom, top)` less N·B⁻¹ at the constant key, with
        its columns shifted by nt to alpha's.
        """
        top, bottom, total = self.top, self.bottom, self.total
        nt, n = top.dim, total.dim
        eta, eta_t, eta_b = total.eta, top.eta, bottom.eta
        gens = [tuple(o.base.g(i) for o in (total, top, bottom))
                for i in (1, 2)]
        p_cocycle = (all(row[:nt] == t for row, t in zip(eta, eta_t))
                     and not any(x.terms for row in eta[nt:] for x in row[:nt]))
        p_section = all(g[(r, c)] == (gt[(r, c)] if r < nt else 0)
                        for g, gt, _ in gens
                        for r in range(n) for c in range(nt))
        q_cocycle = all(row[nt:] == b for row, b in zip(eta[nt:], eta_b))
        q_section = all(g[(r, c)] == (gb[(r - nt, c - nt)] if c >= nt else 0)
                        for g, _, gb in gens
                        for r in range(nt, n) for c in range(n))
        for name, cocycle, section in (("p", p_cocycle, p_section),
                                       ("q", q_cocycle, q_section)):
            if not cocycle:
                raise NotACocycleError(f"{name} is not a cocycle")
            if not section:
                raise NotEquivariantError(f"{name} is not a global section")
        coords = _defects(-self.psi, bottom, top)
        for i in (1, 2):
            g = total.base.g(3 - i)
            corner = Matrix._exact(nt, n - nt, [x for r in range(nt)
                                                for x in g.row(r)[nt:]])
            n_binv = corner * bottom.base.g_inv(3 - i)
            for r in range(nt):
                for s, x in enumerate(n_binv.row(r)):
                    if x:
                        k = (("gs", i), r, s, (0, 0))
                        coords[k] = coords.get(k, 0) - x
        _require("alpha", {(tag, r, nt + s, key): v
                           for (tag, r, s, key), v in coords.items() if v})
        return self


def build_extension(omega: HomElement, top, bottom) -> ExtensionData:
    """The block extension with twist [[eta_top, omega], [0, eta_bottom]].

    omega must be a degree-1 twisted cocycle from bottom to top; p and q are
    the constant inclusion/projection with the obvious block splitting, and
    the extension class of the result is exactly [omega].
    """
    top = as_object(top)
    bottom = as_object(bottom)
    if top.ambient != FORMS or bottom.ambient != FORMS:
        raise AmbientMismatchError("extensions are built in the forms ambient")
    if omega.degree != 1:
        raise NotACocycleError("omega must have degree 1")
    if not twisted_d(omega, bottom, top).is_zero():
        raise NotACocycleError("omega is not a twisted cocycle")
    _require("omega", _defects(omega, bottom, top))
    nt, nb = top.dim, bottom.dim
    if top.characters is None or bottom.characters is None:
        raise DomainError("block extensions need semisimple endpoints")
    chars = list(top.characters) + list(bottom.characters)
    eta = HomElement([t + o for t, o in zip(top.eta, omega)]
                     + [z + b for z, b in zip(HomElement.zero(nb, nt),
                                              bottom.eta)], 1)
    total = MCObject.semisimple(chars, eta)
    psi = HomElement.zero(nt, nb)
    return ExtensionData(top, bottom, total, psi).validate()


def extension_class(ext: ExtensionData) -> HomElement:
    """The degree-1 cocycle alpha · d(beta) classifying the extension, in
    closed form: total's twist is [[eta_top, omega], [0, eta_bottom]], so
    d(beta) = [D(psi) + omega; 0] for D the twisted differential from
    bottom to top, and alpha · d(beta) = D(psi) + omega."""
    nt = ext.top.dim
    omega = HomElement([row[nt:] for row in ext.total.eta[:nt]], 1)
    cls = twisted_d(ext.psi, ext.bottom, ext.top) + omega
    if not twisted_d(cls, ext.bottom, ext.top).is_zero():
        raise NotACocycleError("extension class failed the cocycle check")
    return cls


# -- linear solving over bounded polynomial forms ----------------------------

def _poly_monomials(bound):
    return [(e1, t - e1) for t in range(bound + 1) for e1 in range(t, -1, -1)]


def _flatten(mat):
    """The coefficients of a form matrix as sparse coordinates, keyed by
    ("eq", row, column, form basis key)."""
    return {("eq", p, q, key): c
            for p, row in enumerate(mat) for q, form in enumerate(row)
            for key, c in form.terms.items()}


def _solve_sparse(images, rhs):
    """Solve sum_k x_k · images[k] = rhs over shared sparse coordinates.

    Each coordinate gets a dict row in first-seen order (the row order never
    changes the reduced row echelon form), filled from the nonzeros of the
    images and handed to `solve` as a `SparseMatrix`.  Returns one
    particular solution, which zeroes all free variables (leftmost-pivot
    reduction, deterministic), or None.
    """
    rows = {}  # coordinate -> {unknown: coefficient}
    for j, img in enumerate(images):
        for k, v in img.items():
            rows.setdefault(k, {})[j] = v
    for k in rhs:
        rows.setdefault(k, {})
    b = [rhs.get(k, _ZERO) for k in rows]
    return solve(SparseMatrix(len(images), list(rows.values())), b)


class _ChainProblem:
    """Shared assembly for the gamma and straightening solves.

    Unknowns are elementary degree-0 chains E_pq·t^a (entry position times
    t-monomial) plus, optionally, constant dt1/dt2 unknowns on selected
    entries; each is recorded as (kind, p, q, form key).  An unknown's image
    is built straight from its one-entry support, as sparse coordinates:

    * under "eq", its contribution to the main equation: for a chain
      d(t^a) at (p, q), plus eta_dst[r][p]·t^a at (r, q), minus
      t^a·eta_src[q][s] at (p, s) (its twisted differential); for a dt
      unit the unit itself;
    * under ("gs", i), its face-compatibility defect along edge i:
      G[r][p]·Ginv[q][s] on the edge key (dt, e) at (r, s) with
      G = dst.g(3-i), Ginv = src.g(3-i)^{-1}, minus the plain restriction
      at (p, q), which vanishes when the crossing exponent is nonzero.

    eta_src is negated once, and each (edge, p, q) forms its face products
    once, for all monomials.  A coordinate is added to only on a collision,
    and zeros are dropped after summing, so an image equals the flattened
    twisted differential and defects of the unit form matrix.
    """

    def __init__(self, src: MCObject, dst: MCObject, bound: int):
        self.src = src
        self.dst = dst
        self.bound = bound
        self.vars = []     # (kind, p, q, key): kind "chain" or "k"
        self.images = []
        self._eta_cols = [[(r, row[p].terms)
                           for r, row in enumerate(dst.eta) if row[p].terms]
                          for p in range(dst.dim)]
        self._eta_rows = [[(s, {k: -c for k, c in f.terms.items()})
                           for s, f in enumerate(row) if f.terms]
                          for row in src.eta]
        self._faces = []
        for i in (1, 2):
            g = dst.base.g(3 - i)
            g_cols = [[(r, c) for r, c in enumerate(g.col(p)) if c]
                      for p in range(g.cols)]
            self._faces.append((i, g_cols,
                                src.base.g_inv(3 - i).sparse_rows(), {}))

    def image(self, p, q, key, eq=True):
        """Sparse image of the unit E_pq carrying the form monomial `key`
        (mask, e1, e2); with eq False only its face defects."""
        mask, e1, e2 = key
        img = {}
        if eq and mask:
            img[("eq", p, q, key)] = Fraction(1)
        elif eq:
            if e1:
                img[("eq", p, q, (1, e1 - 1, e2))] = Fraction(e1)
            if e2:
                img[("eq", p, q, (2, e1, e2 - 1))] = Fraction(e2)
            for r, terms in self._eta_cols[p]:
                for (m, f1, f2), c in terms.items():
                    k = ("eq", r, q, (m, f1 + e1, f2 + e2))
                    img[k] = c if (o := img.get(k)) is None else o + c
            for s, terms in self._eta_rows[q]:
                for (m, f1, f2), c in terms.items():
                    k = ("eq", p, s, (m, e1 + f1, e2 + f2))
                    img[k] = c if (o := img.get(k)) is None else o + c
        for i, g_cols, g_inv_rows, products in self._faces:
            if mask & (3 - i):
                continue  # the crossing dt restricts to zero on both faces
            par_e, cross_e = (e1, e2) if i == 1 else (e2, e1)
            fkey = (1 if mask else 0, par_e)
            tag = ("gs", i)
            face = products.get((p, q))  # [(r, s, G[r][p]·Ginv[q][s])]
            if face is None:
                face = products[(p, q)] = [(r, s, a * b) for r, a in g_cols[p]
                                           for s, b in g_inv_rows[q]]
            for r, s, v in face:
                img[(tag, r, s, fkey)] = v
            if not cross_e:
                k = (tag, p, q, fkey)
                img[k] = Fraction(-1) if (o := img.get(k)) is None else o - 1
        return {k: v for k, v in img.items() if v}

    def _add(self, kind, p, q, key):
        self.vars.append((kind, p, q, key))
        self.images.append(self.image(p, q, key))

    def add_chain_vars(self, skip_constant_on=frozenset()):
        for p in range(self.dst.dim):
            for q in range(self.src.dim):
                for e1, e2 in _poly_monomials(self.bound):
                    if (e1, e2) == (0, 0) and (p, q) in skip_constant_on:
                        continue
                    self._add("chain", p, q, (0, e1, e2))

    def add_constant_dt_vars(self, allowed):
        for axis in (1, 2):
            for (p, q) in allowed:
                self._add("k", p, q, (axis, 0, 0))

    def failure(self, what, rhs):
        """The error for a system against `rhs` that has no solution."""
        rows = len(set(rhs).union(*self.images))
        return StraighteningFailedError(what, self.bound,
                                        (rows, len(self.images)))

    def assemble(self, coeffs, kind):
        out = HomElement.zero(self.dst.dim, self.src.dim)
        for c, (k, p, q, (mask, e1, e2)) in zip(coeffs, self.vars):
            if c and k == kind:
                out[p][q] = out[p][q] + sq(c, e1, e2, mask)
        return out


def solve_gamma(delta: HomElement, source, target, bound: int = 4):
    """A degree-0 global-section chain gamma with d(gamma) = delta, or None."""
    src = as_object(source)
    dst = as_object(target)
    problem = _ChainProblem(src, dst, bound)
    problem.add_chain_vars()
    coeffs = _solve_sparse(problem.images, _flatten(delta))
    if coeffs is None:
        return None
    return problem.assemble(coeffs, "chain")


def _straightening_problem(src, dst, bound):
    allowed = [(p, q) for p in range(dst.dim) for q in range(src.dim)
               if dst.characters[p] == src.characters[q]]
    problem = _ChainProblem(src, dst, bound)
    problem.add_constant_dt_vars(allowed)
    problem.add_chain_vars(skip_constant_on=frozenset(allowed))
    return problem


def _entry_primitive(terms, ratio, bound):
    """The one (k1, k2, c) of a `straighten` entry of character ratio
    rho = dst/src and right side `terms` = a·dt1 + b·dt2, or None.

    P = ∫₀^t1 a(s, 0) ds + ∫₀^t2 b(t1, s) ds has dP = a·dt1 + b·dt2 iff
    ∂a/∂t2 = ∂b/∂t1 (the polynomial Poincaré lemma).  On rho = (1, 1),
    k = (P(1, 0), P(0, 1)) and c = P - k1·t1 - k2·t2; else k = 0 and
    c = P + rho2·P(0, 1)/(1 - rho2), or + rho1·P(1, 0)/(1 - rho1) if
    rho2 = 1.  It is kept iff deg c <= bound and rho2·c(t1, 1) = c(t1, 0),
    rho1·c(1, t2) = c(0, t2).  It runs on integers over one denominator.
    """
    den, values = _integer_row(terms.values())
    a, b = {}, {}
    for (mask, e1, e2), v in zip(terms, values):
        if mask not in (1, 2):
            return None
        (a if mask == 1 else b)[e1, e2] = v
    if (any(e2 and v * e2 != b.get((e1 + 1, e2 - 1), 0) * (e1 + 1)
            for (e1, e2), v in a.items())
            or any(e1 and v * e1 != a.get((e1 - 1, e2 + 1), 0) * (e2 + 1)
                   for (e1, e2), v in b.items())):
        return None
    scale = lcm(*(e1 + 1 for e1, e2 in a if not e2), *(e2 + 1 for _, e2 in b))
    c = {(e1 + 1, 0): v * (scale // (e1 + 1))
         for (e1, e2), v in a.items() if not e2}
    c.update({(e1, e2 + 1): v * (scale // (e2 + 1))
              for (e1, e2), v in b.items()})
    den *= scale
    (n1, d1), (n2, d2) = [(r.numerator, r.denominator) for r in ratio]
    # P(1, 0) and P(0, 1): the sums over t2 = 0 and over t1 = 0
    ends = [sum(v for e, v in c.items() if not e[i]) for i in (1, 0)]
    if n1 == d1 and n2 == d2:
        ks = ends
        c[1, 0], c[0, 1] = c.get((1, 0), 0) - ks[0], c.get((0, 1), 0) - ks[1]
    else:
        ks, (n, d, end) = (0, 0), ((n2, d2, ends[1]) if n2 != d2
                                   else (n1, d1, ends[0]))
        c = {key: v * (d - n) for key, v in c.items()}
        c[0, 0] = n * end
        den *= d - n
    face = {}  # d2·(rho2·c(t1, 1) - c(t1, 0)), d1·(rho1·c(1, t2) - c(0, t2))
    for (e1, e2), v in c.items():
        if v and e1 + e2 > bound:
            return None
        face[1, e1] = face.get((1, e1), 0) + n2 * v - (0 if e2 else d2 * v)
        face[2, e2] = face.get((2, e2), 0) + n1 * v - (0 if e1 else d1 * v)
    if any(face.values()):
        return None
    return (*(Fraction(x, den) if x else _ZERO for x in ks),
            Form2(SCALAR_ALGEBRA, {(0, *e): Fraction(v, den)
                                   for e, v in c.items() if v}))


def straighten(omega: HomElement, src: MCObject, dst: MCObject,
               bound: int = 4):
    """Write omega = k1·dt1 + k2·dt2 + d(chain) with k supported on
    equal-character entries and the chain free of constant terms there.

    Returns (k1, k2, chain) as (Matrix, Matrix, HomElement).  Raises
    StraighteningFailedError, naming the whole system, when no such
    decomposition exists within the polynomial-degree bound.  Both twists
    must be strictly upper triangular, as at every stage of `rep_to_mc`.

    Then the twisted d of a chain entry c_pq reaches only entries above or
    right of (p, q), and its faces stay on it.  So entry by entry, bottom
    row up, left to right, `_entry_primitive` integrates
    omega_pq - sum_{r>p} eta_dst[p][r]·c_rq + sum_{s<q} c_ps·eta_src[s][q].
    Each entry is unique: on equal characters d(c) + k·dt = 0 makes
    c = -(k1·t1 + k2·t2), periodic only for k = 0; on unequal ones c is
    constant, killed by a face of character ratio not 1.
    """
    if dst.characters is None or src.characters is None:
        raise DomainError("straightening needs semisimple endpoints")
    if any(f.terms for eta in (dst.eta, src.eta)
           for i, row in enumerate(eta) for f in row[:i + 1]):
        raise DomainError("twists must be strictly upper triangular")
    rows, cols = dst.dim, src.dim
    k1, k2 = [_ZERO] * (rows * cols), [_ZERO] * (rows * cols)
    chain = HomElement.zero(rows, cols)
    for p in reversed(range(rows)):
        for q in range(cols):
            # the twists are strictly upper triangular: only r > p, s < q
            rhs = sum([-x * c[q] for x, c in zip(dst.eta[p], chain)
                       if x.terms and c[q].terms]
                      + [c * y[q] for c, y in zip(chain[p], src.eta)
                         if c.terms and y[q].terms], omega[p][q])
            (a1, a2), (b1, b2) = dst.characters[p], src.characters[q]
            entry = _entry_primitive(rhs.terms, (a1 / b1, a2 / b2), bound)
            if entry is None:
                raise _straightening_problem(src, dst, bound).failure(
                    "no constant representative", _flatten(omega))
            k1[p * cols + q], k2[p * cols + q], chain[p][q] = entry
    return Matrix._exact(rows, cols, k1), Matrix._exact(rows, cols, k2), chain


# -- comparing two split extensions of the same pair -------------------------

class ExtensionIsoResult:
    __slots__ = ("map", "gamma")

    def __init__(self, map_, gamma):
        self.map = map_
        self.gamma = gamma


def _objects_equal(a: MCObject, b: MCObject):
    return (a.base.g1 == b.base.g1 and a.base.g2 == b.base.g2
            and a.eta == b.eta)


def extension_iso(e1: ExtensionData, e2: ExtensionData) -> ExtensionIsoResult:
    """The isomorphism p2·alpha1 + beta2·q1 - p2·gamma·q1 between two
    extensions with the same top and bottom and equal classes.  For block
    splittings it is [[id, psi2 - psi1 - gamma], [0, id]], written here in
    that closed form.

    gamma solves d(gamma) = extension_class(e2) - extension_class(e1), with
    each class's cocycle check, over chains of polynomial degree <= 4
    (retried once at degree 6 before reporting failure with a
    class-difference certificate).  The map is unitriangular, so
    2·id - map is its inverse: [[id, C], [0, id]]·[[id, -C], [0, id]] = id.
    """
    if not (_objects_equal(e1.top, e2.top)
            and _objects_equal(e1.bottom, e2.bottom)):
        raise DomainError("extensions do not share their endpoints")
    delta = extension_class(e2) - extension_class(e1)
    used_bound = 4
    gamma = solve_gamma(delta, e1.bottom, e1.top, used_bound)
    if gamma is None:
        used_bound = 6
        gamma = solve_gamma(delta, e1.bottom, e1.top, used_bound)
    if gamma is None:
        max_poly = max((p1 + p2 for row in delta for form in row
                        for (_m, p1, p2) in form.terms), default=0)
        raise NoGammaAtBoundError(
            "no chain matches the class difference within polynomial degree "
            f"{used_bound}", classes_differ=(max_poly + 1 <= used_bound),
            bound=used_bound)
    nt = e1.top.dim
    eye = HomElement.from_matrix(Matrix.identity(e1.total.dim))
    corner = e2.psi - e1.psi - gamma
    result = HomElement([row[:nt] + c for row, c in zip(eye, corner)]
                        + eye[nt:], 0)
    _require("candidate isomorphism",
             _defects(result, e1.total, e2.total, cocycle=True), section=False)
    return ExtensionIsoResult(result, gamma)


# -- realization ---------------------------------------------------------------

def _nilpotent_exp(m: Matrix) -> Matrix:
    n = m.rows
    acc = Matrix.identity(n)
    term = Matrix.identity(n)
    fact = 1
    for k in range(1, n + 1):
        term = term * m
        if term.is_zero():
            break
        fact *= k
        acc = acc + term.scale(Fraction(1, fact))
    else:
        if n:
            raise DomainError("twist matrix is not nilpotent")
    return acc


def realize_mc(o: MCObject) -> TorusRep:
    """Realize a constant-coefficient nilpotent MC object as a representation.

    The transport Phi = exp(-t1 F1 - t2 F2) solves d(Phi) = -eta Phi exactly
    (F1, F2 commute by the MC equation), and its face compatibility forces
    g_i = D_i exp(-F_i).  For a single extension step this is the familiar
    two-block realization; on the three-step example it returns the original
    upper-triangular matrices on the nose.
    """
    if o.characters is None:
        raise DomainError("realization needs a semisimple base")
    report = mc_check(o)
    if not report.ok:
        raise DomainError(f"invalid MC object: {report.failures}")
    parts = fm_dt_parts(o.eta)
    if parts is None:
        raise NonConstantCoefficientsError(
            "realization needs constant coefficients")
    m1, m2 = parts
    d1 = Matrix.diagonal([c[0] for c in o.characters])
    d2 = Matrix.diagonal([c[1] for c in o.characters])
    rep = TorusRep(d1 * _nilpotent_exp(m1.scale(-1)),
                   d2 * _nilpotent_exp(m2.scale(-1)))
    require_valid(rep)
    return rep


# -- the representation -> MC pipeline ----------------------------------------

def rep_extension(r: TorusRep) -> ExtensionData:
    """The extension (leading block) -> r -> (last diagonal entry) of an
    upper triangular pair, with an exact polynomial splitting.

    top and bottom are `r.block`s (see there).  With g_c = [[A_c, N_c],
    [0, b_c]], the corner psi solves psi|t_c=0 = (A_c·psi|t_c=1 + N_c)/b_c
    for c = 1, 2; A_c is upper triangular, so each entry needs only those
    below it, and `_corner_entry` writes it in closed form, bottom row up.
    """
    require_valid(r)
    n = r.dim
    if n < 2:
        raise ValueError("a splitting needs dimension at least 2")
    if any(any(g.row(i)[:i]) for g in (r.g1, r.g2) for i in range(n)):
        raise DomainError("representation is not upper triangular")
    last = n - 1
    psi = [None] * last
    for p in reversed(range(last)):
        faces = []
        for c, g in ((1, r.g1), (2, r.g2)):
            row, b = g.row(p), g[(last, last)]
            face = {0: row[last]}  # N_c[p] + A_c[p, u]·psi_u|t_c=1, u > p
            for a, entry in zip(row[p + 1:last], psi[p + 1:]):
                for (_, *e), v in entry.terms.items():
                    face[e[2 - c]] = face.get(e[2 - c], 0) + a * v
            faces.append(({e: v / b for e, v in face.items() if v},
                          row[p] / b))
        psi[p] = Form2(SCALAR_ALGEBRA, {(0, *e): v for e, v
                                        in _corner_entry(*faces).items()})
    return ExtensionData(r.block(0, last), r.block(last, n), r,
                         HomElement([[f] for f in psi], 0)).validate()


def _corner_entry(face1, face2):
    """The f(t1, t2), as {(e1, e2): coefficient}, with
    f|t_c=0 - rho_c·f|t_c=1 = g_c(t_other) for each face (g_c, rho_c),
    c = 1, 2; g_c maps an exponent of t_other to its coefficient.  The pair
    commutes, so the two equations agree at the vertex.

    On rho = (1, 1), f = -t1·g1(t2) - t2·g2(t1) + t1·t2·(g1(1) - g1(0)).
    Otherwise, say rho1 != 1 (else t1 and t2 swap): f = sum_k t1^k·u_k(t2)
    with u_k = g2_k/(1 - rho2), or -t2·g2_k on rho2 = 1, for k >= 1, and
    u_0 = (g1 + rho1·sum_{k>=1} u_k)/(1 - rho1).
    """
    (g1, rho1), (g2, rho2) = face1, face2
    if rho1 == rho2 == 1:
        f = {(1, e): -v for e, v in g1.items()}
        for e, v in g2.items():
            f[e, 1] = f.get((e, 1), 0) - v
        f[1, 1] = f.get((1, 1), 0) + sum(g1.values()) - g1.get(0, 0)
        return f
    if rho1 == 1:
        return {(e2, e1): v
                for (e1, e2), v in _corner_entry(face2, face1).items()}
    e2, scale = (1, -1) if rho2 == 1 else (0, 1 / (1 - rho2))
    f = {(k, e2): v * scale for k, v in g2.items() if k}
    u0 = dict(g1)
    for (_, e), v in f.items():
        u0[e] = u0.get(e, 0) + rho1 * v
    f.update({(0, e): v / (1 - rho1) for e, v in u0.items()})
    return f


def _bordered(a, column, corner):
    """[[a, column], [0, corner]] for an m x m form matrix a and an m x 1
    column."""
    return HomElement([row + col for row, col in zip(a, column)]
                      + [[sq(0)] * len(a) + [corner]], a.degree)


class RepToMcResult:
    __slots__ = ("mc", "iso", "ssdata")

    def __init__(self, mc, iso, ssdata):
        self.mc = mc
        self.iso = iso
        self.ssdata = ssdata


def rep_to_mc(r: TorusRep, bound: int = 4) -> RepToMcResult:
    """Convert a Q-triangularizable pair to a constant-coefficient MC object.

    Peels the triangularization one diagonal entry at a time: extension
    class of the next stage, pushforward along the isomorphism built so far,
    straightening to the constant representative.  Returns the MC object,
    the isomorphism from the input to it (a degree-0 invertible twisted
    cocycle), and the triangularization data.  The triangular pair is
    `semisimplify`'s, valid by inheritance, and each stage is a
    `tri.block`, inheriting that.

    The isomorphism needs no invertibility check: every stage borders phi
    with a zero row and the constant 1 in the corner, so phi is an upper
    unitriangular polynomial matrix of determinant 1, and
    iso = phi · basis⁻¹ has the constant determinant det(basis)⁻¹ != 0.
    """
    from .torus_rep import semisimplify

    ss = semisimplify(r)
    tri = ss.tri
    chars = ss.characters
    n = r.dim
    if n == 0:
        return RepToMcResult(MCObject.semisimple([]),
                             HomElement.zero(0, 0), ss)
    eta = HomElement.zero(1, 1, 1)
    phi = HomElement.from_matrix(Matrix.identity(1))
    for m in range(1, n):
        stage = tri.block(0, m + 1)
        try:
            ext = rep_extension(stage)
            omega = extension_class(ext)
            pushed = phi * omega
            partial = MCObject.semisimple(chars[:m], eta)
            bottom = MCObject.semisimple([chars[m]])
            k1, k2, chain = straighten(pushed, bottom, partial, bound)
        except StraighteningFailedError as exc:
            raise StraighteningFailedError(exc.what, exc.bound, exc.shape,
                                           stage=m) from None
        # eta_{m+1} = [[eta, k1 dt1 + k2 dt2], [0, 0]]
        eta = _bordered(eta, HomElement.linear(k1, k2), sq(0))
        # phi_{m+1} = [[phi, chain - phi·psi], [0, 1]]
        phi = _bordered(phi, chain - phi * ext.psi, sq(1))
    mc = MCObject.semisimple(chars, eta)
    report = mc_check(mc)
    if not report.ok:
        raise DomainError(f"pipeline produced an invalid MC object: "
                          f"{report.failures}")
    # compose with the change of basis back to the original coordinates
    iso = phi * HomElement.from_matrix(ss.basis_inv)
    _require("pipeline isomorphism", _defects(iso, r, mc, cocycle=True))
    return RepToMcResult(mc, iso, ss)


def mc_to_s(o: MCObject) -> MCObject:
    """Relabel a constant-coefficient forms twist into the s-algebra ambient
    (dt_i read as s_i).  The result shares eta and the base with `o`, so a
    pass `mc_check` recorded on `o` for them carries over; without one, the
    MC equation and equivariance are verified again."""
    if o.ambient != FORMS:
        raise AmbientMismatchError("mc_to_s expects the forms ambient")
    if o.characters is None:
        raise DomainError("mc_to_s needs a semisimple base")
    if fm_dt_parts(o.eta) is None:
        raise NonConstantCoefficientsError(
            "twist entries must be constant-coefficient 1-forms")
    out = MCObject(SALGEBRA, o.base, o.eta, o.characters)
    passed = o._passed
    if not (passed and passed[0] is o.base and passed[1] == o.eta):
        failures = mc_check(out).failures
        if failures:
            raise DomainError(f"translated twist fails checks: {failures}")
    return out
