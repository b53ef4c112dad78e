"""Exact linear algebra over Q and over Z.

Everything downstream (monomial bases, cochain complexes, intertwiner
searches, lattice membership) reduces to the routines here.  All entries are
`fractions.Fraction`, stored densely.  The dense kernels run on Python
integers: a product scales each left row and each right column by the lcm of
its denominators, accumulates integer products over the nonzeros only
(row-wise, after Gustavson) and divides once per output entry; whether two
matrices commute is decided on those integer accumulators, cross-scaled,
with no division at all.  Ranks, kernels, solutions and inverses come from
one sparse elimination kernel, `_reduce`: Gauss-Jordan on primitive integer
dict rows, fraction-free, with a column -> rows index.  Its output is the
unique reduced row echelon form, so identical inputs always produce
identical outputs.  `Matrix.rref`, `rank_kernel` and `invert` reduce
through it; `rank` counts the pivots of its forward phase, and `solve`
back-substitutes on that phase.  `solve` also takes a `SparseMatrix`, one
dict per row, so a system assembled sparsely is never made dense.  Determinants alone (with them `char_poly` and the
isomorphism grid; an invertibility test is a rank test) clear each row's
denominators and run a dense fraction-free Bareiss elimination over Z, whose
divisions are exact.  Over Z there is no matrix type at all: lattice
membership is integer echelon reduction (Euclid within each column) on int
lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction.

    A canonical string (an optional '-', ASCII digits, optionally '/' and
    ASCII digits) is read with `int`; any other string goes to
    `Fraction(x.strip())`, which accepts or rejects it as it would alone.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if (digits.isascii() and digits.isdigit()
                and (not slash or den.isascii() and den.isdigit())):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def frac_str(x: Fraction) -> str:
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_ZERO = Fraction(0)


class Matrix:
    """Immutable dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(frac(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _exact(cls, rows: int, cols: int, entries) -> "Matrix":
        """A matrix from rows*cols entries that are already Fractions (the
        results of exact arithmetic), stored without coercion."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, tuple(entries)
        return m

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([Fraction(1)] * n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._exact(rows, cols, [_ZERO] * (rows * cols))

    @classmethod
    def diagonal(cls, diag) -> "Matrix":
        diag = [frac(d) for d in diag]
        n = len(diag)
        return cls._exact(n, n, [diag[i] if i == j else _ZERO
                                 for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, vec) -> "Matrix":
        return cls._exact(len(vec), 1, [frac(v) for v in vec])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(",".join(frac_str(e) for e in self.row(i))
                         for i in range(self.rows))
        return f"Matrix[{body}]"

    def __add__(self, other):
        self._same_shape(other)
        return Matrix._exact(self.rows, self.cols,
                             [a + b for a, b in zip(self.entries,
                                                    other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix._exact(self.rows, self.cols,
                             [a - b for a, b in zip(self.entries,
                                                    other.entries)])

    def __neg__(self):
        return Matrix._exact(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._exact(self.rows, self.cols,
                             [c * a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        t, rows = self._int_times(other)
        return Matrix._exact(self.rows, other.cols, [
            Fraction(x, s * tj) if x else _ZERO
            for s, acc in rows for x, tj in zip(acc, t)])

    def __rmul__(self, other):
        return self.scale(other)

    def sparse_rows(self):
        """Each row as a list of its (column, nonzero entry) pairs."""
        return [[(j, e) for j, e in enumerate(self.row(i)) if e]
                for i in range(self.rows)]

    def _int_times(self, other):
        """self·other on integers: (t, the rows (s_i, acc_i) yielded one at
        a time), entry (i, j) being acc_i[j] / (s_i·t[j]).

        Row i of self is scaled by the lcm s_i of its denominators and
        column j of other by the lcm t_j of its own; each nonzero a_ik adds
        a_ik times row k of other, so zeros on either side are free.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        width = other.cols
        b_rows = other.sparse_rows()
        t = [1] * width
        for b_row in b_rows:
            for j, b in b_row:
                if b.denominator != 1:
                    t[j] = lcm(t[j], b.denominator)
        b_rows = [[(j, b.numerator * (t[j] // b.denominator))
                   for j, b in b_row] for b_row in b_rows]

        def rows():
            for i in range(self.rows):
                s, a_row = _integer_row(self.row(i))
                acc = [0] * width
                for a, b_row in zip(a_row, b_rows):
                    if a:
                        for j, b in b_row:
                            acc[j] += a * b
                yield s, acc
        return t, rows()

    def commutes_with(self, other) -> bool:
        """self·other == other·self, decided row by row on the integer cores
        of the two products, each cross-multiplied by the other's scales: no
        Fraction is built, and the first differing row ends the check."""
        ta, ab = self._int_times(other)
        tb, ba = other._int_times(self)
        return all(x * sb * tbj == y * sa * taj
                   for (sa, x_row), (sb, y_row) in zip(ab, ba)
                   for x, y, taj, tbj in zip(x_row, y_row, ta, tb))

    def transpose(self) -> "Matrix":
        return Matrix._exact(self.cols, self.rows,
                             [self.entries[i * self.cols + j]
                              for j in range(self.cols)
                              for i in range(self.rows)])

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rref(self):
        """Reduced row echelon form; returns (rref rows, pivot column tuple).

        The rows are dense lists with the zero rows at the bottom.  The
        reduction is the one elimination kernel `_reduce`: fraction-free on
        the matrix's sparse rows, pivot columns leftmost-first.  The reduced
        row echelon form of a matrix is unique, so identical inputs give
        identical outputs bit for bit.
        """
        prows, pivots = _reduce(self.sparse_rows(), self.cols)
        m = self.cols
        out = [[r.get(j, _ZERO) for j in range(m)] for r in prows]
        out += [[_ZERO] * m for _ in range(self.rows - len(prows))]
        return out, pivots


class SparseMatrix:
    """A matrix over Q held as one {column: nonzero entry} dict per row, for
    systems assembled sparsely: `solve` reduces it without a dense copy."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, cols: int, data):
        self.rows, self.cols, self.data = len(data), cols, data

    def sparse_rows(self):
        return [row.items() for row in self.data]


def _primitive(pairs):
    """{column: int} proportional to a row given as (column, nonzero
    rational) pairs, with coprime entries."""
    row = dict(pairs)
    _, ints = _integer_row(row.values())
    g = gcd(*ints)
    return dict(zip(row, ints if g == 1 else [v // g for v in ints]))


def _clear(rows, holders, i, prow, c, a):
    """Clear column c of row i against the pivot row prow, whose entry there
    is a: row i becomes (a/g)·row - (f/g)·prow, f its own entry and
    g = gcd(a, f), divided by its content.  `holders` follows every entry
    that appears or cancels.  Returns the new row."""
    row = rows[i]
    f = row[c]
    g = gcd(a, f)
    s, t = a // g, f // g
    if s != 1:
        row = {j: s * v for j, v in row.items()}
    for j, v in prow.items():
        x = row.get(j)
        if x is None:
            row[j] = -t * v
            holders[j].add(i)
        else:
            x -= t * v
            if x:
                row[j] = x
            else:
                del row[j]
                holders[j].discard(i)
    g = gcd(*row.values())
    rows[i] = row = {j: v // g for j, v in row.items()} if g > 1 else row
    return row


def _forward(rows, width):
    """The forward phase of the elimination kernel: an echelon form of
    `rows`, each an iterable of (column, nonzero rational) pairs below
    `width`.

    Returns (rows, holders, done, pivots): the primitive integer rows as
    {column: int} dicts, the column -> rows index, and the pivot rows (as
    indices into rows) with their pivot columns, leftmost first.  The pivot
    count is the rank.

    Every row is cleared of denominators and content first, so the
    elimination runs on primitive integer rows, fraction-free (after Bareiss
    1968): see `_clear`.  The index names the rows to clear, so no column
    scans the rows.  Pivot columns are taken leftmost-first, the pivot row
    being the candidate with the fewest nonzeros (ties by input order); the
    other rows not yet used as pivot rows are cleared of that column.  No
    Fraction is built.
    """
    rows = [_primitive(r) for r in rows]
    holders = [set() for _ in range(width)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    free = {i for i, row in enumerate(rows) if row}
    done = []
    pivots = []
    for c in range(width):
        if not free:
            break
        cands = [i for i in holders[c] if i in free]
        if not cands:
            continue
        p = cands[0] if len(cands) == 1 else min(
            cands, key=lambda i: (len(rows[i]), i))
        free.discard(p)
        prow = rows[p]
        a = prow[c]
        for i in cands:
            if i != p and not _clear(rows, holders, i, prow, c, a):
                free.discard(i)
        done.append(p)
        pivots.append(c)
    return rows, holders, done, pivots


def _reduce(rows, width):
    """The elimination kernel: the reduced row echelon form of `rows`, each
    an iterable of (column, nonzero rational) pairs below `width`.

    Returns (pivot rows, pivots): one {column: Fraction} dict per pivot, in
    pivot-column order, holding 1 at its pivot column.

    `_forward` brings the rows to echelon form; the back phase clears the
    pivot rows of each other, last pivot first, with the same fraction-free
    step.  The reduced row echelon form is unique, so the pivot choices
    change only the work.  Each pivot row is divided by its pivot once, at
    the end.
    """
    rows, holders, done, pivots = _forward(rows, width)
    for p, c in zip(reversed(done), reversed(pivots)):
        prow = rows[p]
        a = prow[c]
        for i in [i for i in holders[c] if i != p]:
            _clear(rows, holders, i, prow, c, a)
    out = []
    for p, c in zip(done, pivots):
        row = rows[p]
        a = row[c]
        if a == 1:
            out.append({j: Fraction(v) for j, v in row.items()})
        else:
            out.append({j: Fraction(v, a) for j, v in row.items()})
    return out, tuple(pivots)


def _kernel(rows, pivots, cols):
    """Kernel basis of the first `cols` columns of an RREF given by its pivot
    rows as (column, entry) pair iterables: one vector per non-pivot column
    below `cols`, with that free coordinate set to 1."""
    pivot_set = set(pivots)
    basis = {fc: [_ZERO] * cols for fc in range(cols) if fc not in pivot_set}
    for fc, v in basis.items():
        v[fc] = Fraction(1)
    for row, pc in zip(rows, pivots):
        for j, x in row:
            if x and j in basis:
                basis[j][pc] = -x
    return [tuple(v) for v in basis.values()]


def rank_kernel(m: Matrix):
    """Rank and an ordered kernel basis (tuples of Fractions).

    Kernel vectors follow the standard free-variable convention: one vector
    per non-pivot column, with that free coordinate set to 1.
    """
    rows, pivots = m.rref()
    return len(pivots), _kernel(map(enumerate, rows), pivots, m.cols)


def solve(a, b):
    """Solve a·x = b exactly, for a `Matrix` or a `SparseMatrix` a.

    Returns one particular solution, as a tuple, or None when the system is
    inconsistent; `rank_kernel` gives the kernel.  Free variables are 0, and
    x_c = (b - sum_{j > c} a_j·x_j) / a_c over the pivots in reverse: the
    forward phase leaves no pivot row an entry left of its pivot.
    """
    b = [frac(v) for v in b]
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    m = a.cols
    rows, _, done, pivots = _forward(
        [(*row, (m, v)) if v else row for row, v in zip(a.sparse_rows(), b)],
        m + 1)
    if m in pivots:
        return None
    x = [_ZERO] * m
    for p, c in zip(reversed(done), reversed(pivots)):
        row = rows[p]
        rest = sum(v * x[j] for j, v in row.items() if c < j < m and x[j])
        x[c] = (row.get(m, 0) - rest) / Fraction(row[c])
    return tuple(x)


def invert(m: Matrix):
    """Exact inverse, or None when the matrix is singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    aug = Matrix._exact(n, 2 * n, [e for i in range(n)
                                   for e in (*m.row(i), *ident.row(i))])
    rows, pivots = aug.rref()
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
        return None
    return Matrix._exact(n, n, [rows[i][n + j]
                                for i in range(n) for j in range(n)])


def _integer_row(row):
    """(s, ints): the lcm s of the row's denominators and the row times s,
    as integers.  Integer entries are read as they are."""
    s = 1
    for e in row:
        if e.denominator != 1:
            s = lcm(s, e.denominator)
    if s == 1:
        return 1, [e.numerator for e in row]
    return s, [e.numerator * (s // e.denominator) for e in row]


def _bareiss(rows):
    """Fraction-free (Bareiss) echelon elimination of integer rows, for
    `det`.

    Yields (pivot, swapped) for each column in turn.  The first row with a
    nonzero entry in the column is swapped to the top (swapped is then
    True), and every other row r becomes (p·r - r[0]·top) / prev, where p is
    the pivot and prev the one before it: the division is exact (Bareiss
    1968), so the entries stay integers.  A column with no nonzero entry
    left yields pivot 0 and is skipped (Nakos-Turner-Williams 1997).  Each
    row keeps only the columns right of the current one; the elimination
    stops when no row or no column is left.
    """
    prev = 1
    while rows and rows[0]:
        for k, r in enumerate(rows):
            if r[0]:
                break
        else:
            rows = [r[1:] for r in rows]
            yield 0, False
            continue
        if k:
            rows[0], rows[k] = rows[k], rows[0]
        top = rows[0]
        p = top[0]
        rows = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], top[1:])]
                for r in rows[1:]]
        prev = p
        yield p, k != 0


def rank(m: Matrix) -> int:
    """Rank over Q: the pivot count of the elimination kernel's forward
    phase `_forward`, with no back phase and no Fraction built."""
    return len(_forward(m.sparse_rows(), m.cols)[3])


def det(m: Matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination over Z.

    Each row is scaled by the lcm of its denominators, so the elimination
    runs on integers; the result is the last pivot, signed by the row swaps,
    over the product of the row scales.  A column without a pivot makes it 0.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = []
    scale = 1
    for i in range(m.rows):
        s, ints = _integer_row(m.row(i))
        scale *= s
        rows.append(ints)
    sign, last = 1, 1
    for p, swapped in _bareiss(rows):
        if not p:
            return Fraction(0)
        if swapped:
            sign = -sign
        last = p
    return Fraction(sign * last, scale)


def _integer_vector(vec):
    """The entries of vec as ints; a ValueError names a non-integer one."""
    out = []
    for x in vec:
        if type(x) is not int:
            q = frac(x)
            if q.denominator != 1:
                raise ValueError(f"lattice entry {x} is not an integer")
            x = q.numerator
        out.append(x)
    return out


def in_lattice(basis, target) -> bool:
    """Is `target` an integer combination of the given integer vectors?

    Integer echelon reduction, one column at a time: Euclid among the rows
    with a nonzero entry in the column leaves one pivot row, whose entry
    must divide the target's and then clears it.  A nonzero target entry
    in a column with no pivot puts the target outside the lattice.
    """
    target = _integer_vector(target)
    rows = [_integer_vector(b) for b in basis]
    if any(len(r) != len(target) for r in rows):
        raise ValueError("length mismatch")
    for j in range(len(target)):
        pivot, rest = None, []
        for r in rows:
            while pivot is not None and r[j]:
                q = pivot[j] // r[j]
                pivot, r = r, [a - q * b for a, b in zip(pivot, r)]
            if r[j]:
                pivot = r
            else:
                rest.append(r)
        if target[j]:
            if pivot is None or target[j] % pivot[j]:
                return False
            q = target[j] // pivot[j]
            target = [a - q * b for a, b in zip(target, pivot)]
        rows = rest
    return True
