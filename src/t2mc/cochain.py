"""Finite cochain complexes with ordered bases and exact Betti numbers.

A Betti number needs only ranks: b_n = dim C^n - rank D_n - rank D_{n-1}.
Each rank is taken by `qlinalg.rank`, the fraction-free forward phase of the
one elimination kernel, and `betti` reduces each stored D_n at most once,
however many degrees use it.
"""

from __future__ import annotations

from .qlinalg import rank


class ComplexError(ValueError):
    pass


class TwistedComplex:
    """Degreewise ordered basis labels plus the differentials D_n: C^n -> C^{n+1}.

    `basis[n]` is the label list for degree n, `d[n]` the matrix of D_n with
    rows indexed by the degree-(n+1) basis.  Degrees run over a contiguous
    range starting at 0; everything outside it is zero.
    """

    def __init__(self, basis: dict, d: dict, check: bool = True):
        self.basis = {n: list(labels) for n, labels in basis.items()}
        self.d = dict(d)
        self._d_square = None
        for n, mat in self.d.items():
            if mat.cols != len(self.basis.get(n, ())):
                raise ComplexError(f"D_{n} has {mat.cols} columns, expected "
                                   f"{len(self.basis.get(n, ()))}")
            if mat.rows != len(self.basis.get(n + 1, ())):
                raise ComplexError(f"D_{n} has {mat.rows} rows, expected "
                                   f"{len(self.basis.get(n + 1, ()))}")
        if check:
            bad = self.d_square_failures()
            if bad:
                raise ComplexError(f"D² != 0 at degrees {bad}")

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def degrees(self):
        return sorted(self.basis)

    def d_square_failures(self):
        """The degrees n where D_{n+1}·D_n != 0, multiplied out once."""
        if self._d_square is None:
            self._d_square = [
                n for n, dn in sorted(self.d.items())
                if (dn1 := self.d.get(n + 1)) is not None and dn1.cols
                and dn.cols and not (dn1 * dn).is_zero()]
        return list(self._d_square)

    def rank_d(self, n: int) -> int:
        mat = self.d.get(n)
        if mat is None or mat.cols == 0 or mat.rows == 0:
            return 0
        return rank(mat)

    def betti(self, degrees) -> tuple:
        degrees = tuple(degrees)
        for n in degrees:
            if n not in self.d and n in self.basis and (n + 1) in self.basis:
                raise ComplexError(f"D_{n} not stored")
        needed = {k for n in degrees for k in (n, n - 1)}
        ranks = {k: self.rank_d(k) for k in needed}
        return tuple(self.dim(n) - ranks[n] - ranks[n - 1] for n in degrees)
