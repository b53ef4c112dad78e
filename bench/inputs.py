"""Seeded input generators, one per workload.

Each generator takes the seed and a directory, writes representation files
in the text format `t2mc.torus_rep.parse_rep` reads (a dimension line, then
two JSON arrays of 'p/q' strings), and returns the item list of one pass.
The generators use only the standard library, so the inputs do not depend on
the code under test.

Every item is a fixed pair of matrices conjugated by a seeded diagonal
matrix of signs D = diag(+-1): the seed changes the signs of the entries and
leaves their magnitudes alone.  Elimination on D·A·D meets the same pivots
and the same entry sizes as on A, so every seed asks for the same work, and
the spread across seeds is the spread of the machine, not of the inputs.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

SUPERDIAGONAL = (1, 2, 3)
UNIMODULAR_MULTIPLIERS = (1, -1, 2, -2)


def _text(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def write_rep(path: str, g1, g2, signs=None) -> str:
    """Write a commuting pair, conjugated by diag(signs) if given, as a rep
    file and return the path."""
    def dump(m):
        if signs is not None:
            m = [[e * signs[i] * signs[j] for j, e in enumerate(row)]
                 for i, row in enumerate(m)]
        return json.dumps([[_text(e) for e in row] for row in m])

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(g1)}\n{dump(g1)}\n{dump(g2)}\n")
    return path


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _signs(rng, n):
    return [rng.choice((1, -1)) for _ in range(n)]


def _jordan(c, n):
    """c·(I + N) with N nilpotent of index n: one Jordan block."""
    c = Fraction(c)
    m = [[c * int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = c * SUPERDIAGONAL[i % len(SUPERDIAGONAL)]
    return m


def _block_upper(a, b, corner):
    na, nb = len(a), len(b)
    rows = [list(a[i]) + list(corner[i]) for i in range(na)]
    rows += [[Fraction(0)] * na + list(b[i]) for i in range(nb)]
    return rows


def _unimodular(n):
    """A fixed unimodular P and its inverse, as products of 2n shears."""
    rng = random.Random(n)
    p, p_inv = _identity(n), _identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        a = rng.choice(UNIMODULAR_MULTIPLIERS)
        shear = _identity(n)
        shear[i][j] = Fraction(a)
        unshear = _identity(n)
        unshear[i][j] = Fraction(-a)
        p = matmul(p, shear)
        p_inv = matmul(unshear, p_inv)
    return p, p_inv


def verify_inputs(seed: int, workdir: str):
    """The verification battery is fixed: the seed changes nothing."""
    return [{"name": "verify", "out": os.path.join(workdir, "verify.json")}]


def jordan_ladder_inputs(seed: int, workdir: str):
    """Jordan pairs of growing dimension for `t2-cohomology --backend both`.

    Unipotent one-generator blocks (n = 4, 5, 6), a two-generator pair with
    g2 = g1^2 and character 2 (n = 4), and two-block pairs with a corner,
    of characters 1 and 2 (n = 4) and 1/2 and -2 (n = 5).  The costlier
    n = 5 two-generator and n = 6 two-block pairs are left out so that a
    run holds a dozen passes: the host's slow phases last long enough to
    swallow runs of only three or four.  The polynomial bound is
    max(4, n - 1), the nilpotency index the solver needs.
    `unipotent` marks the items whose Betti numbers are (1, 2, 1) in closed
    form; `trivial_character` is False where no composition character is
    (1, 1), which forces all Betti numbers to 0.
    """
    rng = random.Random(seed)
    items = []

    def add(name, g1, g2, n, unipotent, trivial_character):
        path = write_rep(os.path.join(workdir, f"{name}.rep"), g1, g2,
                         _signs(rng, n))
        items.append({"name": name, "rep": path, "n": n,
                      "bound": max(4, n - 1), "unipotent": unipotent,
                      "trivial_character": trivial_character,
                      "out": os.path.join(workdir, f"{name}.json")})

    for n in (4, 5, 6):
        add(f"unipotent{n}", _jordan(1, n), _identity(n), n, True, True)
    g1 = _jordan(2, 4)
    add("two_gen4", g1, matmul(g1, g1), 4, False, False)
    for n, ca, cb in ((4, 1, 2), (5, Fraction(1, 2), -2)):
        na = (n + 1) // 2
        corner = [[Fraction(0)] * (n - na) for _ in range(na)]
        corner[na - 1][0] = Fraction(1)
        g1 = _block_upper(_jordan(ca, na), _jordan(cb, n - na), corner)
        add(f"mixed{n}", g1, matmul(g1, g1), n, False, 1 in (ca, cb))
    return items


def dense_hom_inputs(seed: int, workdir: str):
    """V with characters 1 and 2 (one Jordan block each, g2 = g1^2) and a
    conjugate W = P·V·P^-1 by a fixed unimodular P, for n = 5 and 6 (Hom of
    dimension 25 and 36), plus an n = 4 pair and the diagonal of its V for
    the isomorphism test.  V and W each get their own seeded signs.  In
    every V, g2 is a polynomial in g1 with one block per eigenvalue, so
    End(V) has dimension n.
    """
    rng = random.Random(seed)
    items = []
    for n in (5, 6):
        v, w = _conjugate_pair(n)
        items.append({"name": f"hom{n}", "kind": "hom", "n": n,
                      "v": write_rep(os.path.join(workdir, f"v{n}.rep"), *v,
                                     _signs(rng, n)),
                      "w": write_rep(os.path.join(workdir, f"w{n}.rep"), *w,
                                     _signs(rng, n)),
                      "hom": os.path.join(workdir, f"hom{n}.rep"),
                      "out": os.path.join(workdir, f"hom{n}.json")})
    v, w = _conjugate_pair(4)
    diag = [[[row[i] if i == j else Fraction(0) for j in range(4)]
             for i, row in enumerate(g)] for g in v]
    v_path = write_rep(os.path.join(workdir, "v4.rep"), *v, _signs(rng, 4))
    items.append({"name": "iso_conjugate", "kind": "iso", "v": v_path,
                  "w": write_rep(os.path.join(workdir, "w4.rep"), *w,
                                 _signs(rng, 4)),
                  "expect": "isomorphic"})
    items.append({"name": "iso_diagonal", "kind": "iso", "v": v_path,
                  "w": write_rep(os.path.join(workdir, "d4.rep"), *diag),
                  "expect": "not_isomorphic"})
    return items


def _conjugate_pair(n):
    na = (n + 1) // 2
    zero = [[Fraction(0)] * (n - na) for _ in range(na)]
    g1 = _block_upper(_jordan(1, na), _jordan(2, n - na), zero)
    g2 = matmul(g1, g1)
    p, p_inv = _unimodular(n)
    w = tuple(matmul(matmul(p, g), p_inv) for g in (g1, g2))
    return (g1, g2), w


GENERATORS = {
    "verify": verify_inputs,
    "jordan_ladder": jordan_ladder_inputs,
    "dense_hom": dense_hom_inputs,
}
