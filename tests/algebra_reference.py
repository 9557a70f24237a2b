"""Reference algebra on polynomials that only the tests use.

relabel renames generators, evaluate_perm evaluates a polynomial at a
permutation matrix, and commutator forms p*q - q*p.  The checker works
on integer quadruples and word normal forms instead; these give the
polynomial answers that its results are compared with.
"""

from __future__ import annotations

from fractions import Fraction

from qsym import Poly, gen
from qsym.algebra import check_gen_bounds


def commutator(p: Poly, q: Poly) -> Poly:
    return p * q - q * p


def relabel(p: Poly, rows, cols) -> Poly:
    """Rename every generator u[i,j] of p to u[rows[i],cols[j]].

    ``rows`` and ``cols`` are one-line images indexed from 1: entry
    ``i - 1`` is the image of i.  Coefficients are kept; words that
    the renaming merges accumulate.  Raises ValueError, never
    IndexError, for a generator whose row lies beyond ``rows`` or
    whose column lies beyond ``cols``.
    """
    nrows, ncols = len(rows), len(cols)
    data: dict = {}
    for w, c in p.terms.items():
        for f in w:
            if f.row > nrows or f.col > ncols:
                raise ValueError(
                    f"generator u[{f.row},{f.col}] out of range for a"
                    f" {nrows} x {ncols} renaming"
                )
        nw = tuple(gen(rows[f.row - 1], cols[f.col - 1]) for f in w)
        s = data.get(nw, 0) + c
        if s:
            data[nw] = s
        else:
            del data[nw]
    return Poly._from_dict(data)


def evaluate_perm(g, sigma, p: Poly) -> Fraction:
    """Evaluate p at the permutation matrix of sigma on the vertices of g.

    The generator u[i,j] becomes 1 when sigma maps j to i and 0
    otherwise; the empty word evaluates to 1.  ``sigma`` is in one-line
    notation.  Raises ValueError if sigma does not permute the vertices
    or p names a generator outside them.
    """
    images = tuple(sigma)
    if sorted(images) != list(g.vertices()):
        raise ValueError(f"not a permutation of 1..{g.n}: {images}")
    check_gen_bounds(p, g.n)
    total = 0
    for w, c in p.terms.items():
        for f in w:
            if images[f.col - 1] != f.row:
                break
        else:
            total += c
    return Fraction(total)
