"""Reference algebra on polynomials that only the tests use.

relabel renames generators, evaluate_perm evaluates a polynomial at a
permutation matrix, commutator forms p*q - q*p, and claim gives the
equation a conclusion asserts.  The checker works on integer quadruples
and word normal forms instead; these give the polynomial answers that
its results are compared with.

parse_poly_reference is the polynomial parser as it was written before
parse_poly read its text in one pass: a tokenizer that makes the whole
token list, then a grammar loop over it.  Both must accept the same
texts with equal results, and refuse a text with one fault with the
same message at the same position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from qsym import COMMUTES, Poly, PolyParseError, gen
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


def claim(c) -> tuple[Poly, Poly]:
    """The equation the conclusion c asserts: u[i,j]u[k,l] equals
    u[k,l]u[i,j], or zero.  claim_quadruple inverts it."""
    a, b = gen(c.i, c.j), gen(c.k, c.l)
    lhs = Poly._from_dict({(a, b): 1})
    if c.kind == COMMUTES:
        return lhs, Poly._from_dict({(b, a): 1})
    return lhs, Poly.zero()


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<gen>u\[(?P<row>\d+),(?P<col>\d+)\])
      | (?P<num>\d+(?:/\d+)?)
      | (?P<plus>\+)
      | (?P<minus>-)
      | (?P<times>\*)
    """,
    re.VERBOSE,
)


def _parse_int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than Python converts
        raise PolyParseError(str(exc), pos) from None


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "gen":
            r, c = _parse_int(m.group("row"), pos), _parse_int(m.group("col"), pos)
            if r < 1 or c < 1:
                raise PolyParseError("generator indices start at 1", pos)
            tokens.append(("gen", gen(r, c), pos))
        elif kind == "num":
            text_num = m.group("num")
            if "/" in text_num:
                a, b = (_parse_int(t, pos) for t in text_num.split("/"))
                if b == 0:
                    raise PolyParseError("zero denominator", pos)
                value = Fraction(a, b)
                if value.denominator == 1:
                    value = int(value)
            else:
                value = _parse_int(text_num, pos)
            tokens.append(("num", value, pos))
        elif kind in ("plus", "minus", "times"):
            tokens.append((kind, None, pos))
        pos = m.end()
    return tokens


def parse_poly_reference(text: str) -> Poly:
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty input", 0)
    data: dict = {}
    i = 0

    def expect_factor():
        if i >= len(tokens):
            raise PolyParseError("unexpected end of input", len(text))
        if tokens[i][0] not in ("num", "gen"):
            raise PolyParseError(f"unexpected {tokens[i][0]!r} token", tokens[i][2])

    while i < len(tokens):
        sign = 1
        if tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -1
            i += 1
        coeff = 1
        gens = []
        expect_factor()
        while True:
            kind, value, _ = tokens[i]
            if kind == "num":
                coeff = coeff * value
            else:
                gens.append(value)
            i += 1
            if i < len(tokens) and tokens[i][0] == "times":
                i += 1
                expect_factor()
                continue
            if i < len(tokens) and tokens[i][0] == "gen":
                continue
            break
        w = tuple(gens)
        c = data.get(w, 0) + sign * coeff
        if c:
            data[w] = c
        else:
            data.pop(w, None)
        if i < len(tokens) and tokens[i][0] not in ("plus", "minus"):
            raise PolyParseError("expected '+' or '-'", tokens[i][2])
    return Poly._from_dict(data)
