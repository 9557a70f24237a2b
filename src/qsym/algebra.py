"""Exact noncommutative polynomial arithmetic over magic unitary entries.

The free *-algebra is generated by symbols u[i,j] with integer indices
from 1.  A word is a tuple of generators; a polynomial maps words to
nonzero rational coefficients.  No relations are applied here; rewriting
belongs to the relations module.  parse_poly reads format_poly's text in
one pass over its tokens and refuses the first fault at its position.

Coefficients are ``int`` where possible and ``fractions.Fraction``
otherwise.  The two mix freely: equal values compare and hash equal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Union

ROW = "row"
COL = "col"

Coeff = Union[int, Fraction]


class Gen(NamedTuple):
    """One generator u[row,col]."""

    row: int
    col: int


Word = tuple  # tuple[Gen, ...]

_GEN_CACHE: dict[tuple[int, int], Gen] = {}


def gen(row: int, col: int) -> Gen:
    """The generator u[row,col].  Indices start at 1."""
    g = _GEN_CACHE.get((row, col))
    if g is None:
        if not (isinstance(row, int) and isinstance(col, int) and row >= 1 and col >= 1):
            raise ValueError(f"generator indices must be integers >= 1, got ({row!r}, {col!r})")
        g = Gen(row, col)
        _GEN_CACHE[(row, col)] = g
    return g


def word(*pairs) -> Word:
    """Build a word from (row, col) pairs."""
    return tuple(gen(r, c) for r, c in pairs)


def _check_coeff(c) -> Coeff:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")
    return c


class Poly:
    """Polynomial as a word-to-coefficient map.  Zero coefficients are never stored.

    A Poly is never mutated after construction: every operation returns
    a new object, and nothing writes to ``terms`` in place.  Callers
    rely on this to share one Poly between many places, as the prover
    does between the sides of its steps.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict[Word, Coeff] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for w, c in items:
            _check_coeff(c)
            w = word(*w)
            c = data.get(w, 0) + c
            if c:
                data[w] = c
            else:
                data.pop(w, None)
        self.terms = data

    @staticmethod
    def _from_dict(data: dict) -> "Poly":
        # Trusted constructor: data must already be normalized.
        p = object.__new__(Poly)
        p.terms = data
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly._from_dict({})

    @staticmethod
    def one() -> "Poly":
        return Poly._from_dict({(): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "Poly", sign: int = 1) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        data = dict(self.terms)
        for w, c in other.terms.items():
            s = data.get(w, 0) + sign * c
            if s:
                data[w] = s
            else:
                del data[w]
        return Poly._from_dict(data)

    def __sub__(self, other: "Poly") -> "Poly":
        return self.__add__(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._from_dict({w: -c for w, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            data: dict[Word, Coeff] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    s = data.get(w, 0) + c1 * c2
                    if s:
                        data[w] = s
                    else:
                        del data[w]
            return Poly._from_dict(data)
        c = _check_coeff(other)
        if not c:
            return Poly.zero()
        return Poly._from_dict({w: c0 * c for w, c0 in self.terms.items()})

    __rmul__ = __mul__  # a scalar times a Poly

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def u(row: int, col: int) -> Poly:
    """The polynomial consisting of the single generator u[row,col]."""
    return Poly._from_dict({(gen(row, col),): 1})


def monomial(pairs, coeff: Coeff = 1) -> Poly:
    """coeff times the word built from (row, col) pairs."""
    _check_coeff(coeff)
    if not coeff:
        return Poly.zero()
    return Poly._from_dict({word(*pairs): coeff})


def star(p: Poly) -> Poly:
    """Antilinear involution: reverse each word.

    Generators are self-adjoint and coefficients rational, so only the
    word order changes.
    """
    return Poly._from_dict({w[::-1]: c for w, c in p.terms.items()})


def expand_unity(p: Poly, position: int, index: int, side: str, n: int) -> Poly:
    """Insert a row or column sum of generators into every word of p.

    With side "row" the inserted factor runs over u[index,a] for a in
    1..n; with side "col" over u[a,index].  Since each row and column of
    a magic unitary sums to one, the result equals p in the quotient.
    The insertion position must be valid for every word: 0 <= position
    <= len(word).
    """
    if side not in (ROW, COL):
        raise ValueError(f"side must be {ROW!r} or {COL!r}, got {side!r}")
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"need a positive size, got {n!r}")
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range 1..{n}")
    for w in p.terms:
        if not 0 <= position <= len(w):
            raise ValueError(
                f"position {position} invalid for a word of length {len(w)}"
            )
    if side == ROW:
        inserted = [(gen(index, a),) for a in range(1, n + 1)]
    else:
        inserted = [(gen(a, index),) for a in range(1, n + 1)]
    data: dict[Word, Coeff] = {}
    for w, c in p.terms.items():
        head, tail = w[:position], w[position:]
        for mid in inserted:
            nw = head + mid + tail
            s = data.get(nw, 0) + c
            if s:
                data[nw] = s
            else:
                del data[nw]
    return Poly._from_dict(data)


def check_gen_bounds(p: Poly, n: int) -> None:
    """Raise ValueError if p names a generator outside u[1..n,1..n]."""
    for w in p.terms:
        for f in w:
            if f.row > n or f.col > n:
                raise ValueError(f"generator u[{f.row},{f.col}] out of range for n={n}")


def _term_str(w: Word, c: Coeff) -> tuple[bool, str]:
    """Sign and unsigned rendering of one term."""
    negative = c < 0
    a = -c if negative else c
    gens = "".join(f"u[{g.row},{g.col}]" for g in w)
    if not w:
        body = str(a)
    elif a == 1:
        body = gens
    else:
        body = f"{a}*{gens}"
    return negative, body


def format_poly(p: Poly) -> str:
    """Canonical text form: terms in degree-then-lexicographic order."""
    if not p.terms:
        return "0"
    parts = []
    for w in sorted(p.terms, key=lambda w: (len(w), w)):
        negative, body = _term_str(w, p.terms[w])
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; ``position`` is the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


_TOKEN = re.compile(
    r"""(?: (?P<gen>u\[(?P<row>\d+),(?P<col>\d+)\])
          | (?P<num>\d+(?:/\d+)?)
          | (?P<plus>\+)
          | (?P<minus>-)
          | (?P<times>\*)
        ) \s*  # a token takes the whitespace after it
    """,
    re.VERBOSE,
)


def _parse_int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than Python converts
        raise PolyParseError(str(exc), pos) from None


# parse_poly's transitions: in each state (the start of the text, after a
# sign or "*", after a factor), the state that each token it takes leads to.
_START, _OPERAND, _FACTOR = range(3)
_NEXT = (
    {"plus": _OPERAND, "minus": _OPERAND, "num": _FACTOR, "gen": _FACTOR},
    {"num": _FACTOR, "gen": _FACTOR},
    {"plus": _OPERAND, "minus": _OPERAND, "gen": _FACTOR, "times": _OPERAND},
)


def parse_poly(text: str) -> Poly:
    """Parse the syntax produced by :func:`format_poly`.

    Terms are signed products of numbers and generators, with
    generators joined by juxtaposition and an optional "*" between any
    two factors, e.g. ``"u[1,2]u[2,1] - 3/2*u[1,1]"``.  A bare number
    stands for a multiple of the empty word.  Repeated words
    accumulate.
    """
    terms: list[list] = []  # each term's coefficient, then its generators
    state, pos = _START, len(text) - len(text.lstrip())
    for m in _TOKEN.finditer(text, pos):
        if m.start() != pos:
            break
        at, pos, kind = pos, m.end(), m.lastgroup
        after = _NEXT[state].get(kind)
        if after is None:
            refusal = "expected '+' or '-'" if state == _FACTOR else f"unexpected {kind!r} token"
            raise PolyParseError(refusal, at)
        if state == _START or kind in ("plus", "minus"):  # a term opens
            terms.append([-1 if kind == "minus" else 1])
        if kind == "gen":
            r, c = _parse_int(m["row"], at), _parse_int(m["col"], at)
            if r < 1 or c < 1:
                raise PolyParseError("generator indices start at 1", at)
            terms[-1].append(gen(r, c))
        elif kind == "num":
            num, _, den = m["num"].partition("/")
            value: Coeff = _parse_int(num, at)
            if den:
                den = _parse_int(den, at)
                if den == 0:
                    raise PolyParseError("zero denominator", at)
                value = Fraction(value, den)
            terms[-1][0] *= int(value) if value.denominator == 1 else value
        state = after
    if pos < len(text):
        raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
    if state == _START:
        raise PolyParseError("empty input", 0)
    if state == _OPERAND:
        raise PolyParseError("unexpected end of input", len(text))
    data: dict[Word, Coeff] = {}
    for c, *gens in terms:
        w = tuple(gens)
        c = data.get(w, 0) + c
        if c:
            data[w] = c
        else:
            data.pop(w, None)
    return Poly._from_dict(data)
