"""Local reduction by the defining relations, and the swap of a commuting pair.

local_reduce normalizes a polynomial by the defining relations that act
on two adjacent generators of a word: idempotence, row and column
orthogonality, and the two adjacency vanishing families.  swap_pair
reverses one generator pair in every word of a polynomial; commutation
is not a defining relation, so the verifier applies it only for a pair
whose commutation an earlier step claims.
"""

from __future__ import annotations

from .algebra import Gen, Poly, Word
from .graphs import Graph


def swap_pair(p: Poly, position: int, a: Gen, b: Gen) -> Poly:
    """p with the generator pair at ``position`` reversed in every word.

    Raises ValueError unless that pair is (a, b) or (b, a) in every
    word.  Reversal is an involution on such words, so no two terms
    merge and the result has the terms of p.
    """
    if isinstance(position, bool) or not isinstance(position, int) or position < 0:
        raise ValueError(f"position must be a nonnegative integer, got {position!r}")
    data: dict[Word, object] = {}
    for w, c in p.terms.items():
        if len(w) < position + 2:
            raise ValueError(
                f"word of length {len(w)} has no generator pair at position {position}"
            )
        x, y = w[position], w[position + 1]
        if (x, y) != (a, b) and (x, y) != (b, a):
            raise ValueError(
                f"the pair at position {position} is not u[{a.row},{a.col}]"
                f" and u[{b.row},{b.col}]"
            )
        data[w[:position] + (y, x) + w[position + 2 :]] = c
    return Poly._from_dict(data)


def _reduce_word(adj1, n: int, w: Word):
    """Normal form of one word, or None when it rewrites to zero."""
    for f in w:
        if not (1 <= f.row <= n and 1 <= f.col <= n):
            raise ValueError(f"generator u[{f.row},{f.col}] out of range for n={n}")
    if len(w) < 2:
        return w
    lst = list(w)
    i = 0
    while i + 1 < len(lst):
        a = lst[i]
        b = lst[i + 1]
        if a == b:
            del lst[i + 1]
            # The deletion creates one new pair, to the left.
            if i:
                i -= 1
            continue
        if a.row == b.row or a.col == b.col:
            return None
        if adj1[a.row][b.row] != adj1[a.col][b.col]:
            return None
        i += 1
    return tuple(lst)


def local_reduce(g: Graph, p: Poly) -> Poly:
    """Normalize p by exhaustively rewriting adjacent generator pairs.

    Each word is scanned left to right and the first applicable rule
    fires, preferring idempotence, then row/column orthogonality, then
    the two adjacency vanishing families, until no rule applies.  Sum
    relations are never applied automatically; they enter proofs only
    through explicit unity expansions.
    """
    adj1 = g.adj1
    n = g.n
    data: dict[Word, object] = {}
    for w, c in p.terms.items():
        r = _reduce_word(adj1, n, w)
        if r is None:
            continue
        s = data.get(r, 0) + c
        if s:
            data[r] = s
        else:
            del data[r]
    return Poly._from_dict(data)
