"""An exact non-commutative model of the defining relations, for 2K2.

A model assigns each generator u[i,j] a matrix so that the defining
relations hold: every u[i,j] is a self-adjoint idempotent, each row and
each column of u sums to the identity, and u commutes with the graph's
adjacency matrix.  An equation that holds in the quotient algebra then
holds for the matrices, so evaluating both sides checks a rewrite rule
semantically, where the permutation matrices cannot: there every
commutation holds.

The model here lives in M2(Q), with exact Fraction entries.  Take the
projections p = diag(1, 0) and q = 1/2 [[1, 1], [1, 1]], which do not
commute, and set

    u = [[p, 1-p, 0, 0], [1-p, p, 0, 0], [0, 0, q, 1-q], [0, 0, 1-q, q]].

It is a magic unitary that commutes with the adjacency of 2K2, the graph
on 1..4 whose edges are {1,2} and {3,4}: within each diagonal block,
swapping the two rows gives what swapping the two columns gives.
u[1,1]u[3,3] = pq differs from u[3,3]u[1,1] = qp, so 2K2 has quantum
symmetry and this commutation is false in its quotient.

The module checks all of this when it is imported.
"""

from __future__ import annotations

from fractions import Fraction

# A 2x2 matrix [[a, b], [c, d]] is the tuple (a, b, c, d).
ZERO = (Fraction(0),) * 4
ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))

EDGES = frozenset({frozenset({1, 2}), frozenset({3, 4})})
N = 4


def mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def add(x, y):
    return tuple(s + t for s, t in zip(x, y))


def sub(x, y):
    return tuple(s - t for s, t in zip(x, y))


def transpose(x):
    a, b, c, d = x
    return (a, c, b, d)


P = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
Q = (Fraction(1, 2),) * 4


def _two_k2_model():
    """u as a dict from (i, j), 1-based, to its matrix."""
    blocks = (
        (P, sub(ONE, P), ZERO, ZERO),
        (sub(ONE, P), P, ZERO, ZERO),
        (ZERO, ZERO, Q, sub(ONE, Q)),
        (ZERO, ZERO, sub(ONE, Q), Q),
    )
    return {(i + 1, j + 1): blocks[i][j] for i in range(N) for j in range(N)}


def _sum(matrices):
    total = ZERO
    for m in matrices:
        total = add(total, m)
    return total


def is_magic(u) -> bool:
    """Whether every entry is a self-adjoint idempotent and every row
    and column of u sums to the identity."""
    vs = range(1, N + 1)
    return (
        all(transpose(x) == x and mul(x, x) == x for x in u.values())
        and all(_sum(u[i, j] for j in vs) == ONE for i in vs)
        and all(_sum(u[i, j] for i in vs) == ONE for j in vs)
    )


def commutes_with_adjacency(u, edges=EDGES) -> bool:
    """Whether A u = u A, where A is the adjacency of ``edges`` on 1..N."""
    vs = range(1, N + 1)
    for i in vs:
        for j in vs:
            au = _sum(u[k, j] for k in vs if frozenset({i, k}) in edges)
            ua = _sum(u[i, k] for k in vs if frozenset({k, j}) in edges)
            if au != ua:
                return False
    return True


def renamed(u, rows, cols):
    """The model u[i,j] -> u[rows(i), cols(j)], with one-line images."""
    return {(i, j): u[rows[i - 1], cols[j - 1]] for (i, j) in u}


def evaluate(u, word):
    """The matrix of a word, a sequence of generators with .row and .col."""
    value = ONE
    for f in word:
        value = mul(value, u[f.row, f.col])
    return value


U = _two_k2_model()
assert is_magic(U) and commutes_with_adjacency(U)
assert mul(P, Q) != mul(Q, P)
