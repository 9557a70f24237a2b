"""The defining relations of the magic-unitary algebra, one instance at a time.

A reference for testing local_reduce, kept out of the package: each
instance names concrete generator indices, can rewrite one adjacent
generator pair, and states its equations explicitly, so one-rule
rewriting and evaluation at automorphisms can be compared with the
checker's normal forms.  Commutation is not a defining relation and
has no instance here; certificates cite the step that derives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from qsym import Gen, Graph, Poly, gen, star, u


@dataclass(frozen=True, slots=True)
class RowOrth:
    """u[row,col1]u[row,col2] = 0 for col1 != col2."""

    row: int
    col1: int
    col2: int


@dataclass(frozen=True, slots=True)
class ColOrth:
    """u[row1,col]u[row2,col] = 0 for row1 != row2."""

    row1: int
    row2: int
    col: int


@dataclass(frozen=True, slots=True)
class Idem:
    """u[row,col]u[row,col] = u[row,col]."""

    row: int
    col: int


@dataclass(frozen=True, slots=True)
class SelfAdj:
    """u[row,col]* = u[row,col]."""

    row: int
    col: int


@dataclass(frozen=True, slots=True)
class RowSum:
    """The entries of one row sum to 1."""

    row: int


@dataclass(frozen=True, slots=True)
class ColSum:
    """The entries of one column sum to 1."""

    col: int


@dataclass(frozen=True, slots=True)
class VanishA:
    """u[row1,col1]u[row2,col2] = 0 = reversed, rows adjacent, columns not."""

    row1: int
    col1: int
    row2: int
    col2: int


@dataclass(frozen=True, slots=True)
class VanishB:
    """u[row1,col1]u[row2,col2] = 0 = reversed, columns adjacent, rows not."""

    row1: int
    col1: int
    row2: int
    col2: int


Relation = Union[RowOrth, ColOrth, Idem, SelfAdj, RowSum, ColSum, VanishA, VanishB]


class _Killed:
    __slots__ = ()

    def __repr__(self) -> str:
        return "KILLED"


# Sentinel result of a rewrite that annihilates the whole word.
KILLED = _Killed()


def rewrite_pair(rel: Relation, a: Gen, b: Gen):
    """Rewrite the adjacent generator pair (a, b) under rel.

    Returns None when the pair does not match, KILLED when the product
    vanishes, or the replacement generator tuple.  Vanishing instances
    match either orientation of their product.
    Sum and self-adjointness relations never match a pair.
    """
    if isinstance(rel, RowOrth):
        if a.row == rel.row == b.row and a.col == rel.col1 and b.col == rel.col2:
            return KILLED
        return None
    if isinstance(rel, ColOrth):
        if a.col == rel.col == b.col and a.row == rel.row1 and b.row == rel.row2:
            return KILLED
        return None
    if isinstance(rel, Idem):
        t = gen(rel.row, rel.col)
        if a == t and b == t:
            return (t,)
        return None
    if isinstance(rel, (VanishA, VanishB)):
        x = gen(rel.row1, rel.col1)
        y = gen(rel.row2, rel.col2)
        if (a, b) == (x, y) or (a, b) == (y, x):
            return KILLED
        return None
    if isinstance(rel, (SelfAdj, RowSum, ColSum)):
        return None
    raise ValueError(f"unknown relation {rel!r}")


def relation_instances(g: Graph):
    """Yield every relation instance for g, in a deterministic order."""
    adj1 = g.adj1
    for r in g.vertices():
        for c in g.vertices():
            yield Idem(r, c)
            yield SelfAdj(r, c)
    for r in g.vertices():
        yield RowSum(r)
    for c in g.vertices():
        yield ColSum(c)
    for r in g.vertices():
        for c1 in g.vertices():
            for c2 in g.vertices():
                if c1 != c2:
                    yield RowOrth(r, c1, c2)
    for r1 in g.vertices():
        for r2 in g.vertices():
            if r1 != r2:
                for c in g.vertices():
                    yield ColOrth(r1, r2, c)
    for r1, r2 in g.directed_edges():
        for c1 in g.vertices():
            for c2 in g.vertices():
                if not adj1[c1][c2]:
                    yield VanishA(r1, c1, r2, c2)
    for c1, c2 in g.directed_edges():
        for r1 in g.vertices():
            for r2 in g.vertices():
                if not adj1[r1][r2]:
                    yield VanishB(r1, c1, r2, c2)


def equations(rel: Relation, n: int) -> list[tuple[Poly, Poly]]:
    """The explicit equations asserted by rel on an n-vertex graph."""
    if isinstance(rel, RowOrth):
        return [(u(rel.row, rel.col1) * u(rel.row, rel.col2), Poly.zero())]
    if isinstance(rel, ColOrth):
        return [(u(rel.row1, rel.col) * u(rel.row2, rel.col), Poly.zero())]
    if isinstance(rel, Idem):
        x = u(rel.row, rel.col)
        return [(x * x, x)]
    if isinstance(rel, SelfAdj):
        x = u(rel.row, rel.col)
        return [(star(x), x)]
    if isinstance(rel, RowSum):
        s = Poly.zero()
        for c in range(1, n + 1):
            s = s + u(rel.row, c)
        return [(s, Poly.one())]
    if isinstance(rel, ColSum):
        s = Poly.zero()
        for r in range(1, n + 1):
            s = s + u(r, rel.col)
        return [(s, Poly.one())]
    if isinstance(rel, (VanishA, VanishB)):
        x = u(rel.row1, rel.col1)
        y = u(rel.row2, rel.col2)
        return [(x * y, Poly.zero()), (y * x, Poly.zero())]
    raise ValueError(f"unknown relation {rel!r}")
