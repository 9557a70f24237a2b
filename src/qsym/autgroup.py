"""Classical graph automorphisms by exhaustive backtracking.

Sized for small graphs: the search enumerates and keeps every
automorphism, so it refuses a graph of more than MAX_AUT_VERTICES
vertices before it starts, and stops with ValueError once it has found
more than MAX_AUT_ORDER automorphisms.  Every group it returns lists
its elements.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .graphs import Graph, is_automorphism, kneser_vertices

# Full enumeration is exponential in the worst case; refuse beyond this.
MAX_AUT_VERTICES = 16
# Every element is kept, so the search stops past this many.
MAX_AUT_ORDER = 100_000


class AutGroup(NamedTuple):
    """Automorphism group given by order, generators and elements, each
    permutation a tuple in one-line notation."""

    order: int
    generators: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]


def _invariant_classes(g: Graph) -> list[tuple]:
    """Per-vertex invariant preserved by any automorphism, 1-based."""
    degs = [0] + [g.degree(u) for u in g.vertices()]
    classes: list[tuple] = [()]
    for u in g.vertices():
        classes.append((degs[u], tuple(sorted(degs[w] for w in g.neighbors(u)))))
    return classes


def automorphism_group(g: Graph) -> AutGroup:
    """Enumerate Aut(g) by backtracking.

    Raises ValueError when g has more than MAX_AUT_VERTICES vertices,
    or more than MAX_AUT_ORDER automorphisms.  Results are
    deterministic: elements are found in lexicographic order of their
    one-line form.
    """
    if g.n > MAX_AUT_VERTICES:
        raise ValueError(
            f"automorphism search supports at most {MAX_AUT_VERTICES} vertices, got {g.n}"
        )
    inv = _invariant_classes(g)
    candidates = [
        ()
        if u == 0
        else tuple(w for w in g.vertices() if inv[w] == inv[u])
        for u in range(g.n + 1)
    ]
    adj1 = g.adj1
    n = g.n
    img = [0] * (n + 1)
    used = [False] * (n + 1)
    found: list[tuple[int, ...]] = []

    def extend(u: int):
        if u > n:
            if len(found) == MAX_AUT_ORDER:
                raise ValueError(
                    f"automorphism group has more than {MAX_AUT_ORDER} elements"
                )
            found.append(tuple(img[1:]))
            return
        row = adj1[u]
        for w in candidates[u]:
            if used[w]:
                continue
            wrow = adj1[w]
            if all(row[v] == wrow[img[v]] for v in range(1, u)):
                img[u] = w
                used[w] = True
                extend(u + 1)
                used[w] = False
        img[u] = 0

    extend(1)
    elements = tuple(found)
    return AutGroup(
        order=len(elements), generators=_generating_subset(elements), elements=elements
    )


def _generating_subset(elements: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Greedy generating set: adjoin the first element not yet generated.

    The closure of the generators so far is a group H, kept between
    adjunctions.  Every product of generators that leaves H is h g w
    with h in H, g the new generator and w a product of generators, so
    the new closure is H, the products h g, and what breadth-first
    search reaches from those by multiplying on the right by every
    generator.  p after q is ``tuple(p[v - 1] for v in q)``, here
    indexed by q shifted to 0.
    """
    if not elements:
        return ()
    gens: list[tuple[int, ...]] = []
    shifted: list[tuple[int, ...]] = []  # each generator's images minus 1
    closure = {tuple(range(1, len(elements[0]) + 1))}
    for elem in elements:
        if elem in closure:
            continue
        gens.append(elem)
        new = tuple(v - 1 for v in elem)
        shifted.append(new)
        # h g lies in H for no h, since g does not.
        frontier = [tuple([p[v] for v in new]) for p in closure]
        closure.update(frontier)
        while frontier:
            nxt = []
            for p in frontier:
                for q in shifted:
                    r = tuple([p[v] for v in q])
                    if r not in closure:
                        closure.add(r)
                        nxt.append(r)
            frontier = nxt
    return tuple(gens)


def induced_two_subset_map(base: tuple[int, ...]) -> tuple[int, ...]:
    """Map on lexicographically ordered 2-subsets of {1..5} induced by base."""
    if sorted(base) != [1, 2, 3, 4, 5]:
        raise ValueError(f"base must permute 1..5, got {tuple(base)}")
    subsets = kneser_vertices(5, 2)
    index = {s: i + 1 for i, s in enumerate(subsets)}
    return tuple(index[tuple(sorted((base[a - 1], base[b - 1])))] for a, b in subsets)


def verify_s5_action(g: Graph) -> bool:
    """Check that permuting {1..5} accounts for every automorphism of g.

    The graph must have 10 vertices labeled by the 2-subsets of {1..5}
    in lexicographic order.  True iff all 120 base permutations induce
    pairwise distinct automorphisms and the full group has order 120,
    so the induced maps exhaust it.
    """
    if g.n != 10:
        raise ValueError(f"expected a 10-vertex graph, got n={g.n}")
    induced = [induced_two_subset_map(p) for p in permutations(range(1, 6))]
    if not all(is_automorphism(g, perm) for perm in induced):
        return False
    if len(set(induced)) != 120:
        return False
    return automorphism_group(g).order == 120
