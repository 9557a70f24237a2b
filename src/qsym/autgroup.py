"""Classical graph automorphisms by a coset-pruned backtracking search.

The automorphisms whose images of 1..d are a fixed prefix form a left
coset of H_d, the pointwise stabiliser of 1..d, and H_d itself, the
identity prefix, is the first of these in lexicographic order.  So the
search descends in full only along identity prefixes, deepest first,
and at every other prefix completes just the lexicographically least
automorphism: by then the closure of the generators kept so far holds
H_d, so it holds that whole coset exactly when it holds its first
element.  This is Sims's coset-representative idea (1970), applied to a
search tree as automorphism pruning.

Sized for small graphs: every group it returns lists its elements, the
closure of its generators, so it refuses a graph of more than
MAX_AUT_VERTICES vertices before it starts, and stops with ValueError
once that closure holds more than MAX_AUT_ORDER elements.
"""

from __future__ import annotations

from itertools import permutations
from operator import itemgetter
from typing import NamedTuple

from .graphs import Graph, is_automorphism, kneser_vertices

# The search can still backtrack exponentially; refuse beyond this.
MAX_AUT_VERTICES = 16
# Every element is kept, so the closure stops past this many.
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


def _refuse_past_bound(count: int):
    if count > MAX_AUT_ORDER:
        raise ValueError(f"automorphism group has more than {MAX_AUT_ORDER} elements")


def _after(x: tuple[int, ...]) -> itemgetter:
    """The map p to p after x, ``tuple(p[v - 1] for v in x)``, in one C
    call.  It returns a tuple only for degree 2 or more; a group of
    smaller degree is trivial, so nothing is ever adjoined to it."""
    return itemgetter(*[v - 1 for v in x])


def _adjoin(closure: set, steps: list, elem: tuple[int, ...]):
    """Extend closure, a group H, to the group that elem makes with it.

    This is Dimino's algorithm.  The new group is a union of cosets
    H x = {h after x : h in H}, and H x after a generator s is the coset
    H (x after s), so a search over coset representatives, each taken
    after every generator, lists it a whole coset at a time.  steps
    holds the map p to p after s for each generator s kept so far;
    elem's is appended.  Raises ValueError, before building it, at the
    coset that would take the closure past MAX_AUT_ORDER elements.
    """
    base = tuple(closure)
    steps.append(_after(elem))
    reps: list[tuple[int, ...]] = []

    def take(x):
        _refuse_past_bound(len(closure) + len(base))
        closure.update(map(_after(x), base))
        reps.append(x)

    take(elem)
    for rep in reps:  # reps grows while it is walked
        for step in steps:
            x = step(rep)
            if x not in closure:
                take(x)


def automorphism_group(g: Graph) -> AutGroup:
    """Aut(g), its elements in lexicographic order of their one-line form.

    The generators are the greedy generating set of those elements: each
    is the first element that the ones before it do not generate.  The
    search meets the first element of each coset in that order (see the
    module docstring), so it adjoins the very same ones.

    Raises ValueError when g has more than MAX_AUT_VERTICES vertices,
    or more than MAX_AUT_ORDER automorphisms.
    """
    if g.n > MAX_AUT_VERTICES:
        raise ValueError(
            f"automorphism search supports at most {MAX_AUT_VERTICES} vertices, got {g.n}"
        )
    n = g.n
    inv = _invariant_classes(g)
    candidates = [()] + [
        tuple(w for w in g.vertices() if inv[w] == inv[u]) for u in g.vertices()
    ]
    # Vertex sets as bitmasks, bit v for vertex v.  Images of 1..u-1 are
    # placed; u may go to w when w's neighbours among them are exactly
    # the images of u's neighbours among 1..u-1.
    nbrs = [0] + [sum(1 << v for v in g.neighbors(u)) for u in g.vertices()]
    earlier = [()] + [tuple(v for v in g.neighbors(u) if v < u) for u in g.vertices()]
    img = list(range(n + 1))

    def least(u: int, placed: int, images: tuple[int, ...]):
        """The least automorphism that extends img[1..u-1] and maps u
        into images, or None."""
        want = 0
        for v in earlier[u]:
            want |= 1 << img[v]
        for w in images:
            bit = 1 << w
            if not placed & bit and nbrs[w] & placed == want:
                img[u] = w
                if u == n:
                    return tuple(img[1:])
                found = least(u + 1, placed | bit, candidates[u + 1])
                if found is not None:
                    return found
        return None

    gens: list[tuple[int, ...]] = []
    steps: list[itemgetter] = []  # p to p after each generator
    closure = {tuple(range(1, n + 1))}
    _refuse_past_bound(len(closure))
    # Deepest first: at u, img[1..u-1] is still the identity, whose
    # subtree with u fixed was done at u + 1, so only larger images remain.
    for u in range(n, 0, -1):
        for w in candidates[u]:
            if w > u:
                elem = least(u, (1 << u) - 2, (w,))
                if elem is not None and elem not in closure:
                    gens.append(elem)
                    _adjoin(closure, steps, elem)
    elements = tuple(sorted(closure))
    return AutGroup(order=len(elements), generators=tuple(gens), elements=elements)


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
