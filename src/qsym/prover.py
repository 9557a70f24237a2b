"""Proof production for commutativity of the quantum automorphism algebra.

For graphs that are k-regular with no common neighbors across edges and
exactly one across non-edges (k at most 3), every ordered generator
pair (u[i,j], u[k,l]) either commutes or has vanishing products.  This
module emits certificates whose steps derive exactly that, so the
verifier can recheck everything independently.  A derivation emits
only the steps that carry information, row unity expansions, swaps of
certified commutations and the commutation lemma, and one combine that
cites them: the checker recovers every intermediate sum by local
reduction.  graphs.require_hypotheses defines the class, K1, K2, C5 and
Petersen, and refuses any other graph for the prover and the CLI.

The derivation has three layers.  First, commutation for every pair of
directed edges: u[i,j]u[k,l] is pinned against a row unity expansion
until it equals the palindrome u[i,j]u[k,l]u[i,j], and a star transport
turns that into commutation.  Second, the same palindrome trick for
pairs of non-edges, which needs the unique common neighbors of the row
and column pairs as a bridge and uses already-certified commutations to
shuffle factors.  Third, the remaining quadruples, which vanish or
commute directly by the defining relations.

The first two layers derive one quadruple per orbit of Aut x Aut,
acting by automorphisms on rows and columns separately: the orbit of
(i,j,k,l) is the product of the orbits of the pairs (i,k) and (j,l),
which graphs.pair_orbits computes from Aut's generators, as the
verifier does from the certificate's table.  A conclusion is its kind
and quadruple alone, and the verifier settles it on its orbit.  A swap
cites the commutation it uses as its orbit's derivation and two group
elements that rename the derived quadruple to the one it needs, so a
renamed commutation is never restated as a step of its own.  The table
lists Aut's generators first, then each element a swap cites, once, by
first use.  The certificate names its graph by format_graph_text, the
text the verifier compares with its own graph's.
"""

from __future__ import annotations

from .algebra import ROW, Poly, expand_unity, gen, monomial, star, u
from .autgroup import automorphism_group
from .certificate import (
    COMMUTES,
    FULL,
    QA5,
    ZERO_PRODUCT,
    Certificate,
    Combine,
    Conclusion,
    ExpandUnity,
    LemmaCom,
    ProofStep,
    Swap,
    scope_quadruples,
)
from .graphs import Graph, format_graph_text, pair_orbits, require_hypotheses
from .relations import local_reduce, swap_pair

def _single_word(p: Poly):
    """The word of a one-term, coefficient-1 polynomial, else None."""
    if len(p.terms) != 1:
        return None
    ((w, c),) = p.terms.items()
    if c != 1:
        return None
    return w


class ProofBuilder:
    """Accumulates proof steps with sequential ids for one graph, and
    the automorphism table: ``generators`` of a group of automorphisms,
    then what swaps cite.  The pair orbits are those of that group."""

    def __init__(self, g: Graph, generators=()):
        self.graph = g
        self.steps: list[ProofStep] = []
        self.generators = tuple(generators)
        self.automorphisms: dict[tuple[int, ...], int] = {}
        for images in self.generators:
            self.automorphism(images)
        self.orbits = pair_orbits(self.generators, g.n)

    def add(self, lhs: Poly, rhs: Poly, justification) -> int:
        sid = len(self.steps)
        self.steps.append(ProofStep(sid, lhs, rhs, justification))
        return sid

    def lemma_com(self, sid: int) -> int:
        """From a step claiming u[i,j]u[k,l] = u[i,j]u[k,l]u[i,j], derive commutation.

        The right side is a palindrome, hence star-invariant, so the left
        side must equal its own star.  Emits the single LemmaCom step
        claiming the commutation u[i,j]u[k,l] = u[k,l]u[i,j] and returns
        its id.
        """
        step = self.steps[sid]
        word_x = _single_word(step.lhs)
        word_y = _single_word(step.rhs)
        if word_x is None or word_y is None or len(word_x) != 2:
            raise ValueError(
                "commutation lemma needs a claim of the shape"
                " u[i,j]u[k,l] = u[i,j]u[k,l]u[i,j]"
            )
        if word_y != word_x + (word_x[0],):
            raise ValueError(
                "right side must be the left side times its own first factor"
            )
        return self.add(step.lhs, star(step.lhs), LemmaCom(sid))

    def expand_row(self, p: Poly, position: int, row: int) -> tuple[Poly, int]:
        """Insert the row-``row`` unity sum at ``position`` in every word
        of p; returns the new side and the id of the ExpandUnity step
        claiming that p equals it."""
        q = expand_unity(p, position, row, ROW, self.graph.n)
        return q, self.add(p, q, ExpandUnity(position, row, ROW))

    def swap(self, p: Poly, cite: tuple, position: int) -> tuple[Poly, int]:
        """Reverse, at ``position`` in every word of p, the pair whose
        commutation step sid claims with u[i,j] renamed to
        u[rows(i),cols(j)], where cite is (sid, rows, cols); returns the
        new side and the id of the Swap step claiming that p equals it."""
        sid, rows, cols = cite
        word = _single_word(self.steps[sid].lhs)
        a, b = (gen(rows[x.row - 1], cols[x.col - 1]) for x in word)
        q = swap_pair(p, position, a, b)
        just = Swap(sid, self.automorphism(rows), self.automorphism(cols), position)
        return q, self.add(p, q, just)

    def automorphism(self, images: tuple[int, ...]) -> int:
        """The table index of an automorphism, listing it on first use."""
        return self.automorphisms.setdefault(images, len(self.automorphisms))

    def transversal(self, pair) -> tuple[tuple[int, int], tuple[int, ...]]:
        """The least pair of pair's orbit, and a group element, in
        one-line form, that sends the least pair to pair."""
        least, via = self.orbits[pair]
        sigma = tuple(self.graph.vertices())
        while via is not None:  # sigma after the generators that reach pair
            pair, t = via
            sigma = tuple(sigma[v - 1] for v in self.generators[t])
            via = self.orbits[pair][1]
        return least, sigma

    def cite(self, family: dict, r1: int, c1: int, r2: int, c2: int) -> tuple:
        """(sid, rows, cols) for a swap of u[r1,c1] and u[r2,c2]: the
        step of ``family`` that derives the orbit of (r1, c1, r2, c2),
        and the elements that rename its quadruple to that one."""
        (rows, rho), (cols, kappa) = self.transversal((r1, r2)), self.transversal((c1, c2))
        return family[rows, cols], rho, kappa


def _unique_common_neighbor(g: Graph, a: int, b: int) -> int:
    cn = g.common_neighbors(a, b)
    if len(cn) != 1:
        raise ValueError(f"vertices {a}, {b} have {len(cn)} common neighbors, expected 1")
    return cn[0]


def _derive_edge_edge(bld: ProofBuilder, r1: int, c1: int, r2: int, c2: int) -> int:
    """Certify u[r1,c1]u[r2,c2] = u[r2,c2]u[r1,c1] for adjacent rows and columns.

    Expanding a row-r1 unity on the right leaves, after local reduction,
    the palindrome u[r1,c1]u[r2,c2]u[r1,c1] and survivors
    u[r1,c1]u[r2,c2]u[r1,s] over the other neighbors s of c2.  Each
    survivor dies: expanding a row-r2 unity inside u[r1,c1]u[r1,s]
    reduces to exactly that survivor, yet the unexpanded product is
    zero by row orthogonality.  So one combine of the first expansion,
    less the inner ones, gives the palindrome form.
    """
    g = bld.graph
    x0 = u(r1, c1) * u(r2, c2)
    expanded, first = bld.expand_row(x0, 2, r1)
    rest = local_reduce(g, expanded)
    terms = [(first, 1)]
    for s in g.neighbors(c2):
        if s == c1:
            continue
        inner, sid = bld.expand_row(u(r1, c1) * u(r1, s), 1, r2)
        survivor = monomial(((r1, c1), (r2, c2), (r1, s)))
        if local_reduce(g, inner) != survivor:
            raise AssertionError("inner expansion must reduce to the single survivor")
        rest = rest - survivor
        terms.append((sid, -1))
    palindrome = monomial(((r1, c1), (r2, c2), (r1, c1)))
    if rest != palindrome:
        raise AssertionError("edge-edge derivation did not reach the palindrome form")
    return bld.lemma_com(bld.add(x0, palindrome, Combine(tuple(terms))))


def _derive_family(bld: ProofBuilder, pairs, derive) -> dict:
    """Derive the commutation of one quadruple (r1, c1, r2, c2) per
    orbit of Aut x Aut with (r1, r2) and (c1, c2) in ``pairs``, which
    must be closed under the builder's group.  Returns the step ids of
    the derivations keyed by the orbit's least row pair and least column
    pair, as ProofBuilder.cite reads them.

    Aut x Aut acts on the rows and the columns separately, so an orbit
    of quadruples is an orbit of row pairs times an orbit of column
    pairs.  ``derive(bld, r1, c1, r2, c2)`` certifies the quadruple made
    of the two least pairs and returns its step id.
    """
    least = [p for p in sorted(pairs) if bld.orbits[p][0] == p]
    return {
        (rows, cols): derive(bld, rows[0], cols[0], rows[1], cols[1])
        for rows in least
        for cols in least
    }


def _kill_extra_neighbor(
    bld: ProofBuilder,
    r1: int,
    c1: int,
    r2: int,
    c2: int,
    s: int,
    t: int,
    q: int,
    edge_edge: dict,
) -> list[tuple[int, int]]:
    """Combine terms whose signed differences reduce to the word
    u[r1,c1]u[s,t]u[r2,c2]u[r1,q], for the extra neighbor q of t, so
    that citing them kills that word.

    A row-r2 unity expanded inside g3 = u[r1,c1]u[s,t]u[r1,q] survives
    only with middle columns c1 and c2.  The c1 survivor dies by column
    orthogonality after one certified swap, and g3 itself by row
    orthogonality after another; what is left is the target word.
    """
    g = bld.graph
    g3 = monomial(((r1, c1), (s, t), (r1, q)))
    expanded, z1 = bld.expand_row(g3, 2, r2)
    a_word = monomial(((r1, c1), (s, t), (r2, c1), (r1, q)))
    t_word = monomial(((r1, c1), (s, t), (r2, c2), (r1, q)))
    if local_reduce(g, expanded) != a_word + t_word:
        raise AssertionError("inner expansion has unexpected survivors")
    _, z2 = bld.swap(a_word, bld.cite(edge_edge, s, t, r2, c1), 1)
    _, z3 = bld.swap(g3, bld.cite(edge_edge, r1, c1, s, t), 0)
    return [(z1, -1), (z2, -1), (z3, 1)]


def _derive_nonedge(
    bld: ProofBuilder, r1: int, c1: int, r2: int, c2: int, edge_edge: dict
) -> int:
    """Certify u[r1,c1]u[r2,c2] = u[r2,c2]u[r1,c1] for two non-adjacent pairs.

    Uses the unique common neighbor s of the rows and t of the columns.
    ``edge_edge`` is the edge-edge family, as _derive_family returns it.
    Returns the id of the final commutation step.
    """
    g = bld.graph
    s = _unique_common_neighbor(g, r1, r2)
    t = _unique_common_neighbor(g, c1, c2)
    x0 = u(r1, c1) * u(r2, c2)

    # Pin the bridging factor: x0 = u[r1,c1]u[s,t]u[r2,c2].
    expanded, p1 = bld.expand_row(x0, 1, s)
    w1 = monomial(((r1, c1), (s, t), (r2, c2)))
    if local_reduce(g, expanded) != w1:
        raise AssertionError("bridge expansion must reduce to a single word")

    # Swing u[s,t] to the right, expand a trailing row-r1 unity, and
    # swing it back: x0 equals the sum over the neighbors p of t of
    # u[r1,c1]u[s,t]u[r2,c2]u[r1,p].
    bridge = bld.cite(edge_edge, s, t, r2, c2)
    w2, p2 = bld.swap(w1, bridge, 1)
    expanded, p3 = bld.expand_row(w2, 3, r1)
    rest, p4 = bld.swap(local_reduce(g, expanded), bridge, 1)
    terms = [(p1, 1), (p2, 1), (p3, 1), (p4, 1)]

    # The p = c2 term dies by column orthogonality, and any neighbor of
    # t beyond c1 and c2 by the swap argument.
    rest = rest - monomial(((r1, c1), (s, t), (r2, c2), (r1, c2)))
    for q in g.neighbors(t):
        if q == c1 or q == c2:
            continue
        terms += _kill_extra_neighbor(bld, r1, c1, r2, c2, s, t, q, edge_edge)
        rest = rest - monomial(((r1, c1), (s, t), (r2, c2), (r1, q)))
    witness = monomial(((r1, c1), (s, t), (r2, c2), (r1, c1)))
    if rest != witness:
        raise AssertionError("non-edge derivation did not isolate the bridge witness")

    # Replay the bridge expansion with the trailing factor in place to
    # trade the witness for the palindrome u[r1,c1]u[r2,c2]u[r1,c1].
    y = monomial(((r1, c1), (r2, c2), (r1, c1)))
    expanded, p5 = bld.expand_row(y, 1, s)
    if local_reduce(g, expanded) != witness:
        raise AssertionError("palindrome expansion must reduce to the bridge witness")
    terms.append((p5, -1))
    return bld.lemma_com(bld.add(x0, y, Combine(tuple(terms))))


def _pair_classes(g: Graph) -> list:
    """classes[i][k] for vertices i, k of g: 0 when i == k, 1 when i is
    adjacent to k, 2 when they are apart.

    u[i,j]u[k,l] commutes exactly when (i, k) and (j, l) are alike, in
    one class: both equal, when the two generators are one, or both
    adjacent or both apart, the two families the derivation covers.
    Otherwise the generators share a row or a column, or one pair is
    adjacent and the other apart, and the product vanishes.
    """
    vs, adj1 = g.vertices(), g.adj1
    return [()] + [[None] + [0 if i == k else 1 if adj1[i][k] else 2 for k in vs] for i in vs]


def _prove(g: Graph, scope: str) -> Certificate:
    """The certificate of either scope: derive the edge-edge family, and
    for FULL the non-edge family, then conclude on each quadruple of the
    scope in order."""
    require_hypotheses(g)
    bld = ProofBuilder(g, automorphism_group(g).generators)
    edge_edge = _derive_family(bld, g.directed_edges(), _derive_edge_edge)
    if scope == FULL:
        vs = g.vertices()
        nonedges = [(a, b) for a in vs for b in vs if a != b and not g.adj1[a][b]]
        _derive_family(
            bld, nonedges, lambda bld, *quad: _derive_nonedge(bld, *quad, edge_edge)
        )
    classes = _pair_classes(g)
    # Each record is built directly, without the constructor's checks:
    # its kind is one of the two constants and its indices are the ints
    # that the scope yields, so there is nothing to refuse.
    conclusions = [
        tuple.__new__(
            Conclusion, (COMMUTES if classes[i][k] == classes[j][l] else ZERO_PRODUCT, i, j, k, l)
        )
        for i, j, k, l in scope_quadruples(g, scope)
    ]
    return Certificate(format_graph_text(g), scope, tuple(bld.automorphisms), bld.steps, conclusions)


def derive_qa5(g: Graph) -> Certificate:
    """Certify commutation of u[i,j] and u[k,l] for all edges (i,k), (j,l).

    Raises as graphs.require_hypotheses does for a graph outside the
    class.  Conclusions are sorted by quadruple.
    """
    return _prove(g, QA5)


def prove_no_quantum_symmetry(g: Graph) -> Certificate:
    """Certify that every ordered generator pair commutes or vanishes.

    The conclusions classify all n^2 x n^2 ordered pairs
    (u[i,j], u[k,l]), one conclusion per quadruple in lexicographic
    order.  Raises as graphs.require_hypotheses does for a graph outside
    the class.
    """
    return _prove(g, FULL)
