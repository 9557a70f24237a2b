"""Proof production for commutativity of the quantum automorphism algebra.

For graphs that are k-regular with no common neighbors across edges and
exactly one across non-edges (k at most 3), every ordered generator
pair (u[i,j], u[k,l]) either commutes or has vanishing products.  This
module emits certificates whose steps derive exactly that, one small
justified equation at a time, so the verifier can recheck everything
independently.

The derivation has three layers.  First, commutation for every pair of
directed edges: u[i,j]u[k,l] is pinned against a row unity expansion
until it equals the palindrome u[i,j]u[k,l]u[i,j], and a star transport
turns that into commutation.  Second, the same palindrome trick for
pairs of non-edges, which needs the unique common neighbors of the row
and column pairs as a bridge and uses already-certified commutations to
shuffle factors.  Third, the remaining quadruples, which vanish or
commute directly by the defining relations.

The first two layers derive one quadruple per orbit of Aut x Aut,
acting by automorphisms on rows and columns separately.  Every
commuting conclusion of those layers cites its orbit's derivation and
two entries of the certificate's automorphism table under which the
derived claim is renamed to its own, the identity's entry twice for
the derived quadruple itself; the third layer's conclusions reduce to
zero by themselves and cite no step.  A swap cites the commutation it
uses the same way, so a renamed commutation is never restated as a
step of its own.  ProofBuilder lists each table entry once, by first
use.
"""

from __future__ import annotations

from .algebra import (
    ROW,
    Poly,
    expand_unity,
    gen,
    monomial,
    star,
    u,
)
from .autgroup import automorphism_group
from .certificate import (
    COMMUTES,
    FULL,
    QA5,
    ZERO_PRODUCT,
    Certificate,
    Conclusion,
    ExpandUnity,
    LemmaCom,
    LocalReduce,
    ProofStep,
    Substitution,
    Swap,
    graph_digest,
    scope_quadruples,
)
from .graphs import Graph, MooreReport, check_moore_conditions
from .relations import local_reduce, swap_pair

# The cross-term kill in the non-edge derivation relies on at most one
# neighbor of t besides the two column indices; k = 3 is the limit.
MAX_DEGREE = 3


class ConditionsNotMet(ValueError):
    """The graph fails the regularity or common-neighbor hypotheses."""

    def __init__(self, report: MooreReport):
        super().__init__(report.reason or "conditions not met")
        self.report = report


class UnsupportedDegree(ValueError):
    """The graph satisfies the hypotheses but its degree is too large."""

    def __init__(self, k: int):
        super().__init__(f"common degree k={k} exceeds the supported bound {MAX_DEGREE}")
        self.k = k


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
    the automorphism table that swaps and conclusions cite."""

    def __init__(self, g: Graph):
        self.graph = g
        self.steps: list[ProofStep] = []
        self.automorphisms: dict[tuple[int, ...], int] = {}

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


def _require_hypotheses(g: Graph) -> None:
    """Refuse g unless it meets the hypotheses with k <= MAX_DEGREE.

    Such a graph is K1, K2, C5 or Petersen (Hoffman and Singleton), so
    its automorphism group is small enough to list.
    """
    report = check_moore_conditions(g)
    if not report.holds:
        raise ConditionsNotMet(report)
    if report.k > MAX_DEGREE:
        raise UnsupportedDegree(report.k)


def _unique_common_neighbor(g: Graph, a: int, b: int) -> int:
    cn = g.common_neighbors(a, b)
    if len(cn) != 1:
        raise ValueError(f"vertices {a}, {b} have {len(cn)} common neighbors, expected 1")
    return cn[0]


def _derive_edge_edge(bld: ProofBuilder, r1: int, c1: int, r2: int, c2: int) -> int:
    """Certify u[r1,c1]u[r2,c2] = u[r2,c2]u[r1,c1] for adjacent rows and columns.

    Expanding a row-r1 unity on the right leaves survivors
    u[r1,c1]u[r2,c2]u[r1,s] over the neighbors s of c2.  Each survivor
    with s != c1 dies: expanding a row-r2 unity inside u[r1,c1]u[r1,s]
    reduces to exactly that survivor, yet the unexpanded product is
    zero by row orthogonality.  What remains is the palindrome form.
    """
    g = bld.graph
    n = g.n
    x0 = u(r1, c1) * u(r2, c2)
    a1_rhs = expand_unity(x0, 2, r1, ROW, n)
    a1 = bld.add(x0, a1_rhs, ExpandUnity(2, r1, ROW))
    a2_rhs = local_reduce(g, a1_rhs)
    a2 = bld.add(a1_rhs, a2_rhs, LocalReduce())
    cur = bld.add(x0, a2_rhs, Substitution(a1, a2))
    cur_rhs = a2_rhs
    for s in g.neighbors(c2):
        if s == c1:
            continue
        y = u(r1, c1) * u(r1, s)
        b1_rhs = expand_unity(y, 1, r2, ROW, n)
        b1 = bld.add(y, b1_rhs, ExpandUnity(1, r2, ROW))
        survivor = monomial(((r1, c1), (r2, c2), (r1, s)))
        if local_reduce(g, b1_rhs) != survivor:
            raise AssertionError("inner expansion must reduce to the single survivor")
        b2 = bld.add(b1_rhs, survivor, LocalReduce())
        b3 = bld.add(y, Poly.zero(), LocalReduce())
        b4a = bld.add(y, survivor, Substitution(b2, b1))
        b4b = bld.add(survivor, Poly.zero(), Substitution(b3, b4a, -1))
        cur_rhs = cur_rhs - survivor
        cur = bld.add(x0, cur_rhs, Substitution(cur, b4b))
    if cur_rhs != monomial(((r1, c1), (r2, c2), (r1, c1))):
        raise AssertionError("edge-edge derivation did not reach the palindrome form")
    return bld.lemma_com(cur)


def _orbit_maps(pairs, symmetries) -> dict:
    """Map each vertex pair to the first pair of its orbit and the first
    symmetry sending that pair onto it.

    ``pairs`` must be closed under ``symmetries``, which must list the
    identity first, so each first pair maps to itself by the identity.
    """
    out = {}
    for p in sorted(pairs):
        if p in out:
            continue
        for sigma in symmetries:
            out.setdefault((sigma[p[0] - 1], sigma[p[1] - 1]), (p, sigma))
    return out


def _derive_family(bld: ProofBuilder, pairs, symmetries, derive) -> dict:
    """How to certify commutation of every quadruple (r1, c1, r2, c2)
    with (r1, r2) and (c1, c2) in ``pairs``, keyed by the quadruple.

    Aut x Aut acts on the rows and the columns separately, so an orbit
    of quadruples is an orbit of row pairs times an orbit of column
    pairs.  ``derive(bld, r1, c1, r2, c2)`` certifies the first
    quadruple of each orbit and returns its step id.  Each quadruple
    maps to (step id, rho, kappa): the derivation of its orbit and the
    first symmetries that rename that claim to its own, two identities
    for the first quadruple itself.
    """
    orbit = _orbit_maps(pairs, symmetries)
    ordered = sorted(orbit)
    derived = {}
    table = {}
    for r1, r2 in ordered:
        (q1, q2), sigma = orbit[(r1, r2)]
        for c1, c2 in ordered:
            (d1, d2), tau = orbit[(c1, c2)]
            rep = (q1, d1, q2, d2)
            if rep not in derived:
                derived[rep] = derive(bld, *rep)
            table[(r1, c1, r2, c2)] = (derived[rep], sigma, tau)
    return table


def _derive_all_edge_edge(bld: ProofBuilder, symmetries) -> dict:
    """How to certify commutation of every quadruple of two directed edges."""
    return _derive_family(bld, bld.graph.directed_edges(), symmetries, _derive_edge_edge)


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
) -> int:
    """Certify u[r1,c1]u[s,t]u[r2,c2]u[r1,q] = 0 for the extra neighbor q of t.

    A row-r2 unity expanded inside u[r1,c1]u[s,t]u[r1,q] survives only
    with middle columns c1 and c2.  The c1 survivor dies by column
    orthogonality after one certified swap, identifying the target term
    with the unexpanded product, which itself dies by row orthogonality
    after another swap.
    """
    g = bld.graph
    n = g.n
    g3 = monomial(((r1, c1), (s, t), (r1, q)))
    z1_rhs = expand_unity(g3, 2, r2, ROW, n)
    z1 = bld.add(g3, z1_rhs, ExpandUnity(2, r2, ROW))
    a_word = monomial(((r1, c1), (s, t), (r2, c1), (r1, q)))
    t_word = monomial(((r1, c1), (s, t), (r2, c2), (r1, q)))
    z2_rhs = local_reduce(g, z1_rhs)
    if z2_rhs != a_word + t_word:
        raise AssertionError("inner expansion has unexpected survivors")
    z2 = bld.add(z1_rhs, z2_rhs, LocalReduce())
    a_swapped, z3 = bld.swap(a_word, edge_edge[(s, t, r2, c1)], 1)
    z4 = bld.add(a_swapped, Poly.zero(), LocalReduce())
    z5 = bld.add(a_word, Poly.zero(), Substitution(z3, z4))
    z6 = bld.add(z1_rhs, t_word, Substitution(z2, z5))
    z7 = bld.add(g3, t_word, Substitution(z1, z6))
    g3_swapped, z8 = bld.swap(g3, edge_edge[(r1, c1, s, t)], 0)
    z9 = bld.add(g3_swapped, Poly.zero(), LocalReduce())
    z10 = bld.add(g3, Poly.zero(), Substitution(z8, z9))
    return bld.add(t_word, Poly.zero(), Substitution(z10, z7, -1))


def _derive_nonedge(
    bld: ProofBuilder, r1: int, c1: int, r2: int, c2: int, edge_edge: dict
) -> int:
    """Certify u[r1,c1]u[r2,c2] = u[r2,c2]u[r1,c1] for two non-adjacent pairs.

    Uses the unique common neighbor s of the rows and t of the columns.
    ``edge_edge`` maps each edge-edge quadruple to (step id, rows, cols):
    a step whose claim, renamed under those two automorphisms, is the
    commutation of that quadruple.  Returns the id of the final
    commutation step.
    """
    g = bld.graph
    n = g.n
    s = _unique_common_neighbor(g, r1, r2)
    t = _unique_common_neighbor(g, c1, c2)
    x0 = u(r1, c1) * u(r2, c2)

    # Pin the bridging factor: x0 = u[r1,c1]u[s,t]u[r2,c2].
    p1a_rhs = expand_unity(x0, 1, s, ROW, n)
    p1a = bld.add(x0, p1a_rhs, ExpandUnity(1, s, ROW))
    w1 = monomial(((r1, c1), (s, t), (r2, c2)))
    if local_reduce(g, p1a_rhs) != w1:
        raise AssertionError("bridge expansion must reduce to a single word")
    p1b = bld.add(p1a_rhs, w1, LocalReduce())
    cur = bld.add(x0, w1, Substitution(p1a, p1b))

    # Swing u[s,t] to the right, expand a trailing row-r1 unity, and
    # swing it back: x0 equals the sum over the neighbors p of t of
    # u[r1,c1]u[s,t]u[r2,c2]u[r1,p].
    bridge = edge_edge[(s, t, r2, c2)]
    w2, p2a = bld.swap(w1, bridge, 1)
    p2b_rhs = expand_unity(w2, 3, r1, ROW, n)
    p2b = bld.add(w2, p2b_rhs, ExpandUnity(3, r1, ROW))
    sum_fwd = local_reduce(g, p2b_rhs)
    p2c = bld.add(p2b_rhs, sum_fwd, LocalReduce())
    p2d = bld.add(w2, sum_fwd, Substitution(p2b, p2c))
    sum_back, p2e = bld.swap(sum_fwd, bridge, 1)
    cur = bld.add(x0, w2, Substitution(cur, p2a))
    cur = bld.add(x0, sum_fwd, Substitution(cur, p2d))
    cur = bld.add(x0, sum_back, Substitution(cur, p2e))
    cur_rhs = sum_back

    # The p = c2 term dies by column orthogonality.
    v = monomial(((r1, c1), (s, t), (r2, c2), (r1, c2)))
    p3a = bld.add(v, Poly.zero(), LocalReduce())
    cur_rhs = cur_rhs - v
    cur = bld.add(x0, cur_rhs, Substitution(cur, p3a))

    # Any neighbor of t beyond c1 and c2 dies by the swap argument.
    for q in g.neighbors(t):
        if q == c1 or q == c2:
            continue
        zq = _kill_extra_neighbor(bld, r1, c1, r2, c2, s, t, q, edge_edge)
        t_word = monomial(((r1, c1), (s, t), (r2, c2), (r1, q)))
        cur_rhs = cur_rhs - t_word
        cur = bld.add(x0, cur_rhs, Substitution(cur, zq))

    witness = monomial(((r1, c1), (s, t), (r2, c2), (r1, c1)))
    if cur_rhs != witness:
        raise AssertionError("non-edge derivation did not isolate the bridge witness")

    # Replay the bridge expansion with the trailing factor in place to
    # trade the witness for the palindrome u[r1,c1]u[r2,c2]u[r1,c1].
    y = monomial(((r1, c1), (r2, c2), (r1, c1)))
    p4a_rhs = expand_unity(y, 1, s, ROW, n)
    p4a = bld.add(y, p4a_rhs, ExpandUnity(1, s, ROW))
    if local_reduce(g, p4a_rhs) != witness:
        raise AssertionError("palindrome expansion must reduce to the bridge witness")
    p4b = bld.add(p4a_rhs, witness, LocalReduce())
    p4c = bld.add(y, witness, Substitution(p4a, p4b))
    final = bld.add(x0, y, Substitution(cur, p4c, -1))
    return bld.lemma_com(final)


def _prove(g: Graph, scope: str) -> Certificate:
    """The certificate of either scope: derive the edge-edge family, and
    for FULL the non-edge family, then conclude on each quadruple of the
    scope in order."""
    _require_hypotheses(g)
    bld = ProofBuilder(g)
    symmetries = automorphism_group(g).elements
    adj1 = g.adj1
    commuting = edge_edge = _derive_all_edge_edge(bld, symmetries)
    if scope == FULL:
        vs = g.vertices()
        nonedges = [(a, b) for a in vs for b in vs if a != b and not adj1[a][b]]
        commuting = edge_edge | _derive_family(
            bld,
            nonedges,
            symmetries,
            lambda bld, r1, c1, r2, c2: _derive_nonedge(bld, r1, c1, r2, c2, edge_edge),
        )
    conclusions = []
    for quad in scope_quadruples(g, scope):
        i, j, k, l = quad
        if i == k and j == l:
            conclusions.append(Conclusion(COMMUTES, *quad))
        elif i == k or j == l or bool(adj1[i][k]) != bool(adj1[j][l]):
            conclusions.append(Conclusion(ZERO_PRODUCT, *quad))
        else:
            sid, rows, cols = commuting[quad]
            r, c = bld.automorphism(rows), bld.automorphism(cols)
            conclusions.append(Conclusion(COMMUTES, *quad, sid, r, c))
    return Certificate(graph_digest(g), scope, tuple(bld.automorphisms), bld.steps, conclusions)


def derive_qa5(g: Graph) -> Certificate:
    """Certify commutation of u[i,j] and u[k,l] for all edges (i,k), (j,l).

    Requires the regularity and common-neighbor hypotheses and common
    degree at most 3; raises ConditionsNotMet or UnsupportedDegree
    otherwise.  Conclusions are sorted by quadruple.
    """
    return _prove(g, QA5)


def prove_no_quantum_symmetry(g: Graph) -> Certificate:
    """Certify that every ordered generator pair commutes or vanishes.

    The conclusions classify all n^2 x n^2 ordered pairs
    (u[i,j], u[k,l]), one conclusion per quadruple in lexicographic
    order.  Requires the regularity and common-neighbor hypotheses and
    common degree at most 3; raises ConditionsNotMet or
    UnsupportedDegree otherwise.
    """
    return _prove(g, FULL)
