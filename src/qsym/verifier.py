"""Independent rechecking of commutativity certificates.

The checker shares only the algebra primitives, the certificate's
scope columns, the graph's text writer, automorphism test and pair orbit
function with the prover; it imports nothing of the automorphism
search.  Every rule is a lookup, not a search: a justification names
what it cites, so each check is an exact recomputation, an equality or
one local reduction.  The checker reads the table, then the steps in
id order, then the conclusions in scope order, and an invalid report
names the first failing table entry, step or conclusion.  That each
step has one of the four rules, with fields of the right types, and
cites only earlier steps is a Certificate's invariant; the only
exception verify_certificate raises is GraphMismatch, for another
graph's certificate: one whose graph_text is not format_graph_text of
the graph, compared as strings for exact equality.  A rule's claim
holds in the quotient when the claims it cites do, so by induction
every checked claim holds.

Every table entry is checked, before any step, to be a permutation of
1..n that is an automorphism of the graph.  Renaming every u[i,j] to
u[rho(i),kappa(j)], for automorphisms rho and kappa, acts letter by
letter, so it is an invertible algebra map of the free *-algebra that
commutes with star.  It sends each defining relation instance to
another: orthogonality, idempotence and self-adjointness to their
renamed instances, a row or column unity sum to another such sum, and
each adjacency vanishing instance, picked out by adjacency of its rows
and non-adjacency of its columns or the reverse, to another, since
automorphisms preserve both.  So it is a *-automorphism of the
quotient, and a claim that holds there holds renamed; under a
permutation that is not an automorphism it can fail, and the entry is
refused.  Products of entries are automorphisms too, so this holds for
any two elements of the group G that the table generates.

A swap reverses a pair whose commutation an earlier, checked step
claims, renamed under two table entries: claim_quadruple decodes that
claim into (kind, a, b, c, d), and the renaming on integers, (kind,
rho(a), kappa(b), rho(c), kappa(d)), is the polynomial renaming, which
is injective on words, keeps coefficients, commutes with reversal and
fixes zero.  Multiplying the renamed commutation on the left and right
by the rest of a word, and summing with the coefficients of lhs, gives
lhs = rhs exactly when rhs is lhs with that pair reversed at the swap's
position in every word.  That is all the rule checks.

A combine is accepted when D = lhs - rhs - sum of c * (lhs_s - rhs_s)
over its terms (s, c) has local_reduce zero.  local_reduce is linear
and rewrites only by defining relations, so D - local_reduce(D) lies in
the ideal they generate, and then so does D; the cited differences lie
in it since their steps were checked first, and so does lhs - rhs.  D
is summed in one dictionary, in time linear in the cited terms.

The conclusions must name the quadruples of the scope in lexicographic
order, each exactly once, so a valid full certificate classifies every
ordered generator pair and proves the algebra commutative.  A
conclusion cites nothing.  G x G renames rows and columns separately,
so the orbit of (i,j,k,l) is orbit(i,k) x orbit(j,l), a product of two
orbits of G on ordered vertex pairs, and a claim that holds at one
quadruple of a product holds at all of it.  The conclusions are read
as columns: their quadruple columns must equal the scope's, and the
(kind, product) pairs that occur are collected, each product found by
indexing rows of least pairs built once from the pair orbits.  Only
when a check fails are they walked one at a time, to name the first
that fails.  Each (kind, product) is decided once: by a checked step
whose claim_quadruple is of that kind and lies in the product, or else
on words at the product's first quadruple.  There the claim is
u[i,j]u[k,l] against its reverse (a commutation) or against zero (a
zero product), and local_reduce of its difference is zero exactly when
the word rewrites to zero, or when the word and its reverse have the
same normal form or both rewrite to zero.  _reduce_word gives a word's
normal form, or None for zero, so comparing two results, or testing
one for None, is that check without building a polynomial.  A table
that generates only part of Aut gives finer orbits, which need more
steps and never settle a false claim.  A graph of more than
MAX_DEGREE**2 + 1 = 10 vertices, which the prover never takes, is
refused at "graph" first, so the orbits and the scope stay small
whatever the file holds.
"""

from __future__ import annotations

from operator import getitem
from typing import NamedTuple, Optional

from .algebra import Poly, check_gen_bounds, expand_unity, gen, star
from .certificate import (
    COMMUTES,
    FULL,
    ZERO_PRODUCT,
    Certificate,
    Combine,
    ExpandUnity,
    ProofStep,
    Swap,
    claim_quadruple,
    scope_columns,
    scope_size,
)
from .graphs import MAX_DEGREE, Graph, format_graph_text, is_automorphism, pair_orbits
from .relations import _reduce_word, local_reduce, swap_pair


class GraphMismatch(ValueError):
    """The certificate was produced for a different graph."""


class VerificationReport(NamedTuple):
    """Outcome of a full certificate check."""

    valid: bool
    steps_checked: int
    conclusions_checked: int
    first_failure: Optional[int] = None  # id of the failing step
    reason: Optional[str] = None
    # Where the check failed: "graph", "automorphism a", "step s" or "conclusion c".
    location: Optional[str] = None


def _check_step(g: Graph, cert: Certificate, step: ProofStep) -> Optional[str]:
    """Recheck one step of cert; returns a failure reason or None.

    Raises ValueError, which the caller reports as the reason, for a
    side naming a generator outside u[1..n,1..n], whatever the rule.
    """
    check_gen_bounds(step.lhs, g.n)
    check_gen_bounds(step.rhs, g.n)
    steps = cert.steps
    just = step.justification
    if isinstance(just, ExpandUnity):
        expected = expand_unity(step.lhs, just.position, just.index, just.side, g.n)
        if step.rhs != expected:
            return "right side is not the stated unity expansion of the left"
        return None
    if isinstance(just, Swap):
        table = cert.automorphisms
        for t in (just.rows, just.cols):
            if t >= len(table):
                return f"cites missing automorphism {t}"
        ref = steps[just.step]
        cited = claim_quadruple(ref.lhs, ref.rhs)
        if cited is None or cited[0] != COMMUTES:
            return f"step {just.step} claims no commutation of two generators"
        _, a, b, c, d = cited
        rho, kappa = table[just.rows], table[just.cols]
        pair = gen(rho[a - 1], kappa[b - 1]), gen(rho[c - 1], kappa[d - 1])
        if step.rhs != swap_pair(step.lhs, just.position, *pair):
            return f"right side is not the left side with the pair at {just.position} reversed"
        return None
    if isinstance(just, Combine):
        d: dict = {}
        for ref, k in [(step, 1)] + [(steps[s], -c) for s, c in just.terms]:
            for side, sign in ((ref.lhs, k), (ref.rhs, -k)):
                for w, coeff in side.terms.items():
                    d[w] = d.get(w, 0) + sign * coeff
        if not local_reduce(g, Poly._from_dict({w: c for w, c in d.items() if c})).is_zero:
            cited = [s for s, _ in just.terms]
            return f"lhs - rhs less the combination of steps {cited} does not reduce to zero"
        return None
    # A LemmaCom: a Certificate's steps have only the four rules.
    ref = steps[just.step]
    if star(ref.rhs) != ref.rhs:
        return f"right side of step {just.step} is not star-invariant"
    if step.lhs != ref.lhs or step.rhs != star(ref.lhs):
        return f"claim is not the star transport of step {just.step}"
    return None


class _Products(dict):
    """Verdicts on orbit products, keyed by (kind, least pair of the
    orbit of (i, k), least pair of the orbit of (j, l)) under the group
    cert's table generates, and ``rows``, where rows[i][k] is the least
    pair of the orbit of (i, k) for vertices i, k of g.  Build it only
    once the table and every step are checked.

    The products that a step claims hold from the start.  Any other key
    is decided on words at its first quadruple when it is first read,
    and kept, so each (kind, product) is decided once and a key already
    decided is read without a Python call.
    """

    def __init__(self, g: Graph, cert: Certificate):
        orbits = pair_orbits(cert.automorphisms, g.n)
        vs = g.vertices()
        # Row 0 and column 0 pad 1-based lookups, as in Graph.adj1.
        self.rows = [()] + [[None] + [orbits[i, k][0] for k in vs] for i in vs]
        self.adj1, self.n = g.adj1, g.n
        for step in cert.steps:
            claim = claim_quadruple(step.lhs, step.rhs)
            if claim is not None:
                self[self.key(*claim)] = True

    def key(self, kind, i, j, k, l) -> tuple:
        return kind, self.rows[i][k], self.rows[j][l]

    def __missing__(self, key) -> bool:
        kind, (i, k), (j, l) = key  # the product's first quadruple
        a, b = gen(i, j), gen(k, l)
        ab = _reduce_word(self.adj1, self.n, (a, b))
        if kind == ZERO_PRODUCT:
            verdict = ab is None
        else:
            verdict = ab == _reduce_word(self.adj1, self.n, (b, a))
        self[key] = verdict
        return verdict


def verify_certificate(g: Graph, cert: Certificate) -> VerificationReport:
    """Recheck every table entry, step and conclusion of cert against g,
    and that the conclusions cover the certificate's scope."""
    if g.n > MAX_DEGREE**2 + 1:
        reason = f"the graph has {g.n} vertices; no graph of the class has more than 10"
        return VerificationReport(False, 0, 0, location="graph", reason=reason)
    if cert.graph_text != format_graph_text(g):
        raise GraphMismatch("certificate is for another graph")

    for idx, images in enumerate(cert.automorphisms):
        try:
            reason = None if is_automorphism(g, images) else "not an automorphism of the graph"
        except ValueError as exc:
            reason = str(exc)
        if reason is not None:
            return VerificationReport(
                valid=False,
                steps_checked=0,
                conclusions_checked=0,
                location=f"automorphism {idx}",
                reason=reason,
            )

    steps = cert.steps
    for step in steps:
        try:
            reason = _check_step(g, cert, step)
        except ValueError as exc:
            reason = str(exc)
        if reason is not None:
            return VerificationReport(
                valid=False,
                steps_checked=step.id,
                conclusions_checked=0,
                first_failure=step.id,
                location=f"step {step.id}",
                reason=reason,
            )

    products = _Products(g, cert)
    rows = products.rows
    scope = scope_columns(g, cert.scope)
    kinds, ci, cj, ck, cl = cert.conclusions.columns
    if (ci, cj, ck, cl) == scope:
        # All in place: decide each (kind, product) that occurs, once.
        if cert.scope == FULL:
            # The kinds fall in runs over l = 1..n, one per (i, j, k); runs alike
            # in kinds, orbit of (i, k) and j give the same keys, expanded once.
            n = g.n
            iks = map(getitem, map(rows.__getitem__, ci[::n]), ck[::n])
            runs = set(zip(zip(*[iter(kinds)] * n), iks, cj[::n]))
            occurring = {
                (kind, ik, rows[j][l]) for run, ik, j in runs for l, kind in enumerate(run, 1)
            }
        else:
            iks = map(getitem, map(rows.__getitem__, ci), ck)
            occurring = set(zip(kinds, iks, map(getitem, map(rows.__getitem__, cj), cl)))
        if all(map(products.__getitem__, occurring)):
            return VerificationReport(True, len(steps), len(kinds))
    # Some conclusion fails: walk them in scope order to name the first.
    for idx, (kind, i, j, k, l, place) in enumerate(zip(kinds, ci, cj, ck, cl, zip(*scope))):
        if (i, j, k, l) != place:
            reason = "is out of place: quadruple {},{},{},{} belongs here".format(*place)
        elif not products[kind, rows[i][k], rows[j][l]]:
            reason = "holds neither by a step nor by reduction on its orbit product"
        else:
            continue
        return VerificationReport(
            valid=False,
            steps_checked=len(steps),
            conclusions_checked=idx,
            location=f"conclusion {idx}",
            reason=f"conclusion {idx} ({kind} {i},{j},{k},{l}) {reason}",
        )
    # Each conclusion there is holds in its place: the list is too short or long.
    n_quads = scope_size(g, cert.scope)
    idx = min(len(kinds), n_quads)
    reason = f"{len(kinds)} conclusions for the {n_quads} quadruples of the {cert.scope} scope"
    return VerificationReport(False, len(steps), idx, location=f"conclusion {idx}", reason=reason)
