"""Independent rechecking of commutativity certificates.

The checker shares only the algebra primitives, the certificate's
scope order and the graph's automorphism test with the prover; it
imports nothing of the automorphism search.  Each step is reverified
from its justification and earlier steps, never from how the prover
happened to emit it.  Every rule is a lookup, not a search: the
justification names the cited steps and their coefficients, so each
check is an exact recomputation, an equality or one local reduction.

Steps are checked in id order, and a rule's claim holds in the quotient
when the claims it cites do, so by induction every checked claim holds.
That each step cites only earlier ones is a Certificate's invariant,
not a check here; the only exception verify_certificate raises is
DigestMismatch, for another graph's certificate.  Defects of content
produce an invalid report whose location names the first failing table
entry, step or conclusion, in that order of checking.

Each conclusion's claim is rechecked from its own justification: its
difference reduces to zero, or it equals the claim of a cited step
renamed under two entries of the certificate's automorphism table.
The conclusions must name the quadruples of the certificate's scope in
lexicographic order, each exactly once, so a valid full certificate
classifies every ordered generator pair and proves the quantum
automorphism algebra commutative.

A swap reverses a pair whose commutation an earlier step claims,
renamed under two entries rho and kappa of the automorphism table as a
conclusion that cites a step is.  _renamed, the checker's only
renaming, maps a claim decoded by claim_quadruple, (kind, a, b, c, d),
to (kind, rho(a), kappa(b), rho(c), kappa(d)) on integers, and refuses
an entry the table lacks.  Every entry is checked, once and before any
step, to be a permutation of 1..n that is an automorphism of the graph.
Renaming every u[i,j] to u[rho(i),kappa(j)] acts letter by letter, so
it is an invertible algebra map of the free *-algebra that commutes
with star.  It sends each defining relation instance to another:
orthogonality, idempotence and self-adjointness to their renamed
instances, a row or column unity sum to another such sum, and each
adjacency vanishing instance, picked out by adjacency of its rows and
non-adjacency of its columns or the reverse, to another, since
automorphisms preserve both.  So the renaming is a *-automorphism of
the quotient, and a claim that holds there holds renamed; under a
permutation that is not an automorphism it can fail, and the entry is
refused.  Comparing tuples is comparing the renamed polynomials:
renaming is injective on words, keeps coefficients, commutes with
reversal and fixes zero, and Conclusion.claim is injective in (kind,
quadruple).

Commutation is not a defining relation: the step a swap cites is
checked first, and its renamed claim must be u[a,b]u[c,d] =
u[c,d]u[a,b], so it holds in the quotient.  Multiplying it on the left
and right by the rest of a word, and summing with the coefficients of
lhs, gives lhs = rhs exactly when rhs is lhs with the pair at the
swap's position reversed in every word, and that pair is u[a,b]u[c,d]
or u[c,d]u[a,b] in every word.  That is all the rule checks.

A combine is accepted when D = lhs - rhs - sum of c * (lhs_s - rhs_s)
over its terms (s, c) has local_reduce zero.  local_reduce is linear
and rewrites only by defining relations, so D - local_reduce(D) lies in
the ideal they generate, and then so does D; the cited differences lie
in it since their steps were checked first, and so does lhs - rhs.

A conclusion with no step is decided on words.  Its claim is the word
u[i,j]u[k,l] with coefficient 1 against its reverse u[k,l]u[i,j] with
coefficient 1 (a commutation), or against zero (a zero product).
local_reduce rewrites each word of lhs - rhs to its normal form, or
drops it when it rewrites to zero, and adds the coefficients of equal
normal forms.  A zero product's difference therefore reduces to zero
exactly when its word rewrites to zero.  A commutation's difference
reduces to zero exactly when the word and its reverse have the same
normal form or both rewrite to zero: the coefficients 1 and -1 then
cancel or vanish, and otherwise a term survives; when i = k and j = l
the word is its own reverse and the difference is zero already.
_reduce_word gives that normal form of one word, or None for zero, so
comparing its results for (u[i,j], u[k,l]) and (u[k,l], u[i,j]), or
testing the first for None, is the check local_reduce makes, without
building either polynomial.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .algebra import check_gen_bounds, expand_unity, gen, star
from .certificate import (
    COMMUTES,
    ZERO_PRODUCT,
    Certificate,
    Conclusion,
    Combine,
    ExpandUnity,
    LemmaCom,
    ProofStep,
    Swap,
    claim_quadruple,
    graph_digest,
    scope_quadruples,
)
from .graphs import Graph, is_automorphism
from .relations import _reduce_word, local_reduce, swap_pair


class DigestMismatch(ValueError):
    """The certificate was produced for a different graph."""


class VerificationReport(NamedTuple):
    """Outcome of a full certificate check."""

    valid: bool
    steps_checked: int
    conclusions_checked: int
    first_failure: Optional[int] = None  # id of the failing step
    reason: Optional[str] = None
    # Where the check failed: "step s", "conclusion c" or "automorphism a".
    location: Optional[str] = None


def _renamed(table, claim, rows: int, cols: int):
    """A decoded claim, or None, renamed under table entries ``rows``
    and ``cols``.  Raises ValueError, which callers report as the
    reason, for an entry the table lacks."""
    for t in (rows, cols):
        if t >= len(table):
            raise ValueError(f"cites missing automorphism {t}")
    if claim is None:
        return None
    kind, a, b, c, d = claim
    rho, kappa = table[rows], table[cols]
    return kind, rho[a - 1], kappa[b - 1], rho[c - 1], kappa[d - 1]


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
        ref = steps[just.step]
        cited = claim_quadruple(ref.lhs, ref.rhs)
        cited = _renamed(cert.automorphisms, cited, just.rows, just.cols)
        if cited is None or cited[0] != COMMUTES:
            return f"step {just.step} claims no commutation of two generators"
        _, a, b, c, d = cited
        if step.rhs != swap_pair(step.lhs, just.position, gen(a, b), gen(c, d)):
            return f"right side is not the left side with the pair at {just.position} reversed"
        return None
    if isinstance(just, Combine):
        d = step.lhs - step.rhs
        for s, c in just.terms:
            d = d - c * (steps[s].lhs - steps[s].rhs)
        if not local_reduce(g, d).is_zero:
            cited = [s for s, _ in just.terms]
            return f"lhs - rhs less the combination of steps {cited} does not reduce to zero"
        return None
    if isinstance(just, LemmaCom):
        ref = steps[just.step]
        if star(ref.rhs) != ref.rhs:
            return f"right side of step {just.step} is not star-invariant"
        if step.lhs != ref.lhs or step.rhs != star(ref.lhs):
            return f"claim is not the star transport of step {just.step}"
        return None
    return f"unknown justification {type(just).__name__}"


def _check_conclusion(
    g: Graph, cert: Certificate, claims: Sequence, concl: Conclusion, quad
) -> Optional[str]:
    """Recheck one conclusion, whose place in the scope is that of
    ``quad``; returns a failure reason or None.

    ``claims`` holds claim_quadruple of every step, by id, and is only
    read for a step that was checked.  Raises ValueError, which the
    caller reports as the reason, for a missing table entry.
    """
    kind, i, j, k, l, step, rows, cols = concl
    if (i, j, k, l) != quad:
        return "is out of place: quadruple {},{},{},{} belongs here".format(*quad)
    if step is None:
        a, b = gen(i, j), gen(k, l)
        ab = _reduce_word(g.adj1, g.n, (a, b))
        if kind == ZERO_PRODUCT:
            holds = ab is None
        else:
            holds = ab == _reduce_word(g.adj1, g.n, (b, a))
        if not holds:
            return "does not reduce to zero"
        return None
    if step >= len(claims):
        return f"cites missing step {step}"
    if _renamed(cert.automorphisms, claims[step], rows, cols) != (kind, i, j, k, l):
        return f"is not the renaming of step {step} under automorphisms {rows} and {cols}"
    return None


def verify_certificate(g: Graph, cert: Certificate) -> VerificationReport:
    """Recheck every table entry, step and conclusion of cert against g,
    and that the conclusions cover the certificate's scope."""
    if cert.graph_digest != graph_digest(g):
        raise DigestMismatch("certificate digest does not match the graph")

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

    claims = [claim_quadruple(step.lhs, step.rhs) for step in steps]
    quads = scope_quadruples(g, cert.scope)
    conclusions = cert.conclusions
    for idx, (concl, quad) in enumerate(zip(conclusions, quads)):
        try:
            reason = _check_conclusion(g, cert, claims, concl, quad)
        except ValueError as exc:
            reason = str(exc)
        if reason is not None:
            return VerificationReport(
                valid=False,
                steps_checked=len(steps),
                conclusions_checked=idx,
                location=f"conclusion {idx}",
                reason=(
                    f"conclusion {idx} ({concl.kind} {concl.i},{concl.j},"
                    f"{concl.k},{concl.l}) {reason}"
                ),
            )
    n_quads = sum(1 for _ in scope_quadruples(g, cert.scope))
    if len(conclusions) != n_quads:
        idx = min(len(conclusions), n_quads)
        return VerificationReport(
            valid=False,
            steps_checked=len(steps),
            conclusions_checked=idx,
            location=f"conclusion {idx}",
            reason=(
                f"{len(conclusions)} conclusions for the {n_quads}"
                f" quadruples of the {cert.scope} scope"
            ),
        )

    return VerificationReport(
        valid=True,
        steps_checked=len(steps),
        conclusions_checked=len(conclusions),
    )
