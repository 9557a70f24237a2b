"""Independent rechecking of commutativity certificates.

The checker shares only the algebra primitives, and autgroup's
permutation type and automorphism test, with the prover: each step is
reverified from its justification and earlier steps, never from how
the prover happened to emit it.  Every rule is a lookup, not
a search: the justification names the cited steps and, for a
substitution, the sign of the combination, so each check is an exact
recomputation or polynomial equality.  Structural defects (wrong
version, non-sequential ids, dangling or forward references) raise
MalformedCertificate; a certificate for a different graph raises
DigestMismatch; defects of content produce an invalid report naming
the first failing step.

A transport step renames every generator u[i,j] of an earlier claim to
u[rows[i],cols[j]], and is accepted only when rows and cols are
permutations of 1..n that are automorphisms of the graph.  This is
sound.  The renaming acts letter by letter, so it is an algebra map of
the free *-algebra that commutes with star, and it is invertible.  It
sends each defining relation instance to another: orthogonality,
idempotence and self-adjointness to their renamed instances, and a row
or column unity sum to another such sum, since a permutation only
reorders its terms.  VanishA and VanishB are picked out by adjacency
of the two rows and non-adjacency of the two columns, or the reverse;
automorphisms preserve both, so the renamed instance meets the same
side conditions.  Commutation is not a defining relation: each use
cites an earlier step whose claim holds in the quotient.  The renaming
therefore maps the ideal of relations onto itself and is a
*-automorphism of the quotient algebra, so a claim that holds there
still holds after renaming.  Under a permutation that is not an
automorphism the renamed claim can be false, and the step is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import check_gen_bounds, expand_unity, perm_images, relabel, star, u
from .autgroup import Permutation, is_automorphism
from .certificate import (
    CERT_VERSION,
    Certificate,
    ExpandUnity,
    LemmaCom,
    LocalReduce,
    MalformedCertificate,
    ProofStep,
    RelationApplication,
    Substitution,
    Transport,
    graph_digest,
    justification_refs,
)
from .graphs import Graph
from .relations import Comm, apply_relation, local_reduce, validate_relation


class DigestMismatch(ValueError):
    """The certificate was produced for a different graph."""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a full certificate check."""

    valid: bool
    steps_checked: int
    conclusions_checked: int
    first_failure: Optional[int] = None
    reason: Optional[str] = None


def _check_step(g: Graph, steps: Sequence[ProofStep], step: ProofStep) -> Optional[str]:
    """Recheck one step; returns a failure reason or None.

    Raises ValueError, which the caller reports as the reason, for a
    side naming a generator outside u[1..n,1..n], whatever the rule.
    """
    check_gen_bounds(step.lhs, g.n)
    check_gen_bounds(step.rhs, g.n)
    just = step.justification
    if isinstance(just, LocalReduce):
        if not local_reduce(g, step.lhs - step.rhs).is_zero:
            return "sides do not reduce to the same normal form"
        return None
    if isinstance(just, ExpandUnity):
        expected = expand_unity(step.lhs, just.position, just.index, just.side, g.n)
        if step.rhs != expected:
            return "right side is not the stated unity expansion of the left"
        return None
    if isinstance(just, RelationApplication):
        rel = just.relation
        validate_relation(rel, g)
        if isinstance(rel, Comm):
            if rel.certified_by is None:
                return "commutation instance lacks a certifying step"
            ref = steps[rel.certified_by]
            lhs = u(rel.row1, rel.col1) * u(rel.row2, rel.col2)
            if ref.lhs != lhs or ref.rhs != u(rel.row2, rel.col2) * u(rel.row1, rel.col1):
                return (
                    f"step {rel.certified_by} does not certify commutation of"
                    f" u[{rel.row1},{rel.col1}] and u[{rel.row2},{rel.col2}]"
                )
        if step.rhs != apply_relation(step.lhs, rel, just.position):
            return "right side does not follow from applying the relation"
        return None
    if isinstance(just, Substitution):
        base = steps[just.base]
        using = steps[just.using]
        if step.lhs - step.rhs != base.lhs - base.rhs + just.sign * (using.lhs - using.rhs):
            op = "plus" if just.sign == 1 else "minus"
            return (
                f"claim difference is not that of step {just.base}"
                f" {op} that of step {just.using}"
            )
        return None
    if isinstance(just, LemmaCom):
        ref = steps[just.step]
        if star(ref.rhs) != ref.rhs:
            return f"right side of step {just.step} is not star-invariant"
        if step.lhs != ref.lhs or step.rhs != star(ref.lhs):
            return f"claim is not the star transport of step {just.step}"
        return None
    if isinstance(just, Transport):
        for name, images in (("rows", just.rows), ("cols", just.cols)):
            if not is_automorphism(g, Permutation(perm_images(g, images))):
                return f"{name} is not an automorphism of the graph"
        ref = steps[just.step]
        lhs = relabel(ref.lhs, just.rows, just.cols)
        if step.lhs != lhs or step.rhs != relabel(ref.rhs, just.rows, just.cols):
            return f"claim is not the renaming of step {just.step} under rows and cols"
        return None
    return f"unknown justification {type(just).__name__}"


def verify_certificate(g: Graph, cert: Certificate) -> VerificationReport:
    """Recheck every step and conclusion of cert against g."""
    if cert.version != CERT_VERSION:
        raise MalformedCertificate(f"unsupported certificate version {cert.version!r}")
    if cert.graph_digest != graph_digest(g):
        raise DigestMismatch("certificate digest does not match the graph")
    steps = cert.steps
    for pos, step in enumerate(steps):
        if step.id != pos:
            raise MalformedCertificate(
                f"step ids must be sequential: found {step.id} at position {pos}"
            )
        for ref in justification_refs(step.justification):
            if not 0 <= ref < step.id:
                raise MalformedCertificate(
                    f"step {step.id} references step {ref}, which is not earlier"
                )
    for idx, concl in enumerate(cert.conclusions):
        if not 0 <= concl.step < len(steps):
            raise MalformedCertificate(
                f"conclusion {idx} references missing step {concl.step}"
            )
        for v in (concl.i, concl.j, concl.k, concl.l):
            if not 1 <= v <= g.n:
                raise MalformedCertificate(
                    f"conclusion {idx} names vertex {v}, out of range for n={g.n}"
                )

    for step in steps:
        try:
            reason = _check_step(g, steps, step)
        except ValueError as exc:
            reason = str(exc)
        if reason is not None:
            return VerificationReport(
                valid=False,
                steps_checked=step.id,
                conclusions_checked=0,
                first_failure=step.id,
                reason=reason,
            )

    for idx, concl in enumerate(cert.conclusions):
        lhs, rhs = concl.claim()
        step = steps[concl.step]
        if step.lhs != lhs or step.rhs != rhs:
            return VerificationReport(
                valid=False,
                steps_checked=len(steps),
                conclusions_checked=idx,
                first_failure=concl.step,
                reason=(
                    f"conclusion {idx} ({concl.kind} {concl.i},{concl.j},"
                    f"{concl.k},{concl.l}) is not the claim of step {concl.step}"
                ),
            )

    return VerificationReport(
        valid=True,
        steps_checked=len(steps),
        conclusions_checked=len(cert.conclusions),
    )
