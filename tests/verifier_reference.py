"""References for the column checks of the checker and the loader, used only by the tests.

verify_by_records is verify_certificate with its conclusions checked
one Conclusion record at a time, each against its scope quadruple and
then its orbit product's verdict, as the checker did before it read
whole columns.  The column checks must give the same VerificationReport
for every certificate: the same validity, counts, location and reason.
The table, step and product checks are the checker's own, so this
differs from it only where the column checks do.

conclusions_by_objects reads decoded conclusion objects one at a time
into Conclusion records, as the loader did for any list that was not
all dicts of exactly the five fields, checking each object's kind and
indices itself and naming the first bad object.  A certificate given
its records must equal the one certificate_from_dict loads, or both
must be refused with the same MalformedCertificate message.
"""

from __future__ import annotations

from qsym import (
    COMMUTES,
    ZERO_PRODUCT,
    Conclusion,
    GraphMismatch,
    MalformedCertificate,
    VerificationReport,
)
from qsym.certificate import scope_columns, scope_size
from qsym.graphs import MAX_DEGREE, format_graph_text, is_automorphism
from qsym.verifier import _check_step, _Products


def verify_by_records(g, cert) -> VerificationReport:
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
            return VerificationReport(False, 0, 0, location=f"automorphism {idx}", reason=reason)
    steps = cert.steps
    for step in steps:
        try:
            reason = _check_step(g, cert, step)
        except ValueError as exc:
            reason = str(exc)
        if reason is not None:
            return VerificationReport(
                False, step.id, 0, first_failure=step.id, location=f"step {step.id}", reason=reason
            )

    products = _Products(g, cert)
    conclusions = cert.conclusions
    for idx, (concl, quad) in enumerate(zip(conclusions, zip(*scope_columns(g, cert.scope)))):
        kind, i, j, k, l = concl
        if (i, j, k, l) != quad:
            reason = "is out of place: quadruple {},{},{},{} belongs here".format(*quad)
        elif not products[products.key(*concl)]:
            reason = "holds neither by a step nor by reduction on its orbit product"
        else:
            continue
        return VerificationReport(
            False,
            len(steps),
            idx,
            location=f"conclusion {idx}",
            reason=f"conclusion {idx} ({kind} {i},{j},{k},{l}) {reason}",
        )
    n_quads = scope_size(g, cert.scope)
    if len(conclusions) != n_quads:
        idx = min(len(conclusions), n_quads)
        return VerificationReport(
            False,
            len(steps),
            idx,
            location=f"conclusion {idx}",
            reason=(
                f"{len(conclusions)} conclusions for the {n_quads}"
                f" quadruples of the {cert.scope} scope"
            ),
        )
    return VerificationReport(True, len(steps), len(conclusions))


def conclusions_by_objects(objs) -> list[Conclusion]:
    fields = frozenset(Conclusion._fields)
    records = []
    for idx, cd in enumerate(objs):
        if not isinstance(cd, dict) or cd.keys() != fields:
            raise MalformedCertificate(
                f"conclusion {idx} must be an object with exactly the fields kind, i, j, k, l"
            )
        record = Conclusion(cd["kind"], cd["i"], cd["j"], cd["k"], cd["l"])
        if record.kind not in (COMMUTES, ZERO_PRODUCT):
            raise MalformedCertificate(f"conclusion {idx}: unknown conclusion kind {record.kind!r}")
        for v in record[1:]:
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise MalformedCertificate(
                    f"conclusion {idx}: conclusion index must be a positive integer, got {v!r}"
                )
        records.append(record)
    return records
