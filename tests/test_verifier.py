import dataclasses
import random

import pytest

import helpers
from qsym import (
    CERT_VERSION,
    COMMUTES,
    Certificate,
    Comm,
    Conclusion,
    DigestMismatch,
    ExpandUnity,
    LemmaCom,
    LocalReduce,
    MalformedCertificate,
    Poly,
    ProofStep,
    ROW,
    RelationApplication,
    RowOrth,
    Substitution,
    Transport,
    certificate_from_dict,
    certificate_to_dict,
    cycle,
    evaluate_perm,
    expand_unity,
    graph_digest,
    petersen,
    relabel,
    star,
    u,
    verify_certificate,
)

G5 = cycle(5)


def _cert(steps, conclusions=(), g=G5):
    return Certificate(CERT_VERSION, graph_digest(g), tuple(steps), tuple(conclusions))


IDEM_STEP = ProofStep(0, u(1, 1) * u(1, 1), u(1, 1), LocalReduce())


def test_valid_certificates_pass(petersen_graph, petersen_qa5_cert, c5_full_cert):
    report = verify_certificate(petersen_graph, petersen_qa5_cert)
    assert report.valid
    assert report.steps_checked == len(petersen_qa5_cert.steps)
    assert report.conclusions_checked == 900
    assert report.first_failure is None and report.reason is None
    assert verify_certificate(G5, c5_full_cert).valid


def test_wrong_version_rejected():
    cert = Certificate(999, graph_digest(G5), (), ())
    with pytest.raises(MalformedCertificate) as exc:
        verify_certificate(G5, cert)
    assert "version" in str(exc.value)


def test_digest_mismatch_raises(c5_full_cert):
    with pytest.raises(DigestMismatch):
        verify_certificate(petersen(), c5_full_cert)


def test_nonsequential_ids_rejected():
    steps = (IDEM_STEP, ProofStep(2, u(2, 2) * u(2, 2), u(2, 2), LocalReduce()))
    with pytest.raises(MalformedCertificate) as exc:
        verify_certificate(G5, _cert(steps))
    assert "sequential" in str(exc.value)


def test_self_reference_rejected():
    steps = (ProofStep(0, u(1, 1), u(1, 1), LemmaCom(0)),)
    with pytest.raises(MalformedCertificate) as exc:
        verify_certificate(G5, _cert(steps))
    assert "not earlier" in str(exc.value)


def test_dangling_certification_rejected():
    just = RelationApplication(Comm(1, 2, 2, 3, certified_by=5), 0)
    steps = (ProofStep(0, u(1, 2) * u(2, 3), u(2, 3) * u(1, 2), just),)
    with pytest.raises(MalformedCertificate) as exc:
        verify_certificate(G5, _cert(steps))
    assert "references step 5" in str(exc.value)


def test_conclusion_step_out_of_range_rejected():
    concl = Conclusion(COMMUTES, 1, 1, 1, 1, 3)
    with pytest.raises(MalformedCertificate) as exc:
        verify_certificate(G5, _cert((IDEM_STEP,), (concl,)))
    assert "missing step 3" in str(exc.value)


def test_conclusion_vertex_out_of_range_rejected():
    concl = Conclusion(COMMUTES, 6, 1, 1, 1, 0)
    with pytest.raises(MalformedCertificate) as exc:
        verify_certificate(G5, _cert((IDEM_STEP,), (concl,)))
    assert "vertex 6" in str(exc.value)


def _first_failure(steps, conclusions=()):
    report = verify_certificate(G5, _cert(steps, conclusions))
    assert not report.valid
    return report


def test_local_reduce_failure():
    report = _first_failure((ProofStep(0, u(1, 1), u(2, 2), LocalReduce()),))
    assert report.first_failure == 0
    assert "normal form" in report.reason


def test_expand_unity_checks_recompute():
    rhs = expand_unity(u(1, 1), 1, 2, ROW, 5)
    good = ProofStep(0, u(1, 1), rhs, ExpandUnity(1, 2, ROW))
    assert verify_certificate(G5, _cert((good,))).valid
    bad = ProofStep(0, u(1, 1), rhs - u(1, 1) * u(2, 4), ExpandUnity(1, 2, ROW))
    report = _first_failure((bad,))
    assert "unity expansion" in report.reason


def test_generator_bounds_enforced():
    step = ProofStep(0, u(7, 1), u(7, 1), ExpandUnity(0, 1, ROW))
    report = _first_failure((step,))
    assert "u[7,1] out of range" in report.reason


def test_every_rule_checks_generator_bounds():
    # Each step names u[6,1], outside C5, and is refused for that at its
    # own step.  The LocalReduce and Substitution claims have equal sides
    # and would otherwise pass their rules; a LemmaCom claim about u[6,1]
    # cannot transport an in-range step, so there the reason is the test.
    beyond = u(6, 1) * u(1, 1)
    cases = (
        (ProofStep(0, beyond, beyond, LocalReduce()),),
        (IDEM_STEP, ProofStep(1, beyond, beyond, Substitution(0, 0))),
        (IDEM_STEP, ProofStep(1, beyond, star(beyond), LemmaCom(0))),
    )
    for steps in cases:
        report = _first_failure(steps)
        assert report.first_failure == steps[-1].id
        assert "u[6,1] out of range" in report.reason


def test_invalid_relation_instance_fails_step():
    just = RelationApplication(RowOrth(1, 2, 2), 0)
    step = ProofStep(0, u(1, 2) * u(1, 2), Poly.zero(), just)
    report = _first_failure((step,))
    assert "distinct columns" in report.reason


def test_relation_application_recomputed():
    lhs = u(1, 2) * u(1, 3)
    good = ProofStep(0, lhs, Poly.zero(), RelationApplication(RowOrth(1, 2, 3), 0))
    assert verify_certificate(G5, _cert((good,))).valid
    bad = ProofStep(0, lhs, lhs, RelationApplication(RowOrth(1, 2, 3), 0))
    report = _first_failure((bad,))
    assert "does not follow" in report.reason


def test_uncertified_commutation_rejected():
    just = RelationApplication(Comm(1, 2, 2, 3), 0)
    step = ProofStep(0, u(1, 2) * u(2, 3), u(2, 3) * u(1, 2), just)
    report = _first_failure((step,))
    assert "lacks a certifying step" in report.reason


def test_miscertified_commutation_rejected():
    just = RelationApplication(Comm(1, 2, 2, 3, certified_by=0), 1)
    bad = ProofStep(1, u(1, 2) * u(2, 3), u(2, 3) * u(1, 2), just)
    report = _first_failure((IDEM_STEP, bad))
    assert report.first_failure == 1
    assert "does not certify commutation" in report.reason


def test_star_of_step_checked():
    # The star_of rule of format version 1 is gone: a step citing it is
    # refused as an unknown rule.
    base = ProofStep(0, u(1, 2) * u(1, 3), Poly.zero(), LocalReduce())
    d = certificate_to_dict(_cert((base,)))
    d["steps"].append(
        {
            "id": 1,
            "lhs": "u[1,3]u[1,2]",
            "rhs": "0",
            "justification": {"rule": "star_of", "step": 0},
        }
    )
    with pytest.raises(MalformedCertificate) as exc:
        certificate_from_dict(d)
    assert "unknown justification rule 'star_of'" in str(exc.value)


def test_substitution_accepts_rational_combinations():
    # Exactly d_base + d_using or d_base - d_using; any other rational
    # combination, even one in the span, is refused.
    s0 = IDEM_STEP
    s1 = ProofStep(1, u(2, 2) * u(2, 2), u(2, 2), LocalReduce())
    d0, d1 = s0.lhs - s0.rhs, s1.lhs - s1.rhs
    plus = ProofStep(2, d0, -d1, Substitution(0, 1))
    minus = ProofStep(3, d0, d1, Substitution(0, 1, -1))
    assert verify_certificate(G5, _cert((s0, s1, plus, minus))).valid
    double = ProofStep(2, 2 * d0 + d1, Poly.zero(), Substitution(0, 1))
    report = _first_failure((s0, s1, double))
    assert report.first_failure == 2
    assert "that of step 0 plus that of step 1" in report.reason


def test_substitution_rejects_outside_span():
    s0 = IDEM_STEP
    s1 = ProofStep(1, u(2, 2) * u(2, 2), u(2, 2), LocalReduce())
    s2 = ProofStep(2, u(1, 1) * u(1, 1), u(3, 3), Substitution(0, 1))
    report = _first_failure((s0, s1, s2))
    assert report.first_failure == 2
    assert report.steps_checked == 2
    assert "not that of step 0 plus that of step 1" in report.reason


def test_lemma_com_requires_star_invariant_source():
    w = u(1, 2) * u(2, 3)
    base = ProofStep(0, w, w, LocalReduce())
    bad = ProofStep(1, w, star(w), LemmaCom(0))
    report = _first_failure((base, bad))
    assert "not star-invariant" in report.reason


def test_lemma_com_checks_transport():
    base = ProofStep(0, u(1, 1), u(1, 1), LocalReduce())
    good = ProofStep(1, u(1, 1), star(u(1, 1)), LemmaCom(0))
    assert verify_certificate(G5, _cert((base, good))).valid
    bad = ProofStep(1, u(1, 1), u(2, 2), LemmaCom(0))
    report = _first_failure((base, bad))
    assert "star transport of step 0" in report.reason


IDENTITY = (1, 2, 3, 4, 5)
ROTATION = (2, 3, 4, 5, 1)
SWAP_2_3 = (1, 3, 2, 4, 5)  # not in D5: it maps the edge 1-2 to the non-edge 1-3
# u[1,1]u[2,3] = 0: rows 1, 2 adjacent in C5, columns 1, 3 not.
VANISH_STEP = ProofStep(0, u(1, 1) * u(2, 3), Poly.zero(), LocalReduce())


def _transported(rows, cols, base=VANISH_STEP):
    """Step 1: the exact renaming of base under rows and cols."""
    return ProofStep(
        1, relabel(base.lhs, rows, cols), relabel(base.rhs, rows, cols), Transport(0, rows, cols)
    )


def test_transport_needs_automorphisms():
    good = _transported(ROTATION, IDENTITY)
    assert good.lhs == u(2, 1) * u(3, 3)
    assert verify_certificate(G5, _cert((VANISH_STEP, good))).valid
    bad = _transported(SWAP_2_3, IDENTITY)
    # The renamed claim u[1,1]u[3,3] = 0 is false: the identity
    # permutation matrix satisfies every relation and gives 1.
    assert bad.lhs == u(1, 1) * u(3, 3)
    assert evaluate_perm(G5, IDENTITY, bad.lhs - bad.rhs) == 1
    report = _first_failure((VANISH_STEP, bad))
    assert report.first_failure == 1
    assert "rows is not an automorphism" in report.reason
    report = _first_failure((VANISH_STEP, _transported(IDENTITY, SWAP_2_3)))
    assert "cols is not an automorphism" in report.reason


def test_transport_checks_the_renamed_claim():
    good = _transported(ROTATION, ROTATION)
    for wrong in (
        dataclasses.replace(good, lhs=u(1, 1) * u(2, 3)),
        dataclasses.replace(good, rhs=u(3, 3)),
        dataclasses.replace(good, justification=Transport(0, ROTATION, IDENTITY)),
    ):
        report = _first_failure((VANISH_STEP, wrong))
        assert report.first_failure == 1
        assert "not the renaming of step 0" in report.reason
    short = dataclasses.replace(good, justification=Transport(0, ROTATION[:4], ROTATION))
    assert "degree 4" in _first_failure((VANISH_STEP, short)).reason


def test_conclusion_must_match_step_claim():
    concl = Conclusion(COMMUTES, 1, 1, 2, 2, 0)
    report = _first_failure((IDEM_STEP,), (concl,))
    assert report.first_failure == 0
    assert report.steps_checked == 1
    assert report.conclusions_checked == 0
    assert "not the claim of step 0" in report.reason


def test_random_mutations_rejected(c5_graph, c5_full_cert):
    rng = random.Random(7)
    ops = set()
    for _ in range(25):
        mutant, sid, op = helpers.mutate_certificate(c5_graph, c5_full_cert, rng)
        report = verify_certificate(c5_graph, mutant)
        assert not report.valid, op
        assert report.first_failure == sid, op
        ops.add(op)
    assert len(ops) >= 4


def test_every_derivation_step_mutation_rejected(petersen_graph, petersen_full_cert):
    # Transports and one-step LocalReduce conclusions make up all but a
    # few dozen steps, so random mutation seldom reaches a derivation:
    # apply every operator to every derivation step instead, checking
    # the prefix of the certificate that ends at that step.
    rng = random.Random(3)
    tried = 0
    for step in petersen_full_cert.steps:
        if isinstance(step.justification, (LocalReduce, Transport)):
            continue
        prefix = petersen_full_cert.steps[: step.id + 1]
        for op in helpers.eligible_ops(step):
            mutated = op(petersen_graph, step, prefix, rng)
            if mutated is None:
                continue
            mutant = _cert(prefix[:-1] + (mutated,), g=petersen_graph)
            report = verify_certificate(petersen_graph, mutant)
            assert not report.valid and report.first_failure == step.id, op.__name__
            tried += 1
    assert tried >= 200
