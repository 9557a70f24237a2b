import dataclasses
import itertools
import json
import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from qsym import (
    COMMUTES,
    FULL,
    QA5,
    Certificate,
    Combine,
    Conclusion,
    ExpandUnity,
    GraphMismatch,
    LemmaCom,
    MalformedCertificate,
    Poly,
    ProofStep,
    ROW,
    Swap,
    ZERO_PRODUCT,
    certificate_from_dict,
    certificate_to_dict,
    claim_quadruple,
    cycle,
    derive_qa5,
    dumps_certificate,
    empty,
    expand_unity,
    format_graph_text,
    from_edge_list,
    load_certificate,
    loads_certificate,
    local_reduce,
    petersen,
    prove_no_quantum_symmetry,
    star,
    u,
    VerificationReport,
    verify_certificate,
)
from qsym import verifier
from qsym.graphs import pair_orbits
from qsym.verifier import scope_quadruples, scope_size
from algebra_reference import evaluate_perm

G5 = cycle(5)
IDENTITY = (1, 2, 3, 4, 5)
ROTATION = (2, 3, 4, 5, 1)
SWAP_2_3 = (1, 3, 2, 4, 5)  # not in D5: it maps the edge 1-2 to the non-edge 1-3
# The table a hand-made C5 certificate cites unless it says otherwise.
TABLE = (IDENTITY, ROTATION)


def _cert(steps, conclusions=(), g=G5, automorphisms=TABLE):
    return Certificate(format_graph_text(g), FULL, tuple(automorphisms), tuple(steps), tuple(conclusions))


def _steps_pass(steps, automorphisms=TABLE):
    """Whether every step is accepted.  With no conclusions the report
    can only fail for falling short of the scope, at conclusion 0."""
    report = verify_certificate(G5, _cert(steps, automorphisms=automorphisms))
    return report.steps_checked == len(steps) and report.location == "conclusion 0"


# A combine that cites no step: both sides share a normal form.
REDUCED = Combine(())
IDEM_STEP = ProofStep(0, u(1, 1) * u(1, 1), u(1, 1), REDUCED)


def test_valid_certificates_pass(petersen_graph, petersen_qa5_cert, c5_full_cert):
    report = verify_certificate(petersen_graph, petersen_qa5_cert)
    assert report.valid
    assert report.steps_checked == len(petersen_qa5_cert.steps)
    assert report.conclusions_checked == 900
    assert report.first_failure is None and report.reason is None
    assert verify_certificate(G5, c5_full_cert).valid


def test_graph_mismatch_raises(c5_full_cert):
    with pytest.raises(GraphMismatch, match="^certificate is for another graph$"):
        verify_certificate(petersen(), c5_full_cert)


def test_a_moved_edge_is_another_graph(c5_full_cert):
    # C5 with edge {4, 5} moved to {3, 5}: the same vertex and edge
    # counts, so only the edge lines of the text differ.
    moved = from_edge_list(5, [(1, 2), (2, 3), (3, 4), (3, 5), (1, 5)])
    assert format_graph_text(moved)[:4] == format_graph_text(G5)[:4]
    with pytest.raises(GraphMismatch):
        verify_certificate(moved, c5_full_cert)


def test_conclusion_vertex_out_of_range_rejected():
    # Coverage puts quadruple 1,1,1,1 first, so a vertex outside C5 is
    # out of place there.
    concl = Conclusion(COMMUTES, 6, 1, 1, 1)
    report = verify_certificate(G5, _cert((IDEM_STEP,), (concl,), automorphisms=[IDENTITY]))
    assert not report.valid and report.location == "conclusion 0"
    assert "(commutes 6,1,1,1) is out of place: quadruple 1,1,1,1 belongs here" in report.reason


def _first_failure(steps, conclusions=(), automorphisms=TABLE):
    report = verify_certificate(G5, _cert(steps, conclusions, automorphisms=automorphisms))
    assert not report.valid
    return report


def test_local_reduce_failure():
    # A combine with no terms is local reduction alone.
    report = _first_failure((ProofStep(0, u(1, 1), u(2, 2), REDUCED),))
    assert report.first_failure == 0
    assert "less the combination of steps [] does not reduce to zero" in report.reason


def test_expand_unity_checks_recompute():
    rhs = expand_unity(u(1, 1), 1, 2, ROW, 5)
    good = ProofStep(0, u(1, 1), rhs, ExpandUnity(1, 2, ROW))
    assert _steps_pass((good,))
    bad = ProofStep(0, u(1, 1), rhs - u(1, 1) * u(2, 4), ExpandUnity(1, 2, ROW))
    report = _first_failure((bad,))
    assert "unity expansion" in report.reason


def test_generator_bounds_enforced():
    step = ProofStep(0, u(7, 1), u(7, 1), ExpandUnity(0, 1, ROW))
    report = _first_failure((step,))
    assert "u[7,1] out of range" in report.reason


def test_every_rule_checks_generator_bounds():
    # Each step names u[6,1], outside C5, and is refused for that at its
    # own step.  The Combine claims have equal sides and would otherwise
    # pass their rule, with or without terms; a LemmaCom claim about
    # u[6,1] cannot transport an in-range step, so there the reason is
    # the test.
    beyond = u(6, 1) * u(1, 1)
    cases = (
        (ProofStep(0, beyond, beyond, REDUCED),),
        (IDEM_STEP, ProofStep(1, beyond, beyond, Combine(((0, 1), (0, -1))))),
        (IDEM_STEP, ProofStep(1, beyond, star(beyond), LemmaCom(0))),
    )
    for steps in cases:
        report = _first_failure(steps)
        assert report.first_failure == steps[-1].id
        assert "u[6,1] out of range" in report.reason


# u[1,1]u[2,3] = u[2,3]u[1,1] on C5: both sides vanish, since rows 1, 2
# are adjacent and columns 1, 3 are not, so the commutation reduces.
COMM_STEP = ProofStep(0, u(1, 1) * u(2, 3), u(2, 3) * u(1, 1), REDUCED)
# Step 1 reverses that pair, cited under the identity's table entry
# twice, at position 1 of a three-letter word.
SWAP_LHS = u(4, 4) * u(1, 1) * u(2, 3)
SWAP_STEP = ProofStep(1, SWAP_LHS, u(4, 4) * u(2, 3) * u(1, 1), Swap(0, 0, 0, 1))


def test_swap_recomputed():
    assert _steps_pass((COMM_STEP, SWAP_STEP))
    # Both orientations, and a sum whose every word holds the pair.
    back = ProofStep(1, SWAP_STEP.rhs, SWAP_LHS, Swap(0, 0, 0, 1))
    mixed_lhs = 2 * SWAP_LHS - u(5, 5) * u(2, 3) * u(1, 1)
    mixed_rhs = 2 * SWAP_STEP.rhs - u(5, 5) * u(1, 1) * u(2, 3)
    mixed = ProofStep(1, mixed_lhs, mixed_rhs, Swap(0, 0, 0, 1))
    assert _steps_pass((COMM_STEP, back)) and _steps_pass((COMM_STEP, mixed))
    bad = dataclasses.replace(SWAP_STEP, rhs=SWAP_LHS)
    report = _first_failure((COMM_STEP, bad))
    assert report.first_failure == 1
    assert "not the left side with the pair at 1 reversed" in report.reason


def test_miscertified_commutation_rejected():
    # Step 0 claims u[1,1]u[1,1] = u[1,1], which is no commutation.
    bad = dataclasses.replace(SWAP_STEP, justification=Swap(0, 0, 0, 1))
    report = _first_failure((IDEM_STEP, bad))
    assert report.first_failure == 1
    assert "step 0 claims no commutation of two generators" in report.reason


# Steps the swap at the end may cite: a zero product, an ExpandUnity
# and a Combine, each true; none claims a commutation.
ZERO_STEP = ProofStep(1, u(1, 1) * u(2, 3), Poly.zero(), REDUCED)
EXPAND_STEP = ProofStep(
    2, u(1, 1), expand_unity(u(1, 1), 1, 2, ROW, 5), ExpandUnity(1, 2, ROW)
)
COMBINE_STEP = ProofStep(3, u(1, 1) * u(2, 3), u(1, 1) * u(2, 3), Combine(((0, 1), (0, -1))))


@pytest.mark.parametrize(
    "just, reason",
    [
        (Swap(1, 0, 0, 1), "step 1 claims no commutation"),
        (Swap(2, 0, 0, 1), "step 2 claims no commutation"),
        (Swap(3, 0, 0, 1), "step 3 claims no commutation"),
        (Swap(0, 0, 0, 2), "word of length 3 has no generator pair at position 2"),
        (Swap(0, 0, 0, 7), "has no generator pair at position 7"),
        (Swap(0, 0, 0, 0), "the pair at position 0 is not u[1,1] and u[2,3]"),
        # Renamed under the rotation of the rows, step 1 still claims a
        # zero product, u[2,1]u[3,3] = 0, and step 0 the commutation of
        # u[2,1] and u[3,3], which is not the pair at position 1.
        (Swap(1, 1, 0, 1), "step 1 claims no commutation"),
        (Swap(0, 1, 0, 1), "the pair at position 1 is not u[2,1] and u[3,3]"),
        (Swap(0, 0, 2, 1), "cites missing automorphism 2"),
    ],
    ids=[
        "zero-product",
        "expand-unity",
        "combine",
        "past-the-word",
        "far-past",
        "pair",
        "renamed-zero-product",
        "renamed-pair",
        "missing-entry",
    ],
)
def test_swap_refused_at_its_own_step(just, reason):
    prefix = (COMM_STEP, ZERO_STEP, EXPAND_STEP, COMBINE_STEP)
    assert _steps_pass(prefix)
    assert [claim_quadruple(s.lhs, s.rhs) for s in prefix] == [
        (COMMUTES, 1, 1, 2, 3), (ZERO_PRODUCT, 1, 1, 2, 3), None, None
    ]
    swap = dataclasses.replace(SWAP_STEP, id=4, justification=just)
    report = _first_failure(prefix + (swap,))
    assert report.first_failure == 4 and report.steps_checked == 4
    assert reason in report.reason


def test_unknown_rule_refused():
    # The star_of rule of format version 1 is gone: a step citing it is
    # refused as an unknown rule.
    base = ProofStep(0, u(1, 2) * u(1, 3), Poly.zero(), REDUCED)
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


def test_combine_accepts_signed_combinations():
    # Any +1/-1 combination of the cited differences, up to what local
    # reduction sends to zero, and nothing else.  Unity expansions, so
    # that no cited difference reduces to zero by itself.
    s0 = ProofStep(0, u(1, 1), expand_unity(u(1, 1), 1, 2, ROW, 5), ExpandUnity(1, 2, ROW))
    s1 = ProofStep(1, u(2, 2), expand_unity(u(2, 2), 1, 3, ROW, 5), ExpandUnity(1, 3, ROW))
    d0, d1 = s0.lhs - s0.rhs, s1.lhs - s1.rhs
    assert not local_reduce(G5, d0).is_zero and not local_reduce(G5, d1).is_zero
    plus = ProofStep(2, d0, -d1, Combine(((0, 1), (1, 1))))
    minus = ProofStep(3, d0, d1, Combine(((0, 1), (1, -1))))
    # u[1,2]u[1,3] reduces to zero, so it may be added to either side.
    vanishing = u(1, 2) * u(1, 3)
    modulo = ProofStep(4, d0 + vanishing, 3 * vanishing, Combine(((0, 1),)))
    # The same step twice is twice its difference.
    twice = ProofStep(5, 2 * d0, Poly.zero(), Combine(((0, 1), (0, 1))))
    assert _steps_pass((s0, s1, plus, minus, modulo, twice))
    double = ProofStep(2, 2 * d0 + d1, Poly.zero(), Combine(((0, 1), (1, 1))))
    flipped = ProofStep(2, d0, d1, Combine(((0, 1), (1, 1))))
    for bad in (double, flipped):
        report = _first_failure((s0, s1, bad))
        assert report.first_failure == 2
        assert "less the combination of steps [0, 1] does not reduce to zero" in report.reason


def test_combine_rejects_outside_the_span():
    # u[1,1]u[1,1] - u[3,3] less d0 + d1 reduces to u[1,1] - u[3,3] - 0,
    # and a combination of one cited step must match it exactly too.
    s0 = IDEM_STEP
    s1 = ProofStep(1, u(2, 2) * u(2, 2), u(2, 2), REDUCED)
    for terms in (((0, 1), (1, 1)), ((0, 1),), ((1, -1),)):
        s2 = ProofStep(2, u(1, 1) * u(1, 1), u(3, 3), Combine(terms))
        report = _first_failure((s0, s1, s2))
        assert report.first_failure == 2
        assert report.steps_checked == 2
        assert f"combination of steps {[s for s, _ in terms]} does not reduce" in report.reason


def test_lemma_com_requires_star_invariant_source():
    w = u(1, 2) * u(2, 3)
    base = ProofStep(0, w, w, REDUCED)
    bad = ProofStep(1, w, star(w), LemmaCom(0))
    report = _first_failure((base, bad))
    assert "not star-invariant" in report.reason


def test_lemma_com_checks_transport():
    base = ProofStep(0, u(1, 1), u(1, 1), REDUCED)
    good = ProofStep(1, u(1, 1), star(u(1, 1)), LemmaCom(0))
    assert _steps_pass((base, good))
    bad = ProofStep(1, u(1, 1), u(2, 2), LemmaCom(0))
    report = _first_failure((base, bad))
    assert "star transport of step 0" in report.reason


# u[1,1]u[2,3] = 0: rows 1, 2 adjacent in C5, columns 1, 3 not.
VANISH_STEP = ProofStep(0, u(1, 1) * u(2, 3), Poly.zero(), REDUCED)
# A swap transports the commutation it cites: COMM_STEP renamed under
# the rotation of the rows (entry 1) and the identity (entry 0) claims
# that u[2,1] and u[3,3] commute, and step 1 reverses them at position 1.
RENAMED_LHS = u(4, 4) * u(2, 1) * u(3, 3)
RENAMED_SWAP = ProofStep(1, RENAMED_LHS, u(4, 4) * u(3, 3) * u(2, 1), Swap(0, 1, 0, 1))


def test_swap_and_conclusion_need_automorphisms():
    assert _steps_pass((COMM_STEP, RENAMED_SWAP))
    # A swap cites a table entry, a conclusion is settled on the orbits
    # the table generates, and the table is where an entry is tested.
    # Renaming the columns under SWAP_2_3 turns the zero product of
    # VANISH_STEP into u[1,1]u[3,3] = 0, which is false, since the
    # identity permutation matrix satisfies every relation and gives 1;
    # under SWAP_2_3 the two claims lie in one orbit product.
    table = (IDENTITY, SWAP_2_3)
    concl = Conclusion(ZERO_PRODUCT, 1, 1, 3, 3)
    lhs, rhs = concl.claim()
    assert evaluate_perm(G5, IDENTITY, lhs - rhs) == 1
    orbits = pair_orbits(table, 5)
    assert orbits[1, 2][0] == orbits[1, 3][0] == (1, 2)
    for steps, conclusions in (((COMM_STEP, RENAMED_SWAP), ()), ((VANISH_STEP,), (concl,))):
        report = _first_failure(steps, conclusions, automorphisms=table)
        assert report.location == "automorphism 1" and report.steps_checked == 0
        assert "not an automorphism of the graph" in report.reason


def test_swap_checks_the_renamed_claim():
    assert _steps_pass((COMM_STEP, RENAMED_SWAP))
    for change, reason in (
        (dict(rhs=RENAMED_LHS), "not the left side with the pair at 1 reversed"),
        (dict(lhs=SWAP_LHS), "the pair at position 1 is not u[2,1] and u[3,3]"),
        # The entries swapped, and the identity's entry twice.
        (dict(justification=Swap(0, 0, 1, 1)), "the pair at position 1 is not u[1,2] and u[2,4]"),
        (dict(justification=Swap(0, 0, 0, 1)), "the pair at position 1 is not u[1,1] and u[2,3]"),
    ):
        report = _first_failure((COMM_STEP, dataclasses.replace(RENAMED_SWAP, **change)))
        assert report.first_failure == 1 and reason in report.reason, change


# One fault per case in the citation of a swap, with the reason it gives.
_CITATION_FAULTS = [
    pytest.param(0, 2, 0, "cites missing automorphism 2", id="index-equal-to-table-length"),
    pytest.param(
        0, 0, 1, "the pair at position 1 is not u[1,2] and u[2,4]", id="swapped"
    ),
    pytest.param(
        1, 1, 0, "step 1 claims no commutation of two generators", id="not-a-conclusion-claim"
    ),
]


@pytest.mark.parametrize("cited, rows, cols, reason", _CITATION_FAULTS)
def test_swap_refuses_a_bad_citation(cited, rows, cols, reason):
    # Step 0 claims the commutation u[1,1]u[2,3] = u[2,3]u[1,1] and step
    # 1 a unity expansion, which no conclusion claims.  Renamed under the
    # rotation of the rows, step 0 gives the commutation of u[2,1] and
    # u[3,3], which the swap at step 2 uses.
    prefix = (COMM_STEP, dataclasses.replace(EXPAND_STEP, id=1))
    good_step = dataclasses.replace(RENAMED_SWAP, id=2)
    cert = _cert(prefix + (good_step,))
    assert verifier._check_step(G5, cert, good_step) is None
    bad_step = dataclasses.replace(good_step, justification=Swap(cited, rows, cols, 1))
    report = _first_failure(prefix + (bad_step,))
    assert report.location == "step 2" and report.reason == reason


def test_random_mutations_rejected(c5_graph, c5_full_cert):
    rng = random.Random(7)
    ops = set()
    for _ in range(25):
        mutant, where, op = helpers.mutate_certificate(c5_graph, c5_full_cert, rng)
        report = verify_certificate(c5_graph, mutant)
        assert not report.valid, op
        assert report.location == where, op
        ops.add(op)
    assert len(ops) >= 4


def test_every_derivation_step_mutation_rejected(petersen_graph, petersen_full_cert):
    # Random mutation spreads over steps, conclusions and the table:
    # apply every operator to every step as well, several times, since
    # each draws its word, index or citation at random, checking the
    # prefix of the certificate that ends at that step.
    rng = random.Random(3)
    tried = 0
    table = petersen_full_cert.automorphisms
    for step in petersen_full_cert.steps:
        prefix = petersen_full_cert.steps[: step.id + 1]
        cert = _cert(prefix, g=petersen_graph, automorphisms=table)
        for op in helpers.eligible_ops(step):
            for _ in range(3):
                mutated = op(petersen_graph, step, cert, rng)
                if mutated is None:
                    continue
                mutant = _cert(prefix[:-1] + (mutated,), g=petersen_graph, automorphisms=table)
                report = verify_certificate(petersen_graph, mutant)
                assert not report.valid and report.first_failure == step.id, op.__name__
                tried += 1
    assert tried >= 200


C5_QUADS = list(itertools.product(range(1, 6), repeat=4))


@pytest.mark.parametrize(
    "edit, where",
    [
        ("empty", 0),
        ("dropped-last", 624),
        ("dropped-middle", 300),
        ("duplicated-last", 625),
        ("duplicated-middle", 301),
    ],
)
def test_conclusions_must_cover_the_scope(c5_graph, c5_full_cert, edit, where):
    # Every remaining conclusion still follows from its justification;
    # only the coverage of the 625 quadruples is wrong.
    c = c5_full_cert.conclusions
    conclusions = {
        "empty": (),
        "dropped-last": c[:-1],
        "dropped-middle": c[:300] + c[301:],
        "duplicated-last": c + c[-1:],
        "duplicated-middle": c[:301] + c[300:],
    }[edit]
    report = verify_certificate(c5_graph, dataclasses.replace(c5_full_cert, conclusions=conclusions))
    assert not report.valid
    assert report.location == f"conclusion {where}"
    assert report.steps_checked == len(c5_full_cert.steps)


def test_qa5_scope_is_the_edge_pairs(c5_graph):
    cert = derive_qa5(c5_graph)
    assert verify_certificate(c5_graph, cert).valid
    # The same conclusions claimed for the full scope fall short at once.
    report = verify_certificate(c5_graph, dataclasses.replace(cert, scope=FULL))
    assert report.location == "conclusion 0" and "out of place" in report.reason


@pytest.mark.parametrize(
    "make, n, scope, generators",
    [
        (empty, 100, FULL, False),
        (cycle, 100, QA5, False),
        (empty, 11, FULL, False),
        (empty, 1000, FULL, True),
        (empty, 10, FULL, False),
    ],
    ids=["empty-100-full", "c100-qa5", "empty-11-full", "empty-1000-sym", "empty-10-full"],
)
def test_a_large_scope_is_counted_not_walked(make, n, scope, generators):
    # No graph the prover takes has more than 10 vertices, so a larger
    # one is refused at the graph, before its text, the table's pair
    # orbits or the scope.  At n = 1000 the table holds a transposition
    # and an n-cycle, whose pair orbits would take seconds to fill.  At
    # n = 10 the certificate is read, and with no conclusions it falls
    # short of its 10^4 quadruples at conclusion 0.
    g = make(n)
    table = ((2, 1) + tuple(range(3, n + 1)), tuple(range(2, n + 1)) + (1,)) if generators else ()
    cert = Certificate(format_graph_text(g), scope, table, (), ())
    t0 = time.perf_counter()
    report = verify_certificate(g, cert)
    assert time.perf_counter() - t0 < 0.1
    assert not report.valid and report.conclusions_checked == 0
    if n <= 10:
        assert report.location == "conclusion 0"
        assert report.reason == "0 conclusions for the 10000 quadruples of the full scope"
    else:
        assert report.location == "graph"
        assert report.reason == (
            f"the graph has {n} vertices; no graph of the class has more than 10"
        )


@pytest.mark.parametrize("scope", [FULL, QA5])
@pytest.mark.parametrize(
    "g", [cycle(5), petersen(), empty(3), cycle(6)], ids=["c5", "petersen", "empty3", "c6"]
)
def test_scope_size_counts_the_scope_quadruples(g, scope):
    assert scope_size(g, scope) == len(list(scope_quadruples(g, scope)))


@pytest.mark.parametrize(
    "entry, reason",
    [
        (SWAP_2_3, "not an automorphism of the graph"),
        ((2, 3, 4, 5), "degree 4"),
        ((2, 2, 4, 5, 1), "not a permutation"),
    ],
)
def test_table_entries_are_checked_before_any_step(c5_graph, c5_full_cert, entry, reason):
    table = list(c5_full_cert.automorphisms)
    last = len(table) - 1
    table[last] = entry
    # Step 0 is broken too, but the table comes first.
    steps = list(c5_full_cert.steps)
    steps[0] = dataclasses.replace(steps[0], rhs=steps[0].rhs + u(1, 1))
    mutant = dataclasses.replace(
        c5_full_cert, automorphisms=tuple(table), steps=tuple(steps)
    )
    report = verify_certificate(c5_graph, mutant)
    assert not report.valid and report.location == f"automorphism {last}"
    assert reason in report.reason and report.steps_checked == 0


def test_every_conclusion_and_table_mutation_rejected(c5_graph, c5_full_cert):
    # Each conclusion operator on a spread of conclusions, and the table
    # operator on every entry; each mutant is rejected where it was made.
    rng = random.Random(11)
    made = {}
    for op in helpers.CONCLUSION_OPS:
        for idx in range(0, 625, 13):
            found = op(c5_graph, c5_full_cert, idx, rng)
            if found is None:
                continue
            conclusions, where = found
            mutant = dataclasses.replace(c5_full_cert, conclusions=conclusions)
            report = verify_certificate(c5_graph, mutant)
            assert not report.valid and report.location == f"conclusion {where}", op.__name__
            made[op.__name__] = made.get(op.__name__, 0) + 1
    for idx in range(len(c5_full_cert.automorphisms)):
        table = helpers._non_automorphism_entry(c5_graph, c5_full_cert, idx, rng)
        if table is None:
            continue
        report = verify_certificate(c5_graph, dataclasses.replace(c5_full_cert, automorphisms=table))
        assert not report.valid and report.location == f"automorphism {idx}"
        made["table"] = made.get("table", 0) + 1
    assert set(made) == {op.__name__ for op in helpers.CONCLUSION_OPS} | {"table"}


def _reference_verdict(g, cert, c, quad):
    """Whether c holds at the place of quad, by the Poly and relabel
    reference: in place, and its claim following."""
    return (c.i, c.j, c.k, c.l) == quad and helpers.conclusion_follows(g, cert, c)


@pytest.mark.parametrize(
    "graph, scope", [("c5", FULL), ("c5", QA5), ("petersen", FULL), ("petersen", QA5)]
)
def test_conclusion_verdicts_match_the_relabel_reference(request, graph, scope):
    # The verifier compares orbit products of integer pairs; the
    # reference renames Polys under every element of the table's
    # closure.  Every conclusion of the certificate, and every mutated
    # one, must get the same verdict from both, in its scope place and at
    # its own quadruple; a mutant whose changed conclusion is in place
    # must also be refused there by verify_certificate.
    g = request.getfixturevalue(f"{graph}_graph")
    cert = request.getfixturevalue(f"{graph}_{'full' if scope == FULL else 'qa5'}_cert")
    products = verifier._Products(g, cert)
    quads = list(scope_quadruples(g, scope))

    def agree(c, quad):
        got = (c.i, c.j, c.k, c.l) == quad and products[products.key(*c)]
        assert got == _reference_verdict(g, cert, c, quad), (c, quad)
        return got

    assert all(agree(c, quad) for c, quad in zip(cert.conclusions, quads))
    rng = random.Random(5)
    made = dict.fromkeys((op.__name__ for op in helpers.CONCLUSION_OPS), 0)
    for op in helpers.CONCLUSION_OPS:
        for _ in range(40):
            found = op(g, cert, rng.randrange(len(cert.conclusions)), rng)
            if found is None:
                continue
            conclusions, where = found
            if where < min(len(conclusions), len(quads)):
                c = conclusions[where]
                assert not agree(c, quads[where]), (op.__name__, c)
                if (c.i, c.j, c.k, c.l) == quads[where]:
                    mutant = dataclasses.replace(cert, conclusions=conclusions)
                    report = verify_certificate(g, mutant)
                    assert report.location == f"conclusion {where}", (op.__name__, c)
                else:
                    agree(c, (c.i, c.j, c.k, c.l))
            made[op.__name__] += 1
    assert all(made.values()), made


@pytest.mark.parametrize("graph", ["c5", "petersen"])
def test_reduced_conclusions_decided_on_words_match_local_reduce(request, graph):
    # Under the identity alone every orbit product is one quadruple, and
    # with no steps each is decided by comparing the reduced words of
    # u[i,j]u[k,l] and its reverse; local_reduce of the claim's
    # difference is the reference, for every quadruple and both kinds.
    g = request.getfixturevalue(f"{graph}_graph")
    products = verifier._Products(g, _cert((), g=g, automorphisms=[tuple(g.vertices())]))
    verdicts = {True: 0, False: 0}
    for kind in (COMMUTES, ZERO_PRODUCT):
        for quad in itertools.product(g.vertices(), repeat=4):
            c = Conclusion(kind, *quad)
            lhs, rhs = c.claim()
            expected = local_reduce(g, lhs - rhs).is_zero
            assert products[products.key(*c)] == expected, (kind, quad)
            verdicts[expected] += 1
    assert sum(verdicts.values()) == 2 * g.n**4 and all(verdicts.values())


def _first(cert, pred):
    """The index of the first conclusion of cert that pred holds for,
    and that conclusion."""
    return next((idx, c) for idx, c in enumerate(cert.conclusions) if pred(c))


def _refused_at(g, cert, idx, c):
    report = verify_certificate(g, cert)
    assert not report.valid and report.location == f"conclusion {idx}"
    assert report.conclusions_checked == idx and report.steps_checked == len(cert.steps)
    assert f"({c.kind} {c.i},{c.j},{c.k},{c.l})" in report.reason


@pytest.mark.parametrize("graph", ["c5", "petersen"])
def test_coverage_needs_the_table(request, graph):
    # A qa5 certificate holds no swap, so its table serves only to
    # generate the orbits.  Cut to the identity, every orbit product is
    # one quadruple, covered only where a step derives it.
    g = request.getfixturevalue(f"{graph}_graph")
    cert = request.getfixturevalue(f"{graph}_qa5_cert")
    assert not any(isinstance(s.justification, Swap) for s in cert.steps)
    assert verify_certificate(g, cert).valid
    derived = [claim_quadruple(s.lhs, s.rhs) for s in cert.steps]
    idx, c = _first(cert, lambda c: tuple(c) not in derived)
    assert idx > 0
    _refused_at(g, dataclasses.replace(cert, automorphisms=(tuple(g.vertices()),)), idx, c)


@pytest.mark.parametrize("graph", ["c5", "petersen"])
def test_coverage_needs_the_non_edge_steps(request, graph):
    # The full certificate with only the steps of its qa5 prefix: the
    # table still generates Aut, but nothing covers the product of two
    # non-edge orbits, so its first conclusion is refused.
    g = request.getfixturevalue(f"{graph}_graph")
    full = request.getfixturevalue(f"{graph}_full_cert")
    qa5 = request.getfixturevalue(f"{graph}_qa5_cert")
    assert full.steps[: len(qa5.steps)] == qa5.steps
    idx, c = _first(
        full,
        lambda c: c.kind == COMMUTES and c.i != c.k and c.j != c.l and not g.adjacent(c.i, c.k),
    )
    _refused_at(g, dataclasses.replace(full, steps=qa5.steps), idx, c)


def test_reduce_word_runs_at_most_twice_per_orbit_product(
    monkeypatch, petersen_graph, petersen_full_cert
):
    # 10,000 conclusions fall into 9 products of (kind, orbit of row
    # pairs, orbit of column pairs).  The 7 that no step covers are each
    # decided once on words: a commutation reduces two words, a zero
    # product one.
    calls = []
    reduce_word = verifier._reduce_word

    def counted(adj1, n, w):
        calls.append(w)
        return reduce_word(adj1, n, w)

    monkeypatch.setattr(verifier, "_reduce_word", counted)
    g, cert = petersen_graph, petersen_full_cert
    assert verify_certificate(g, cert).valid
    orbits = pair_orbits(cert.automorphisms, g.n)
    products = {(c.kind, orbits[c.i, c.k][0], orbits[c.j, c.l][0]) for c in cert.conclusions}
    assert len(products) == 9
    assert len(calls) <= 2 * len(products)
    assert len(calls) == 8


def test_combine_of_many_terms_matches_the_poly_reference():
    # A combine citing 120 unity expansions, with repeated citations and
    # pairs that cancel, is accepted or refused exactly as D formed term
    # by term with Poly arithmetic decides; both verdicts occur.
    rng = random.Random(4)
    steps = []
    for sid in range(40):
        lhs = u(rng.randint(1, 5), rng.randint(1, 5)) * u(rng.randint(1, 5), rng.randint(1, 5))
        index = rng.randint(1, 5)
        rhs = expand_unity(lhs, 1, index, ROW, 5)
        steps.append(ProofStep(sid, lhs, rhs, ExpandUnity(1, index, ROW)))
    verdicts = set()
    for trial in range(30):
        terms = [(rng.randrange(40), rng.choice((1, -1))) for _ in range(100)]
        s = rng.randrange(40)
        terms += [(s, 1), (s, -1)] + terms[:18]
        rng.shuffle(terms)
        lhs = Poly.zero()
        for s, c in terms:
            lhs = lhs + c * (steps[s].lhs - steps[s].rhs)
        if trial % 3 == 1:
            s, c = terms[0]
            terms[0] = (s, -c)
        elif trial % 3 == 2:
            lhs = lhs + u(1, 1)
        final = ProofStep(40, lhs + u(1, 2) * u(1, 3), Poly.zero(), Combine(tuple(terms)))
        cert = _cert(steps + [final])
        accepted = verifier._check_step(G5, cert, final) is None
        assert accepted == helpers._combine_follows(G5, cert, final), trial
        verdicts.add(accepted)
    assert verdicts == {True, False}


# Hypothesis: hostile edits of a valid C5 certificate, as JSON data and
# as bytes.  The loader and verifier may refuse the result as malformed,
# for another graph or as invalid, and nothing else may escape.  An edit
# can leave a certificate that still holds (a key moved, a space in a
# polynomial, a reduced zero product restated as a commutation, since
# a zero product also commutes); a valid verdict is accepted only for
# conclusions that are all true.
C5_TEXT = dumps_certificate(prove_no_quantum_symmetry(G5))

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 700)
    | st.sampled_from(["", "u[1,1]", "u[1,2]u[2,1]", "0", "commutes", "zero_product", "full", "qa5"])
    | st.sampled_from(["local_reduce", "transport", "lemma_com", "combine", "swap", "row"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["id", "step", "rows", "cols", "kind", "i", "rule", "terms"]), inner, max_size=3),
    max_leaves=8,
)


def _truly_zero(c) -> bool:
    """Whether u[i,j]u[k,l] = 0 holds on C5, from adjacency alone."""
    if (c.i, c.j) == (c.k, c.l):
        return False
    return c.i == c.k or c.j == c.l or G5.adjacent(c.i, c.k) != G5.adjacent(c.j, c.l)


def _check_outcome(load):
    try:
        cert = load()
        report = verify_certificate(G5, cert)
    except (MalformedCertificate, GraphMismatch):
        return
    if report.valid:
        # Every quadruple once, and a zero product only where it holds;
        # on C5 every pair commutes.
        assert [(c.i, c.j, c.k, c.l) for c in cert.conclusions] == C5_QUADS
        assert all(c.kind == COMMUTES or _truly_zero(c) for c in cert.conclusions)
    else:
        assert report.location is not None and report.reason


@st.composite
def _edited_dicts(draw):
    root = {"cert": json.loads(C5_TEXT)}
    holder, key = root, "cert"
    # Mostly down to a leaf, where an edit keeps the shape and changes
    # the content.
    while isinstance(holder[key], (dict, list)) and holder[key] and draw(st.integers(0, 7)):
        node = holder[key]
        holder, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    edit = draw(st.sampled_from(["replace", "replace", "delete", "insert"]))
    if edit == "delete" and holder is not root:
        del holder[key]
    elif edit == "insert" and isinstance(holder[key], list):
        node = holder[key]
        node.insert(draw(st.integers(0, len(node))), draw(_JSON))
    elif edit == "insert" and isinstance(holder[key], dict):
        holder[key][draw(st.sampled_from(["id", "step", "rows", "cols", "x"]))] = draw(_JSON)
    elif type(holder[key]) is int and draw(st.booleans()):
        holder[key] = draw(st.integers(-1, 80))
    else:
        holder[key] = draw(_JSON)
    return root["cert"]


@settings(max_examples=200, deadline=None)
@given(_edited_dicts())
def test_edited_certificate_data_never_escapes(d):
    assume(d != json.loads(C5_TEXT))
    _check_outcome(lambda: certificate_from_dict(d))


_SPLICE = st.binary(max_size=6) | st.sampled_from(
    [b"0", b"1", b"9", b"-", b'"', b"[", b"]", b"{", b"}", b",", b":", b"u[1,1]", b"null", b"\\", b"\xff"]
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, len(C5_TEXT)), st.integers(0, 8), _SPLICE)
def test_edited_certificate_bytes_never_escape(tmp_path_factory, start, length, insert):
    data = C5_TEXT.encode("ascii")
    mutated = data[:start] + insert + data[start + length :]
    assume(mutated != data)
    path = tmp_path_factory.mktemp("edited") / "cert.json"
    path.write_bytes(mutated)
    _check_outcome(lambda: load_certificate(path))


# Hypothesis: in-memory edits of one field of one justification of the
# C5 certificate, by dataclasses.replace.  A justification refuses a bad
# value when it is built, and a Certificate a bad citation; whatever is
# built ends in a report, and a certificate reported valid is written
# to text that loads back equal.
C5_CERT = loads_certificate(C5_TEXT)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
)
_FIELD_VALUES = (
    _SCALARS
    | st.lists(
        _SCALARS
        | st.tuples(st.integers(-1, 40), st.sampled_from([1, -1]))
        | st.lists(_SCALARS, max_size=3),
        max_size=4,
    )
    | st.tuples(_SCALARS, _SCALARS)
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(C5_CERT.steps))), st.data())
def test_edited_justification_fields_never_escape(position, data):
    steps = list(C5_CERT.steps)
    just = steps[position].justification
    field = data.draw(st.sampled_from(type(just).__match_args__))
    value = data.draw(_FIELD_VALUES)
    try:
        edited = dataclasses.replace(just, **{field: value})
        steps[position] = dataclasses.replace(steps[position], justification=edited)
        cert = dataclasses.replace(C5_CERT, steps=steps)
    except MalformedCertificate:
        return
    report = verify_certificate(G5, cert)
    assert type(report) is VerificationReport
    if report.valid:
        assert loads_certificate(dumps_certificate(cert)) == cert
