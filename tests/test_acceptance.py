"""End-to-end acceptance checks.

Each test exercises one shipped guarantee and prints a single
"ACCEPTANCE n: PASS/FAIL" line with capture suspended, so the verdicts
appear in the live pytest output.
"""

import itertools
import random
import time
from fractions import Fraction

from qsym import (
    COMMUTES,
    ROW,
    COL,
    ConditionsNotMet,
    Poly,
    ZERO_PRODUCT,
    automorphism_group,
    check_moore_conditions,
    complement,
    complete,
    complete_bipartite,
    cycle,
    derive_qa5,
    empty,
    expand_unity,
    local_reduce,
    monomial,
    petersen,
    prove_no_quantum_symmetry,
    sanity_eval,
    srg_params,
    star,
    verify_certificate,
    verify_s5_action,
)
from algebra_reference import evaluate_perm
from helpers import mutate_certificate


def _report(capsys, n: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {status} ({detail})", flush=True)


def test_acceptance_1_petersen_parameters(capsys):
    t0 = time.perf_counter()
    g = petersen()
    params = srg_params(g)
    conditions = check_moore_conditions(g)
    elapsed = time.perf_counter() - t0
    ok = (
        params is not None
        and (params.n, params.k, params.lam, params.mu) == (10, 3, 0, 1)
        and conditions.holds
        and elapsed < 1.0
    )
    _report(capsys, 1, ok, f"srg(10,3,0,1) and conditions hold, {elapsed:.2f}s")
    assert ok


def test_acceptance_2_automorphism_group(capsys):
    t0 = time.perf_counter()
    g = petersen()
    order = automorphism_group(g).order
    s5 = verify_s5_action(g)
    elapsed = time.perf_counter() - t0
    ok = order == 120 and s5 and elapsed < 10.0
    _report(
        capsys, 2, ok, f"order {order}, base-permutation action verified, {elapsed:.2f}s"
    )
    assert ok


def test_acceptance_3_edge_edge_commutations(capsys):
    t0 = time.perf_counter()
    g = petersen()
    cert = derive_qa5(g)
    report = verify_certificate(g, cert)
    elapsed = time.perf_counter() - t0
    ok = (
        len(cert.conclusions) == 900
        and all(c.kind == COMMUTES for c in cert.conclusions)
        and len({(c.i, c.j, c.k, c.l) for c in cert.conclusions}) == 900
        and report.valid
        and elapsed < 30.0
    )
    _report(capsys, 3, ok, f"900 edge-edge commutations verified, {elapsed:.2f}s")
    assert ok


def test_acceptance_4_full_petersen_certificate(capsys):
    t0 = time.perf_counter()
    g = petersen()
    cert = prove_no_quantum_symmetry(g)
    quads = [(c.i, c.j, c.k, c.l) for c in cert.conclusions]
    partition_exact = quads == list(itertools.product(range(1, 11), repeat=4)) and all(
        c.kind in (COMMUTES, ZERO_PRODUCT) for c in cert.conclusions
    )
    report = verify_certificate(g, cert)
    sanity = sanity_eval(g, cert, trials=100, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        len(cert.conclusions) == 10_000
        and partition_exact
        and report.valid
        and sanity.trials == 100
        and sanity.ok
        and elapsed < 120.0
    )
    _report(
        capsys,
        4,
        ok,
        f"10000 pairs classified, verified, {sanity.checks} sanity checks,"
        f" {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_5_five_cycle(capsys):
    t0 = time.perf_counter()
    g = cycle(5)
    cert = prove_no_quantum_symmetry(g)
    report = verify_certificate(g, cert)
    elapsed = time.perf_counter() - t0
    ok = len(cert.conclusions) == 625 and report.valid and elapsed < 10.0
    _report(capsys, 5, ok, f"degree-2 case: 625 pairs verified, {elapsed:.2f}s")
    assert ok


def test_acceptance_6_negative_controls(capsys):
    controls = {
        "complete(4)": complete(4),
        "empty(4)": empty(4),
        "complement(petersen)": complement(petersen()),
        "K33": complete_bipartite(3, 3),
    }
    ok = True
    details = []
    for name, g in controls.items():
        t0 = time.perf_counter()
        witness = None
        for produce in (prove_no_quantum_symmetry, derive_qa5):
            try:
                produce(g)
                ok = False
            except ConditionsNotMet as exc:
                witness = exc.report.witness
                if witness is None or len(witness) != 2:
                    ok = False
        elapsed = time.perf_counter() - t0
        if elapsed >= 5.0:
            ok = False
        details.append(f"{name} refused, witness {witness}")
    _report(capsys, 6, ok, "; ".join(details))
    assert ok


def test_acceptance_7_mutation_robustness(capsys, petersen_graph, petersen_full_cert):
    rng = random.Random(0)
    rejected = 0
    for _ in range(100):
        mutant, where, op = mutate_certificate(petersen_graph, petersen_full_cert, rng)
        report = verify_certificate(petersen_graph, mutant)
        if not report.valid and report.location == where:
            rejected += 1
    ok = rejected == 100
    _report(capsys, 7, ok, f"{rejected}/100 mutations rejected where they were made")
    assert ok


def _random_poly(rng, max_terms=4, max_len=4):
    p = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(
            (rng.randint(1, 10), rng.randint(1, 10))
            for _ in range(rng.randint(0, max_len))
        )
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        p = p + c * monomial(w)
    return p


def test_acceptance_8_algebra_property_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(12)
    g = petersen()
    cases = 0
    failures = 0

    for _ in range(250):
        p = _random_poly(rng)
        q = local_reduce(g, p)
        cases += 1
        if local_reduce(g, q) != q:
            failures += 1

    for _ in range(125):
        p = _random_poly(rng)
        cases += 1
        if star(star(p)) != p:
            failures += 1
    for _ in range(125):
        p, q = _random_poly(rng), _random_poly(rng)
        cases += 1
        if star(p * q) != star(q) * star(p):
            failures += 1

    for _ in range(125):
        p, q, r = (_random_poly(rng) for _ in range(3))
        cases += 1
        if (p * q) * r != p * (q * r):
            failures += 1
    for _ in range(125):
        p, q, r = (_random_poly(rng) for _ in range(3))
        cases += 1
        if p * (q + r) != p * q + p * r:
            failures += 1

    auts = automorphism_group(g).elements
    for _ in range(5):
        p = _random_poly(rng)
        q = local_reduce(g, p)
        for sigma in auts:
            cases += 1
            if evaluate_perm(g, sigma, p) != evaluate_perm(g, sigma, q):
                failures += 1
    for _ in range(3):
        p = _random_poly(rng)
        e = expand_unity(p, 0, rng.randint(1, 10), rng.choice((ROW, COL)), 10)
        for sigma in auts:
            cases += 1
            if evaluate_perm(g, sigma, p) != evaluate_perm(g, sigma, e):
                failures += 1

    elapsed = time.perf_counter() - t0
    ok = cases >= 1000 and failures == 0 and elapsed < 60.0
    _report(capsys, 8, ok, f"{cases} cases, {failures} failures, {elapsed:.1f}s")
    assert ok
