import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qsym import (
    COMMUTES,
    ZERO_PRODUCT,
    Combine,
    Conclusion,
    ConditionsNotMet,
    LemmaCom,
    ProofBuilder,
    Swap,
    UnsupportedDegree,
    automorphism_group,
    claim_quadruple,
    complement,
    complete,
    complete_bipartite,
    cycle,
    derive_qa5,
    dumps_certificate,
    empty,
    format_graph_text,
    from_edge_list,
    gen,
    loads_certificate,
    monomial,
    petersen,
    prove_no_quantum_symmetry,
    sanity_eval,
    star,
    u,
    verify_certificate,
)
from qsym.prover import _derive_edge_edge, _derive_family, _derive_nonedge
from algebra_reference import claim, evaluate_perm, relabel
from helpers import closure, conclusion_follows, hoffman_singleton


def test_proof_builder_ids_sequential():
    bld = ProofBuilder(cycle(5))
    a = bld.add(u(1, 1), u(1, 1), Combine(()))
    b = bld.add(u(2, 2), u(2, 2), Combine(()))
    assert (a, b) == (0, 1)
    assert [s.id for s in bld.steps] == [0, 1]


def test_lemma_com_emits_star_then_commutation():
    bld = ProofBuilder(cycle(5))
    x = monomial(((1, 1), (2, 2)))
    y = monomial(((1, 1), (2, 2), (1, 1)))
    base = bld.add(x, y, Combine(()))  # justification irrelevant here
    final = bld.lemma_com(base)
    # One LemmaCom step and nothing else: no star step is emitted.
    assert final == base + 1 == len(bld.steps) - 1
    com_step = bld.steps[final]
    assert com_step.justification == LemmaCom(base)
    assert com_step.lhs == x and com_step.rhs == star(x)


def test_lemma_com_accepts_selfpair_shape():
    bld = ProofBuilder(cycle(5))
    x = monomial(((1, 1), (1, 1)))
    y = monomial(((1, 1), (1, 1), (1, 1)))
    final = bld.lemma_com(bld.add(x, y, Combine(())))
    assert bld.steps[final].rhs == star(x)


def test_lemma_com_rejects_wrong_shapes():
    bld = ProofBuilder(cycle(5))
    bad_len = bld.add(u(1, 1), monomial(((1, 1), (1, 1))), Combine(()))
    with pytest.raises(ValueError):
        bld.lemma_com(bad_len)
    two = monomial(((1, 1), (2, 2)))
    not_palindrome = bld.add(two, monomial(((1, 1), (2, 2), (2, 2))), Combine(()))
    with pytest.raises(ValueError):
        bld.lemma_com(not_palindrome)
    not_monic = bld.add(2 * two, 2 * monomial(((1, 1), (2, 2), (1, 1))), Combine(()))
    with pytest.raises(ValueError):
        bld.lemma_com(not_monic)
    sum_side = bld.add(two + u(1, 1), two, Combine(()))
    with pytest.raises(ValueError):
        bld.lemma_com(sum_side)


def _directed_edges(g):
    return [(a, b) for a in g.vertices() for b in g.neighbors(a)]


def test_derive_qa5_c5():
    g = cycle(5)
    cert = derive_qa5(g)
    assert cert.graph_text == format_graph_text(g)
    assert len(cert.conclusions) == 100
    quads = [(c.i, c.j, c.k, c.l) for c in cert.conclusions]
    want = sorted(
        (r1, c1, r2, c2)
        for (r1, r2) in _directed_edges(g)
        for (c1, c2) in _directed_edges(g)
    )
    assert quads == want
    assert all(c.kind == COMMUTES for c in cert.conclusions)
    assert verify_certificate(g, cert).valid


def test_derive_qa5_petersen_count(petersen_graph, petersen_qa5_cert):
    cert = petersen_qa5_cert
    assert len(cert.conclusions) == 900
    assert all(c.kind == COMMUTES for c in cert.conclusions)
    # Every conclusion's claim is a step's claim renamed under two
    # elements of the group the table generates.
    assert all(conclusion_follows(petersen_graph, cert, c) for c in cert.conclusions[::97])


def test_derive_qa5_requires_conditions_only():
    with pytest.raises(ConditionsNotMet):
        derive_qa5(complete(4))
    # K2 meets the hypotheses with k = 1; larger degrees are refused
    # as by the full prover (test_unsupported_degree).
    cert = derive_qa5(complete(2))
    assert len(cert.conclusions) == 4


def test_prove_conclusions_partition_all_quadruples(c5_graph, c5_full_cert):
    g, cert = c5_graph, c5_full_cert
    quads = [(c.i, c.j, c.k, c.l) for c in cert.conclusions]
    assert quads == list(itertools.product(range(1, 6), repeat=4))
    # Independent classification straight from adjacency.
    for c in cert.conclusions:
        rows_edge = bool(g.adj1[c.i][c.k])
        cols_edge = bool(g.adj1[c.j][c.l])
        if (c.i, c.j) == (c.k, c.l):
            want = COMMUTES
        elif c.i == c.k or c.j == c.l:
            want = ZERO_PRODUCT
        elif rows_edge != cols_edge:
            want = ZERO_PRODUCT
        else:
            want = COMMUTES
        assert c.kind == want


def test_prove_c5_verifies(c5_graph, c5_full_cert):
    report = verify_certificate(c5_graph, c5_full_cert)
    assert report.valid
    assert report.steps_checked == len(c5_full_cert.steps)
    assert report.conclusions_checked == 625


def test_prove_k2_smallest_case():
    g = complete(2)
    cert = prove_no_quantum_symmetry(g)
    assert len(cert.conclusions) == 16
    kinds = {}
    for c in cert.conclusions:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    assert kinds == {COMMUTES: 8, ZERO_PRODUCT: 8}
    assert verify_certificate(g, cert).valid


def test_prove_uses_certified_commutations(petersen_full_cert):
    # Every Swap cites an earlier step claiming a commutation which,
    # renamed under the two table entries it cites, is that of the pair
    # it reverses, and that pair sits at its position in every word.
    steps = petersen_full_cert.steps
    table = petersen_full_cert.automorphisms
    seen = 0
    for step in steps:
        just = step.justification
        if isinstance(just, Swap):
            ref = steps[just.step]
            assert just.step < step.id
            rho, kappa = table[just.rows], table[just.cols]
            renamed = relabel(ref.lhs, rho, kappa), relabel(ref.rhs, rho, kappa)
            kind, a, b, c, d = claim_quadruple(*renamed)
            assert kind == COMMUTES
            pair = {(gen(a, b), gen(c, d)), (gen(c, d), gen(a, b))}
            for w in step.lhs.terms:
                assert w[just.position : just.position + 2] in pair
            seen += 1
    assert seen == 4
    # Every swap uses a derived commutation, and some use it renamed
    # under an entry other than the identity: no step restates it first.
    identity = tuple(range(1, 11))
    swaps = [s.justification for s in steps if isinstance(s.justification, Swap)]
    assert all(isinstance(steps[j.step].justification, LemmaCom) for j in swaps)
    assert any((table[j.rows], table[j.cols]) != (identity, identity) for j in swaps)


@pytest.mark.parametrize(
    "cert_fixture", ["c5_full_cert", "petersen_qa5_cert", "petersen_full_cert"]
)
def test_every_step_is_cited(cert_fixture, request):
    # Each step feeds a later step or claims a conclusion, which settles
    # that conclusion's orbit product; nothing is emitted only for the
    # record.
    cert = request.getfixturevalue(cert_fixture)
    concluded = set(cert.conclusions)
    cited = {s.id for s in cert.steps if claim_quadruple(s.lhs, s.rhs) in concluded}
    for step in cert.steps:
        just = step.justification
        if isinstance(just, Combine):
            cited.update(s for s, _ in just.terms)
        elif isinstance(just, (Swap, LemmaCom)):
            cited.add(just.step)
    unreferenced = [s.id for s in cert.steps if s.id not in cited]
    assert len(unreferenced) == 0, f"{len(unreferenced)} unreferenced steps"


def _orbit_count(g, quads):
    """Orbits of quads under Aut x Aut, by union-find over the group's
    generators acting on the rows or on the columns."""
    parent = {q: q for q in quads}

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    generators = automorphism_group(g).generators
    for q in quads:
        i, j, k, l = q
        for s in generators:
            for image in ((s[i - 1], j, s[k - 1], l), (i, s[j - 1], k, s[l - 1])):
                parent[find(image)] = find(q)
    return len({find(q) for q in quads})


@pytest.mark.parametrize(
    "graph_fixture, cert_fixture, max_steps",
    [("c5_graph", "c5_full_cert", 35), ("petersen_graph", "petersen_full_cert", 60)],
)
def test_one_lemma_com_per_orbit(graph_fixture, cert_fixture, max_steps, request):
    g = request.getfixturevalue(graph_fixture)
    cert = request.getfixturevalue(cert_fixture)
    steps = cert.steps
    # Commuting quadruples other than the diagonal u[i,j]u[i,j].
    commuting = [c for c in cert.conclusions if c.kind == COMMUTES and (c.i, c.j) != (c.k, c.l)]
    orbits = _orbit_count(g, [(c.i, c.j, c.k, c.l) for c in commuting])
    # Both graphs are distance-transitive: the edge-edge and the
    # non-edge family are one orbit each.
    assert orbits == 2
    # One LemmaCom step per orbit claims a commuting conclusion of it.
    lemmas = [s for s in steps if isinstance(s.justification, LemmaCom)]
    derived = [claim_quadruple(s.lhs, s.rhs) for s in lemmas]
    assert len(derived) == orbits and set(derived) <= set(commuting)
    (_, i, j, k, l), (_, *other) = derived
    auts = automorphism_group(g).elements
    images = {(r[i - 1], c[j - 1], r[k - 1], c[l - 1]) for r in auts for c in auts}
    assert tuple(other) not in images
    assert len(steps) <= max_steps


def test_symmetry_fallback_transports_nothing():
    # There is no fallback for graphs whose automorphisms cannot be
    # listed: both provers refuse degree k > 3 first, which leaves K1,
    # K2, C5 and Petersen.
    with pytest.raises(UnsupportedDegree):
        derive_qa5(hoffman_singleton())
    # Under the identity alone every pair is its own orbit, so each
    # quadruple is derived at its own place and none is renamed: every
    # swap of the non-edge family cites the identity's table entry twice.
    g = cycle(5)
    identity = (1, 2, 3, 4, 5)
    bld = ProofBuilder(g, (identity,))
    family = _derive_family(bld, g.directed_edges(), _derive_edge_edge)
    kinds = Counter(type(s.justification).__name__ for s in bld.steps)
    assert len(family) == 100 and kinds["LemmaCom"] == 100 and "Swap" not in kinds
    for ((r1, r2), (c1, c2)), sid in family.items():
        step = bld.steps[sid]
        assert claim_quadruple(step.lhs, step.rhs) == (COMMUTES, r1, c1, r2, c2)
    vs = g.vertices()
    nonedges = [(a, b) for a in vs for b in vs if a != b and not bool(g.adj1[a][b])]
    _derive_family(bld, nonedges, lambda bld, *quad: _derive_nonedge(bld, *quad, family))
    swaps = [s.justification for s in bld.steps if isinstance(s.justification, Swap)]
    assert swaps and bld.automorphisms == {identity: 0}
    assert all(j.rows == j.cols == 0 for j in swaps)


def test_conditions_not_met_carries_witness():
    for g in (complete(4), empty(4), complement(petersen()), complete_bipartite(3, 3)):
        with pytest.raises(ConditionsNotMet) as exc:
            prove_no_quantum_symmetry(g)
        report = exc.value.report
        assert not report.holds
        assert report.witness is not None and len(report.witness) == 2
        assert report.reason in str(exc.value)


def test_unsupported_degree():
    g = hoffman_singleton()
    for produce in (prove_no_quantum_symmetry, derive_qa5):
        with pytest.raises(UnsupportedDegree) as exc:
            produce(g)
        assert exc.value.k == 7
        assert "k=7" in str(exc.value)


def test_sanity_eval_counts_and_determinism(c5_graph, c5_full_cert):
    a = sanity_eval(c5_graph, c5_full_cert, trials=7, seed=3)
    b = sanity_eval(c5_graph, c5_full_cert, trials=7, seed=3)
    assert a == b
    assert a.trials == 7
    assert a.checks == 7 * 625
    assert a.ok and not a.failures


def _with_conclusions(cert, conclusions):
    return dataclasses.replace(cert, conclusions=tuple(conclusions))


def _forged_cert(cert):
    # Forged zero-product claims u[v,1]u[v,1] = 0: any automorphism
    # sends 1 to exactly one v, so each trial trips exactly one claim.
    return _with_conclusions(cert, (Conclusion(ZERO_PRODUCT, v, 1, v, 1) for v in range(1, 6)))


def test_sanity_eval_flags_false_conclusions(c5_graph, c5_full_cert):
    report = sanity_eval(c5_graph, _forged_cert(c5_full_cert), trials=3, seed=0)
    assert not report.ok
    assert len(report.failures) == 3
    assert all(0 <= idx < 5 for idx, _ in report.failures)


def _reference_sanity(g, cert, trials, seed):
    """sanity_eval as a plain loop over evaluate_perm, the reference."""
    elements = automorphism_group(g).elements
    rng = random.Random(seed)
    checks, failures = 0, []
    for _ in range(trials):
        sigma = rng.choice(elements)
        for idx, c in enumerate(cert.conclusions):
            lhs, rhs = claim(c)
            checks += 1
            if evaluate_perm(g, sigma, lhs - rhs) != 0:
                failures.append((idx, sigma))
    return checks, tuple(failures)


@pytest.mark.parametrize("forged, trials, seed", [(False, 7, 3), (True, 3, 0), (True, 20, 5)])
def test_sanity_eval_matches_reference_loop(c5_graph, c5_full_cert, forged, trials, seed):
    cert = _forged_cert(c5_full_cert) if forged else c5_full_cert
    report = sanity_eval(c5_graph, cert, trials=trials, seed=seed)
    assert (report.checks, report.failures) == _reference_sanity(c5_graph, cert, trials, seed)


def _forged_squares(g, cert):
    # Forged zero-product claims u[i,j]u[i,j] = 0 for every i, j, in
    # descending order: each trial trips the n claims with i = sigma(j),
    # at indices that do not rise with j.
    n = g.n
    squares = (
        Conclusion(ZERO_PRODUCT, i, j, i, j)
        for i in range(n, 0, -1)
        for j in range(n, 0, -1)
    )
    return _with_conclusions(cert, squares)


def _planted_diagonal(g, cert, seed):
    # A false zero product u[i,j]u[i,j] = 0 in place of the diagonal
    # quadruple (i, j, i, j), with i the image of j = 2 under the first
    # automorphism that the seed samples: its word repeats one letter, so
    # only a trial that pairs that letter with itself sees it fail.
    sigma = random.Random(seed).choice(automorphism_group(g).elements)
    quad = (sigma[1], 2) * 2
    idx = next(idx for idx, c in enumerate(cert.conclusions) if (c.i, c.j, c.k, c.l) == quad)
    conclusions = list(cert.conclusions)
    conclusions[idx] = Conclusion(ZERO_PRODUCT, *quad)
    return _with_conclusions(cert, conclusions), (idx, sigma)


@pytest.mark.parametrize("forged", [False, True, "diagonal"])
@pytest.mark.parametrize("graph", ["c5", "petersen"])
def test_sanity_eval_matches_reference_on_both_graphs(request, graph, forged):
    g = request.getfixturevalue(f"{graph}_graph")
    cert = request.getfixturevalue(f"{graph}_full_cert")
    trials, seed = 5, 7
    if forged == "diagonal":
        cert, first_failure = _planted_diagonal(g, cert, seed)
    elif forged:
        cert = _forged_squares(g, cert)
    report = sanity_eval(g, cert, trials=trials, seed=seed)
    assert (report.checks, report.failures) == _reference_sanity(g, cert, trials, seed)
    if forged == "diagonal":
        assert report.failures[0] == first_failure
        assert {idx for idx, _ in report.failures} == {first_failure[0]}
    else:
        assert len(report.failures) == (trials * g.n if forged else 0)


@pytest.mark.parametrize("conclusion", [(6, 1, 1, 1), (1, 1, 1, 6), (1, 1, 7, 1)])
def test_sanity_eval_rejects_out_of_range_conclusions(c5_graph, c5_full_cert, conclusion):
    cert = _with_conclusions(c5_full_cert, [Conclusion(ZERO_PRODUCT, *conclusion)])
    with pytest.raises(ValueError, match="out of range"):
        sanity_eval(c5_graph, cert, trials=1, seed=0)


def test_sanity_eval_rejects_negative_trials(c5_graph, c5_full_cert):
    with pytest.raises(ValueError, match="nonnegative"):
        sanity_eval(c5_graph, c5_full_cert, trials=-5)
    assert sanity_eval(c5_graph, c5_full_cert, trials=0).checks == 0


@pytest.mark.parametrize("graph", ["c5", "petersen"])
def test_qa5_certificate_is_the_start_of_the_full_proof(request, graph):
    # Both scopes share one derivation: the qa5 steps are the first
    # steps of the full certificate, both tables start with Aut's
    # generators, and each qa5 quadruple is concluded the same way in
    # both.
    qa5 = request.getfixturevalue(f"{graph}_qa5_cert")
    full = request.getfixturevalue(f"{graph}_full_cert")
    assert qa5.conclusions and full.steps[: len(qa5.steps)] == qa5.steps
    assert full.automorphisms[: len(qa5.automorphisms)] == qa5.automorphisms
    assert set(qa5.conclusions) <= set(full.conclusions)


# Two fixed relabellings of each graph, with the steps and the order of
# Aut that proving it gives.
RELABELLINGS = [
    ("petersen", (7, 9, 10, 8, 6, 4, 1, 5, 2, 3), 15, 120),
    ("petersen", (6, 10, 4, 5, 7, 8, 3, 9, 2, 1), 15, 120),
    ("c5", (1, 3, 5, 2, 4), 11, 10),
    ("c5", (3, 2, 4, 5, 1), 11, 10),
]


def _relabelled(g, images):
    return from_edge_list(g.n, [(images[a - 1], images[b - 1]) for a, b in g.edges()])


@pytest.mark.parametrize("graph, images, steps, order", RELABELLINGS)
def test_relabelled_graphs_prove_and_verify(request, graph, images, steps, order):
    # The same graph with its vertices renamed by a fixed permutation,
    # which moves its edges: the proof does not depend on the labelling,
    # and the table generates all of Aut, whatever its generators.
    g = request.getfixturevalue(f"{graph}_graph")
    relabelled = _relabelled(g, images)
    assert set(relabelled.edges()) != set(g.edges())
    cert = prove_no_quantum_symmetry(relabelled)
    assert len(cert.steps) == steps
    assert len(closure(cert.automorphisms, g.n)) == order
    assert verify_certificate(relabelled, cert).valid


_GRAPHS = {
    "k1": lambda: complete(1),
    "k2": lambda: complete(2),
    "c5": lambda: cycle(5),
    "petersen": petersen,
    "petersen-relabelled": lambda: _relabelled(petersen(), RELABELLINGS[0][1]),
}


@pytest.mark.parametrize("prove", [prove_no_quantum_symmetry, derive_qa5], ids=["full", "qa5"])
@pytest.mark.parametrize("graph", list(_GRAPHS))
def test_the_provers_conclusions_are_validated_records(graph, prove):
    # The prover builds its conclusions without the constructor's
    # checks, so each must be the record the constructor would build
    # from the same fields, with exact ints for indices, and the writer
    # and the loader must carry the certificate through unchanged.
    cert = prove(_GRAPHS[graph]())
    for c in cert.conclusions:
        assert type(c) is Conclusion and Conclusion(*c) == c
        assert all(type(x) is int for x in c[1:])
    assert loads_certificate(dumps_certificate(cert)) == cert


def _adjacency_kind(g, i, j, k, l):
    """The kind of the conclusion on (i, j, k, l), by the adjacency rule:
    the reference for the prover's alike-pairs rule."""
    if (i, j) != (k, l) and (i == k or j == l or bool(g.adj1[i][k]) != bool(g.adj1[j][l])):
        return ZERO_PRODUCT
    return COMMUTES


@pytest.mark.parametrize(
    "graph, images",
    [("petersen", None), ("c5", None)] + [(graph, images) for graph, images, _, _ in RELABELLINGS],
    ids=["petersen", "c5"] + [f"{g}-relabelled-{n}" for g in ("petersen", "c5") for n in (0, 1)],
)
def test_conclusion_kinds_follow_the_adjacency_rule(request, graph, images):
    # The prover takes each kind from whether (i, k) and (j, l) are
    # alike: both equal, both adjacent or both apart.  On every
    # quadruple that must give the kind the adjacency rule gives.
    g = request.getfixturevalue(f"{graph}_graph")
    if images is None:
        cert = request.getfixturevalue(f"{graph}_full_cert")
    else:
        g = _relabelled(g, images)
        cert = prove_no_quantum_symmetry(g)
    assert [c[1:] for c in cert.conclusions] == list(itertools.product(g.vertices(), repeat=4))
    kinds = Counter()
    for c in cert.conclusions:
        assert c.kind == _adjacency_kind(g, *c[1:]), c
        kinds[c.kind] += 1
    assert kinds[COMMUTES] and kinds[ZERO_PRODUCT]


def test_certificates_are_deterministic(petersen_graph):
    for produce in (derive_qa5, prove_no_quantum_symmetry):
        a = dumps_certificate(produce(petersen_graph))
        b = dumps_certificate(produce(petersen_graph))
        assert a == b


@pytest.mark.parametrize(
    "cert_fixture, graph, entries",
    [
        ("c5_qa5_cert", "c5", 2),
        ("c5_full_cert", "c5", 3),
        ("petersen_qa5_cert", "petersen", 4),
        ("petersen_full_cert", "petersen", 7),
    ],
)
def test_table_is_aut_generators_then_the_renamings_swaps_cite(
    request, cert_fixture, graph, entries
):
    # The generators come first, as they fix the orbits; an entry after
    # them is there only because a swap cites it, and none is listed
    # twice.
    g = request.getfixturevalue(f"{graph}_graph")
    cert = request.getfixturevalue(cert_fixture)
    generators = automorphism_group(g).generators
    table = cert.automorphisms
    assert table[: len(generators)] == generators
    assert len(set(table)) == len(table) == entries
    swaps = [s.justification for s in cert.steps if isinstance(s.justification, Swap)]
    cited = {t for j in swaps for t in (j.rows, j.cols)}
    assert set(range(len(generators), len(table))) <= cited


_HASH_SEED_SCRIPT = """
import hashlib, json
from qsym import cycle, derive_qa5, dumps_certificate, petersen, prove_no_quantum_symmetry
print(json.dumps([
    hashlib.sha256(dumps_certificate(produce(g)).encode()).hexdigest()
    for g in (cycle(5), petersen())
    for produce in (derive_qa5, prove_no_quantum_symmetry)
]))
"""


@pytest.mark.parametrize("seed", ["0", "1", "4294967295"])
def test_certificate_bytes_do_not_depend_on_the_hash_seed(request, seed):
    # The orbits and the table are built by iterating lists, never sets
    # or dicts keyed by hash, so a fresh interpreter under any string
    # hash seed writes the same bytes as this one.
    names = [f"{g}_{s}_cert" for g in ("c5", "petersen") for s in ("qa5", "full")]
    certs = [request.getfixturevalue(name) for name in names]
    expected = [hashlib.sha256(dumps_certificate(c).encode()).hexdigest() for c in certs]
    src = str(Path(sys.modules["qsym"].__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == expected
