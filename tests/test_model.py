"""The rewrite rules and renaming, checked against an exact model.

model_reference gives a magic unitary in M2(Q) that commutes with the
adjacency of 2K2 and does not commute with itself.  Every equation that
holds in the quotient algebra of 2K2 holds there, so a rewrite that
changes a word's value in the model is unsound, and a renaming that
turns the model into a non-model is one the checker must refuse.
"""

import itertools
import random

import model_reference as model
from qsym import (
    COL,
    FULL,
    ROW,
    Certificate,
    Combine,
    ExpandUnity,
    Poly,
    ProofStep,
    cycle,
    expand_unity,
    format_graph_text,
    from_edge_list,
    gen,
    is_automorphism,
    verifier,
)
from qsym.graphs import pair_orbits
from qsym.relations import _reduce_word, local_reduce, swap_pair

TWO_K2 = from_edge_list(4, [(1, 2), (3, 4)])
GENS = [gen(i, j) for i in range(1, 5) for j in range(1, 5)]
WORDS = [w for length in (2, 3) for w in itertools.product(GENS, repeat=length)]
# The value of every word of length 1 to 3, so that a word and its
# normal form are compared by lookup.
VALUES = {(): model.ONE}
for length in (1, 2, 3):
    for w in itertools.product(GENS, repeat=length):
        VALUES[w] = model.mul(VALUES[w[:-1]], model.U[w[-1].row, w[-1].col])


def _disagreements(g):
    """Words of length 2 or 3 whose value differs from that of their
    _reduce_word normal form under g's rules, or from zero when they
    rewrite to zero."""
    bad = []
    for w in WORDS:
        normal = _reduce_word(g.adj1, g.n, w)
        if VALUES[w] != (model.ZERO if normal is None else VALUES[normal]):
            bad.append(w)
    return bad


def test_reduce_word_is_sound_in_the_model():
    assert len(WORDS) == 4352
    assert _disagreements(TWO_K2) == []


def test_the_model_catches_the_rules_of_another_graph():
    # The model does not commute with the adjacency of C4, so C4's
    # vanishing rules are not sound for it; the comparison must see that.
    assert not model.commutes_with_adjacency(
        model.U, {frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({4, 1})}
    )
    assert _disagreements(cycle(4))


def test_the_model_does_not_commute():
    a, b = gen(1, 1), gen(3, 3)
    assert model.evaluate(model.U, (a, b)) != model.evaluate(model.U, (b, a))
    # Neither word rewrites: the commutation is not a consequence of the
    # rules that _reduce_word applies.
    assert _reduce_word(TWO_K2.adj1, 4, (a, b)) == (a, b)


def test_renaming_gives_a_model_exactly_under_automorphisms():
    # Renaming the rows of a model under a permutation keeps it magic;
    # it commutes with the adjacency again exactly when the permutation
    # is an automorphism.  So a swap that cites a renaming, and an orbit
    # of the table's group, are sound only because the table entries are
    # checked automorphisms.
    identity = (1, 2, 3, 4)
    perms = list(itertools.permutations(identity))
    assert len(perms) == 24
    renamings = {rho: model.renamed(model.U, rho, identity) for rho in perms}
    assert all(model.is_magic(u) for u in renamings.values())
    models = [rho for rho, u in renamings.items() if model.commutes_with_adjacency(u)]
    assert models == [rho for rho in perms if is_automorphism(TWO_K2, rho)]
    assert len(models) == 8


def test_coverage_refuses_a_table_entry_the_model_refutes():
    # Swapping vertices 2 and 3 permutes the vertices of 2K2 but maps the
    # edge {1,2} to the non-edge {1,3}.  As a table entry it would put
    # the row pairs (1,2) and (1,3) into one orbit, and so the claims at
    # (1,1,2,2) and (1,1,3,3) into one orbit product, settled by either.
    # The model shows why that must not happen: u[1,1] and u[2,2]
    # commute there, and renamed under the swap on rows and columns they
    # become u[1,1] and u[3,3], which do not.  The checker refuses the
    # entry before it reads any step or conclusion.
    rho = (1, 3, 2, 4)
    assert not is_automorphism(TWO_K2, rho)
    a, b = gen(1, 1), gen(2, 2)
    assert model.evaluate(model.U, (a, b)) == model.evaluate(model.U, (b, a))
    renamed = model.renamed(model.U, rho, rho)
    assert model.evaluate(renamed, (a, b)) != model.evaluate(renamed, (b, a))
    assert renamed[1, 1] == model.U[1, 1] and renamed[2, 2] == model.U[3, 3]
    orbits = pair_orbits((rho,), 4)
    assert orbits[1, 2][0] == orbits[1, 3][0]
    cert = Certificate(format_graph_text(TWO_K2), FULL, (rho,), (), ())
    report = verifier.verify_certificate(TWO_K2, cert)
    assert not report.valid and report.location == "automorphism 0"
    assert report.reason == "not an automorphism of the graph"


# Every entry of a word of length at most 3 is a multiple of 1/8, so
# the polynomial checks below add 8 times the values, as integers.
SCALED = {w: tuple(int(8 * x) for x in v) for w, v in VALUES.items()}
assert all(8 * x == t for w, v in VALUES.items() for x, t in zip(v, SCALED[w]))


def _value(p):
    """8 times the matrix of p, whose words have length at most 3 and
    whose coefficients are integers."""
    total = [0, 0, 0, 0]
    for w, c in p.terms.items():
        for i, t in enumerate(SCALED[w]):
            total[i] += c * t
    return tuple(total)


def test_local_reduce_is_sound_in_the_model():
    # Each word alone, then with its normal form, where local_reduce
    # must add the coefficients of the two, to a sum or to zero.
    merged = 0
    for w in WORDS:
        assert _value(local_reduce(TWO_K2, Poly({w: 1}))) == SCALED[w], w
        normal = _reduce_word(TWO_K2.adj1, 4, w)
        if normal is None or normal == w:
            continue
        for c in (1, -2):
            p = Poly({w: 2, normal: c})
            assert _value(local_reduce(TWO_K2, p)) == _value(p), (w, c)
        merged += 1
    assert merged


def test_expand_unity_is_sound_in_the_model():
    # Every row and column sum, at every position of every word of
    # length 0 to 2, and of a sum of such words.
    short = [w for length in (0, 1, 2) for w in itertools.product(GENS, repeat=length)]
    for w in short:
        for position in range(len(w) + 1):
            for index, side in itertools.product(range(1, 5), (ROW, COL)):
                p = expand_unity(Poly({w: 1}), position, index, side, 4)
                assert _value(p) == SCALED[w], (w, position, index, side)
    pairs = Poly({w: k for k, w in enumerate(itertools.product(GENS, repeat=2), 1)})
    for index, side in itertools.product(range(1, 5), (ROW, COL)):
        assert _value(expand_unity(pairs, 1, index, side, 4)) == _value(pairs)


# The pairs of distinct generators whose matrices commute.
COMMUTING = {(a, b) for a in GENS for b in GENS if a != b and VALUES[a, b] == VALUES[b, a]}


def test_swap_pair_is_sound_for_pairs_that_commute_in_the_model():
    # A swap is sound only for a pair whose commutation holds, as a
    # certified one does in the quotient; in the model that means the
    # two matrices commute.  Each word of length 2 or 3, at each position
    # holding two distinct generators that commute there, and a sum of
    # words holding the pair in both orders.
    swapped = 0
    for w in WORDS:
        for position in range(len(w) - 1):
            a, b = w[position], w[position + 1]
            if (a, b) not in COMMUTING:
                continue
            q = swap_pair(Poly({w: 1}), position, a, b)
            assert q != Poly({w: 1}) and _value(q) == SCALED[w], (w, position)
            rev = w[:position] + (b, a) + w[position + 2 :]
            p = Poly({w: 2, rev: -3})
            assert _value(swap_pair(p, position, a, b)) == _value(p), (w, position)
            swapped += 1
    # The model has pairs that do not commute, which no swap may use.
    assert swapped and (gen(1, 1), gen(3, 3)) not in COMMUTING


def test_combine_is_sound_in_the_model():
    # A combine cites earlier claims with coefficients 1 or -1, and its
    # own difference may exceed that combination by any D whose
    # local_reduce is zero.  Here the cited claims are unity expansions,
    # which hold in the model, and D a sum of words less their normal
    # forms, or of words that rewrite to zero.  Every such claim is
    # accepted and holds in the model; so does every claim the checker
    # accepts after one coefficient is flipped or D is replaced by any
    # word, while the ones it refuses include claims that fail there.
    rng = random.Random(2)
    short = [w for length in (0, 1, 2) for w in itertools.product(GENS, repeat=length)]
    steps = []
    for sid in range(8):
        w = rng.choice(short)
        position, index = rng.randrange(len(w) + 1), rng.randrange(1, 5)
        side = rng.choice((ROW, COL))
        lhs = Poly({w: 1})
        rhs = expand_unity(lhs, position, index, side, 4)
        steps.append(ProofStep(sid, lhs, rhs, ExpandUnity(position, index, side)))
    vanishing = []
    for w in WORDS:
        normal = _reduce_word(TWO_K2.adj1, 4, w)
        if normal != w:
            vanishing.append(Poly({w: 1}) - (Poly.zero() if normal is None else Poly({normal: 1})))
    text = format_graph_text(TWO_K2)

    def check(lhs, rhs, terms):
        step = ProofStep(len(steps), lhs, rhs, Combine(terms))
        cert = Certificate(text, FULL, (), (*steps, step), ())
        return verifier._check_step(TWO_K2, cert, step) is None

    refused_false = 0
    for _ in range(300):
        terms = tuple((s, rng.choice((1, -1))) for s in rng.sample(range(len(steps)), 3))
        combination = Poly.zero()
        for s, c in terms:
            combination = combination + c * (steps[s].lhs - steps[s].rhs)
        d = Poly.zero()
        for v in rng.sample(vanishing, 3):
            d = d + rng.choice((1, -1)) * v
        assert local_reduce(TWO_K2, d).is_zero
        split = Poly({rng.choice(WORDS): 1})
        lhs = combination + d + split
        assert check(lhs, split, terms)
        assert _value(lhs - split) == (0, 0, 0, 0)
        s, c = terms[0]
        flipped = ((s, -c),) + terms[1:]
        junk = lhs + Poly({rng.choice(WORDS): 1})
        for claim, cited in ((lhs, flipped), (combination + split, terms), (junk, terms)):
            holds = _value(claim - split) == (0, 0, 0, 0)
            if check(claim, split, cited):
                assert holds, (claim, cited)
            elif not holds:
                refused_false += 1
    assert refused_false
    # The model's own witness: the commutation of u[1,1] and u[3,3]
    # fails there, and no combine without terms accepts it.
    a, b = Poly({(gen(1, 1), gen(3, 3)): 1}), Poly({(gen(3, 3), gen(1, 1)): 1})
    assert _value(a - b) != (0, 0, 0, 0) and not check(a, b, ())
