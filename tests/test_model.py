"""The rewrite rules and renaming, checked against an exact model.

model_reference gives a magic unitary in M2(Q) that commutes with the
adjacency of 2K2 and does not commute with itself.  Every equation that
holds in the quotient algebra of 2K2 holds there, so a rewrite that
changes a word's value in the model is unsound, and a renaming that
turns the model into a non-model is one the checker must refuse.
"""

import itertools

import model_reference as model
from qsym import cycle, from_edge_list, gen, is_automorphism
from qsym.relations import _reduce_word

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
    # is an automorphism.  So a transport step or a renamed conclusion
    # is sound only because its table entries are checked automorphisms.
    identity = (1, 2, 3, 4)
    perms = list(itertools.permutations(identity))
    assert len(perms) == 24
    renamings = {rho: model.renamed(model.U, rho, identity) for rho in perms}
    assert all(model.is_magic(u) for u in renamings.values())
    models = [rho for rho, u in renamings.items() if model.commutes_with_adjacency(u)]
    assert models == [rho for rho in perms if is_automorphism(TWO_K2, rho)]
    assert len(models) == 8
