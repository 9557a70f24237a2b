import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    Poly,
    automorphism_group,
    cycle,
    gen,
    local_reduce,
    monomial,
    petersen,
    swap_pair,
    u,
)
from qsym.relations import _reduce_word
from algebra_reference import evaluate_perm
from relation_reference import (
    KILLED,
    ColOrth,
    Idem,
    RowOrth,
    RowSum,
    SelfAdj,
    VanishA,
    equations,
    relation_instances,
    rewrite_pair,
)

gens10 = st.tuples(st.integers(1, 10), st.integers(1, 10)).map(lambda t: gen(*t))
words10 = st.lists(gens10, max_size=5).map(tuple)
polys10 = st.lists(
    st.tuples(words10, st.integers(min_value=-2, max_value=2).filter(bool)),
    max_size=5,
).map(Poly)


def test_rewrite_pair_cases():
    a, b = gen(1, 2), gen(1, 3)
    assert rewrite_pair(RowOrth(1, 2, 3), a, b) is KILLED
    # The swapped product is a different orthogonality instance.
    assert rewrite_pair(RowOrth(1, 2, 3), b, a) is None
    assert rewrite_pair(RowOrth(1, 3, 2), b, a) is KILLED
    assert rewrite_pair(RowOrth(1, 2, 3), a, a) is None
    assert rewrite_pair(ColOrth(1, 2, 2), gen(1, 2), gen(2, 2)) is KILLED
    assert rewrite_pair(Idem(1, 2), a, a) == (a,)
    assert rewrite_pair(Idem(1, 3), a, a) is None
    v = VanishA(1, 1, 8, 3)
    assert rewrite_pair(v, gen(1, 1), gen(8, 3)) is KILLED
    assert rewrite_pair(v, gen(8, 3), gen(1, 1)) is KILLED  # both orientations
    # Sum and star relations are not pair rewrites.
    assert rewrite_pair(RowSum(1), a, b) is None
    assert rewrite_pair(SelfAdj(1, 2), a, a) is None


def test_swap_pair_semantics():
    a, b = gen(1, 1), gen(8, 8)
    p = monomial(((1, 1), (8, 8), (2, 2)))
    assert swap_pair(p, 0, a, b) == monomial(((8, 8), (1, 1), (2, 2)))
    # Either orientation of the pair is reversed, word by word, keeping
    # every coefficient.
    q = 3 * monomial(((2, 2), (1, 1), (8, 8))) - monomial(((3, 3), (8, 8), (1, 1)))
    assert swap_pair(q, 1, a, b) == 3 * monomial(((2, 2), (8, 8), (1, 1))) - monomial(
        ((3, 3), (1, 1), (8, 8))
    )
    assert swap_pair(swap_pair(q, 1, a, b), 1, b, a) == q
    assert swap_pair(Poly.zero(), 4, a, b).is_zero
    # Every term must hold the pair at the position.
    mixed = p + monomial(((1, 1), (3, 3)))
    with pytest.raises(ValueError, match="is not u\\[1,1\\] and u\\[8,8\\]"):
        swap_pair(mixed, 0, a, b)
    with pytest.raises(ValueError, match="no generator pair at position 2"):
        swap_pair(p, 2, a, b)  # position past the pair window
    for bad in (-1, True, "0"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            swap_pair(p, bad, a, b)


def test_local_reduce_frozen_examples():
    g = petersen()
    assert local_reduce(g, monomial(((1, 1), (1, 2)))).is_zero
    assert local_reduce(g, monomial(((1, 1), (1, 1)))) == u(1, 1)
    assert local_reduce(cycle(5), monomial(((1, 1), (2, 3)))).is_zero
    # Rows 1,2 non-adjacent and columns 8,6 non-adjacent: irreducible.
    survivor = monomial(((1, 8), (2, 6)))
    assert local_reduce(g, survivor) == survivor
    # Scan restarts after an idempotent deletion.
    p = monomial(((1, 1), (1, 1), (1, 2)))
    assert local_reduce(g, p).is_zero
    assert local_reduce(g, Poly.one()) == Poly.one()


def test_local_reduce_expand_interplay():
    # Inserting a row unity inside an edge-edge product and reducing
    # keeps exactly the neighbors of the second column index.
    from qsym import ROW, expand_unity

    g = petersen()
    x = monomial(((1, 1), (8, 8)))
    expanded = expand_unity(x, 2, 1, ROW, 10)
    reduced = local_reduce(g, expanded)
    want = sum(
        (monomial(((1, 1), (8, 8), (1, s))) for s in g.neighbors(8)), Poly.zero()
    )
    assert reduced == want


def test_local_reduce_rejects_out_of_range():
    g = cycle(5)
    with pytest.raises(ValueError):
        local_reduce(g, u(1, 6))


@given(polys10)
def test_local_reduce_idempotent(p):
    g = petersen()
    once = local_reduce(g, p)
    assert local_reduce(g, once) == once


@given(polys10, polys10)
def test_local_reduce_linear(p, q):
    g = petersen()
    assert local_reduce(g, p + q) == local_reduce(g, p) + local_reduce(g, q)


def test_relation_instances_counts():
    g = petersen()
    instances = list(relation_instances(g))
    by_kind = {}
    for rel in instances:
        by_kind.setdefault(type(rel).__name__, []).append(rel)
    n, m = 10, 15
    assert len(by_kind["Idem"]) == n * n
    assert len(by_kind["SelfAdj"]) == n * n
    assert len(by_kind["RowSum"]) == n
    assert len(by_kind["ColSum"]) == n
    assert len(by_kind["RowOrth"]) == n * n * (n - 1)
    assert len(by_kind["ColOrth"]) == n * n * (n - 1)
    # Per directed edge: ordered column pairs that are non-adjacent,
    # equal allowed.
    non_adj_ordered = n * n - 2 * m
    assert len(by_kind["VanishA"]) == 2 * m * non_adj_ordered
    assert len(by_kind["VanishB"]) == 2 * m * non_adj_ordered
    # The side conditions that pick out the two vanishing families.
    for rel in by_kind["VanishA"]:
        assert bool(g.adj1[rel.row1][rel.row2]) and not bool(g.adj1[rel.col1][rel.col2])
    for rel in by_kind["VanishB"]:
        assert not bool(g.adj1[rel.row1][rel.row2]) and bool(g.adj1[rel.col1][rel.col2])


@settings(max_examples=30)
@given(st.data())
def test_relation_equations_sound_under_automorphisms(data):
    g = petersen()
    elements = automorphism_group(g).elements
    sigma = data.draw(st.sampled_from(elements))
    rels = data.draw(st.lists(st.sampled_from(list(relation_instances(g))), min_size=1, max_size=20))
    for rel in rels:
        for lhs, rhs in equations(rel, g.n):
            assert evaluate_perm(g, sigma, lhs - rhs) == 0


@settings(max_examples=200)
@given(polys10, st.data())
def test_local_reduce_preserves_evaluation(p, data):
    g = petersen()
    elements = automorphism_group(g).elements
    sigma = data.draw(st.sampled_from(elements))
    assert evaluate_perm(g, sigma, p) == evaluate_perm(g, sigma, local_reduce(g, p))


@settings(max_examples=200)
@given(polys10, st.integers(1, 10), st.data())
def test_expand_unity_preserves_evaluation(p, idx, data):
    from qsym import ROW, COL, expand_unity

    g = petersen()
    elements = automorphism_group(g).elements
    sigma = data.draw(st.sampled_from(elements))
    side = data.draw(st.sampled_from([ROW, COL]))
    assert evaluate_perm(g, sigma, p) == evaluate_perm(
        g, sigma, expand_unity(p, 0, idx, side, 10)
    )


def _one_rule_rewrites(g):
    """Map each generator pair to the results of every rule that rewrites it.

    Built by trying ``rewrite_pair`` for every instance from
    ``relation_instances``.  A rule only matches generators whose indices
    are among its own fields, so those pairs are the only candidates.
    """
    table = {}
    for rel in relation_instances(g):
        values = set(dataclasses.astuple(rel))
        cands = [gen(r, c) for r in values for c in values]
        for a, b in itertools.product(cands, repeat=2):
            res = rewrite_pair(rel, a, b)
            if res is not None:
                table.setdefault((a, b), set()).add(None if res is KILLED else res)
    return table


def _normal_forms(table, w):
    """Every irreducible word that w rewrites to, one rule at a time; None is zero."""
    found, seen, todo = set(), set(), [w]
    while todo:
        x = todo.pop()
        if x in seen:
            continue
        seen.add(x)
        if x is None:
            found.add(None)
            continue
        nxt = [
            None if res is None else x[:i] + res + x[i + 2 :]
            for i in range(len(x) - 1)
            for res in table.get((x[i], x[i + 1]), ())
        ]
        if not nxt:
            found.add(x)
        todo.extend(nxt)
    return found


@pytest.mark.parametrize("graph, max_len", [(cycle(5), 3), (petersen(), 2)], ids=["c5", "petersen"])
def test_reduce_word_matches_one_rule_rewriting(graph, max_len):
    # The checker's LocalReduce trusts _reduce_word; compare it on every
    # short word with naive rewriting by the relation instances, which
    # must also reach a single normal form.
    table = _one_rule_rewrites(graph)
    gens = [gen(r, c) for r in graph.vertices() for c in graph.vertices()]
    for length in range(max_len + 1):
        for w in itertools.product(gens, repeat=length):
            assert _normal_forms(table, w) == {_reduce_word(graph.adj1, graph.n, w)}, w
