from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from qsym import (
    AutGroup,
    automorphism_group,
    complete,
    complete_bipartite,
    cycle,
    empty,
    complement,
    from_edge_list,
    induced_two_subset_map,
    is_automorphism,
    petersen,
    verify_s5_action,
)
from helpers import hoffman_singleton
from qsym import autgroup
from qsym.cli import BUILTIN_GRAPHS

perms5 = st.permutations(list(range(1, 6))).map(tuple)


def compose(p, q):
    """p after q, both in one-line notation: v goes to p(q(v))."""
    return tuple(p[v - 1] for v in q)


def test_is_automorphism_oracles():
    g = petersen()
    assert is_automorphism(g, tuple(range(1, 11)))
    # Swapping two adjacent vertices only is not an automorphism.
    images = list(range(1, 11))
    images[0], images[7] = images[7], images[0]
    assert not is_automorphism(g, images)
    # A map that does not permute the vertices is refused, not judged.
    with pytest.raises(ValueError, match="permutation has degree 9, graph has 10 vertices"):
        is_automorphism(g, tuple(range(1, 10)))
    with pytest.raises(ValueError, match="not a permutation of 1..10"):
        is_automorphism(g, (1, 1) + tuple(range(3, 11)))
    # Images must be ints: a float equal to a vertex, or True for 1, is
    # refused as a Certificate refuses it in its table.
    c5 = cycle(5)
    with pytest.raises(ValueError, match="not a permutation of 1..5"):
        is_automorphism(c5, (1, 2, 3, 4, 5.0))
    with pytest.raises(ValueError, match="not a permutation of 1..5"):
        is_automorphism(c5, (True, 2, 3, 4, 5))


def test_group_orders_frozen():
    assert automorphism_group(petersen()).order == 120
    assert automorphism_group(cycle(5)).order == 10
    assert automorphism_group(complete(4)).order == 24
    assert automorphism_group(empty(4)).order == 24
    assert automorphism_group(complete_bipartite(3, 3)).order == 72
    assert automorphism_group(complement(petersen())).order == 120
    assert automorphism_group(cycle(6)).order == 12


def test_group_elements_and_generators(petersen_aut):
    group = petersen_aut
    assert isinstance(group, AutGroup)
    assert len(group.elements) == group.order == 120
    assert len(set(group.elements)) == 120
    g = petersen()
    assert all(is_automorphism(g, p) for p in group.elements)
    assert all(is_automorphism(g, p) for p in group.generators)
    # The generators really generate: close them under composition.
    closure = {tuple(range(1, 11))}
    frontier = list(closure)
    while frontier:
        nxt = []
        for p in frontier:
            for q in group.generators:
                r = compose(p, q)
                if r not in closure:
                    closure.add(r)
                    nxt.append(r)
        frontier = nxt
    assert closure == set(group.elements)


def test_group_bound_rejected():
    with pytest.raises(ValueError):
        automorphism_group(hoffman_singleton())


def test_group_order_bound(monkeypatch):
    # The search keeps every element, so it stops past MAX_AUT_ORDER of
    # them; a group of exactly that order is still listed in full.
    monkeypatch.setattr(autgroup, "MAX_AUT_ORDER", 24)
    group = automorphism_group(empty(4))
    assert group.order == len(group.elements) == 24
    monkeypatch.setattr(autgroup, "MAX_AUT_ORDER", 23)
    with pytest.raises(ValueError, match="more than 23 elements"):
        automorphism_group(empty(4))
    assert automorphism_group(cycle(5)).order == 10


def test_induced_two_subset_map_oracle():
    assert induced_two_subset_map((1, 2, 3, 4, 5)) == tuple(range(1, 11))
    assert induced_two_subset_map((2, 1, 3, 4, 5)) == (1, 5, 6, 7, 2, 3, 4, 8, 9, 10)
    with pytest.raises(ValueError):
        induced_two_subset_map((1, 2, 3, 4))


@given(perms5, perms5)
def test_induced_map_is_a_homomorphism_into_aut(p, q):
    g = petersen()
    ip, iq = induced_two_subset_map(p), induced_two_subset_map(q)
    assert is_automorphism(g, ip)
    assert induced_two_subset_map(compose(p, q)) == compose(ip, iq)


def test_verify_s5_action():
    assert verify_s5_action(petersen()) is True
    with pytest.raises(ValueError):
        verify_s5_action(cycle(5))


def _reference_generating_subset(elements):
    """The greedy generating set as first written: the closure is
    rebuilt from the identity, through compose, each time a generator is
    adjoined."""
    if not elements:
        return ()
    ident = tuple(range(1, len(elements[0]) + 1))
    gens = []
    closure = {ident}
    for elem in elements:
        if elem in closure:
            continue
        gens.append(elem)
        frontier = [ident]
        closure = {ident}
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    r = compose(p, q)
                    if r not in closure:
                        closure.add(r)
                        nxt.append(r)
            frontier = nxt
    return tuple(gens)


@pytest.mark.parametrize("name", sorted(BUILTIN_GRAPHS) + ["k8"])
def test_generators_match_the_rebuilt_closure_reference(name):
    # The kept closure must pick the very generators that rebuilding it
    # from the identity picks; K8's 40,320 elements take 7 of them.
    g = complete(8) if name == "k8" else BUILTIN_GRAPHS[name]()
    group = automorphism_group(g)
    assert group.generators == _reference_generating_subset(group.elements)
    k1 = automorphism_group(from_edge_list(1, []))
    assert k1.generators == () and k1.elements == ((1,),)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edge_list(n, edges)


@settings(max_examples=80, deadline=None)
@given(small_graphs(), st.data())
def test_group_matches_the_brute_force_reference(g, data):
    # The pruned search must give what filtering every permutation gives:
    # the same sorted elements, the same greedy generators, and the same
    # refusal exactly when the group has more than MAX_AUT_ORDER elements.
    elements = tuple(
        p for p in permutations(range(1, g.n + 1)) if is_automorphism(g, p)
    )
    group = automorphism_group(g)
    assert group.elements == elements and group.order == len(elements)
    assert group.generators == _reference_generating_subset(elements)
    bound = data.draw(st.integers(min_value=0, max_value=len(elements)), label="bound")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autgroup, "MAX_AUT_ORDER", bound)
        if len(elements) > bound:
            with pytest.raises(ValueError, match=f"more than {bound} elements$"):
                automorphism_group(g)
        else:
            assert automorphism_group(g) == group
