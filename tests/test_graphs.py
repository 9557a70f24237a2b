import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from qsym import (
    Graph,
    GraphFormatError,
    SrgParams,
    automorphism_group,
    check_moore_conditions,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    format_graph_text,
    from_edge_list,
    kneser,
    kneser_vertices,
    parse_graph_text,
    petersen,
    srg_params,
)
from qsym.graphs import MAX_FILE_VERTICES, pair_orbits
from helpers import closure

# Adjacency of the 2-subset construction on {1..5}, worked out by hand:
# vertex i is the i-th 2-subset in lexicographic order, edges join
# disjoint subsets.
PETERSEN_NEIGHBORS = {
    1: (8, 9, 10),
    2: (6, 7, 10),
    3: (5, 7, 9),
    4: (5, 6, 8),
    5: (3, 4, 10),
    6: (2, 4, 9),
    7: (2, 3, 8),
    8: (1, 4, 7),
    9: (1, 3, 6),
    10: (1, 2, 5),
}


def test_petersen_adjacency_oracle():
    g = petersen()
    assert g.n == 10
    assert g.edge_count() == 15
    for v, nbrs in PETERSEN_NEIGHBORS.items():
        assert g.neighbors(v) == nbrs


def test_petersen_is_kneser_5_2():
    assert petersen() == kneser(5, 2)
    assert kneser_vertices(5, 2)[0] == (1, 2)
    assert len(kneser_vertices(5, 2)) == 10


def test_kneser_disjointness_defines_edges():
    g = kneser(5, 2)
    subsets = kneser_vertices(5, 2)
    for a in range(1, 11):
        for b in range(1, 11):
            if a == b:
                continue
            disjoint = not (set(subsets[a - 1]) & set(subsets[b - 1]))
            assert bool(g.adj1[a][b]) == disjoint


def test_basic_constructors():
    assert complete(4).edge_count() == 6
    assert empty(4).edge_count() == 0
    assert cycle(5).edge_count() == 5
    assert complete_bipartite(3, 3).edge_count() == 9
    assert complement(petersen()).edge_count() == 45 - 15
    assert cycle(5).neighbors(1) == (2, 5)
    assert complete_bipartite(2, 3).neighbors(1) == (3, 4, 5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        empty(0)
    with pytest.raises(ValueError):
        kneser(3, 2)
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 4)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 2), (2, 1)])


def test_graph_invariants_rejected():
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (0, 0)))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, ((1, 0), (0, 0)))  # loop
    with pytest.raises(ValueError):
        Graph(2, ((0,), (0, 0)))  # ragged
    # Entries are ints or bools equal to 0 or 1, so that two Graphs with
    # the same edges are equal; a symmetric 2, -1, '1' or 1.0 is refused.
    for entry in (2, -1, "1", 1.0):
        with pytest.raises(ValueError, match="not 0 or 1"):
            Graph(2, ((0, entry), (entry, 0)))
    ones, bools = Graph(2, ((0, 1), (1, 0))), Graph(2, ((False, True), (True, False)))
    assert bools == ones and hash(bools) == hash(ones) and repr(bools) == repr(ones)


def test_first_invalid_pair_is_named():
    # Asymmetric at (1, 3) and (2, 3): the first pair in row order is
    # named, and a loop is named where a row-by-row walk meets it.
    two = ((0, 0, 1, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(1, 3\)$"):
        Graph(4, two)
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(1, 3\)$"):
        Graph(4, two[:3] + ((0, 0, 0, 1),))
    with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
        Graph(4, ((1,) + two[0][1:],) + two[1:])
    # Rows given as lists, mixing bools and ints, build the path 1-2-3.
    rows = [[False, 1, 0], [True, 0, 1], [0, 1, False]]
    assert Graph(3, rows) == from_edge_list(3, [(1, 2), (2, 3)])
    assert Graph(3, rows).neighbors(2) == (1, 3)


def test_graph_is_an_immutable_value():
    g = cycle(5)
    for name in ("n", "adj", "adj1", "_nbrs", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(g, name)
    # Equal, with one hash, exactly when n and adj are; a copy and a
    # pickled copy are built again through the checks.
    same = Graph(5, tuple(row[1:] for row in g.adj1[1:]))
    assert same == g and hash(same) == hash(g) and same is not g
    assert g != cycle(6) and g != complement(g) and g != (g.n, g.adj1)
    assert copy.copy(g) == g and pickle.loads(pickle.dumps(g)) == g
    assert repr(Graph(1, ((0,),))) == "Graph(n=1, adj=((0,),))"
    assert not hasattr(g, "adj")  # the adjacency is held once, in adj1


def test_common_neighbors_oracles():
    g = petersen()
    assert g.common_neighbors(1, 5) == (10,)
    assert g.common_neighbors(1, 8) == ()
    assert g.common_neighbors(2, 3) == (7,)
    with pytest.raises(ValueError):
        g.common_neighbors(1, 1)


def test_srg_params_oracles():
    assert srg_params(petersen()) == SrgParams(10, 3, 0, 1)
    assert srg_params(cycle(5)) == SrgParams(5, 2, 0, 1)
    assert srg_params(complement(petersen())) == SrgParams(10, 6, 3, 4)
    assert srg_params(complete_bipartite(3, 3)) == SrgParams(6, 3, 0, 3)
    # Degenerate or non-srg cases.
    assert srg_params(complete(4)) is None
    assert srg_params(empty(4)) is None
    assert srg_params(from_edge_list(4, [(1, 2), (2, 3)])) is None  # not regular
    assert srg_params(cycle(6)) is None  # non-uniform mu


def counting_identity_holds(params) -> bool:
    """Check k*(k - lam - 1) == (n - k - 1)*mu for srg parameters."""
    n, k, lam, mu = params
    return k * (k - lam - 1) == (n - k - 1) * mu


def test_srg_counting_identity():
    params = srg_params(petersen())
    assert counting_identity_holds(params)
    assert counting_identity_holds(srg_params(cycle(5)))


def test_moore_conditions_positive():
    for g, k in ((petersen(), 3), (cycle(5), 2), (complete(2), 1)):
        report = check_moore_conditions(g)
        assert report.holds and report.k == k
        assert report.witness is None and report.reason is None


def test_moore_conditions_negative_witnesses():
    cases = [
        (complete(4), "adjacent pair"),
        (empty(4), "non-adjacent pair"),
        (complement(petersen()), "adjacent pair"),
        (complete_bipartite(3, 3), "non-adjacent pair"),
        (from_edge_list(3, [(1, 2)]), "degree"),
    ]
    for g, fragment in cases:
        report = check_moore_conditions(g)
        assert not report.holds
        assert report.k is None
        assert report.witness is not None and len(report.witness) == 2
        assert fragment in report.reason


def test_format_parse_round_trip():
    for g in (petersen(), cycle(5), empty(4), complete(4), complete_bipartite(2, 3)):
        assert parse_graph_text(format_graph_text(g)) == g


def test_parse_graph_text_comments_and_blanks():
    text = "# a triangle\n3 3\n\n1 2\n2 3\n# done\n1 3\n"
    g = parse_graph_text(text)
    assert g == complete(3)


def test_parse_graph_text_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text("3 1\n1 x\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text("")
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text("3 2\n1 2\n")
    assert "edge" in str(exc.value)
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text("2 1\n1 2\n2 1\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("5 5\n1 2\n2 3\n3 4\n4 5\n2 1\n", 6, "duplicate edge (2, 1)"),
        ("5 5\n1 2\n2 3\n3 3\n4 5\n1 5\n", 4, "loop at vertex 3"),
        ("5 5\n1 2\n2 3\n3 4\n4 5\n5 9\n", 6, "edge (5, 9) out of range 1..5"),
        ("5 5\n1 2\n2 3\n3 x\n4 5\n1 5\n", 4, "expected two integers, got '3 x'"),
        ("0 0\n", 1, "vertex count must be positive, got 0"),
    ],
)
def test_parse_graph_text_names_the_refused_line(text, line, message):
    # An edge that from_edge_list refuses is named by its own line.
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text(text)
    assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"


def test_parse_graph_text_refuses_too_many_vertices():
    for n in (MAX_FILE_VERTICES + 1, 10**8):
        with pytest.raises(GraphFormatError, match="limit") as exc:
            parse_graph_text(f"# header next\n{n} 0\n")
        assert exc.value.line == 2


@given(st.integers(min_value=3, max_value=9))
def test_cycle_regularity(n):
    g = cycle(n)
    assert all(g.degree(v) == 2 for v in g.vertices())
    assert g.edge_count() == n


@given(st.integers(min_value=1, max_value=8))
def test_complement_involution(n):
    g = complete_bipartite(n, 2) if n > 2 else complete(n + 1)
    assert complement(complement(g)) == g


@given(st.integers(min_value=2, max_value=8), st.data())
def test_parse_format_random_graphs(n, data):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = from_edge_list(n, sorted(chosen))
    assert parse_graph_text(format_graph_text(g)) == g


def _distances(g):
    """Breadth-first distance of every ordered pair of vertices of g,
    None for vertices in different components."""
    dist = {}
    for s in g.vertices():
        dist[s, s] = 0
        frontier = [s]
        while frontier:
            reached = []
            for v in frontier:
                for w in g.neighbors(v):
                    if (s, w) not in dist:
                        dist[s, w] = dist[s, v] + 1
                        reached.append(w)
            frontier = reached
    return {(a, b): dist.get((a, b)) for a in g.vertices() for b in g.vertices()}


# Distance-transitive graphs: Aut acts transitively on the ordered pairs
# at each distance, so its orbits on ordered pairs are the distance
# classes.  The empty graph has one class at no distance.
@pytest.mark.parametrize(
    "g",
    [
        pytest.param(complete(1), id="k1"),
        pytest.param(complete(2), id="k2"),
        pytest.param(complete(4), id="k4"),
        pytest.param(cycle(5), id="c5"),
        pytest.param(cycle(6), id="c6"),
        pytest.param(complete_bipartite(3, 3), id="k33"),
        pytest.param(petersen(), id="petersen"),
        pytest.param(complement(petersen()), id="petersen-complement"),
        pytest.param(empty(3), id="empty3"),
    ],
)
def test_pair_orbits_of_aut_are_the_distance_classes(g):
    orbits = pair_orbits(automorphism_group(g).generators, g.n)
    dist = _distances(g)
    assert sorted(orbits) == sorted(dist)
    classes: dict = {}
    for pair in sorted(dist):
        classes.setdefault(dist[pair], []).append(pair)
    # Each class is one orbit, named by its least pair.
    for members in classes.values():
        assert {orbits[pair][0] for pair in members} == {members[0]}
    assert len({least for least, _ in orbits.values()}) == len(classes)


_ROT5 = (2, 3, 4, 5, 1)


@pytest.mark.parametrize(
    "table, n",
    [
        pytest.param((), 3, id="no-entries"),
        pytest.param(((1, 2, 3),), 3, id="identity"),
        pytest.param(((4, 3, 2, 1),), 4, id="path-reversal"),
        pytest.param(((2, 1, 3, 4), (2, 3, 4, 1)), 4, id="s4"),
        pytest.param(((2, 3, 1, 5, 4, 6),), 6, id="two-cycles-and-a-fixed-point"),
        pytest.param((_ROT5, _ROT5, (1, 2, 3, 4, 5)), 5, id="repeated-entries"),
        pytest.param(automorphism_group(cycle(5)).generators, 5, id="c5-aut"),
        pytest.param(automorphism_group(petersen()).generators, 10, id="petersen-aut"),
    ],
)
def test_pair_orbits_match_the_closure_and_spell_their_elements(table, n):
    # The reference is the orbit of each pair under every element of
    # the group the table generates.  Following ``via`` back from a pair
    # reaches the least pair of its orbit, one table entry per link, so
    # the entries met spell an element sending the least pair to it.
    group = closure(table, n)
    orbits = pair_orbits(table, n)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    assert sorted(orbits) == pairs
    for pair in pairs:
        least, via = orbits[pair]
        orbit = {(s[pair[0] - 1], s[pair[1] - 1]) for s in group}
        assert least == min(orbit)
        assert (via is None) == (pair == least)
        links = 0
        while via is not None:
            (a, b), t = via
            assert (table[t][a - 1], table[t][b - 1]) == pair
            assert orbits[a, b][0] == least
            pair, via = (a, b), orbits[a, b][1]
            links += 1
            assert links <= len(pairs)
        assert pair == least
