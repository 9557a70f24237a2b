"""Finite simple graphs with 1-based vertex labels.

Vertices are the integers 1..n.  Graphs are immutable; adjacency is
stored once, as an int matrix padded for 1-based lookups, beside
precomputed neighbor lists, so that lookups inside algebraic rewriting
loops stay cheap.  A permutation of the vertices is a tuple in one-line
notation: entry v - 1 is the image of v.
"""

from __future__ import annotations

from itertools import combinations, compress
from typing import NamedTuple


# The most vertices a graph file may declare.  The header is refused
# before anything is built, since a graph holds an n x n adjacency
# matrix; every graph of interest here has at most 50 vertices.
MAX_FILE_VERTICES = 1000


class GraphFormatError(ValueError):
    """Raised when graph text input cannot be parsed.

    The offending 1-based line number is available as ``line``.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SrgParams(NamedTuple):
    """Strong regularity parameters (n, k, lam, mu)."""

    n: int
    k: int
    lam: int
    mu: int


class MooreReport(NamedTuple):
    """Outcome of checking k-regularity with lam=0 and mu=1.

    When ``holds`` is False, ``witness`` names a vertex or vertex pair
    violating the conditions and ``reason`` says how.
    """

    holds: bool
    k: int | None = None
    witness: tuple[int, ...] | None = None
    reason: str | None = None


# The prover's non-edge derivation needs k <= 3.  A k-regular graph with
# lam=0 and mu=1 has k^2 + 1 vertices, so the class has n <= 10.
MAX_DEGREE = 3


class ConditionsNotMet(ValueError):
    """The graph fails the regularity or common-neighbor hypotheses."""

    def __init__(self, report: MooreReport):
        super().__init__(report.reason or "conditions not met")
        self.report = report


class UnsupportedDegree(ValueError):
    """The graph satisfies the hypotheses but its degree is too large."""

    def __init__(self, k: int):
        super().__init__(f"common degree k={k} exceeds the supported bound {MAX_DEGREE}")
        self.k = k


class Graph:
    """Undirected simple graph on vertices 1..n: immutable, equal to a
    Graph with the same ``n`` and adjacency, and refusing an adjacency
    matrix that is not square, symmetric and loop-free, or that holds an
    entry other than an int or bool equal to 0 or 1."""

    # adj1 is the adjacency matrix as ints, with row 0 and column 0 as
    # padding so 1-based lookups need no offset; _nbrs[u] lists the
    # neighbors of u, ascending.
    __slots__ = ("n", "adj1", "_nbrs")

    def __init__(self, n: int, adj: tuple[tuple[bool, ...], ...]):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        if len(adj) != n or any(len(row) != n for row in adj):
            raise ValueError("adjacency matrix must be n x n")
        rows = []
        for i, row in enumerate(adj):
            # Two set passes in C per row, not a Python call per entry;
            # only a row that holds a bool is converted entry by entry.
            types = set(map(type, row))
            if not (types <= {int, bool} and set(row) <= {0, 1}):
                bad = next(x for x in row if type(x) not in (int, bool) or x not in (0, 1))
                raise ValueError(f"adjacency entry {bad!r} in row {i + 1} is not 0 or 1")
            rows.append(tuple(map(int, row)) if bool in types else tuple(row))
        rows = tuple(rows)
        # The loop test, then one comparison in C with the transpose; only
        # a matrix that fails is walked pair by pair, to name its first
        # loop or asymmetric pair in the order the walk meets them.
        if any(rows[i][i] for i in range(n)) or rows != tuple(zip(*rows)):
            for i in range(n):
                if rows[i][i]:
                    raise ValueError(f"loop at vertex {i + 1}")
                for j in range(i + 1, n):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError(f"adjacency not symmetric at ({i + 1}, {j + 1})")
        adj1 = ((0,) * (n + 1),) + tuple((0,) + row for row in rows)
        # Column 0 of each row is 0, so compress over 0..n skips it.
        nbrs = ((),) + tuple(tuple(compress(range(n + 1), row)) for row in adj1[1:])
        for name, value in zip(Graph.__slots__, (n, adj1, nbrs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Graph is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not Graph:
            return NotImplemented
        return (self.n, self.adj1) == (other.n, other.adj1)

    def __hash__(self) -> int:
        return hash((self.n, self.adj1))

    def __repr__(self) -> str:
        return "Graph(n={!r}, adj={!r})".format(*self.__reduce__()[1])

    def __reduce__(self):
        # The constructor's arguments: adj1 without its padding.
        return Graph, (self.n, tuple(row[1:] for row in self.adj1[1:]))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj1[u][v])

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._nbrs[u])

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors of u in ascending order."""
        self._check_vertex(u)
        return self._nbrs[u]

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        """Vertices adjacent to both u and v, ascending.  Requires u != v."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("common neighbors need two distinct vertices")
        row = self.adj1[v]
        return tuple(w for w in self._nbrs[u] if row[w])

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._nbrs[1:]) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        return tuple(
            (u, v) for u in self.vertices() for v in self._nbrs[u] if u < v
        )

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """Ordered pairs (u, v) with u adjacent to v, in lexicographic order."""
        return tuple((u, v) for u in self.vertices() for v in self._nbrs[u])

    def _check_vertex(self, u: int):
        if not (isinstance(u, int) and 1 <= u <= self.n):
            raise ValueError(f"vertex {u!r} out of range 1..{self.n}")


def is_automorphism(g: Graph, images) -> bool:
    """Whether the one-line images (entry v - 1 is the image of v)
    preserve adjacency of g; raises ValueError unless they are ints, not
    bools or floats, that permute the vertices of g."""
    img = tuple(images)
    n = g.n
    if len(img) != n:
        raise ValueError(f"permutation has degree {len(img)}, graph has {n} vertices")
    if set(map(type, img)) != {int} or sorted(img) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {img}")
    adj1 = g.adj1
    for u in g.vertices():
        row = adj1[u]
        irow = adj1[img[u - 1]]
        for v in range(u + 1, g.n + 1):
            if row[v] != irow[img[v - 1]]:
                return False
    return True


def pair_orbits(table, n: int) -> dict:
    """Map each ordered pair of vertices 1..n to (least, via): the least
    pair of its orbit under the group the permutations of ``table``
    generate, and None for that pair itself, else (p, t) for an earlier
    pair p of the orbit that entry t sends to it, so that following
    ``via`` back spells out an element sending the least pair to it.

    Each entry has finite order, so closing forward under the entries
    reaches the whole orbit.  Pairs are met in lexicographic order, and
    only lists are iterated, so the result is independent of hash order.
    """
    vs = range(1, n + 1)
    out: dict = {}
    for least in [(a, b) for a in vs for b in vs]:
        if least in out:
            continue
        out[least] = (least, None)
        frontier = [least]
        for a, b in frontier:  # grows while it is read
            for t, images in enumerate(table):
                image = (images[a - 1], images[b - 1])
                if image not in out:
                    out[image] = (least, ((a, b), t))
                    frontier.append(image)
    return out


def from_edge_list(n: int, edge_list) -> Graph:
    """Build a graph on 1..n from an iterable of (u, v) pairs."""
    rows = [[0] * n for _ in range(n)]
    seen = set()
    for u, v in edge_list:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        rows[u - 1][v - 1] = 1
        rows[v - 1][u - 1] = 1
    return Graph(n, tuple(tuple(row) for row in rows))


def empty(n: int) -> Graph:
    return from_edge_list(n, [])


def complete(n: int) -> Graph:
    return from_edge_list(n, combinations(range(1, n + 1), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    edge_list = [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)]
    return from_edge_list(a + b, edge_list)


def complement(g: Graph) -> Graph:
    rows = tuple(
        tuple(u != v and not g.adj1[u][v] for v in g.vertices())
        for u in g.vertices()
    )
    return Graph(g.n, rows)


def kneser_vertices(m: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The s-subsets of {1..m} in lexicographic order.

    Position i (0-based) is the subset labeled by vertex i + 1 in
    ``kneser(m, s)``.
    """
    return tuple(combinations(range(1, m + 1), s))


def kneser(m: int, s: int) -> Graph:
    """Kneser graph: s-subsets of {1..m}, adjacent when disjoint."""
    if s < 1 or m < 2 * s:
        raise ValueError(f"kneser graph needs m >= 2s >= 2, got m={m}, s={s}")
    subsets = kneser_vertices(m, s)
    n = len(subsets)
    edge_list = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if not set(subsets[i]) & set(subsets[j])
    ]
    return from_edge_list(n, edge_list)


def petersen() -> Graph:
    """The Petersen graph as the Kneser graph of 2-subsets of {1..5}."""
    return kneser(5, 2)


def srg_params(g: Graph) -> SrgParams | None:
    """Strong regularity parameters of g, or None.

    Requires regularity, a uniform common-neighbor count over adjacent
    pairs and another over non-adjacent pairs.  Complete and empty
    graphs lack one of the two pair classes and yield None.
    """
    if g.n < 2:
        return None
    k = g.degree(1)
    if any(g.degree(u) != k for u in g.vertices()):
        return None
    lam = mu = None
    for u, v in combinations(g.vertices(), 2):
        c = len(g.common_neighbors(u, v))
        if g.adj1[u][v]:
            if lam is None:
                lam = c
            elif lam != c:
                return None
        else:
            if mu is None:
                mu = c
            elif mu != c:
                return None
    if lam is None or mu is None:
        return None
    return SrgParams(g.n, k, lam, mu)


def check_moore_conditions(g: Graph) -> MooreReport:
    """Check that g is k-regular with lam=0 and mu=1.

    Adjacent vertices must have no common neighbor and distinct
    non-adjacent vertices exactly one.  The first violating vertex or
    pair in lexicographic order is reported.
    """
    k = g.degree(1)
    for u in g.vertices():
        d = g.degree(u)
        if d != k:
            return MooreReport(
                holds=False,
                witness=(1, u),
                reason=f"vertex 1 has degree {k} but vertex {u} has degree {d}",
            )
    for u, v in combinations(g.vertices(), 2):
        c = len(g.common_neighbors(u, v))
        if g.adj1[u][v]:
            if c != 0:
                return MooreReport(
                    holds=False,
                    witness=(u, v),
                    reason=f"adjacent pair ({u}, {v}) has {c} common neighbors, expected 0",
                )
        else:
            if c != 1:
                return MooreReport(
                    holds=False,
                    witness=(u, v),
                    reason=f"non-adjacent pair ({u}, {v}) has {c} common neighbors, expected 1",
                )
    return MooreReport(holds=True, k=k)


def require_hypotheses(g: Graph) -> None:
    """Raise ConditionsNotMet or UnsupportedDegree unless g meets the
    hypotheses with k <= MAX_DEGREE: unless it is K1, K2, C5 or Petersen
    (Hoffman and Singleton), the class that prove and verify take."""
    report = check_moore_conditions(g)
    if not report.holds:
        raise ConditionsNotMet(report)
    if report.k > MAX_DEGREE:
        raise UnsupportedDegree(report.k)


def format_graph_text(g: Graph) -> str:
    """Render g in the line-based text format.

    First line is "n m"; each following line is one edge "u v" with
    u < v, edges in lexicographic order.  Output ends with a newline.
    """
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    """Parse the text format accepted by :func:`format_graph_text`.

    Blank lines are skipped and ``#`` starts a full-line comment.
    """
    header = None
    edge_list = []
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"expected two integers, got {line!r}", lineno) from None
        if header is None:
            if a > MAX_FILE_VERTICES:
                raise GraphFormatError(
                    f"vertex count {a} exceeds the limit of {MAX_FILE_VERTICES}", lineno
                )
            header = (a, b)
            header_line = lineno
        else:
            edge_list.append((a, b, lineno))
    if header is None:
        raise GraphFormatError("missing header line", 1)
    n, m = header
    if n < 1:
        raise GraphFormatError(f"vertex count must be positive, got {n}", header_line)
    if m != len(edge_list):
        raise GraphFormatError(
            f"header declares {m} edges but {len(edge_list)} were given", header_line
        )
    try:
        return from_edge_list(n, [(u, v) for u, v, _ in edge_list])
    except ValueError as exc:
        # Re-scan to attribute the error to the offending line.
        seen = set()
        for u, v, lineno in edge_list:
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise GraphFormatError(str(exc), lineno) from None
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError(str(exc), lineno) from None
            seen.add(key)
        raise
