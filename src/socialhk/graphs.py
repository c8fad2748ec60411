"""Undirected self-looped graphs: constructors, matrices, conductance, diameters.

Vertices are 0-based integers internally; the JSON interchange format is
1-based with self-loops implied.  Every graph in this package carries a
self-loop at each vertex, so degrees are always >= 1 and the row-normalized
adjacency matrix is well defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, count

import numpy as np

from .errors import (
    DisconnectedGraph,
    EmptyVertexSet,
    GraphFormatError,
    GraphTooLarge,
)

CONDUCTANCE_CAP = 24
_BLOCK_ROWS = 64  # high-half masks per block of the conductance enumeration


def _canonical(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on ``n`` vertices with all self-loops.

    ``edges`` stores unordered pairs ``(i, j)`` with ``i <= j``, including
    every loop ``(i, i)``.  Construction validates symmetry implicitly (pairs
    are canonicalized) and adds any missing loops.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        canon = set()
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            canon.add(_canonical(i, j))
        canon.update((i, i) for i in range(self.n))
        object.__setattr__(self, "edges", frozenset(canon))

    # -- basic queries ---------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return _canonical(i, j) in self.edges

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if self.has_edge(i, j))

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    @property
    def degrees(self) -> np.ndarray:
        adj = self.adjacency_matrix()
        return adj.sum(axis=1).astype(int)

    def adjacency_matrix(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n))
        for i, j in self.edges:
            adj[i, j] = 1.0
            adj[j, i] = 1.0
        return adj

    def nonloop_edges(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i, j in self.edges if i != j)

    def is_complete(self) -> bool:
        return len(self.edges) == self.n + self.n * (self.n - 1) // 2

    # -- connectivity ----------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by minimum vertex."""
        seen = [False] * self.n
        comps = []
        adj = {i: [] for i in range(self.n)}
        for i, j in self.edges:
            if i != j:
                adj[i].append(j)
                adj[j].append(i)
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1


# -- matrices -------------------------------------------------------------


def degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of degrees, each self-loop counted once."""
    return np.diag(g.degrees.astype(float))


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Row-stochastic matrix D^{-1} A_adj; rows sum to 1."""
    adj = g.adjacency_matrix()
    deg = adj.sum(axis=1)
    return adj / deg[:, None]


# -- conductance ----------------------------------------------------------


def conductance(g: Graph) -> tuple[float, frozenset]:
    """Exact conductance of a connected graph, with a minimizing vertex set.

    Minimizes |boundary(S)| / min(d(S), d(complement)) over nonempty proper
    subsets S by exhaustive enumeration.  Boundary edges are counted once per
    unordered crossing pair; self-loops contribute to d(S) but never cross.
    Refuses graphs with more than 24 vertices.

    S and its complement give the same ratio, so vertex 0 stays in S and S
    is coded by the mask of the other n - 1 vertices, split into a low and a
    high half.  Tables per half give d(S) and the cut; the cut between the
    halves is one matrix product of 0/1 membership tables.  Every quantity is
    an integer below 2**53, so the float arithmetic is exact and each ratio
    is the correctly rounded quotient, whatever the BLAS build.  The high
    half runs in blocks of ``_BLOCK_ROWS`` rows, which keeps memory at a few
    MiB even at n = 24.  The witness is the first minimizing S in mask order.
    """
    if g.n > CONDUCTANCE_CAP:
        raise GraphTooLarge(g.n, CONDUCTANCE_CAP)
    if g.n < 2:
        raise ValueError("conductance needs at least two vertices")
    if not g.is_connected():
        raise DisconnectedGraph("conductance is defined here for connected graphs")

    adj = g.adjacency_matrix()
    np.fill_diagonal(adj, 0.0)
    deg = adj.sum(axis=1) + 1.0
    total = deg.sum()
    n_lo = (g.n + 1) // 2  # vertex 0, always in S, and the low half of the rest
    halves = ((np.arange(1 << (n_lo - 1)) << 1 | 1, 0, n_lo), (np.arange(1 << (g.n - n_lo)), n_lo, g.n))
    tables = []  # per half: membership rows, d(S ∩ half), cut terms of S ∩ half
    for codes, lo, hi in halves:
        x = (codes[:, None] >> np.arange(hi - lo) & 1).astype(float)
        inner = np.einsum("ij,ij->i", x @ adj[lo:hi, lo:hi], x)
        tables.append((x, x @ deg[lo:hi], x @ deg[lo:hi] - x.sum(axis=1) - inner))
    (x_lo, d_lo, c_lo), (x_hi, d_hi, c_hi) = tables
    across = adj[n_lo:, :n_lo] @ x_lo.T

    best, best_rest = np.inf, 0
    for r0 in range(0, len(x_hi), _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, len(x_hi))
        ratio = x_hi[r0:r1] @ across
        ratio *= -2.0
        ratio += c_hi[r0:r1, None] + c_lo
        d_s = d_hi[r0:r1, None] + d_lo
        den = np.minimum(d_s, total - d_s)
        if r1 == len(x_hi):  # exclude the full vertex set
            ratio[-1, -1], den[-1, -1] = np.inf, 1.0
        ratio /= den
        i = int(np.argmin(ratio))
        if ratio.flat[i] < best:
            best, best_rest = ratio.flat[i], r0 * len(x_lo) + i
    mask = best_rest << 1 | 1
    witness = frozenset(v for v in range(g.n) if mask >> v & 1)
    return best, witness


# -- distances ------------------------------------------------------------


def effective_diameter(g: Graph) -> int:
    """Largest diameter over connected components; self-loops ignored.

    Every vertex holds a bitmask of the vertices within r hops of it; a round
    ORs in the neighbors' masks, and the rounds that still grow some mask
    number the largest eccentricity.
    """
    nbrs = [[] for _ in range(g.n)]
    for i, j in g.nonloop_edges():
        nbrs[i].append(j)
        nbrs[j].append(i)
    reach = [1 << v for v in range(g.n)]
    for rounds in count():
        grown = list(reach)
        for v, ws in enumerate(nbrs):
            for w in ws:
                grown[v] |= reach[w]
        if grown == reach:
            return rounds
        reach = grown


def diameter(g: Graph) -> int:
    """Diameter of a connected graph (shortest-path metric, loops ignored)."""
    if not g.is_connected():
        raise DisconnectedGraph("diameter requires a connected graph")
    return effective_diameter(g)


# -- constructors ---------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        return path_graph(n)
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def dumbbell_graph(n: int) -> Graph:
    """Two cliques of size floor(n/2) joined by one edge.

    For odd n the leftover vertex joins the first clique.
    """
    if n < 2:
        raise ValueError("dumbbell needs at least two vertices")
    half = n // 2
    left = list(range(half + (n % 2)))
    right = list(range(len(left), n))
    edges = set(combinations(left, 2)) | set(combinations(right, 2))
    edges.add((left[-1], right[0]))
    return Graph(n, frozenset(edges))


_STANDARD = {
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "complete": complete_graph,
    "dumbbell": dumbbell_graph,
}


def standard_graph(name: str, n: int) -> Graph:
    """Named constructor dispatch: path, cycle, star, complete, dumbbell."""
    try:
        ctor = _STANDARD[name]
    except KeyError:
        raise ValueError(f"unknown graph family {name!r}; choose from {sorted(_STANDARD)}")
    return ctor(n)


@dataclass(frozen=True)
class PartiteSpec:
    """Sizes of the parts of a complete multipartite graph."""

    part_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.part_sizes)
        if len(sizes) < 1 or any(s < 1 for s in sizes):
            raise ValueError("part sizes must be positive integers")
        object.__setattr__(self, "part_sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.part_sizes)

    @property
    def r(self) -> int:
        return len(self.part_sizes)

    def parts(self) -> list[tuple[int, ...]]:
        """Vertex blocks: part i holds the next ``part_sizes[i]`` consecutive vertices."""
        out, start = [], 0
        for s in self.part_sizes:
            out.append(tuple(range(start, start + s)))
            start += s
        return out


def complete_r_partite(spec: PartiteSpec) -> Graph:
    """Complete multipartite graph: edges join vertices of different parts."""
    part_of = {}
    for idx, block in enumerate(spec.parts()):
        for v in block:
            part_of[v] = idx
    edges = frozenset(
        (u, v) for u, v in combinations(range(spec.n), 2) if part_of[u] != part_of[v]
    )
    return Graph(spec.n, edges)


# -- subgraphs ------------------------------------------------------------


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``vertices`` plus the map from local to global index.

    Local vertex k corresponds to the k-th smallest global vertex.  Self-loops
    are retained, so the result is again a valid self-looped graph.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise EmptyVertexSet("induced subgraph needs at least one vertex")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError("vertex out of range")
    local = {v: k for k, v in enumerate(vs)}
    edges = frozenset(
        (local[i], local[j]) for i, j in g.edges if i in local and j in local
    )
    return Graph(len(vs), edges), tuple(vs)


# -- JSON interchange ------------------------------------------------------


def graph_to_json(g: Graph) -> str:
    """Serialize with 1-based indices; self-loops are implied and omitted."""
    payload = {"n": g.n, "edges": [[i + 1, j + 1] for i, j in g.nonloop_edges()]}
    return json.dumps(payload)


def graph_from_json(text: str) -> Graph:
    """Parse the 1-based format, adding self-loops and rejecting bad pairs."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise GraphFormatError("expected an object with 'n' and 'edges'")
    n = payload["n"]
    if not isinstance(n, int) or n < 1:
        raise GraphFormatError("'n' must be a positive integer")
    seen = set()
    edges = set()
    for pair in payload["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphFormatError(f"edge {pair!r} is not a pair")
        i, j = pair
        if not (isinstance(i, int) and isinstance(j, int)):
            raise GraphFormatError(f"edge {pair!r} has non-integer endpoints")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"edge {pair!r} out of range for n={n}")
        if i == j:
            raise GraphFormatError(f"self-loop {pair!r} must not be listed; loops are implied")
        key = _canonical(i - 1, j - 1)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {pair!r}")
        seen.add(key)
        edges.add(key)
    return Graph(n, frozenset(edges))
