"""Undirected self-looped graphs: edge arrays, components, matrices, conductance, diameters.

Vertices are 0-based integers internally; the JSON interchange format is
1-based with self-loops implied.  Every graph in this package carries a
self-loop at each vertex, so degrees are always >= 1 and the row-normalized
adjacency matrix is well defined.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, count

import numpy as np

from .errors import (
    DisconnectedGraph,
    EmptyVertexSet,
    GraphFormatError,
    GraphTooLarge,
)

CONDUCTANCE_CAP = 24
_BLOCK_ROWS = 64  # high-half masks per block of the conductance enumeration


class Graph:
    """Immutable undirected graph on ``n`` vertices with all self-loops.

    Stored as the sorted, read-only arrays of its non-loop edges ``src[e] <
    dst[e]`` (loops implied); every other view derives from them.
    ``Graph(n, edges)`` validates integer pairs in either orientation.
    """

    __slots__ = ("n", "src", "dst", "_hash", "_entries")

    def __init__(self, n: int, edges=frozenset()):
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"vertex count {n!r} is not an integer") from None
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        canon = set()  # pair codes i * n + j of the edges i < j
        for i, j in edges:
            try:
                i, j = operator.index(i), operator.index(j)
            except TypeError:
                raise ValueError(f"edge ({i!r},{j!r}) has non-integer endpoints") from None
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            if i != j:
                canon.add(i * n + j if i < j else j * n + i)
        codes = np.sort(np.fromiter(canon, np.intp, len(canon)))
        _from_arrays(n, *np.divmod(codes, n), self)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return _from_arrays, (self.n, self.src, self.dst)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (self.n == other.n and self.src.tobytes() == other.src.tobytes()
                                 and self.dst.tobytes() == other.dst.tobytes())

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.src.tobytes(), self.dst.tobytes())))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.nonloop_edges()})"

    @property
    def entries(self) -> tuple:
        """(tgt, nbr, edge, offsets), built on first use: the directed entries
        ``tgt <- nbr`` of the averaging sums, those of vertex v at
        ``offsets[v]:offsets[v + 1]``, itself first and then its neighbors
        ascending; ``edge`` is each entry's non-loop edge, -1 for the self entry.
        """
        if self._entries is None:
            loops, ids = np.arange(self.n), np.arange(len(self.src))
            tgt = np.concatenate([loops, self.src, self.dst])
            nbr = np.concatenate([loops, self.dst, self.src])
            edge = np.concatenate([np.full(self.n, -1), ids, ids])
            order = np.lexsort((nbr, edge >= 0, tgt))
            tgt, nbr, edge = tgt[order], nbr[order], edge[order]
            offsets = np.searchsorted(tgt, np.arange(self.n + 1))
            out = (tgt, nbr, edge, offsets)
            for a in out:
                a.setflags(write=False)
            object.__setattr__(self, "_entries", out)
        return self._entries

    def masked(self, mask) -> Graph:
        """The graph on the same vertices with the non-loop edges ``mask`` selects."""
        return _from_arrays(self.n, self.src[mask], self.dst[mask])

    # -- views -----------------------------------------------------------

    @property
    def edges(self) -> frozenset:
        """Unordered pairs ``(i, j)`` with ``i <= j``, every loop included."""
        loops = ((i, i) for i in range(self.n))
        return frozenset(chain(loops, zip(self.src.tolist(), self.dst.tolist())))

    def has_edge(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            return False
        _, nbr, _, offsets = self.entries
        return j in nbr[offsets[i]:offsets[i + 1]].tolist()

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Closed neighborhood of ``i``, ascending."""
        _, nbr, _, offsets = self.entries
        return tuple(sorted(nbr[offsets[i]:offsets[i + 1]].tolist()))

    def degree(self, i: int) -> int:
        offsets = self.entries[3]
        return int(offsets[i + 1] - offsets[i])

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate((self.src, self.dst)), minlength=self.n) + 1

    def adjacency_matrix(self) -> np.ndarray:
        adj = np.eye(self.n)
        adj[self.src, self.dst] = adj[self.dst, self.src] = 1.0
        return adj

    def nonloop_edges(self) -> list[tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def is_complete(self) -> bool:
        return len(self.src) == self.n * (self.n - 1) // 2

    def is_connected(self) -> bool:
        return not component_labels(self.n, self.src, self.dst).any()


def _from_arrays(n: int, src: np.ndarray, dst: np.ndarray, g: Graph | None = None) -> Graph:
    """Fill ``g`` (default: a new ``Graph``) with arrays already in its form
    (sorted, ``src < dst``, in range); nothing is revalidated."""
    g = Graph.__new__(Graph) if g is None else g
    src.setflags(write=False)
    dst.setflags(write=False)
    for name, value in zip(Graph.__slots__, (n, src, dst, None, None)):
        object.__setattr__(g, name, value)
    return g


# -- components -----------------------------------------------------------


def component_labels(n: int, src, dst) -> np.ndarray:
    """Label every vertex with the smallest vertex of its component under the
    links ``src[e]-dst[e]``.

    ``label`` is a forest of pointers to smaller vertices.  A round hooks each
    root that a link joins to a smaller root onto the smallest such root, then
    jumps pointers until all point at roots (Shiloach & Vishkin, J. Algorithms
    1982); the trees still linked at least halve per round.  A component's
    minimum vertex is never hooked, so it ends as the root.
    """
    label = np.arange(n)
    while True:
        a, b = label[src], label[dst]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        cross = lo != hi
        if not cross.any():
            return label
        np.minimum.at(label, hi[cross], lo[cross])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def label_groups(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the vertices grouped by component, each group
    ascending and the groups ordered by minimum vertex; group g is
    ``order[starts[g]:starts[g + 1]]``."""
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    return order, starts


def label_components(labels: np.ndarray) -> tuple:
    """Components as sorted vertex tuples, ordered by minimum vertex."""
    order, starts = label_groups(labels)
    vs, cuts = order.tolist(), starts.tolist() + [len(labels)]
    return tuple(tuple(vs[a:b]) for a, b in zip(cuts, cuts[1:]))


# -- matrices -------------------------------------------------------------


def degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of degrees, each self-loop counted once."""
    return np.diag(g.degrees.astype(float))


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Row-stochastic matrix D^{-1} A_adj; rows sum to 1."""
    return g.adjacency_matrix() / g.degrees[:, None]


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
    links = g.nonloop_edges()
    reach = [1 << v for v in range(g.n)]
    for rounds in count():
        grown = list(reach)
        for i, j in links:
            grown[i] |= reach[j]
            grown[j] |= reach[i]
        if grown == reach:
            return rounds
        reach = grown


@lru_cache(maxsize=64)
def diameter(g: Graph) -> int:
    """Diameter of a connected graph (shortest-path metric, loops ignored).

    Cached per graph: every sweep over one physical graph asks for it again.
    """
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
    part_of = [idx for idx, size in enumerate(spec.part_sizes) for _ in range(size)]
    return Graph(spec.n, [(u, v) for u, v in combinations(range(spec.n), 2) if part_of[u] != part_of[v]])


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
    local = np.full(g.n, -1)
    local[vs] = np.arange(len(vs))
    src, dst = local[g.src], local[g.dst]
    keep = np.minimum(src, dst) >= 0
    # local numbering keeps the order of global vertices, so the edge order too
    return _from_arrays(len(vs), src[keep], dst[keep]), tuple(vs)


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
    if type(n) is not int or n < 1:  # JSON true and false are bools, not integers
        raise GraphFormatError("'n' must be a positive integer")
    if not isinstance(payload["edges"], list):
        raise GraphFormatError("'edges' must be a list of pairs")
    seen = set()
    for pair in payload["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphFormatError(f"edge {pair!r} is not a pair")
        i, j = pair
        if not (type(i) is int and type(j) is int):
            raise GraphFormatError(f"edge {pair!r} has non-integer endpoints")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"edge {pair!r} out of range for n={n}")
        if i == j:
            raise GraphFormatError(f"self-loop {pair!r} must not be listed; loops are implied")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {pair!r}")
        seen.add(key)
    return Graph(n, seen)
