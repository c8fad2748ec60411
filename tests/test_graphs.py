import pickle
import tracemalloc

import numpy as np
import pytest

from socialhk import graphs
from socialhk.errors import (
    DisconnectedGraph,
    EmptyVertexSet,
    GraphFormatError,
    GraphTooLarge,
)

from conftest import philox, random_connected_graph


def brute_conductance(g: graphs.Graph) -> float:
    """Independent oracle: enumerate ordered crossing pairs and halve."""
    deg = g.degrees
    total = deg.sum()
    best = np.inf
    for mask in range(1, (1 << g.n) - 1):
        s = {v for v in range(g.n) if mask >> v & 1}
        ordered = sum(
            1
            for i in range(g.n)
            for j in range(g.n)
            if i != j and g.has_edge(i, j) and ((i in s) != (j in s))
        )
        d_s = sum(int(deg[v]) for v in s)
        best = min(best, (ordered / 2) / min(d_s, total - d_s))
    return best


def loop_conductance(g: graphs.Graph) -> tuple[float, frozenset]:
    """Reference: the per-mask Python loop that ``graphs.conductance`` replaced."""
    deg = g.degrees
    total = int(deg.sum())
    # Bitmask of non-loop neighbors per vertex.
    nbr = [0] * g.n
    for i, j in g.nonloop_edges():
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i

    best = None
    best_mask = 0
    # S and its complement give the same ratio, so fix vertex 0 in S.
    for rest in range(1 << (g.n - 1)):
        mask = (rest << 1) | 1
        if mask == (1 << g.n) - 1:
            continue
        d_s = 0
        cut = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d_s += deg[v]
            cut += bin(nbr[v] & ~mask).count("1")
        ratio = cut / min(d_s, total - d_s)
        if best is None or ratio < best:
            best = ratio
            best_mask = mask
    witness = frozenset(v for v in range(g.n) if best_mask >> v & 1)
    return best, witness


FAMILIES = ("path", "cycle", "star", "complete", "dumbbell")


def assert_matches_loop(g: graphs.Graph):
    phi, witness = graphs.conductance(g)
    ref_phi, ref_witness = loop_conductance(g)
    assert phi.hex() == ref_phi.hex()
    assert witness == ref_witness


def union_find_components(n: int, src, dst) -> tuple:
    """Reference: the Python union-find that ``graphs.component_labels``
    replaced.  Components of the links ``src[e]-dst[e]``, each sorted,
    ordered by minimum vertex."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in zip(list(src), list(dst)):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[rj] = ri
    groups = {}
    for v in range(n):  # ascending, so every group and the group order come sorted
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(g) for g in groups.values())


def assert_labels_match(n, src, dst):
    labels = graphs.component_labels(n, np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp))
    comps = union_find_components(n, src, dst)
    assert graphs.label_components(labels) == comps
    want = np.empty(n, dtype=np.intp)
    for comp in comps:
        want[list(comp)] = comp[0]
    assert np.array_equal(labels, want)


class TestComponentLabels:
    def test_random_graphs(self):
        rng = philox(41)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(0, 2 * n + 1))
            src, dst = rng.integers(0, n, m), rng.integers(0, n, m)  # loops and repeats included
            assert_labels_match(n, src, dst)

    def test_shuffled_paths(self):
        rng = philox(43)
        for n in (2, 3, 17, 256, 1000, 4096):
            perm = rng.permutation(n)
            order = rng.permutation(n - 1)  # links in random order
            src, dst = perm[:-1][order], perm[1:][order]
            assert_labels_match(n, src, dst)
            assert not graphs.component_labels(n, src, dst).any()

    def test_edgeless_and_single_vertex(self):
        for n in (1, 2, 7):
            assert_labels_match(n, [], [])
        assert graphs.label_components(graphs.component_labels(1, np.array([0]), np.array([0]))) == ((0,),)

    def test_groups(self):
        labels = graphs.component_labels(6, np.array([4, 1, 5]), np.array([1, 3, 2]))
        order, starts = graphs.label_groups(labels)
        assert order.tolist() == [0, 1, 3, 4, 2, 5] and starts.tolist() == [0, 1, 4]


def random_graph(rng, n):
    """A random edge set in random orientation, with some listed loops."""
    p = float(rng.uniform(0.0, 0.6))
    edges = {(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    edges |= {(i, i) for i in range(n) if rng.random() < 0.3}
    return edges


class TestGraphViews:
    def test_views_match_a_frozenset_reference(self):
        rng = philox(47)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            listed = random_graph(rng, n)
            g = graphs.Graph(n, frozenset(listed))
            ref = {(min(i, j), max(i, j)) for i, j in listed} | {(i, i) for i in range(n)}
            assert g.edges == frozenset(ref)
            assert g.nonloop_edges() == sorted((i, j) for i, j in ref if i != j)
            adj = np.zeros((n, n))
            for i, j in ref:
                adj[i, j] = adj[j, i] = 1.0
            assert np.array_equal(g.adjacency_matrix(), adj)
            for i in range(-1, n + 1):
                for j in range(-1, n + 1):
                    assert g.has_edge(i, j) == ((min(i, j), max(i, j)) in ref)
            nbrs = [tuple(j for j in range(n) if (min(i, j), max(i, j)) in ref) for i in range(n)]
            assert [g.neighbors(i) for i in range(n)] == nbrs
            assert [g.degree(i) for i in range(n)] == [len(nb) for nb in nbrs]
            assert g.degrees.tolist() == [len(nb) for nb in nbrs]
            comps = union_find_components(n, *zip(*ref))
            assert g.is_connected() == (len(comps) == 1)
            assert g.is_complete() == (len(ref) == n * (n + 1) // 2)
            again = graphs.Graph(n, g.edges)
            assert again == g and hash(again) == hash(g)
            assert graphs.Graph(n, frozenset(ref) | {(0, 0)}) == g
            if len(ref) > n:
                assert graphs.Graph(n, frozenset(ref - {g.nonloop_edges()[0]})) != g

    def test_masked_and_induced_match_the_constructor(self):
        rng = philox(53)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            g = graphs.Graph(n, frozenset(random_graph(rng, n)))
            mask = rng.random(len(g.src)) < 0.5
            kept = [e for e, live in zip(g.nonloop_edges(), mask) if live]
            assert g.masked(mask) == graphs.Graph(n, kept)
            vs = sorted(set(rng.integers(0, n, int(rng.integers(1, n + 1))).tolist()))
            sub, got = graphs.induced_subgraph(g, vs)
            local = {v: k for k, v in enumerate(vs)}
            want = graphs.Graph(len(vs), [(local[i], local[j]) for i, j in g.edges if i in local and j in local])
            assert got == tuple(vs) and sub == want and hash(sub) == hash(want)

    def test_arrays_are_read_only(self):
        g = graphs.cycle_graph(5)
        for a in (g.src, g.dst, *g.entries):
            with pytest.raises(ValueError):
                a[0] = 1
        with pytest.raises(AttributeError):
            g.n = 4

    def test_pickle_round_trip(self):
        g = graphs.dumbbell_graph(7)
        again = pickle.loads(pickle.dumps(g))
        assert again == g and hash(again) == hash(g) and again.neighbors(3) == g.neighbors(3)

    def test_rejects_non_integer_endpoints(self):
        with pytest.raises(ValueError, match="non-integer"):
            graphs.Graph(3, frozenset({(0.5, 1)}))
        with pytest.raises(ValueError, match="non-integer"):
            graphs.Graph(3, [(0, 1.0)])
        with pytest.raises(ValueError):
            graphs.Graph(2.0)
        # numpy integers are integers
        g = graphs.Graph(np.int64(3), [(np.int64(2), np.int32(0))])
        assert g == graphs.Graph(3, [(0, 2)]) and g.degrees.tolist() == [2, 1, 2]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            graphs.Graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="out of range"):
            graphs.Graph(3, [(-1, 2)])
        with pytest.raises(ValueError):
            graphs.Graph(0)


class TestDegreeAndAdjacency:
    def test_p3_degrees(self):
        d = graphs.degree_matrix(graphs.path_graph(3))
        assert np.array_equal(np.diag(d), [2, 3, 2])

    def test_k1_degree(self):
        assert np.array_equal(np.diag(graphs.degree_matrix(graphs.Graph(1))), [1])

    def test_k3_degrees(self):
        d = graphs.degree_matrix(graphs.complete_graph(3))
        assert np.array_equal(np.diag(d), [3, 3, 3])

    def test_p3_normalized(self):
        a = graphs.normalized_adjacency(graphs.path_graph(3))
        want = np.array([[1 / 2, 1 / 2, 0], [1 / 3, 1 / 3, 1 / 3], [0, 1 / 2, 1 / 2]])
        assert np.allclose(a, want, atol=1e-15)

    def test_complete_normalized_uniform(self):
        for n in (2, 3, 5):
            a = graphs.normalized_adjacency(graphs.complete_graph(n))
            assert np.allclose(a, np.full((n, n), 1 / n), atol=1e-15)

    def test_single_vertex(self):
        assert np.array_equal(graphs.normalized_adjacency(graphs.Graph(1)), [[1.0]])

    def test_rows_sum_to_one_random(self):
        rng = philox(7)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            a = graphs.normalized_adjacency(g)
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-12


class TestConductance:
    def test_p3(self):
        phi, witness = graphs.conductance(graphs.path_graph(3))
        assert phi == pytest.approx(0.5, abs=1e-15)
        assert witness in ({0}, {2})

    def test_p4(self):
        phi, witness = graphs.conductance(graphs.path_graph(4))
        assert phi == pytest.approx(0.2, abs=1e-15)
        assert witness in ({0, 1}, {2, 3})

    def test_k2(self):
        phi, _ = graphs.conductance(graphs.path_graph(2))
        assert phi == pytest.approx(0.5, abs=1e-15)

    def test_matches_independent_bruteforce(self):
        rng = philox(99)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            phi, _ = graphs.conductance(g)
            assert phi == pytest.approx(brute_conductance(g), abs=1e-12)

    def test_range(self):
        rng = philox(5)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            phi, _ = graphs.conductance(g)
            assert 0 < phi <= 1

    def test_too_large(self):
        with pytest.raises(GraphTooLarge):
            graphs.conductance(graphs.path_graph(25))

    def test_matches_loop_on_random_graphs(self):
        rng = philox(2024)
        for _ in range(60):
            assert_matches_loop(random_connected_graph(rng, int(rng.integers(2, 15))))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_loop_on_families(self, family):
        # Ties are common here, so the witness pins the first-minimizer rule.
        for n in range(2, 17):
            assert_matches_loop(graphs.standard_graph(family, n))

    def test_matches_loop_across_blocks(self, monkeypatch):
        monkeypatch.setattr(graphs, "_BLOCK_ROWS", 3)
        rng = philox(77)
        for _ in range(30):
            assert_matches_loop(random_connected_graph(rng, int(rng.integers(2, 12))))
        for family in FAMILIES:
            for n in range(2, 13):
                assert_matches_loop(graphs.standard_graph(family, n))

    def test_at_cap(self):
        g = graphs.path_graph(graphs.CONDUCTANCE_CAP)
        tracemalloc.start()
        try:
            phi, witness = graphs.conductance(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi == 1 / 35
        assert witness in (frozenset(range(12)), frozenset(range(12, 24)))
        assert peak < 32 * 2**20

    def test_disconnected(self):
        g = graphs.Graph(4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(DisconnectedGraph):
            graphs.conductance(g)


def bfs_diameter(g: graphs.Graph) -> int:
    """Independent oracle: a level-by-level BFS from every vertex over
    neighbor sets; the largest depth reached is the effective diameter."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    best = 0
    for s in range(g.n):
        seen, frontier, depth = {s}, {s}, 0
        while True:
            frontier = set().union(*(adj[v] for v in frontier)) - seen
            if not frontier:
                break
            seen |= frontier
            depth += 1
        best = max(best, depth)
    return best


def gnp(rng, n, p):
    """A seeded G(n, p) graph (possibly disconnected) on ``n`` vertices."""
    i, j = np.triu_indices(n, 1)
    keep = rng.random(len(i)) < p
    return graphs.Graph(n, zip(i[keep].tolist(), j[keep].tolist()))


def disjoint_union(*parts):
    edges, base = set(), 0
    for g in parts:
        edges |= {(i + base, j + base) for i, j in g.nonloop_edges()}
        base += g.n
    return graphs.Graph(base, edges)


class TestDiameters:
    def test_p4(self):
        assert graphs.effective_diameter(graphs.path_graph(4)) == 3

    def test_k5(self):
        assert graphs.effective_diameter(graphs.complete_graph(5)) == 1

    def test_two_components(self):
        g = graphs.Graph(6, frozenset({(0, 1), (1, 2), (3, 4), (4, 5)}))
        assert graphs.effective_diameter(g) == 2

    def test_connected_bound(self):
        rng = philox(3)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            assert graphs.effective_diameter(g) <= g.n - 1

    def test_matches_bfs_reference(self):
        rng = philox(5)
        cases = [graphs.standard_graph(kind, n) for kind in ("path", "cycle", "star", "dumbbell")
                 for n in (2, 3, 7, 12)]
        cases += [graphs.Graph(1), graphs.Graph(5)]
        for _ in range(10):  # disjoint unions of two random connected graphs
            a = random_connected_graph(rng, int(rng.integers(1, 7)))
            b = random_connected_graph(rng, int(rng.integers(1, 7)))
            cases.append(disjoint_union(a, b))
        for g in cases:
            assert graphs.effective_diameter(g) == bfs_diameter(g), g

    # both sides of the 128-vertex switch from Python ints to numpy word rows,
    # and of the word size

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize("kind", ["path", "cycle", "star", "dumbbell", "complete"])
    def test_standard_families_around_the_word_size(self, kind, n):
        g = graphs.standard_graph(kind, n)
        d = graphs.effective_diameter(g)
        assert type(d) is int  # bounds writes it to JSON
        assert d == bfs_diameter(g)

    def test_word_rows_below_the_switch(self):
        # the kernel is exact at every size, one and two words a row included
        rng = philox(19)
        cases = [graphs.standard_graph(kind, n) for kind in ("path", "cycle", "star", "dumbbell", "complete")
                 for n in (2, 3, 63, 64, 65, 128)]
        cases += [graphs.Graph(1), graphs.Graph(70), disjoint_union(graphs.Graph(3), graphs.path_graph(5))]
        for _ in range(10):
            n = int(rng.integers(2, 129))
            cases.append(gnp(rng, n, float(rng.uniform(0.0, 6.0)) / n))
        for g in cases:
            d = graphs._word_row_rounds(g)
            assert type(d) is int and d == bfs_diameter(g), g

    def test_broom(self):
        # a star:40 hub with a 100-vertex path tail: one vertex of closed
        # degree 40 (a reduce) among vertices of degree 2 and 3 (two gather
        # slots), and 102 rounds
        edges = {(0, leaf) for leaf in range(1, 40)} | {(v, v + 1) for v in range(39, 139)}
        g = graphs.Graph(140, edges)
        assert graphs.effective_diameter(g) == bfs_diameter(g) == 102

    def test_disjoint_unions_with_isolated_vertices(self):
        rng = philox(11)
        for _ in range(8):
            parts = [random_connected_graph(rng, int(rng.integers(33, 60)), 0.05) for _ in range(4)]
            parts += [graphs.Graph(1)] * int(rng.integers(1, 5))
            g = disjoint_union(*(parts[k] for k in rng.permutation(len(parts))))
            assert g.n > graphs._INT_LOOP_MAX
            assert graphs.effective_diameter(g) == bfs_diameter(g)
        assert graphs.effective_diameter(graphs.Graph(200)) == 0
        assert graphs.effective_diameter(disjoint_union(graphs.Graph(140), graphs.path_graph(3))) == 2

    def test_random_graphs_above_the_switch(self):
        rng = philox(13)
        for _ in range(25):
            n = int(rng.integers(129, 257))
            g = gnp(rng, n, float(rng.uniform(0.0, 6.0)) / n)
            assert graphs.effective_diameter(g) == bfs_diameter(g), g

    def test_pinned_large_cycles_and_paths(self):
        for g, want in ((graphs.cycle_graph(512), 256), (graphs.path_graph(512), 511)):
            d = graphs.effective_diameter(g)
            assert type(d) is int and d == want

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = philox(17)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            g = gnp(rng, n, float(rng.uniform(0.0, 1.0)) if n <= 24 else float(rng.uniform(0.0, 8.0)) / n)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.nonloop_edges())
            want = max(nx.diameter(h.subgraph(c).copy(), usebounds=True) for c in nx.connected_components(h))
            assert graphs.effective_diameter(g) == want, g

    def test_diameter_requires_connected(self):
        with pytest.raises(DisconnectedGraph):
            graphs.diameter(graphs.Graph(3))

    def test_diameter_cached_per_graph(self, monkeypatch):
        calls = []
        inner = graphs.effective_diameter
        monkeypatch.setattr(graphs, "effective_diameter", lambda g: calls.append(g) or inner(g))
        graphs.diameter.cache_clear()
        assert graphs.diameter(graphs.cycle_graph(9)) == 4
        assert graphs.diameter(graphs.cycle_graph(9)) == 4  # an equal graph, built anew
        assert len(calls) == 1
        assert graphs.diameter(graphs.path_graph(9)) == 8
        assert len(calls) == 2


class TestConstructors:
    def test_complete_r_partite_1_2(self):
        g = graphs.complete_r_partite(graphs.PartiteSpec((1, 2)))
        assert g.nonloop_edges() == [(0, 1), (0, 2)]

    def test_one_part_edgeless(self):
        g = graphs.complete_r_partite(graphs.PartiteSpec((4,)))
        assert g.nonloop_edges() == []

    def test_all_singletons_is_complete(self):
        g = graphs.complete_r_partite(graphs.PartiteSpec((1, 1, 1)))
        assert g.edges == graphs.complete_graph(3).edges

    def test_dumbbell6(self):
        g = graphs.dumbbell_graph(6)
        assert g.nonloop_edges() == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]

    def test_dumbbell_odd(self):
        g = graphs.dumbbell_graph(7)
        # leftover vertex joins the first clique
        assert (0, 3) in g.edges and (3, 4) in g.edges

    def test_standard_dispatch(self):
        assert graphs.standard_graph("path", 4).edges == graphs.path_graph(4).edges
        assert graphs.standard_graph("complete", 3).edges == graphs.complete_graph(3).edges
        with pytest.raises(ValueError):
            graphs.standard_graph("torus", 4)

    def test_self_loops_and_symmetry_everywhere(self):
        rng = philox(21)
        candidates = [
            graphs.path_graph(5),
            graphs.cycle_graph(6),
            graphs.star_graph(5),
            graphs.complete_graph(4),
            graphs.dumbbell_graph(7),
            graphs.complete_r_partite(graphs.PartiteSpec((2, 3))),
            random_connected_graph(rng, 8),
        ]
        for g in candidates:
            for i in range(g.n):
                assert g.has_edge(i, i)
            for i, j in g.edges:
                assert g.has_edge(j, i)


class TestInducedSubgraph:
    def test_p4_prefix_is_p3(self):
        sub, vs = graphs.induced_subgraph(graphs.path_graph(4), [0, 1, 2])
        assert vs == (0, 1, 2)
        assert sub.edges == graphs.path_graph(3).edges

    def test_one_part_of_k22(self):
        g = graphs.complete_r_partite(graphs.PartiteSpec((2, 2)))
        sub, _ = graphs.induced_subgraph(g, [0, 1])
        assert sub.nonloop_edges() == []

    def test_identity(self):
        g = graphs.dumbbell_graph(6)
        sub, _ = graphs.induced_subgraph(g, range(6))
        assert sub.edges == g.edges

    def test_empty(self):
        with pytest.raises(EmptyVertexSet):
            graphs.induced_subgraph(graphs.path_graph(3), [])

    def test_loops_kept(self):
        sub, _ = graphs.induced_subgraph(graphs.path_graph(4), [0, 2])
        assert sub.edges == frozenset({(0, 0), (1, 1)})


class TestJson:
    def test_round_trip(self):
        rng = philox(11)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            assert graphs.graph_from_json(graphs.graph_to_json(g)).edges == g.edges

    def test_loops_implied(self):
        g = graphs.graph_from_json('{"n": 2, "edges": [[1, 2]]}')
        assert g.edges == frozenset({(0, 0), (1, 1), (0, 1)})

    def test_rejects_duplicates(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            graphs.graph_from_json('{"n": 3, "edges": [[1, 2], [2, 1]]}')

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            graphs.graph_from_json('{"n": 2, "edges": [[1, 3]]}')

    def test_rejects_listed_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            graphs.graph_from_json('{"n": 2, "edges": [[1, 1]]}')

    @pytest.mark.parametrize("edges", ["5", "null", "{}"])
    def test_rejects_edges_that_are_no_list(self, edges):
        with pytest.raises(GraphFormatError, match="'edges' must be a list"):
            graphs.graph_from_json(f'{{"n": 3, "edges": {edges}}}')

    def test_rejects_malformed(self):
        with pytest.raises(GraphFormatError):
            graphs.graph_from_json("{not json")
        with pytest.raises(GraphFormatError):
            graphs.graph_from_json('{"n": 2}')
        # JSON true and false are bools, not integers
        with pytest.raises(GraphFormatError):
            graphs.graph_from_json('{"n": 3, "edges": [[true, 2]]}')
        with pytest.raises(GraphFormatError):
            graphs.graph_from_json('{"n": true, "edges": []}')
