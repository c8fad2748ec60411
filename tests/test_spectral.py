import itertools

import numpy as np
import pytest

from socialhk import dynamics, graphs, spectral
from socialhk.errors import PreconditionViolated, SpreadTooLarge
from socialhk.graphs import PartiteSpec, complete_graph, complete_r_partite, path_graph

from conftest import philox, random_connected_graph


def all_partitions(n):
    """Unordered partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def cluster_corpus():
    """(name, graph): the standard families on 1-69 vertices, complete
    multipartite graphs of 1-4 parts of size 1-5, and 400 random connected
    graphs of 2-19 vertices."""
    for name in ("cycle", "path", "star", "dumbbell", "complete"):
        for n in range(2 if name == "dumbbell" else 1, 70):
            yield f"{name}:{n}", graphs.standard_graph(name, n)
    for r in range(1, 5):
        for sizes in itertools.combinations_with_replacement(range(1, 6), r):
            yield f"rpartite:{sizes}", complete_r_partite(PartiteSpec(sizes))
    rng = philox(7)
    for i in range(400):
        n, p = int(rng.integers(2, 20)), float(rng.uniform(0.05, 0.6))
        yield f"random{i}", random_connected_graph(rng, n, p)


def heads_apart(vals, clusters):
    heads = sorted(float(vals[cl[0]]) for cl in clusters)
    return all(b - a > spectral.CLUSTER_TOL for a, b in zip(heads, heads[1:]))


def abs_order_decompose(g):
    """The earlier rule: sort by (-|lambda|, -lambda), sign each column, and
    chain neighbours in that order within CLUSTER_TOL of the chain's first.
    It splits an eigenspace when -lambda sorts between two copies of lambda."""
    root = np.sqrt(g.degrees.astype(float))
    vals, vecs = np.linalg.eigh(g.adjacency_matrix() / np.outer(root, root))
    back = vecs / root[:, None]
    back /= np.linalg.norm(back, axis=0)
    order = sorted(range(len(vals)), key=lambda i: (-abs(vals[i]), -vals[i]))
    vals, back = vals[order], back[:, order]
    for i in range(back.shape[1]):
        col = back[:, i]
        first = col[np.abs(col) > 1e-12][0]
        back[:, i] = col if first > 0 else -col
    clusters = []
    for i in range(len(vals)):
        if clusters and abs(vals[i] - vals[clusters[-1][0]]) <= spectral.CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return vals, back, tuple(tuple(cl) for cl in clusters)


def exact_multiplicities(g):
    """Sorted (eigenvalue, multiplicity) of D^-1 A_adj from sympy's factored
    characteristic polynomial: distinct irreducible factors share no root."""
    sympy = pytest.importorskip("sympy")
    deg, adj = g.degrees.tolist(), g.adjacency_matrix().tolist()
    m = sympy.Matrix(g.n, g.n, lambda i, j: sympy.Rational(int(adj[i][j]), deg[i]))
    x = sympy.Symbol("x")
    out = []
    for factor, mult in sympy.factor_list(m.charpoly(x).as_expr())[1]:
        out.extend((float(root), mult) for root in sympy.Poly(factor, x).nroots())
    return sorted(out)


class TestDecompose:
    def test_p3_spectrum(self):
        dec = spectral.decompose(path_graph(3))
        assert np.allclose(dec.eigenvalues, [1.0, 0.5, -1 / 6], atol=1e-10)

    def test_k4_spectrum(self):
        dec = spectral.decompose(complete_graph(4))
        assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_k12_equals_p3(self):
        dec = spectral.decompose(complete_r_partite(PartiteSpec((1, 2))))
        assert np.allclose(sorted(dec.eigenvalues), sorted([1.0, 0.5, -1 / 6]), atol=1e-10)

    def test_matches_lapack_eigenvalues(self):
        rng = philox(23)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 12)))
            dec = spectral.decompose(g)
            ref = np.linalg.eigvals(graphs.normalized_adjacency(g))
            assert np.allclose(sorted(dec.eigenvalues), sorted(ref.real), atol=1e-9)

    def test_residuals_and_range(self):
        rng = philox(31)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(1, 13)))
            a = graphs.normalized_adjacency(g)
            dec = spectral.decompose(g)
            scale = max(1.0, np.linalg.norm(a, np.inf))
            res = np.linalg.norm(a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues, axis=0)
            assert np.max(res) <= 1e-9 * scale
            assert np.all(dec.eigenvalues >= -1 - 1e-9)
            assert np.all(dec.eigenvalues <= 1 + 1e-9)

    def test_eigenvector_independence_gram(self):
        rng = philox(37)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            dec = spectral.decompose(g)
            transformed = np.sqrt(dec.degrees.astype(float))[:, None] * dec.eigenvectors
            gram = transformed.T @ transformed
            assert abs(np.linalg.det(gram)) > 0.5

    def test_reconstruction(self):
        rng = philox(41)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            a = graphs.normalized_adjacency(g)
            dec = spectral.decompose(g)
            rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ np.linalg.inv(dec.eigenvectors)
            assert np.max(np.abs(rebuilt - a)) <= 1e-8

    def test_top_is_one_with_ones_vector(self):
        rng = philox(43)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            dec = spectral.decompose(g)
            assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
            v = dec.eigenvectors[:, 0]
            assert np.allclose(v, v[0], atol=1e-9)

    def test_clusters_group_equal_values(self):
        dec = spectral.decompose(complete_graph(4))
        assert [len(c) for c in dec.clusters] == [1, 3]

    def test_cycle16_keeps_each_eigenspace_whole(self):
        # 1/3 has multiplicity 2 and -1/3 sorts between its copies by |lambda|
        dec = spectral.decompose(graphs.cycle_graph(16))
        assert dec.clusters[4:6] == ((7, 8), (9,))
        assert dec.eigenvalues[[7, 8, 9]] == pytest.approx([1 / 3, 1 / 3, -1 / 3], abs=1e-12)

    def test_cluster_heads_lie_apart_on_a_corpus(self):
        for name, g in cluster_corpus():
            dec = spectral.decompose(g)
            assert heads_apart(dec.eigenvalues, dec.clusters), name
            assert [i for cl in dec.clusters for i in cl] == list(range(g.n)), name

    def test_bit_equal_to_the_abs_order_rule_where_it_keeps_eigenspaces_whole(self):
        whole = 0
        for name, g in cluster_corpus():
            vals, vecs, clusters = abs_order_decompose(g)
            if not heads_apart(vals, clusters):
                continue
            whole += 1
            dec = spectral.decompose(g)
            assert dec.eigenvalues.tobytes() == vals.tobytes(), name
            assert dec.eigenvectors.tobytes() == vecs.tobytes(), name
            assert dec.clusters == clusters, name
        assert whole >= 800  # the copy splits 25 of the 869 under numpy 2.4

    @pytest.mark.parametrize("spec", ["rpartite:2,2", "rpartite:1,2,2", "rpartite:2,2,2",
                                      "cycle:8", "cycle:12", "cycle:16"])
    def test_cluster_sizes_are_exact_multiplicities(self, spec):
        name, _, arg = spec.partition(":")
        sizes = tuple(int(s) for s in arg.split(","))
        g = complete_r_partite(PartiteSpec(sizes)) if name == "rpartite" else graphs.cycle_graph(sizes[0])
        exact = exact_multiplicities(g)
        dec = spectral.decompose(g)
        got = sorted((float(dec.eigenvalues[cl[0]]), len(cl)) for cl in dec.clusters)
        assert [m for _, m in got] == [m for _, m in exact]
        assert [v for v, _ in got] == pytest.approx([v for v, _ in exact], abs=1e-9)

    def test_cached_and_read_only(self):
        dec = spectral.decompose(graphs.cycle_graph(9))
        assert spectral.decompose(graphs.cycle_graph(9)) is dec
        for arr in (dec.eigenvalues, dec.eigenvectors, dec.degrees):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 0.0


class TestSpectrumReport:
    def test_p3_flags(self):
        g = path_graph(3)
        rep = spectral.incomplete_spectrum_report(g, spectral.decompose(g))
        assert rep.all_ok

    def test_p4_flags(self):
        g = path_graph(4)
        rep = spectral.incomplete_spectrum_report(g, spectral.decompose(g))
        assert rep.all_ok

    def test_complete_rejected(self):
        g = complete_graph(3)
        with pytest.raises(PreconditionViolated):
            spectral.incomplete_spectrum_report(g, spectral.decompose(g))

    def test_disconnected_rejected(self):
        g = graphs.Graph(3, frozenset({(0, 1)}))
        with pytest.raises(PreconditionViolated):
            spectral.incomplete_spectrum_report(g, spectral.decompose(g))

    def test_trace_forces_positive_secondary(self):
        rng = philox(47)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            if g.is_complete():
                continue
            dec = spectral.decompose(g)
            assert np.trace(graphs.normalized_adjacency(g)) > 1
            assert np.sum(dec.eigenvalues[1:]) > 0


class TestNonterminationCertificate:
    def test_eigenvector_state_certified(self):
        cert = spectral.nontermination_certificate(
            path_graph(3), 0.1 * np.array([1.0, 0.0, -1.0]), 1.0
        )
        assert cert.certified
        assert cert.c2_magnitude == pytest.approx(0.1 * np.sqrt(2), rel=1e-9)
        assert cert.lambda2_abs == pytest.approx(0.5, abs=1e-9)

    def test_consensus_not_certified(self):
        cert = spectral.nontermination_certificate(path_graph(3), 0.3 * np.ones(3), 1.0)
        assert not cert.certified
        assert cert.c2_magnitude <= 1e-12

    def test_p4_generic_state_certified(self):
        cert = spectral.nontermination_certificate(
            path_graph(4), np.array([0.0, 0.1, 0.2, 0.3]), 1.0
        )
        assert cert.certified

    @staticmethod
    def exact_never_terminates(g, x0, bound):
        return dynamics.simulate_exact(g, list(x0), bound, 3).termination_k is None

    def test_one_verdict_at_every_scale(self):
        # consensus on cycle:12 terminates at step 0, and the lambda = 1/2
        # eigenvector on path:3 never does; both hold with the bound scaled too
        states = [(graphs.cycle_graph(12), 0.3 * np.ones(12)), (path_graph(3), 0.1 * np.array([1.0, 0.0, -1.0]))]
        for g, x0 in states:
            verdicts = set()
            for s in (2.0**-40, 1.0, 2.0**40):
                cert = spectral.nontermination_certificate(g, s * x0, s)
                assert cert.certified == self.exact_never_terminates(g, s * x0, s), (g, s)
                verdicts.add(cert.certified)
            assert len(verdicts) == 1, g
        assert [spectral.nontermination_certificate(g, x0, 1.0).certified for g, x0 in states] == [False, True]

    def test_agrees_with_the_exact_engine(self):
        # vertices 0 and 1 of K4 less the edge (2, 3) are twins, so e0 - e1 has
        # eigenvalue 0: the first state is constant after one step
        cases = [(graphs.Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})),
                  np.array([0.625, 0.375, 0.5, 0.5]))]
        rng = philox(151)
        for i in range(60):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            x0 = np.round(rng.uniform(0, 0.9, g.n), 3)
            if i % 3 == 0:  # consensus, which terminates at step 0
                x0[:] = x0[0]
            if not g.is_complete():
                cases.append((g, x0))
        seen = {True: 0, False: 0}
        for g, x0 in cases:
            cert = spectral.nontermination_certificate(g, x0, 1.0)
            assert cert.certified == self.exact_never_terminates(g, x0, 1.0), (g, x0)
            seen[cert.certified] += 1
        assert not spectral.nontermination_certificate(*cases[0], 1.0).certified
        assert dynamics.simulate_exact(*cases[0], 1.0, 3).termination_k == 1
        assert min(seen.values()) >= 10, seen

    def test_spread_too_large(self):
        with pytest.raises(SpreadTooLarge):
            spectral.nontermination_certificate(path_graph(3), np.array([0.0, 0.5, 1.0]), 1.0)

    def test_complete_rejected(self):
        with pytest.raises(PreconditionViolated):
            spectral.nontermination_certificate(complete_graph(3), np.zeros(3), 1.0)

    @pytest.mark.parametrize("bound", [np.inf, np.nan])
    def test_non_finite_bound_is_refused(self, bound):
        # the exact engine's refusal, as OpinionState's
        with pytest.raises(ValueError, match="confidence bound must be finite and positive"):
            spectral.nontermination_certificate(path_graph(3), np.array([0.1, 0.0, -0.1]), bound)


class TestRPartiteEigenbasis:
    def test_parts_1_2(self):
        basis = spectral.rpartite_eigenbasis(PartiteSpec((1, 2)))
        assert np.allclose(basis.b_matrix, [[1 / 3, 2 / 3], [1 / 2, 1 / 2]], atol=1e-15)
        assert np.allclose(sorted(basis.b_eigenvalues), [-1 / 6, 1.0], atol=1e-10)
        assert basis.local_vectors.shape == (3, 1)
        assert np.array_equal(basis.local_vectors[:, 0], [0, 1, -1])
        assert basis.local_eigenvalues[0] == pytest.approx(0.5, abs=1e-15)
        a = graphs.normalized_adjacency(complete_r_partite(PartiteSpec((1, 2))))
        v = basis.local_vectors[:, 0]
        assert np.allclose(a @ v, 0.5 * v, atol=1e-15)

    def test_parts_1_1(self):
        basis = spectral.rpartite_eigenbasis(PartiteSpec((1, 1)))
        assert np.allclose(basis.b_matrix, [[1 / 2, 1 / 2], [1 / 2, 1 / 2]], atol=1e-15)
        assert np.allclose(sorted(basis.b_eigenvalues), [0.0, 1.0], atol=1e-10)
        assert basis.local_vectors.shape[1] == 0

    def test_single_part_identity(self):
        basis = spectral.rpartite_eigenbasis(PartiteSpec((3,)))
        assert basis.local_vectors.shape[1] == 2
        assert np.allclose(basis.local_eigenvalues, [1.0, 1.0], atol=1e-15)
        assert np.array_equal(basis.b_matrix, [[1.0]])
        assert np.allclose(basis.lifted_vectors[:, 0], basis.lifted_vectors[0, 0], atol=1e-12)

    def test_verify_examples(self):
        for sizes in ((1, 2), (2, 2), (1, 1, 1)):
            spec = PartiteSpec(sizes)
            rep = spectral.verify_rpartite_eigenbasis(spec, spectral.rpartite_eigenbasis(spec))
            assert rep.all_ok, (sizes, rep.failures)

    def test_matches_generic_solver_all_specs_up_to_8(self):
        for n in range(2, 9):
            for sizes in all_partitions(n):
                spec = PartiteSpec(sizes)
                basis = spectral.rpartite_eigenbasis(spec)
                dec = spectral.decompose(complete_r_partite(spec))
                assert np.allclose(
                    np.sort(basis.all_eigenvalues()),
                    np.sort(dec.eigenvalues),
                    atol=1e-8,
                ), sizes

    def test_nonunit_b_eigenvalues_nonpositive(self):
        for n in range(2, 9):
            for sizes in all_partitions(n):
                basis = spectral.rpartite_eigenbasis(PartiteSpec(sizes))
                nonunit = basis.b_eigenvalues[np.abs(basis.b_eigenvalues - 1) > 1e-9]
                assert np.all(nonunit <= 1e-9), sizes

    def test_local_vectors_two_entries(self):
        basis = spectral.rpartite_eigenbasis(PartiteSpec((3, 2, 1)))
        for col in basis.local_vectors.T:
            nonzero = col[col != 0]
            assert len(nonzero) == 2
            assert sorted(nonzero) == [-1.0, 1.0]
        assert basis.local_vectors.shape[1] + basis.lifted_vectors.shape[1] == 6
