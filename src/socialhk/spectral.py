"""Eigenstructure of row-normalized adjacency matrices of self-looped graphs.

The normalized adjacency matrix A = D^{-1} A_adj of an undirected self-looped
graph is similar to the symmetric matrix M = D^{1/2} A D^{-1/2}, so its
spectrum is real and it is diagonalizable.  All decompositions here exploit
that similarity: LAPACK's symmetric solver (``numpy.linalg.eigh``)
diagonalizes M, and eigenvectors are mapped back through D^{-1/2}.

``decompose`` is the one entry point for eigenpairs of a graph.  It keeps a
bounded per-``Graph`` cache, and the arrays of a cached decomposition are
read-only because every caller shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dynamics  # which imports this module: each reads the other's names at call time only
from .errors import PreconditionViolated, SpreadTooLarge
from .graphs import Graph, PartiteSpec, complete_r_partite, normalized_adjacency

CLUSTER_TOL = 1e-9
DECOMPOSE_CACHE_SIZE = 256


def _sign_normalize(mat: np.ndarray) -> np.ndarray:
    """``mat`` in C order, each column signed so its first entry above 1e-12 in size is positive."""
    signs = [0.0] * mat.shape[1]
    for row in mat:  # row by row: the first rows decide nearly every column
        for c, x in enumerate(row.tolist()):
            if not signs[c] and abs(x) > 1e-12:
                signs[c] = 1.0 if x > 0 else -1.0
        if all(signs):
            break
    return np.multiply(mat, [s or 1.0 for s in signs], order="C")


def _value_clusters(values: list) -> list[list[int]]:
    """Indices of equal eigenvalues: from the largest value down, a cluster is
    every value within ``CLUSTER_TOL`` of its largest, its head."""
    clusters: list[list[int]] = []
    for i in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        if clusters and values[clusters[-1][0]] - values[i] <= CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _order(values: list) -> tuple[list[int], tuple]:
    """(order, clusters as index ranges of it) of a spectrum: clusters sort by
    (-|head|, -head), their members by (-|lambda|, -lambda)."""
    keys = [(-abs(v), -v) for v in values]
    order, ranges = [], []
    for cl in sorted(_value_clusters(values), key=lambda cl: keys[cl[0]]):
        ranges.append(tuple(range(len(order), len(order) + len(cl))))
        order.extend(sorted(cl, key=keys.__getitem__))
    return order, tuple(ranges)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real eigendecomposition of a normalized adjacency matrix.

    ``clusters`` groups equal eigenvalues: from the largest value down, every
    eigenvalue within ``CLUSTER_TOL`` of the cluster's largest (+m and -m
    apart).  The order goes cluster by cluster, by descending |largest|, ties
    by descending value, members likewise, so each cluster is a consecutive
    index range.  Eigenvectors are unit columns, first significant entry > 0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def eigenvalues_by_value(self) -> np.ndarray:
        return np.sort(self.eigenvalues)[::-1]

    def second_largest_abs(self) -> float:
        """max |lambda| over eigenvalues other than the top one (0 for n=1)."""
        if self.n == 1:
            return 0.0
        return float(np.max(np.abs(self.eigenvalues[1:])))


@lru_cache(maxsize=DECOMPOSE_CACHE_SIZE)
def decompose(g: Graph) -> SpectralDecomposition:
    """Eigendecomposition of A = D^{-1} A_adj via the symmetric similarity.

    M = D^{1/2} A D^{-1/2} is symmetric and shares A's eigenvalues; LAPACK
    ``eigh`` diagonalizes M and eigenvectors return through D^{-1/2}.
    Results are cached per graph and their arrays are read-only.
    """
    degrees = g.degrees
    root = np.sqrt(degrees.astype(float))
    adj = g.adjacency_matrix()
    sym = adj / np.outer(root, root)
    vals, vecs = np.linalg.eigh(sym)
    back = vecs / root[:, None]
    back /= np.linalg.norm(back, axis=0)
    order, clusters = _order(vals.tolist())
    vals = vals[order]
    back = _sign_normalize(back[:, order])
    for arr in (vals, back, degrees):
        arr.setflags(write=False)
    return SpectralDecomposition(vals, back, clusters, degrees)


# -- spectrum report for connected incomplete graphs ------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Sanity flags for the spectrum of a connected incomplete self-looped graph."""

    top_eigenvalue_simple: bool
    second_abs_positive: bool
    has_positive_secondary: bool

    @property
    def all_ok(self) -> bool:
        return self.top_eigenvalue_simple and self.second_abs_positive and self.has_positive_secondary


def incomplete_spectrum_report(g: Graph, dec: SpectralDecomposition) -> SpectrumReport:
    """Check that lambda_1 = 1 is simple, |lambda_2| > 0, and some other
    eigenvalue is strictly positive.

    These hold for every connected, incomplete, self-looped graph (the trace
    of A exceeds 1, forcing a positive eigenvalue below the top).
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    if g.is_complete():
        raise PreconditionViolated("graph must be incomplete")
    vals = dec.eigenvalues
    simple = len(dec.clusters[0]) == 1 and abs(vals[0] - 1.0) <= CLUSTER_TOL
    second = abs(vals[1]) > CLUSTER_TOL if dec.n > 1 else False
    positive = bool(np.any(vals[1:] > CLUSTER_TOL))
    return SpectrumReport(simple, second, positive)


# -- non-termination certificate --------------------------------------------


@dataclass(frozen=True)
class NonterminationCertificate:
    """Certificate that the exact dynamics from a state never terminate.

    A state with spread strictly below the confidence bound keeps the influence
    graph equal to the physical graph forever, so the dynamics are the fixed
    linear map A = D^{-1} A_adj, which is diagonalizable: x_k = x_inf +
    sum over eigenvalues lambda of lambda^k part_lambda.  The run terminates
    iff every part with lambda not 0 or 1 is zero, that is iff x_1 = A x_0 is
    constant (the graph is connected).  ``certified`` is the integer verdict
    a locked sweep row gets (``dynamics._locked_termination``) with every
    link live: a float spread below the bound is a real one below it, as
    rounding is monotone.  So it covers weight on any non-zero, non-unit
    eigenvalue, at every scale of the state and the bound, with no
    tolerance, and it equals the exact engine's termination test two steps
    out.  ``c2_magnitude``, the float weight on the second-largest-|lambda|
    level, and ``lambda2_abs`` are diagnostics.
    """

    certified: bool
    c2_magnitude: float
    lambda2_abs: float


def nontermination_certificate(g: Graph, opinions: np.ndarray, confidence_bound: float) -> NonterminationCertificate:
    x0 = np.asarray(opinions, dtype=float)
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    if g.is_complete():
        raise PreconditionViolated("graph must be incomplete")
    if x0.shape != (g.n,):
        raise PreconditionViolated(f"state must have length {g.n}")
    spread = float(np.max(x0) - np.min(x0))
    if spread >= confidence_bound:
        raise SpreadTooLarge(f"spread {spread} must be < {confidence_bound}")
    x0 = dynamics.OpinionState(x0, confidence_bound).opinions  # refuses what is not finite
    certified = dynamics._locked_termination(g, np.ones(len(g.src), bool), x0) is None
    dec = decompose(g)
    coeffs = np.linalg.solve(dec.eigenvectors, x0)
    lam2 = dec.second_largest_abs()
    level = [i for i in range(1, dec.n) if abs(abs(dec.eigenvalues[i]) - lam2) <= CLUSTER_TOL]
    c2 = float(np.linalg.norm(coeffs[level])) if level else 0.0
    return NonterminationCertificate(certified, c2, lam2)


# -- complete multipartite eigenbasis ----------------------------------------


@dataclass(frozen=True)
class RPartiteEigenbasis:
    """Closed-form eigenbasis of a complete multipartite self-looped graph.

    Within each part of size >= 2 the difference vectors (+1 at the part's
    first vertex, -1 at another) are eigenvectors with eigenvalue
    1/(n - n_i + 1).  The remaining eigenvectors are lifts of the
    eigenvectors of the r x r part-averaged matrix B, constant on parts.
    """

    spec: PartiteSpec
    local_vectors: np.ndarray      # n x k, difference vectors
    local_eigenvalues: np.ndarray  # k
    local_parts: tuple             # part index of each local vector
    lifted_vectors: np.ndarray     # n x r
    b_matrix: np.ndarray           # r x r
    b_eigenvalues: np.ndarray      # r

    def all_vectors(self) -> np.ndarray:
        return np.hstack([self.local_vectors, self.lifted_vectors])

    def all_eigenvalues(self) -> np.ndarray:
        return np.concatenate([self.local_eigenvalues, self.b_eigenvalues])


def rpartite_eigenbasis(spec: PartiteSpec) -> RPartiteEigenbasis:
    """Build the closed-form eigenbasis for ``complete_r_partite(spec)``.

    B has entries B_ii = 1/(n - n_i + 1) and B_ij = n_j/(n - n_i + 1); it is
    similar to the symmetric matrix D_B S D_B with S_ii = 1/n_i and S_ij = 1
    via the diagonal D_A = (D_1 D_2^{-1})^{1/2}, which is how it is
    diagonalized here.
    """
    n, r = spec.n, spec.r
    sizes = np.array(spec.part_sizes, dtype=float)
    parts = spec.parts()

    locals_, local_vals, local_parts = [], [], []
    for i, block in enumerate(parts):
        lam = 1.0 / (n - sizes[i] + 1.0)
        for t in range(1, len(block)):
            vec = np.zeros(n)
            vec[block[0]] = 1.0
            vec[block[t]] = -1.0
            locals_.append(vec)
            local_vals.append(lam)
            local_parts.append(i)

    d1 = 1.0 / (n - sizes + 1.0)
    b = np.outer(d1, sizes)
    np.fill_diagonal(b, d1)

    s = np.ones((r, r))
    np.fill_diagonal(s, 1.0 / sizes)
    d_a = np.sqrt(d1 / sizes)
    d_b = np.sqrt(d1 * sizes)
    sym = d_b[:, None] * s * d_b[None, :]
    w_vals, w_vecs = np.linalg.eigh(sym)
    order, _ = _order(w_vals.tolist())
    w_vals = w_vals[order]
    w_vecs = d_a[:, None] * w_vecs[:, order]

    lifted = w_vecs[np.repeat(np.arange(r), spec.part_sizes)]  # row v: the row of v's part
    lifted /= np.linalg.norm(lifted, axis=0)
    lifted = _sign_normalize(lifted)

    local_mat = np.column_stack(locals_) if locals_ else np.zeros((n, 0))
    return RPartiteEigenbasis(
        spec=spec,
        local_vectors=local_mat,
        local_eigenvalues=np.array(local_vals),
        local_parts=tuple(local_parts),
        lifted_vectors=lifted,
        b_matrix=b,
        b_eigenvalues=w_vals,
    )


@dataclass(frozen=True)
class RPartiteReport:
    """Verification clauses for the multipartite eigenbasis construction."""

    eigenpairs_ok: bool
    nonunit_b_nonpositive: bool
    full_rank: bool
    lifted_orthogonal_to_local: bool
    failures: tuple

    @property
    def all_ok(self) -> bool:
        return not self.failures


def verify_rpartite_eigenbasis(spec: PartiteSpec, basis: RPartiteEigenbasis) -> RPartiteReport:
    """Check the construction against the generic matrix: residuals, sign of
    non-unit B-eigenvalues, rank, and orthogonality of lifts to difference
    vectors, each within ``CLUSTER_TOL``."""
    if spec.n < 2:
        raise PreconditionViolated("need at least two vertices")
    a = normalized_adjacency(complete_r_partite(spec))
    failures = []

    vecs = basis.all_vectors()
    vals = basis.all_eigenvalues()
    residuals = np.linalg.norm(a @ vecs - vecs * vals[None, :], axis=0)
    pairs_ok = bool(np.all(residuals <= CLUSTER_TOL))
    if not pairs_ok:
        failures.append("eigenpair residual")

    nonunit = basis.b_eigenvalues[np.abs(basis.b_eigenvalues - 1.0) > CLUSTER_TOL]
    b_ok = bool(np.all(nonunit <= CLUSTER_TOL))
    if not b_ok:
        failures.append("positive non-unit B eigenvalue")

    rank = np.linalg.matrix_rank(vecs, tol=1e-8)
    rank_ok = rank == spec.n
    if not rank_ok:
        failures.append("rank deficiency")

    if basis.local_vectors.shape[1]:
        dots = basis.lifted_vectors.T @ basis.local_vectors
        ortho_ok = bool(np.max(np.abs(dots)) <= CLUSTER_TOL)
    else:
        ortho_ok = True
    if not ortho_ok:
        failures.append("lift not orthogonal to difference vectors")

    return RPartiteReport(pairs_ok, b_ok, rank_ok, ortho_ok, tuple(failures))
