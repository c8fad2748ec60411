"""Constructions and decision procedures for arbitrarily slow merging.

Two opinion clusters sitting on disjoint vertex sets of the physical graph
can be made to merge arbitrarily late exactly when the spectra of their
induced subgraphs admit certain sign patterns.  This module provides:

* the classic 4-path family of slow-merging states;
* the sufficient condition (an eigenvalue in (0,1) of the contracting side
  whose eigenspace contains a vector that is strictly one-signed on the
  boundary-adjacent vertices) together with the explicit state construction
  and its predicted merge time;
* the necessary condition on boundary-restricted eigenspaces (a nonzero
  one-signed boundary vector for some eigenvalue in (0,1)), decided by LP
  feasibility in the float simplex of ``linprog``;
* the sign-ratio machinery (window ratios, their exact floor over an
  eigenspace from one LP per window entry in the same simplex, the
  perturbation-persistence check) and the parity elimination of signed
  geometric rates that powers the necessity argument;
* an exhaustive verifier that complete multipartite graphs admit no slow
  merging across any split, run once per orbit of the part symmetries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from . import spectral
from .dynamics import OpinionState
from .errors import (
    DeltaOutOfRange,
    DeltaTooLarge,
    DisconnectedPart,
    EmptyVertexSet,
    GraphTooLarge,
    NoBoundary,
    PreconditionViolated,
    SpilloverVertices,
    ZeroOnWindow,
)
from .graphs import Graph, complete_r_partite, induced_subgraph
from .linprog import max_entry, max_min_margin, nonneg_nonzero_vector

MARGIN_TOL = 1e-9
SCAN_CAP = 12

SUFFICIENT_HOLDS = "sufficient_holds"
SUFFICIENT_FAILS = "sufficient_fails"
NECESSARY_HOLDS = "necessary_holds"
NECESSARY_FAILS = "necessary_fails"


@dataclass(frozen=True)
class SplitSpec:
    """Two disjoint vertex sets plus the boundary edges joining them.

    Boundary edges are the physical edges crossing from ``vp`` to ``vq``,
    listed lexicographically; ``boundary_adjacent`` are the distinct
    vp-endpoints of those edges, in ascending order.
    """

    vp: tuple
    vq: tuple
    boundary_edges: tuple

    @property
    def b(self) -> int:
        return len(self.boundary_edges)

    @property
    def boundary_adjacent(self) -> tuple:
        return tuple(sorted({i for i, _ in self.boundary_edges}))

    @property
    def l(self) -> int:
        return len(self.boundary_adjacent)


def make_split(gph: Graph, vp, vq) -> SplitSpec:
    vp = tuple(sorted(set(vp)))
    vq = tuple(sorted(set(vq)))
    if not vp or not vq:
        raise EmptyVertexSet("both sides of a split must be nonempty")
    if set(vp) & set(vq):
        raise ValueError("split sides must be disjoint")
    for v in vp + vq:
        if not 0 <= v < gph.n:
            raise ValueError(f"vertex {v} out of range")
    # one pass over the edge arrays with two membership masks; the splits
    # scanned are small, where Python lists beat numpy's per-call cost
    in_p, in_q = [False] * gph.n, [False] * gph.n
    for v in vp:
        in_p[v] = True
    for v in vq:
        in_q[v] = True
    boundary = []
    for i, j in zip(gph.src.tolist(), gph.dst.tolist()):  # i < j, oriented vp -> vq
        if in_p[i] and in_q[j]:
            boundary.append((i, j))
        elif in_q[i] and in_p[j]:
            boundary.append((j, i))
    return SplitSpec(vp, vq, tuple(sorted(boundary)))


@dataclass(frozen=True)
class EigenRecord:
    """Per-eigenvalue outcome of a sign-condition feasibility question."""

    eigenvalue: float
    dim: int
    feasible: bool
    margin: float = float("nan")


@dataclass(frozen=True)
class MergeVerdict:
    kind: str
    eigenvalue: float | None = None
    witness: np.ndarray | None = None
    records: tuple = ()


def _rational_eigenspace(g: Graph, lam_float: float):
    """Exact eigenpair when the eigenvalue is rational, in Python integers.

    With L the lcm of the closed degrees, L D^-1 (A + I) is an integer matrix
    with a monic characteristic polynomial, so every rational eigenvalue is
    mu / L for an integer mu (rational root theorem).  The one candidate is
    the integer nearest L * lam_float, kept within ``spectral.CLUSTER_TOL``;
    its eigenspace is the nullspace of L D^-1 (A + I) - mu I by fraction-free
    Gauss-Jordan elimination, as the primitive integer vectors of the reduced
    echelon basis.  Snapping keeps constructed states (and merge times)
    exact; irrational eigenvalues return None and callers keep the float basis.
    """
    n = g.n
    deg = g.degrees.tolist()
    big = math.lcm(*deg)
    num, den = lam_float.as_integer_ratio()
    mu = (2 * big * num + den) // (2 * den)  # nearest integer to big * lam_float
    if abs(mu / big - lam_float) > spectral.CLUSTER_TOL:
        return None
    m = [[big // deg[i] - mu if j == i else 0 for j in range(n)] for i in range(n)]
    for i, j in zip(g.src.tolist(), g.dst.tolist()):
        m[i][j], m[j][i] = big // deg[i], big // deg[j]
    pivots = []
    for col in range(n):
        row = len(pivots)
        pivot = next((r for r in range(row, n) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(n):
            q = m[r][col]
            if r != row and q:
                new = [p * a - q * b for a, b in zip(m[r], m[row])]
                g_row = math.gcd(*new) or 1  # a row that vanishes stays zero
                m[r] = [x // g_row for x in new]
        pivots.append(col)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        # entry f is 1 and entry c of pivot row r is -r[f] / r[c]: put them
        # over their least common denominator, then divide by the gcd
        pairs = list(zip(m, pivots))
        denom = math.lcm(1, *[r[c] // math.gcd(r[f], r[c]) for r, c in pairs])
        vec = [0] * n
        vec[f] = denom
        for r, c in pairs:
            vec[c] = -r[f] * denom // r[c]
        g_all = math.gcd(*vec)
        basis.append(np.array([float(x // g_all) for x in vec]))
    if not basis:
        return None
    return mu / big, np.column_stack(basis)


# -- the 4-path family -------------------------------------------------------


def four_path_family(delta: float, bound: float = 1.0):
    """The slow-merging family on the 4-path: [-R, 0, R, -(R - delta)].

    Agent 4 starts just outside agent 3's confidence; the left trio contracts
    by 1/2 each step, so the merge happens at the smallest k with
    R / 2^k <= delta, i.e. ceil(log2(R / delta)) steps.  Requires
    0 < delta < R/2.  The prediction uses the gap the built state holds,
    R - (R - delta) in floats (exact, by Sterbenz's lemma), since R - delta
    rounds; a delta whose gap rounds to 0 is refused.  Returns (state,
    predicted merge time).
    """
    if not 0 < delta < bound / 2:
        raise DeltaOutOfRange(f"delta must lie in (0, {bound / 2})")
    state = OpinionState([-bound, 0.0, bound, -(bound - delta)], bound)
    return state, _geometric_hitting_time(bound, 0.5, _built_gap(bound, delta))


def _built_gap(bound: float, delta: float) -> float:
    """The gap R - (R - delta) that a state placing a vertex at R - delta
    holds, after that position rounds; refuses a gap of 0."""
    gap = bound - (bound - delta)
    if gap == 0:
        raise DeltaOutOfRange(f"delta={delta!r} rounds away: {bound!r} - delta is {bound!r} in floats")
    return gap


def _geometric_hitting_time(start: float, rate: float, target: float) -> int:
    """Smallest k >= 1 with start * rate^k <= target, evaluated in the same
    float arithmetic the simulator uses (repeated multiplication, so powers
    of two stay exact); refuses a target not reached in 10,000,000 steps."""
    t = start
    k = 0
    while t > target:
        t *= rate
        k += 1
        if k > 10_000_000:
            raise DeltaOutOfRange(f"gap {target!r} is not reached at rate {rate!r} within 10,000,000 steps")
    return k


# -- sufficient condition ----------------------------------------------------


def sufficient_check(gph: Graph, split: SplitSpec) -> MergeVerdict:
    """Decide whether the split admits the sufficient slow-merging pattern.

    Scans every eigenvalue cluster of the vp-induced subgraph lying strictly
    inside (0, 1), and asks (by LP margin maximization over the eigenspace)
    for a vector that is strictly one-signed on all boundary-adjacent
    vertices.  Holds with the largest such eigenvalue; the witness is
    oriented negative on the boundary window.
    """
    sub, local, clusters = _side_spectrum(gph, split.vp)
    if not sub.is_connected():
        raise DisconnectedPart("the vp-induced subgraph must be connected")
    window = [local[v] for v in split.boundary_adjacent]
    if not window:
        raise NoBoundary("split has no boundary edges")

    records = []
    hit = None
    for lam, basis in clusters:
        if not spectral.CLUSTER_TOL < lam < 1.0 - spectral.CLUSTER_TOL:
            continue
        exact = _rational_eigenspace(sub, lam)
        if exact is not None:
            lam, basis = exact
        margin, coeffs = max_min_margin(basis[window, :])
        feasible = margin > MARGIN_TOL
        records.append(EigenRecord(lam, basis.shape[1], feasible, margin))
        if feasible and (hit is None or lam > hit[0]):
            hit = (lam, basis @ coeffs)
    records.sort(key=lambda r: -r.eigenvalue)
    if hit is None:
        return MergeVerdict(SUFFICIENT_FAILS, records=tuple(records))
    return MergeVerdict(SUFFICIENT_HOLDS, hit[0], hit[1], tuple(records))


def construct_slow_state(
    gph: Graph, split: SplitSpec, verdict: MergeVerdict, delta: float, bound: float = 1.0
):
    """Build the initial state that delays the merge to ceil(log_{1/lambda}(v0/delta)).

    The witness eigenvector is scaled to opinion spread exactly R with its
    boundary-adjacent entries negative; v0 is the smallest magnitude among
    those entries.  The vq side (and any leftover vertices) sit at R - delta,
    just outside confidence of the boundary until the vp side has contracted
    by a factor of delta / v0.  As in ``four_path_family``, the prediction
    uses the gap R - (R - delta) that the built state holds, and a delta
    whose gap rounds to 0 is refused.  Returns (state, predicted merge time).
    """
    if verdict.kind != SUFFICIENT_HOLDS or verdict.witness is None:
        raise PreconditionViolated("need a sufficient_holds verdict with a witness")
    _, local, _ = _side_spectrum(gph, split.vp)
    window = [local[v] for v in split.boundary_adjacent]

    v = np.array(verdict.witness, dtype=float)
    if np.max(v[window]) > -MARGIN_TOL:
        raise PreconditionViolated("witness must be strictly negative on the boundary window")
    spread = float(np.max(v) - np.min(v))
    v = (v / spread) * bound  # divide first: symmetric witnesses scale exactly
    v0 = -float(np.max(v[window]))
    if not 0 < delta < v0:
        raise DeltaTooLarge(f"delta must lie in (0, {v0})")

    outside = [u for u in range(gph.n) if u not in set(split.vp) | set(split.vq)]
    spill = sorted(u for u in outside if any(gph.has_edge(u, w) for w in split.vp))
    if spill:
        raise SpilloverVertices(spill)

    x = np.full(gph.n, bound - delta)
    for u, k in local.items():
        x[u] = v[k]
    state = OpinionState(x, bound)
    return state, _geometric_hitting_time(v0, float(verdict.eigenvalue), _built_gap(bound, delta))


# -- sign ratios --------------------------------------------------------------


@dataclass(frozen=True)
class SignRatio:
    """min(|min/max|, |max/min|) over a window, with a mixed-signs flag."""

    value: float
    mixed: bool


def mixed_sign_ratio(v, l: int) -> SignRatio:
    """Window sign ratio of the first ``l`` coordinates.

    Zero (flagged unmixed) when the window extrema do not straddle zero;
    raises when the window vanishes identically.
    """
    w = np.asarray(v, dtype=float)[:l]
    if not np.any(w != 0.0):
        raise ZeroOnWindow("vector is zero on the whole window")
    lo, hi = float(np.min(w)), float(np.max(w))
    if not lo < 0.0 < hi:
        return SignRatio(0.0, False)
    return SignRatio(min(abs(lo / hi), abs(hi / lo)), True)


@dataclass(frozen=True)
class SignRatioFloor:
    """The least window sign ratio over the nonzero vectors of a subspace.

    ``same_sign_exists``: the space holds a nonzero vector that is
    one-signed (or zero) on the window, so no positive floor exists and
    ``value`` is None.  Otherwise ``value`` is the floor, which a vector of
    the space attains, and ``exact`` is True (it is False only with None).
    """

    value: float | None
    exact: bool
    same_sign_exists: bool


def sign_ratio_floor(basis: np.ndarray, l: int) -> SignRatioFloor:
    """Floor of the ratio on the first ``l`` coordinates over the span of
    the columns of ``basis``.

    One ``max_entry`` LP per entry: the largest window entry of a span
    vector whose window entries are all >= -1, unbounded exactly when the
    span holds a nonzero window vector >= 0.  Else, the window being of full
    rank, every span vector v has mixed signs there, v and -v have ratios a
    and 1/a for a = |min|/max, and the floor is the least a: 1 / that entry.
    The window is first scaled by the power of two that puts its largest
    |entry| in [1, 2), so the tolerances see the same numbers at any scale.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim == 1:
        basis = basis[:, None]
    window = basis[:l, :]
    window = np.ldexp(window, 1 - np.frexp(np.max(np.abs(window), initial=0.0))[1])
    if np.linalg.matrix_rank(window, tol=1e-12) < basis.shape[1]:
        return SignRatioFloor(None, False, True)  # some vector vanishes on the window
    top = max(max_entry(window, i) for i in range(len(window)))
    if top == np.inf:
        return SignRatioFloor(None, False, True)
    return SignRatioFloor(1.0 / top, True, False)


@dataclass(frozen=True)
class SignPersistenceReport:
    """Outcome of the perturbation-persistence check for one (v, u, gamma)."""

    plus_holds: bool
    minus_holds: bool
    extra_applicable: bool
    extra_holds: bool

    @property
    def ok(self) -> bool:
        return (self.plus_holds or self.minus_holds) and (
            not self.extra_applicable or self.extra_holds
        )


def sign_persistence_check(v, u, gamma: float) -> SignPersistenceReport:
    """Check that adding or subtracting any perturbation keeps a positive
    maximum with window ratio at least gamma / (gamma + 2).

    Requires v to have strictly mixed signs and 0 < gamma <= max(v)/|min(v)|.
    When the plus branch holds and min(v - u) < 0, additionally checks
    max(v + u) >= (gamma |min(v - u)| - max(0, max(v - u))) / (gamma + 1).
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape != u.shape:
        raise PreconditionViolated("v and u must have equal length")
    vmax, vmin = float(np.max(v)), float(np.min(v))
    if not vmin < 0.0 < vmax:
        raise PreconditionViolated("v must have strictly mixed signs")
    if not 0.0 < gamma <= vmax / abs(vmin) * (1.0 + 1e-12):
        raise PreconditionViolated("gamma must lie in (0, max(v)/|min(v)|]")
    gp = gamma / (gamma + 2.0)

    def branch(w):
        hi, lo = float(np.max(w)), float(np.min(w))
        return hi > 0.0 and abs(hi) >= gp * abs(lo)

    plus, minus = branch(v + u), branch(v - u)
    applicable = plus and float(np.min(v - u)) < 0.0
    extra = True
    if applicable:
        m2 = abs(float(np.min(v - u)))
        p2 = max(0.0, float(np.max(v - u)))
        extra = float(np.max(v + u)) >= (gamma * m2 - p2) / (gamma + 1.0) - 1e-12
    return SignPersistenceReport(plus, minus, applicable, extra)


# -- parity elimination of signed rates ---------------------------------------


@dataclass(frozen=True)
class EliminationResult:
    """Paired-rate form of a signed geometric sum restricted to a window.

    For rates lambda_i with vectors u_i, the window sums
    S_j[k] = sum_i lambda_i^k u_ij split by parity of k into
    sum_i alpha_i mu_i^k v_ij (k even) and sum_i zeta_i mu_i^k z_ij (k odd),
    where mu pairs +/- rates, alpha/zeta are window-max weights, and v/z are
    window vectors with max-abs entry 1 (or zero).
    """

    mu: np.ndarray
    alpha: np.ndarray
    zeta: np.ndarray
    even_vectors: np.ndarray  # m x l
    odd_vectors: np.ndarray   # m x l

    def even_sum(self, k: int) -> np.ndarray:
        return (self.alpha * self.mu**k) @ self.even_vectors

    def odd_sum(self, k: int) -> np.ndarray:
        return (self.zeta * self.mu**k) @ self.odd_vectors

    def window_sum(self, k: int) -> np.ndarray:
        return self.even_sum(k) if k % 2 == 0 else self.odd_sum(k)


def parity_elimination(rates, vectors, l: int) -> EliminationResult:
    """Pair +/- rates of equal magnitude into even-k and odd-k window vectors.

    Inputs sharing the same signed rate are summed first (eigenspaces are
    linear, so this loses nothing); exact-zero rates are discarded (they
    contribute nothing for k >= 1).  Indices whose weights both vanish are
    dropped and the rate list re-enumerated.
    """
    if len(rates) != len(vectors):
        raise ValueError("rates and vectors must align")
    by_rate: dict = {}
    for lam, u in zip(rates, vectors):
        lam = float(lam)
        u = np.asarray(u, dtype=float)[:l]
        if lam in by_rate:
            by_rate[lam] = by_rate[lam] + u
        else:
            by_rate[lam] = u.copy()
    mags = sorted({abs(lam) for lam in by_rate if lam != 0.0}, reverse=True)

    mu, alpha, zeta, evens, odds = [], [], [], [], []
    zero = np.zeros(l)
    for m in mags:
        up = by_rate.get(m, zero)
        um = by_rate.get(-m, zero)
        a = float(np.max(np.abs(up + um)))
        z = float(np.max(np.abs(up - um)))
        if a == 0.0 and z == 0.0:
            continue
        mu.append(m)
        alpha.append(a)
        zeta.append(z)
        evens.append((up + um) / a if a != 0.0 else zero)
        odds.append((up - um) / z if z != 0.0 else zero)
    return EliminationResult(
        np.array(mu),
        np.array(alpha),
        np.array(zeta),
        np.array(evens).reshape(len(mu), l),
        np.array(odds).reshape(len(mu), l),
    )


# -- boundary-restricted eigenspaces and the necessary condition --------------


@dataclass(frozen=True)
class BoundaryEigenspace:
    """Span of eigenvector restrictions to the boundary-edge coordinates.

    Coordinate e is the vp-endpoint value (for vp-side eigenvectors) or the
    vq-endpoint value (for vq-side ones) of the e-th boundary edge; the space
    is the joint span over both sides for one eigenvalue.
    """

    eigenvalue: float
    basis: np.ndarray  # b x dim


@lru_cache(maxsize=4096)
def _side_spectrum(gph: Graph, vertices: tuple) -> tuple:
    """(the subgraph ``vertices`` induce, the local index of each of them,
    ((eigenvalue, eigenvectors), ...) for every non-unit eigenvalue cluster
    of the subgraph).

    Cached per vertex subset: a scan over the splits of n vertices meets
    3^n splits but only 2^n sides.
    """
    sub, vs = induced_subgraph(gph, vertices)
    dec = spectral.decompose(sub)
    clusters = []
    for cluster in dec.clusters:
        lam = float(dec.eigenvalues[cluster[0]])
        if abs(lam - 1.0) > spectral.CLUSTER_TOL:
            clusters.append((lam, dec.eigenvectors[:, list(cluster)]))
    return sub, {v: k for k, v in enumerate(vs)}, tuple(clusters)


def boundary_eigenspaces(gph: Graph, split: SplitSpec) -> list:
    """Boundary-restricted eigenspaces for every non-unit eigenvalue of the
    two induced subgraphs, merged across sides by ``spectral``'s cluster
    rule and rank-reduced.  Ordered by descending eigenvalue."""
    if split.b == 0:
        raise NoBoundary("split has no boundary edges")
    contributions = []
    for side_vertices, positions in (
        (split.vp, [i for i, _ in split.boundary_edges]),
        (split.vq, [j for _, j in split.boundary_edges]),
    ):
        _, local, clusters = _side_spectrum(gph, side_vertices)
        rows = [local[p] for p in positions]
        contributions.extend((lam, vecs[rows]) for lam, vecs in clusters)

    lams = [lam for lam, _ in contributions]
    spaces = []
    for cl in spectral._value_clusters(lams):
        joint = np.hstack([contributions[i][1] for i in cl])
        spaces.append(BoundaryEigenspace(lams[cl[0]], _column_space(joint)))
    return spaces


def _column_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, deterministic signs."""
    if mat.size == 0 or np.max(np.abs(mat)) <= 1e-9:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    return spectral._sign_normalize(u[:, :rank])


def necessary_check(gph: Graph, split: SplitSpec) -> MergeVerdict:
    """Decide whether the split satisfies the necessary slow-merging pattern:
    some eigenvalue in (0, 1) whose boundary-restricted eigenspace contains a
    nonzero vector with no two opposite-signed boundary entries.

    A failing verdict certifies (by contraposition) that merging across this
    split cannot be delayed arbitrarily long.
    """
    spaces = boundary_eigenspaces(gph, split)
    records = []
    hit = None
    for sp in spaces:
        if not spectral.CLUSTER_TOL < sp.eigenvalue < 1.0 - spectral.CLUSTER_TOL:
            continue
        dim = sp.basis.shape[1]
        witness = nonneg_nonzero_vector(sp.basis) if dim else None
        records.append(EigenRecord(sp.eigenvalue, dim, witness is not None))
        if witness is not None and hit is None:
            hit = (sp.eigenvalue, witness)
    if hit is None:
        return MergeVerdict(NECESSARY_FAILS, records=tuple(records))
    return MergeVerdict(NECESSARY_HOLDS, hit[0], hit[1], tuple(records))


@dataclass(frozen=True)
class NoSlowMergeReport:
    """Exhaustive necessary-condition scan over every split of a graph.

    ``checked`` and ``skipped_no_boundary`` count splits; ``holds`` lists
    (vp, vq, eigenvalue) for each scanned split where the condition held,
    one representative per orbit for a complete multipartite scan.
    """

    n: int
    checked: int
    skipped_no_boundary: int
    holds: tuple

    @property
    def all_fail(self) -> bool:
        return not self.holds


def rpartite_no_slow_merge(spec) -> NoSlowMergeReport:
    """Run the necessary check on every ordered pair of disjoint nonempty
    vertex sets of a complete multipartite graph joined by at least one edge,
    once per orbit of the part symmetries (see ``_split_orbits``).

    Complete multipartite graphs admit no split where the condition holds,
    so each is expected to fail; the report lists any orbit representative
    that held instead.  Graphs above ``SCAN_CAP`` vertices are refused.
    """
    if spec.n > SCAN_CAP:
        raise GraphTooLarge(spec.n, SCAN_CAP)
    return _scan(complete_r_partite(spec), _split_orbits(spec))


def _scan(g: Graph, splits) -> NoSlowMergeReport:
    """Run the necessary check on each ``(vp, vq, weight)`` of ``splits`` that
    has a boundary edge, counting ``weight`` splits checked or skipped."""
    checked = skipped = 0
    holds = []
    for vp, vq, weight in splits:
        split = make_split(g, vp, vq)
        if split.b == 0:
            skipped += weight
            continue
        checked += weight
        verdict = necessary_check(g, split)
        if verdict.kind == NECESSARY_HOLDS:
            holds.append((vp, vq, verdict.eigenvalue))
    return NoSlowMergeReport(g.n, checked, skipped, tuple(holds))


def _split_orbits(spec):
    """Yield (vp, vq, orbit size) once per orbit of the splits of a
    complete multipartite graph under its part symmetries.

    Permuting the vertices inside a part, or swapping two parts of equal
    size, is an automorphism, so a split's orbit is fixed by the counts
    (a_p, b_p) of part p's vertices in vp and vq, up to the order of the
    equal-size parts. Each group of equal-size parts takes one multiset of
    count pairs; the representative puts the first a_p vertices of part p in
    vp and the next b_p in vq. The orbit holds prod C(s_p, a_p) C(s_p - a_p,
    b_p) splits times the distinct orders of each group's multiset. The
    splits of an orbit have no boundary edge exactly when its representative
    lies inside one part. Orbits with an empty side are left out, so the
    sizes sum to 3^n - 2^(n+1) + 1.
    """
    groups: dict = {}
    for part, size in zip(spec.parts(), spec.part_sizes):
        groups.setdefault(size, []).append(part)
    # per group, one option per multiset: (its vp, its vq, split count)
    options = []
    for size, parts in groups.items():
        pairs = [(a, b) for a in range(size + 1) for b in range(size + 1 - a)]
        opts = []
        for combo in combinations_with_replacement(pairs, len(parts)):
            vp, vq, count = [], [], math.factorial(len(parts))
            for pair in set(combo):
                count //= math.factorial(combo.count(pair))
            for part, (a, b) in zip(parts, combo):
                vp.extend(part[:a])
                vq.extend(part[a:a + b])
                count *= math.comb(size, a) * math.comb(size - a, b)
            opts.append((vp, vq, count))
        options.append(opts)
    for choice in product(*options):
        vp = tuple(sorted(v for o in choice for v in o[0]))
        vq = tuple(sorted(v for o in choice for v in o[1]))
        if vp and vq:
            yield vp, vq, math.prod(o[2] for o in choice)


def scan_all_splits(g: Graph) -> NoSlowMergeReport:
    """Run the necessary check on every split of a general graph, one by one."""
    return _scan(g, _all_splits(g.n))


def _all_splits(n):
    """Yield (vp, vq, 1) for every ordered pair of disjoint nonempty vertex sets."""
    vertices = list(range(n))
    for vp_mask in range(1, 1 << n):
        vp = tuple(v for v in vertices if vp_mask >> v & 1)
        rest = [v for v in vertices if not vp_mask >> v & 1]
        m = len(rest)
        for vq_mask in range(1, 1 << m):
            yield vp, tuple(rest[i] for i in range(m) if vq_mask >> i & 1), 1
