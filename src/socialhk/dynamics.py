"""Social bounded-confidence averaging dynamics with structural event logs.

At every step each agent moves to the arithmetic mean of the opinions of its
influence neighbors: the agents it is joined to in the physical graph AND
whose opinions lie within the confidence bound.  Equivalently
``x[k+1] = D^{-1} A_adj x[k]`` over the influence graph at time k.

Two engines share the same event semantics:

* the float engine (``simulate``) runs IEEE doubles and is the default;
* the exact engine (``simulate_exact``) runs integer arithmetic over a
  common denominator, so state equality and neighbor tests are decided in
  exact rational arithmetic.  It exists because a float trajectory collapses
  onto a bitwise fixed point once deviations reach rounding scale, which
  misreports genuinely non-terminating dynamics.

Events: ``link_break``/``link_form`` compare consecutive influence graphs;
``merge`` fires when a formed link joins two previously disconnected
components; ``lock`` fires when the influence graph is certified frozen
forever (every component's opinion spread is at most the confidence bound
and distinct components' opinion hulls are separated by more than it);
``termination`` fires when the state exactly repeats.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import spectral
from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    EpsTooSmall,
    HistoryTruncated,
    NotLocked,
)
from .graphs import Graph, effective_diameter, induced_subgraph

HISTORY_CAP = 100_000
EXACT_FLOAT_STATES = 512
EXACT_WINDOW = 60


@dataclass(frozen=True)
class OpinionState:
    """Vector of real opinions together with the confidence bound."""

    opinions: np.ndarray
    confidence_bound: float

    def __post_init__(self):
        x = np.array(self.opinions, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "opinions", x)
        if not np.all(np.isfinite(x)):
            raise ValueError("opinions must be finite")
        if not self.confidence_bound > 0:
            raise ValueError("confidence bound must be positive")

    @property
    def n(self) -> int:
        return len(self.opinions)

    def spread(self) -> float:
        return float(np.max(self.opinions) - np.min(self.opinions))


@dataclass(frozen=True)
class InfluenceGraph:
    """Influence graph at one instant plus its component partition."""

    graph: Graph
    components: tuple


def _components_of(n: int, edges: frozenset) -> tuple:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        if i != j:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def influence_edges(gph: Graph, opinions, bound, tol=0) -> frozenset:
    """Edges of the physical graph whose endpoint opinions differ by at most
    the bound (plus an optional widening tolerance).  Exact comparisons."""
    kept = set()
    for i, j in gph.edges:
        if i == j:
            kept.add((i, j))
        else:
            gap = opinions[i] - opinions[j]
            if gap < 0:
                gap = -gap
            if gap <= bound + tol:
                kept.add((i, j))
    return frozenset(kept)


def influence_graph(gph: Graph, state: OpinionState, neighbor_tol: float = 0.0) -> InfluenceGraph:
    if state.n != gph.n:
        raise DimensionMismatch(f"state has {state.n} opinions, graph has {gph.n} vertices")
    edges = influence_edges(gph, state.opinions, state.confidence_bound, neighbor_tol)
    g = Graph(gph.n, edges)
    return InfluenceGraph(g, _components_of(gph.n, edges))


def step(gph: Graph, state: OpinionState, neighbor_tol: float = 0.0) -> OpinionState:
    """One update: each opinion moves to the mean over its influence neighbors."""
    ig = influence_graph(gph, state, neighbor_tol)
    adj = ig.graph.adjacency_matrix()
    deg = adj.sum(axis=1)
    return OpinionState(adj @ state.opinions / deg, state.confidence_bound)


# -- events and trajectories -------------------------------------------------


@dataclass(frozen=True)
class Event:
    k: int
    kind: str  # link_break | link_form | merge | lock | termination
    i: int = -1
    j: int = -1
    component_a: tuple = ()
    component_b: tuple = ()

    def to_payload(self, one_based: bool = False) -> dict:
        off = 1 if one_based else 0
        payload = {"k": self.k, "kind": self.kind}
        if self.kind in ("link_break", "link_form", "merge"):
            payload["i"] = self.i + off
            payload["j"] = self.j + off
        if self.kind == "merge":
            payload["component_a"] = [v + off for v in self.component_a]
            payload["component_b"] = [v + off for v in self.component_b]
        return payload


@dataclass
class Trajectory:
    """States, influence graphs (as edge deltas), events, and energy series."""

    gph: Graph
    confidence_bound: float
    states: list                 # recorded states, index k -> ndarray
    base_edges: frozenset        # influence edges at k = 0
    edge_deltas: list            # per step k>=1: (added, removed) frozensets
    events: list
    energies: list               # (E, E_act) per recorded step, or None (exact mode)
    lock_k: int | None = None
    lock_state: np.ndarray | None = None  # state at lock_k, kept whatever history_cap drops
    termination_k: int | None = None
    truncated: bool = False
    is_exact: bool = False
    exact_window: list = field(default_factory=list)  # [(k, numerators, denominator)]

    @property
    def n_steps(self) -> int:
        return len(self.edge_deltas)

    @property
    def locked(self) -> bool:
        return self.lock_k is not None

    def influence_edges_at(self, k: int) -> frozenset:
        if not 0 <= k <= self.n_steps:
            raise IndexError(k)
        edges = set(self.base_edges)
        for added, removed in self.edge_deltas[:k]:
            edges |= added
            edges -= removed
        return frozenset(edges)

    def influence_graph_at(self, k: int) -> InfluenceGraph:
        edges = self.influence_edges_at(k)
        return InfluenceGraph(Graph(self.gph.n, edges), _components_of(self.gph.n, edges))

    def events_of(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def merge_times(self) -> list:
        return [e.k for e in self.events_of("merge")]

    def state_at(self, k: int) -> np.ndarray:
        return self.states[k]

    def exact_state_at(self, k: int) -> tuple:
        """Exact rational state from the retained window (exact mode only)."""
        for kk, numer, denom in self.exact_window:
            if kk == k:
                return tuple(Fraction(v, denom) for v in numer)
        raise IndexError(f"step {k} not in the retained exact window")


def _lock_holds(opinions, bound, components) -> bool:
    hulls = []
    for comp in components:
        vals = [opinions[v] for v in comp]
        lo, hi = min(vals), max(vals)
        if hi - lo > bound:
            return False
        hulls.append((lo, hi))
    for a in range(len(hulls)):
        for b in range(a + 1, len(hulls)):
            lo_a, hi_a = hulls[a]
            lo_b, hi_b = hulls[b]
            gap = lo_b - hi_a if lo_b >= hi_a else lo_a - hi_b
            if gap <= bound:
                return False
    return True


def _diff_events(k, prev_edges, new_edges, prev_components):
    """link_break / link_form / merge events between consecutive graphs."""
    events = []
    comp_of = {}
    for comp in prev_components:
        for v in comp:
            comp_of[v] = comp
    for i, j in sorted(prev_edges - new_edges):
        events.append(Event(k, "link_break", i, j))
    merged_pairs = {}
    for i, j in sorted(new_edges - prev_edges):
        events.append(Event(k, "link_form", i, j))
        ca, cb = comp_of[i], comp_of[j]
        if ca is not cb:
            key = tuple(sorted((min(ca), min(cb))))
            if key not in merged_pairs:
                a, b = (ca, cb) if min(ca) < min(cb) else (cb, ca)
                merged_pairs[key] = Event(k, "merge", i, j, a, b)
    events.extend(merged_pairs[key] for key in sorted(merged_pairs))
    return events


def _energy(n, edges, opinions, bound):
    """(total, active) energy over ordered vertex pairs.

    Active energy is the squared-gap sum over ordered influence edges; every
    ordered non-edge pair contributes the squared bound on top of that.
    """
    act = 0.0
    nonloop = 0
    for i, j in edges:
        if i != j:
            gap = float(opinions[i]) - float(opinions[j])
            act += 2.0 * gap * gap
            nonloop += 1
    total = act + (n * n - n - 2 * nonloop) * float(bound) ** 2
    return total, act


def _check_stop(stop_on, locked, terminated, state_dist=None):
    if stop_on is None:
        return terminated
    if stop_on == "termination":
        return terminated
    if stop_on == "lock":
        return terminated or locked
    if isinstance(stop_on, tuple) and stop_on[0] == "eps":
        return terminated or (locked and state_dist is not None and state_dist < stop_on[1])
    raise ValueError(f"unknown stop condition {stop_on!r}")


def simulate(
    gph: Graph,
    state: OpinionState,
    max_steps: int,
    stop_on=None,
    neighbor_tol: float = 0.0,
    history_cap: int = HISTORY_CAP,
) -> Trajectory:
    """Float-arithmetic simulation for up to ``max_steps`` updates.

    ``stop_on`` is ``None`` (run the full budget), ``"lock"``,
    ``"termination"``, or ``("eps", value)``; when a requested condition is
    not met within the budget, BudgetExhausted carries the partial
    trajectory.  Termination (bitwise state repetition) always stops the run
    since nothing can change afterwards.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if state.n != gph.n:
        raise DimensionMismatch(f"state has {state.n} opinions, graph has {gph.n} vertices")
    bound = state.confidence_bound
    x = np.array(state.opinions, dtype=float)

    edges = influence_edges(gph, x, bound, neighbor_tol)
    components = _components_of(gph.n, edges)
    traj = Trajectory(
        gph=gph,
        confidence_bound=bound,
        states=[x.copy()],
        base_edges=edges,
        edge_deltas=[],
        events=[],
        energies=[_energy(gph.n, edges, x, bound)],
    )
    adj = None
    deg = None
    if _lock_holds(x, bound, components):
        traj.lock_k = 0
        traj.lock_state = x.copy()
        traj.events.append(Event(0, "lock"))
        dist0 = None
        if isinstance(stop_on, tuple):
            dist0 = float(np.linalg.norm(x - steady_state(traj).x_inf))
        if stop_on is not None and stop_on != "termination" and _check_stop(
            stop_on, True, False, dist0
        ):
            return traj

    x_inf = None
    for k in range(1, max_steps + 1):
        if adj is None:
            adj = Graph(gph.n, edges).adjacency_matrix()
            deg = adj.sum(axis=1)
        x_new = adj @ x / deg

        if np.array_equal(x_new, x):
            traj.termination_k = k - 1
            traj.events.append(Event(k - 1, "termination"))
            break

        if traj.locked:
            new_edges = edges  # frozen-graph certificate: no recomputation needed
        else:
            new_edges = influence_edges(gph, x_new, bound, neighbor_tol)

        if new_edges != edges:
            traj.events.extend(_diff_events(k, edges, new_edges, components))
            traj.edge_deltas.append((new_edges - edges, edges - new_edges))
            edges = new_edges
            components = _components_of(gph.n, edges)
            adj = None
        else:
            traj.edge_deltas.append((frozenset(), frozenset()))

        x = x_new
        if len(traj.states) <= history_cap:
            traj.states.append(x.copy())
        else:
            traj.truncated = True
        traj.energies.append(_energy(gph.n, edges, x, bound))

        if not traj.locked and _lock_holds(x, bound, components):
            traj.lock_k = k
            traj.lock_state = x.copy()
            traj.events.append(Event(k, "lock"))
            x_inf = None

        dist = None
        if isinstance(stop_on, tuple) and traj.locked:
            if x_inf is None:
                x_inf = steady_state(traj).x_inf
            dist = float(np.linalg.norm(x - x_inf))
        if _check_stop(stop_on, traj.locked, traj.termination_k is not None, dist):
            break
    else:
        if stop_on is not None:
            raise BudgetExhausted(max_steps, traj)
    return traj


# -- exact-rational engine ---------------------------------------------------


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def simulate_exact(
    gph: Graph,
    opinions,
    confidence_bound,
    max_steps: int,
    stop_on=None,
    window: int = EXACT_WINDOW,
) -> Trajectory:
    """Exact rational simulation: states as integers over a common denominator.

    Neighbor tests, lock checks, and the termination test are decided in
    exact arithmetic, so a termination event here means the state truly
    repeats.  Float projections of the first few hundred states are recorded
    for inspection; the exact states of the final ``window`` steps are kept
    for tail measurements.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if isinstance(stop_on, tuple):
        raise ValueError("distance-based stops are a float-engine feature; "
                         "use stop_on in {None, 'lock', 'termination'} here")
    fracs = [Fraction(v) for v in opinions]
    if len(fracs) != gph.n:
        raise DimensionMismatch(f"state has {len(fracs)} opinions, graph has {gph.n} vertices")
    bound = Fraction(confidence_bound)
    if bound <= 0:
        raise ValueError("confidence bound must be positive")

    denom = _lcm_all([f.denominator for f in fracs])
    y = [int(f * denom) for f in fracs]
    bp, bq = bound.numerator, bound.denominator
    n = gph.n
    phys = sorted(gph.nonloop_edges())

    def edges_now(yv, m):
        kept = {(i, i) for i in range(n)}
        lim = bp * m
        for i, j in phys:
            if bq * abs(yv[i] - yv[j]) <= lim:
                kept.add((i, j))
        return frozenset(kept)

    def lock_now(yv, m, comps):
        hulls = []
        lim = bp * m
        for comp in comps:
            vals = [yv[v] for v in comp]
            lo, hi = min(vals), max(vals)
            if bq * (hi - lo) > lim:
                return False
            hulls.append((lo, hi))
        for a in range(len(hulls)):
            for b in range(a + 1, len(hulls)):
                lo_a, hi_a = hulls[a]
                lo_b, hi_b = hulls[b]
                gap = lo_b - hi_a if lo_b >= hi_a else lo_a - hi_b
                if bq * gap <= lim:
                    return False
        return True

    def project(yv, m):
        return np.array([v / m for v in yv])  # int true division rounds correctly

    edges = edges_now(y, denom)
    components = _components_of(n, edges)
    traj = Trajectory(
        gph=gph,
        confidence_bound=float(bound),
        states=[project(y, denom)],
        base_edges=edges,
        edge_deltas=[],
        events=[],
        energies=None,
        is_exact=True,
    )
    if lock_now(y, denom, components):
        traj.lock_k = 0
        traj.lock_state = traj.states[0]
        traj.events.append(Event(0, "lock"))

    recent = deque([(0, tuple(y), denom)], maxlen=window + 1)
    unchanged = (frozenset(), frozenset())
    neigh = None
    for k in range(1, max_steps + 1):
        if neigh is None:
            nbr_lists = {i: [] for i in range(n)}
            for i, j in edges:
                if i != j:
                    nbr_lists[i].append(j)
                    nbr_lists[j].append(i)
            lcm = _lcm_all([len(nbr_lists[i]) + 1 for i in range(n)])
            neigh = tuple((lcm // (len(nbr_lists[i]) + 1), i, nbr_lists[i]) for i in range(n))
            links = tuple((i, j) for i, j in edges if i != j)
        # An average equals its terms only when they are all equal, so the
        # update fixes y exactly when y is constant across every influence
        # link; equality tests on big integers mostly fail at the top digit.
        for i, j in links:
            if y[i] != y[j]:
                break
        else:
            traj.termination_k = k - 1
            traj.events.append(Event(k - 1, "termination"))
            break
        # sum() starts from y[i], not 0, which saves a big-integer copy
        y = [sum(map(y.__getitem__, nb), y[i]) * mult for mult, i, nb in neigh]
        denom *= lcm

        if traj.locked:
            new_edges = edges
        else:
            new_edges = edges_now(y, denom)
        if new_edges != edges:
            prev = edges
            traj.events.extend(_diff_events(k, prev, new_edges, components))
            edges = new_edges
            components = _components_of(n, edges)
            neigh = None
            traj.edge_deltas.append((edges - prev, prev - edges))
        else:
            traj.edge_deltas.append(unchanged)

        if len(traj.states) <= EXACT_FLOAT_STATES:
            traj.states.append(project(y, denom))
        else:
            traj.truncated = True

        recent.append((k, tuple(y), denom))

        if not traj.locked and lock_now(y, denom, components):
            traj.lock_k = k
            traj.lock_state = project(y, denom)
            traj.events.append(Event(k, "lock"))

        if _check_stop(stop_on, traj.locked, traj.termination_k is not None):
            break
    else:
        if stop_on is not None:
            traj.exact_window = list(recent)
            raise BudgetExhausted(max_steps, traj)

    traj.exact_window = list(recent)
    return traj


# -- steady state and convergence measurements --------------------------------


@dataclass(frozen=True)
class SteadyState:
    """Per-component consensus values of a locked trajectory."""

    components: tuple
    values: tuple
    lock_k: int
    x_inf: np.ndarray
    exact_values: tuple = ()


def steady_state(traj: Trajectory) -> SteadyState:
    """Limit of a locked trajectory: the within-component degree-weighted mean.

    While the influence graph is constant, the degree-weighted opinion sum of
    each component is conserved by every step, so the limit of the averaging
    is the weighted mean frozen at lock time.
    """
    if not traj.locked:
        raise NotLocked("steady state requires a locked trajectory")
    k = traj.lock_k
    ig = traj.influence_graph_at(k)
    deg = ig.graph.degrees

    exact_vals = ()
    if traj.is_exact and traj.exact_window:
        entry = next((e for e in traj.exact_window if e[0] == k), None)
        if entry is None and k <= traj.exact_window[0][0]:
            # lock precedes the retained window; the weighted mean is conserved
            # while the graph is frozen, so any retained state gives the same value
            entry = traj.exact_window[0]
        if entry is not None:
            _, numer, m = entry
            vals = []
            for comp in ig.components:
                num = sum(int(deg[v]) * numer[v] for v in comp)
                den = sum(int(deg[v]) for v in comp)
                vals.append(Fraction(num, den * m))
            exact_vals = tuple(vals)

    x_lock = traj.lock_state
    values = []
    x_inf = np.zeros(traj.gph.n)
    for idx, comp in enumerate(ig.components):
        if exact_vals:
            val = float(exact_vals[idx])
        else:
            comp_list = list(comp)
            val = float(np.dot(deg[comp_list], x_lock[comp_list]) / deg[comp_list].sum())
        values.append(val)
        for v in comp:
            x_inf[v] = val
    return SteadyState(ig.components, tuple(values), k, x_inf, exact_vals)


def eps_convergence_time(traj: Trajectory, ss: SteadyState, eps: float) -> int:
    """Smallest N such that the trajectory stays within ``eps`` (2-norm) of the
    limit for every k >= N.

    Recorded states are checked directly up to lock time.  Beyond lock each
    frozen component's deviation splits over the eigenspaces of its
    normalized adjacency matrix, and the part in the eigenspace of lambda
    decays as |lambda|^k.  The tail bound sums ||part|| * |lambda|^k per
    eigenspace (per cluster of equal eigenvalues), so it does not depend on
    the eigenbasis the solver picks inside a repeated eigenvalue.  It is
    non-increasing, so it is decisive for all later k.

    Raises HistoryTruncated when the answer needs pre-lock states that
    ``history_cap`` dropped.
    """
    if eps <= 0:
        raise EpsTooSmall("eps must be positive")
    if not traj.locked:
        raise NotLocked("eps-convergence time requires a locked trajectory")
    k_lock = traj.lock_k
    ig = traj.influence_graph_at(k_lock)

    # Per component: the norm of the deviation at lock in each eigenspace,
    # and that eigenspace's |lambda|.
    comp_tails = []
    for comp in ig.components:
        sub, vs = induced_subgraph(ig.graph, comp)
        dec = spectral.decompose(sub)
        dev = traj.lock_state[list(vs)] - ss.x_inf[list(vs)]
        parts = dec.eigenvectors * np.linalg.solve(dec.eigenvectors, dev)
        weights = np.array([np.linalg.norm(parts[:, list(cl)].sum(axis=1)) for cl in dec.clusters])
        rates = np.array([np.max(np.abs(dec.eigenvalues[list(cl)])) for cl in dec.clusters])
        comp_tails.append((weights, rates))

    # Walk the non-increasing tail bound forward from one step past lock.
    steps = 1
    cur = [w * r for w, r in comp_tails]
    while math.sqrt(sum(float(np.sum(c)) ** 2 for c in cur)) >= eps:
        steps += 1
        if steps >= 10_000_000:
            raise RuntimeError("tail bound failed to reach eps within iteration cap")
        cur = [c * r for c, (_, r) in zip(cur, comp_tails)]
    if steps > 1:
        return k_lock + steps

    # The tail is within eps from one step past lock, so the answer is one
    # past the last state up to lock that is not.
    if np.linalg.norm(traj.lock_state - ss.x_inf) >= eps:
        return k_lock + 1
    if len(traj.states) < k_lock:
        raise HistoryTruncated(
            f"states {len(traj.states)}..{k_lock - 1} before the lock were not recorded"
        )
    bad = [k for k in range(k_lock) if np.linalg.norm(traj.states[k] - ss.x_inf) >= eps]
    return bad[-1] + 1 if bad else 0


def tail_decay_ratio(traj: Trajectory, ss: SteadyState, window: int = 50) -> float:
    """Geometric-mean per-step decay of the distance to the limit, measured
    over the final ``window`` steps.

    Exact trajectories measure in rational arithmetic (the ratio is formed
    before any float conversion, so underflow cannot corrupt it).  Float
    trajectories use recorded states above the rounding floor.
    """
    if traj.is_exact:
        entries = {e[0]: e for e in traj.exact_window}
        ks = sorted(entries)
        if len(ks) < window + 1:
            raise ValueError("exact window shorter than the measurement window")
        k_hi, k_lo = ks[-1], ks[-1] - window
        exact_vals = ss.exact_values
        if not exact_vals:
            raise ValueError("steady state lacks exact values")
        ig = traj.influence_graph_at(traj.lock_k)

        def dist2(entry):
            # sum over components of |y_i/m - mean_c|^2 as an unreduced
            # (numerator, denominator) pair of integers
            _, numer, m = entry
            top, bottom = 0, 1
            for idx, comp in enumerate(ig.components):
                mp, mq = exact_vals[idx].numerator, exact_vals[idx].denominator
                acc = 0
                for v in comp:
                    d = numer[v] * mq - mp * m
                    acc += d * d
                scale = (mq * m) ** 2
                top, bottom = top * scale + acc * bottom, bottom * scale
            return top, bottom

        (top_hi, bottom_hi), (top_lo, bottom_lo) = dist2(entries[k_hi]), dist2(entries[k_lo])
        # int true division rounds the exact ratio correctly, with no gcd
        ratio = (top_hi * bottom_lo) / (bottom_hi * top_lo)
        return ratio ** (1.0 / (2 * window))

    dists = [float(np.linalg.norm(s - ss.x_inf)) for s in traj.states]
    floor = 1e-13 * max(1.0, float(np.max(np.abs(traj.states[0]))))
    good = [d for d in dists if d > floor]
    if len(good) < window + 1:
        raise ValueError("not enough resolvable distances for the window")
    return (good[-1] / good[-1 - window]) ** (1.0 / window)


# -- energy certificates -------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    """Per-step verification of the energy descent inequalities."""

    ok: bool
    n_steps: int
    n_breaks: int
    violations: tuple  # (k, clause, detail)


def _component_lambda(ig: InfluenceGraph) -> float:
    """max |lambda| over non-unit eigenvalues across components (0 if none)."""
    worst = 0.0
    for comp in ig.components:
        if len(comp) > 1:
            sub, _ = induced_subgraph(ig.graph, comp)
            worst = max(worst, spectral.decompose(sub).second_largest_abs())
    return worst


def verify_energy_certificates(traj: Trajectory, tol: float = 1e-9) -> EnergyReport:
    """Check every step of a float trajectory against the descent inequalities.

    (a) energy never increases; (b) the decrement is at least
    (1 - lambda_k^2) times the active energy, lambda_k being the largest
    non-unit eigenvalue magnitude of the influence graph; (c) the spectral gap
    obeys 1 - lambda_k^2 >= 3 / (2 n^2 d_eff); (d) every step with a link
    break sheds at least R^2/(2 n^3) of energy from an active energy above
    R^2/3; (e) each break admits a strained witness pair: neighbors p of i and
    q of j whose opinions differed by more than the bound before the break.
    """
    if traj.energies is None:
        raise ValueError("energy certificates need a float trajectory with energy series")
    n = traj.gph.n
    bound = traj.confidence_bound
    violations = []
    breaks_by_step: dict = {}
    for ev in traj.events_of("link_break"):
        breaks_by_step.setdefault(ev.k, []).append((ev.i, ev.j))

    n_recorded = min(len(traj.states) - 1, traj.n_steps)
    for k in range(n_recorded):
        e_k, act_k = traj.energies[k]
        e_next, _ = traj.energies[k + 1]
        dec = e_k - e_next
        if e_next > e_k + tol:
            violations.append((k, "monotone", f"E rose by {e_next - e_k:.3e}"))

        ig = traj.influence_graph_at(k)
        lam = _component_lambda(ig)
        gap = 1.0 - lam * lam
        if dec < gap * act_k - tol:
            violations.append((k, "decrement_vs_active", f"{dec:.3e} < {gap * act_k:.3e}"))

        d_eff = effective_diameter(ig.graph)
        if d_eff >= 1:
            floor = 3.0 / (2.0 * n * n * d_eff)
            if gap < floor - tol:
                violations.append((k, "spectral_gap_floor", f"{gap:.3e} < {floor:.3e}"))

        broke = breaks_by_step.get(k + 1, [])
        if broke:
            if dec < bound**2 / (2 * n**3) - tol:
                violations.append((k, "break_decrement", f"{dec:.3e}"))
            if act_k <= bound**2 / 3 - tol:
                violations.append((k, "break_active_floor", f"{act_k:.3e}"))
            x_k = traj.states[k]
            for i, j in broke:
                if not _strained_pair(ig.graph, x_k, bound, i, j):
                    violations.append((k + 1, "break_witness", f"no strained pair for ({i},{j})"))

    n_breaks = len(traj.events_of("link_break"))
    return EnergyReport(not violations, n_recorded, n_breaks, tuple(violations))


def _strained_pair(g: Graph, opinions, bound, i, j) -> bool:
    for p in g.neighbors(i):
        for q in g.neighbors(j):
            if abs(float(opinions[p]) - float(opinions[q])) > bound:
                return True
    return False
