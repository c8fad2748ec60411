import dataclasses
import math
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
import pytest

from socialhk import dynamics, graphs, sampling, slowmerge, spectral
from socialhk.dynamics import OpinionState
from socialhk.errors import (
    BudgetExhausted,
    DimensionMismatch,
    EpsTooSmall,
    HistoryTruncated,
    NotLocked,
)
from socialhk.graphs import complete_graph, path_graph

from conftest import philox, random_connected_graph


def star_with_tail():
    """Five leaves on a hub plus a pendant: the pendant link snaps at k=1
    when the hub is yanked toward the heavy leaf cluster."""
    edges = {(i, 5) for i in range(5)} | {(5, 6)}
    g = graphs.Graph(7, frozenset(edges))
    x0 = OpinionState([0, 0, 0, 0, 0, 1.0, 2.0], 1.0)
    return g, x0


def assert_refused(exc_type, message, call, *args, **kwargs):
    """``call(*args, **kwargs)`` raises exactly ``exc_type`` with ``message``."""
    with pytest.raises(exc_type) as err:
        call(*args, **kwargs)
    assert (err.type, str(err.value)) == (exc_type, message)


def loop_simulate_array_equal(gph, state, max_steps, stop_on=None, history_cap=dynamics.HISTORY_CAP):
    """The float loop of ``dynamics.simulate`` as it was before the locked
    stretch ran in blocks: one state at a time up to the budget, the
    ``np.array_equal`` repeat test it had before the byte compare, and an
    ``("eps", value)`` stop tested after every locked step."""
    x = np.array(state.opinions, dtype=float)
    traj = dynamics.Trajectory(gph=gph, confidence_bound=state.confidence_bound, states=[x.copy()],
                               epochs=[], events=[])
    groups = x_inf = None
    for k in range(max_steps + 1):
        if k:
            x_new = dynamics._average(x, *avg)
            if np.array_equal(x_new, x):
                traj.termination_k = k - 1
                traj.events.append(dynamics.Event(k - 1, "termination"))
                break
            x = x_new
            traj.n_steps = k
            if len(traj.states) <= history_cap:
                traj.states.append(x)
            else:
                traj.truncated = True
        if not traj.locked:
            groups = dynamics._observe(traj, k, x, state.confidence_bound, groups)
            if traj.lock_k == k:
                traj.lock_state = x.copy()
            if traj.epochs[-1].k_start == k:
                avg = dynamics._averaging(gph, traj.epochs[-1].mask)
            if stop_on == "lock" and traj.locked:
                break
        if isinstance(stop_on, tuple) and traj.locked:
            if x_inf is None:
                x_inf = dynamics.steady_state(traj).x_inf
            if np.linalg.norm(x - x_inf) < stop_on[1]:
                break
    else:
        if stop_on is not None:
            raise BudgetExhausted(max_steps, traj)
    return traj


def spy_frozen_stretch(monkeypatch) -> list:
    """Wrap ``dynamics._frozen_stretch``.  The list returned gains, for each
    row a stretch hands back, (trajectory, the row's step, whether the run
    was locked)."""
    caught = []
    frozen_stretch = dynamics._frozen_stretch

    def spy(traj, *args):
        out = frozen_stretch(traj, *args)
        if out[2] is not None:
            caught.append((traj, out[0] + 1, traj.locked))
        return out

    monkeypatch.setattr(dynamics, "_frozen_stretch", spy)
    return caught


def handed_back_kinds(caught) -> Counter:
    """Why each row ``spy_frozen_stretch`` caught came back, counted by
    (locked, kind): a repeat, before the lock a link change or the lock,
    and from the lock on the row within eps of the limit that ends the run."""
    kinds = Counter()
    for traj, k, locked in caught:
        if traj.termination_k == k - 1:
            kind = "repeat"
        elif locked:
            assert traj.n_steps == k and traj.termination_k is None, k
            kind = "eps"
        elif traj._epoch_at(k).k_start == k:
            kind = "link"
        else:
            assert traj.lock_k == k, k
            kind = "lock"
        kinds[locked, kind] += 1
    return kinds


def loop_simulate_exact(gph, opinions, confidence_bound, max_steps, stop_on=None,
                        window=dynamics.EXACT_WINDOW):
    """Reference: the step-by-step loop that ``dynamics.simulate_exact``
    replaced past lock by a power of the locked update.  It records the float
    projection of every state."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    fracs = [Fraction(v) for v in opinions]
    bound = Fraction(confidence_bound)
    denom = math.lcm(*(f.denominator for f in fracs))
    y = [int(f * denom) for f in fracs]
    bp, bq = bound.numerator, bound.denominator
    n = gph.n
    src, dst = gph.src, gph.dst
    phys = gph.nonloop_edges()

    def mask_now(yv, m):
        lim = bp * m
        return np.array([bq * abs(yv[i] - yv[j]) <= lim for i, j in phys], dtype=bool)

    def enter(k, mask):
        labels = graphs.component_labels(n, src[mask], dst[mask])
        traj.epochs.append(dynamics.Epoch(k, mask, labels))
        order, starts = graphs.label_groups(labels)
        return labels, order.tolist(), starts.tolist() + [n]

    def lock_now(yv, m):
        ys = [yv[v] for v in grouped]
        hulls = [(bq * min(ys[a:b]), bq * max(ys[a:b])) for a, b in zip(cuts, cuts[1:])]
        return dynamics._lock_holds(*np.array(hulls, dtype=object).T, bp * m)

    def project(yv, m):
        return np.array([v / m for v in yv])

    traj = dynamics.Trajectory(gph=gph, confidence_bound=float(bound), states=[project(y, denom)],
                               epochs=[], events=[], is_exact=True)
    mask = mask_now(y, denom)
    labels, grouped, cuts = enter(0, mask)
    if lock_now(y, denom):
        traj.lock_k = 0
        traj.lock_state = traj.states[0]
        traj.events.append(dynamics.Event(0, "lock"))

    recent = deque([(0, tuple(y), denom)], maxlen=window + 1)
    if stop_on == "lock" and traj.locked:  # a lock at step 0 stops before any update
        traj.exact_window = list(recent)
        return traj
    neigh = None
    for k in range(1, max_steps + 1):
        if neigh is None:
            links = list(zip(src[mask].tolist(), dst[mask].tolist()))
            _, s, deg = dynamics._averaging(gph, mask)
            s, deg = s.tolist(), deg.tolist()
            lcm = math.lcm(*deg)
            ends = list(accumulate(deg))
            neigh = tuple((lcm // d, s[e - d], s[e - d + 1:e]) for d, e in zip(deg, ends))
        if all(y[i] == y[j] for i, j in links):
            traj.termination_k = k - 1
            traj.events.append(dynamics.Event(k - 1, "termination"))
            break
        y = [sum(map(y.__getitem__, nb), y[i]) * mult for mult, i, nb in neigh]
        denom *= lcm

        if not traj.locked:
            new_mask = mask_now(y, denom)
            if not np.array_equal(new_mask, mask):
                traj.events.extend(dynamics._diff_events(k, gph, mask, new_mask, labels, graphs.label_groups(labels)))
                mask = new_mask
                labels, grouped, cuts = enter(k, mask)
                neigh = None

        traj.n_steps = k
        traj.states.append(project(y, denom))
        recent.append((k, tuple(y), denom))

        if not traj.locked and lock_now(y, denom):
            traj.lock_k = k
            traj.lock_state = project(y, denom)
            traj.events.append(dynamics.Event(k, "lock"))

        if stop_on == "lock" and traj.locked:
            break
    else:
        if stop_on is not None:
            traj.exact_window = list(recent)
            raise BudgetExhausted(max_steps, traj)

    traj.exact_window = list(recent)
    return traj


def reference_lock_holds(lo, hi, bound):
    """``dynamics._lock_holds`` as it was, with the np.any / np.all wrappers."""
    if np.any(hi - lo > bound):
        return False
    order = np.argsort(lo, kind="stable")
    return bool(np.all(lo[order[1:]] - hi[order[:-1]] > bound))


def reference_diff_events(k, gph, old, new, prev_labels):
    """``dynamics._diff_events`` as it was: each merge scans the previous
    labels for the members of both components."""
    src, dst = gph.src, gph.dst
    events = [dynamics.Event(k, "link_break", i, j)
              for i, j in zip(src[old & ~new].tolist(), dst[old & ~new].tolist())]
    fi, fj = src[new & ~old], dst[new & ~old]
    merged = {}
    for i, j, li, lj in zip(fi.tolist(), fj.tolist(), prev_labels[fi].tolist(), prev_labels[fj].tolist()):
        events.append(dynamics.Event(k, "link_form", i, j))
        key = (min(li, lj), max(li, lj))
        if li != lj and key not in merged:
            a, b = (tuple(np.flatnonzero(prev_labels == lab).tolist()) for lab in key)
            merged[key] = dynamics.Event(k, "merge", i, j, a, b)
    events.extend(merged[key] for key in sorted(merged))
    return events


def reference_observe(traj, k, z, limit, groups):
    """``dynamics._observe`` before its shortcuts: the link mask compared by
    ``np.array_equal`` and the full hull lock test at every step."""
    gph = traj.gph
    mask = dynamics._live_mask(gph, z, limit)
    if not traj.epochs or not np.array_equal(mask, traj.epochs[-1].mask):
        if traj.epochs:
            _, old, labels = traj.epochs[-1]
            traj.events.extend(reference_diff_events(k, gph, old, mask, labels))
        labels = graphs.component_labels(gph.n, gph.src[mask], gph.dst[mask])
        traj.epochs.append(dynamics.Epoch(k, mask, labels))
        groups = graphs.label_groups(labels)
    order, starts = groups
    zs = z[order]
    if reference_lock_holds(np.minimum.reduceat(zs, starts), np.maximum.reduceat(zs, starts), limit):
        traj.lock_k = k
        traj.events.append(dynamics.Event(k, "lock"))
    return groups


def power_apply(rows, v, p):
    """Reference: ``rows ** p @ v`` for a square integer matrix, by binary powers."""
    while True:
        if p & 1:
            v = [sum(map(mul, row, v)) for row in rows]
        p >>= 1
        if not p:
            return v
        cols = list(zip(*rows))
        rows = [[sum(map(mul, row, col)) for col in cols] for row in rows]


def block_rows(neigh, comp):
    """The integer update matrix of one locked component: each vertex's
    ``lcm // degree`` on its closed neighbourhood."""
    pos = {v: c for c, v in enumerate(comp)}
    rows = [[0] * len(comp) for _ in comp]
    for row, v in zip(rows, comp):
        mult, _, nb = neigh[v]
        for u in (v, *nb):
            row[pos[u]] = mult
    return rows


def reference_locked_power(neigh, components, y, p):
    """Reference: ``dynamics._locked_power`` as matrix powers, block by block."""
    y = list(y)
    for comp in components:
        for v, yv in zip(comp, power_apply(block_rows(neigh, comp), [y[v] for v in comp], p)):
            y[v] = yv
    return y


def locked_neigh(gph, mask):
    """``simulate_exact``'s ``neigh`` for a link mask: (lcm // degree, vertex, live neighbors)."""
    _, s, deg = dynamics._averaging(gph, mask)
    s, deg = s.tolist(), deg.tolist()
    lcm = math.lcm(*deg)
    return tuple((lcm // d, s[e - d], s[e - d + 1:e]) for d, e in zip(deg, accumulate(deg)))


def reference_tail_decay_ratio(traj, ss, window=50):
    """Reference: the exact branch of ``dynamics.tail_decay_ratio`` as the sum
    of squared distances to the exact limits, an unreduced fraction per state."""
    entries = {e[0]: e for e in traj.exact_window}
    k_hi = max(entries)
    ig = traj.influence_graph_at(traj.lock_k)

    def dist2(entry):
        _, numer, m = entry
        top, bottom = 0, 1
        for idx, comp in enumerate(ig.components):
            mp, mq = ss.exact_values[idx].numerator, ss.exact_values[idx].denominator
            acc = 0
            for v in comp:
                d = numer[v] * mq - mp * m
                acc += d * d
            scale = (mq * m) ** 2
            top, bottom = top * scale + acc * bottom, bottom * scale
        return top, bottom

    (top_hi, bottom_hi), (top_lo, bottom_lo) = dist2(entries[k_hi]), dist2(entries[k_hi - window])
    return ((top_hi * bottom_lo) / (bottom_hi * top_lo)) ** (1.0 / (2 * window))


def reference_tail_steps(traj, ss, eps):
    """Reference: the step where the tail bound of
    ``dynamics.eps_convergence_time`` first falls below ``eps``, the bound
    summed in Python loops over every component (a lone vertex too) and
    each cluster of its eigenvalues, and scanned one step at a time from the
    lock on; None when it is below ``eps`` one step past the lock."""
    ig = traj.influence_graph_at(traj.lock_k)
    terms = []
    for comp in ig.components:
        sub, vs = graphs.induced_subgraph(ig.graph, comp)
        dec = spectral.decompose(sub)
        dev = traj.lock_state[list(vs)] - ss.x_inf[list(vs)]
        parts = dec.eigenvectors * np.linalg.solve(dec.eigenvectors, dev)
        terms.append([(np.linalg.norm(parts[:, list(cl)].sum(axis=1)), max(abs(dec.eigenvalues[i]) for i in cl))
                      for cl in dec.clusters])

    def tail(steps):
        return math.sqrt(sum(sum(w * r**steps for w, r in comp) ** 2 for comp in terms))

    steps = 1
    while tail(steps) >= eps:
        steps += 1
    return traj.lock_k + steps if steps > 1 else None


class TestInfluenceGraph:
    def test_four_path_example(self):
        ig = dynamics.influence_graph(path_graph(4), OpinionState([-1, 0, 1, -0.75], 1.0))
        assert ig.graph.nonloop_edges() == [(0, 1), (1, 2)]
        assert ig.components == ((0, 1, 2), (3,))

    def test_constant_state_full_graph(self):
        g = graphs.dumbbell_graph(6)
        ig = dynamics.influence_graph(g, OpinionState(np.full(6, 0.7), 1.0))
        assert ig.graph.edges == g.edges

    def test_k3_far_vertex(self):
        # gaps: |0-0.5| = 0.5 <= R, |0.5-2| = 1.5 > R, |0-2| = 2 > R
        ig = dynamics.influence_graph(complete_graph(3), OpinionState([0, 0.5, 2.0], 1.0))
        assert ig.graph.nonloop_edges() == [(0, 1)]
        ig2 = dynamics.influence_graph(complete_graph(3), OpinionState([0, 0.5, 1.5], 1.0))
        assert ig2.graph.nonloop_edges() == [(0, 1), (1, 2)]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dynamics.influence_graph(path_graph(3), OpinionState([0.0, 1.0], 1.0))


class TestStep:
    def test_four_path_paper_values(self):
        out = dynamics.step(path_graph(4), OpinionState([-1, 0, 1, -0.75], 1.0))
        assert np.array_equal(out.opinions, [-0.5, 0.0, 0.5, -0.75])

    def test_consensus_fixed_point(self):
        for g in (complete_graph(3), path_graph(5)):
            out = dynamics.step(g, OpinionState(np.full(g.n, 0.3), 1.0))
            assert np.array_equal(out.opinions, np.full(g.n, 0.3))

    def test_p3_row_averages(self):
        out = dynamics.step(path_graph(3), OpinionState([0.0, 0.3, 0.6], 1.0))
        assert np.allclose(out.opinions, [0.15, 0.3, 0.45], atol=1e-15)

    def test_step_is_the_simulate_update(self):
        rng = philox(107)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            s = OpinionState(rng.uniform(0, 3, g.n), 1.0)
            traj = dynamics.simulate(g, s, 1)
            if traj.termination_k == 0:
                continue
            assert np.array_equal(dynamics.step(g, s).opinions, traj.states[1])


class TestSimulateEvents:
    @pytest.mark.parametrize("delta,want", [(0.25, 2), (1 / 16, 4), (1 / 256, 8)])
    def test_four_path_merge_times(self, delta, want):
        s = OpinionState([-1.0, 0.0, 1.0, -(1.0 - delta)], 1.0)
        traj = dynamics.simulate(path_graph(4), s, 60)
        assert traj.merge_times() == [want]
        merge = traj.events_of("merge")[0]
        assert (merge.component_a, merge.component_b) == ((0, 1, 2), (3,))
        assert (merge.i, merge.j) == (2, 3)

    def test_constant_state_terminates_at_zero(self):
        # 0.5 averages exactly in doubles; arbitrary constants are covered by
        # the exact engine, where any consensus state is a true fixed point
        traj = dynamics.simulate(complete_graph(3), OpinionState(np.full(3, 0.5), 1.0), 10)
        assert traj.termination_k == 0
        assert traj.events_of("termination")[0].k == 0
        te = dynamics.simulate_exact(complete_graph(3), [0.4, 0.4, 0.4], 1.0, 10)
        assert te.termination_k == 0

    def test_break_logged_with_correct_edge(self):
        g, x0 = star_with_tail()
        traj = dynamics.simulate(g, x0, 30)
        breaks = traj.events_of("link_break")
        assert [(e.k, e.i, e.j) for e in breaks] == [(1, 5, 6)]

    def test_edge_deltas_reconstruct_graphs(self):
        g, x0 = star_with_tail()
        traj = dynamics.simulate(g, x0, 20)
        for k in range(traj.n_steps + 1):
            if k >= len(traj.states):
                break
            edges = dynamics.influence_edges(g, traj.states[k], 1.0)
            assert traj.influence_edges_at(k) == edges

    def test_budget_exhausted_carries_partial(self):
        s = OpinionState([-1.0, 0.0, 1.0, -0.75], 1.0)
        with pytest.raises(BudgetExhausted) as err:
            dynamics.simulate(path_graph(4), s, 3, stop_on="termination")
        assert err.value.trajectory.n_steps == 3

    def test_history_cap_keeps_events_and_energy(self):
        s = OpinionState([-1.0, 0.0, 1.0, -0.75], 1.0)
        traj = dynamics.simulate(path_graph(4), s, 20, history_cap=5)
        assert traj.truncated
        assert len(traj.states) == 6
        assert len(traj.energies) == len(traj.states)
        assert traj.merge_times() == [2]

    def test_max_steps_is_an_integer(self):
        # a step count of 10.5 is a TypeError, as range(10.5) made it when the
        # loop ran over a range; integer types other than int are accepted
        s = OpinionState([-1.0, 0.0, 1.0, -0.75], 1.0)
        with pytest.raises(TypeError):
            dynamics.simulate(path_graph(4), s, 10.5)
        assert dynamics.simulate(path_graph(4), s, np.int64(3)).n_steps == 3

    @pytest.mark.parametrize("x0, max_steps, exc_type, message", [
        ([-1.0, 0.0, 1.0, -0.75], 0, ValueError, "max_steps must be >= 1"),
        ([-1.0, 0.0, 1.0], 10, DimensionMismatch, "state has 3 opinions, graph has 4 vertices"),
    ], ids=["no-step", "dimension"])
    def test_argument_refusals(self, x0, max_steps, exc_type, message, monkeypatch):
        monkeypatch.setattr(dynamics, "_observe", None)  # refused before any step
        assert_refused(exc_type, message, dynamics.simulate, path_graph(4), OpinionState(x0, 1.0), max_steps)

    def test_stop_on_lock(self):
        s = OpinionState([-1.0, 0.0, 1.0, -0.75], 1.0)
        traj = dynamics.simulate(path_graph(4), s, 100, stop_on="lock")
        assert traj.lock_k == 2
        assert traj.n_steps == 2

    def test_stop_on_eps_at_the_lock_state(self):
        # the lock state at step 0 is already within eps of its limit, so the
        # run ends there, neither stepping nor exhausting its budget
        st = sampling.narrow_spread(12, 1.0, 0.0, 0.6, seed=3)
        traj = dynamics.simulate(graphs.cycle_graph(12), st, 50, stop_on=("eps", 1.0))
        assert (traj.n_steps, len(traj.states), [e.kind for e in traj.events]) == (0, 1, ["lock"])

    def test_stop_on_eps(self):
        s = OpinionState([0.1, 0.0, -0.1], 1.0)
        traj = dynamics.simulate(path_graph(3), s, 200, stop_on=("eps", 1e-3))
        ss = dynamics.steady_state(traj)
        assert np.linalg.norm(traj.states[traj.n_steps] - ss.x_inf) < 1e-3

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
    def test_eps_stop_without_a_positive_eps_is_refused_at_the_call(self, eps, monkeypatch):
        # the 6-cycle locks at step 0 and does not repeat within 50 steps: a
        # stop that no distance meets would run out the budget, so it is
        # refused before the first observation
        monkeypatch.setattr(dynamics, "_observe", None)  # no step is taken
        with pytest.raises(EpsTooSmall):
            dynamics.simulate(graphs.cycle_graph(6), OpinionState(np.linspace(0, 0.5, 6), 1.0), 50,
                              stop_on=("eps", eps))

    @pytest.mark.parametrize("stop_on", [(), ("eps",), ("eps", 1e-3, 1e-3), ("lock", 1e-3), ("distance", 1e-3)])
    def test_other_tuple_stops_are_unknown(self, stop_on, monkeypatch):
        monkeypatch.setattr(dynamics, "_observe", None)
        with pytest.raises(ValueError, match="unknown stop condition"):
            dynamics.simulate(graphs.cycle_graph(6), OpinionState(np.linspace(0, 0.5, 6), 1.0), 50,
                              stop_on=stop_on)

    def test_lock_at_step_zero_stops_both_engines_before_an_update(self):
        x0 = [0.1, 0.0, -0.1]
        traj = dynamics.simulate(path_graph(3), OpinionState(x0, 1.0), 100, stop_on="lock")
        exact = dynamics.simulate_exact(path_graph(3), x0, 1.0, 100, stop_on="lock")
        for t in (traj, exact):
            assert (t.n_steps, len(t.states), t.lock_k) == (0, 1, 0)
            assert [e.kind for e in t.events] == ["lock"]
        fracs = [Fraction(v) for v in x0]
        denom = math.lcm(*(f.denominator for f in fracs))
        assert exact.exact_window == [(0, tuple(int(f * denom) for f in fracs), denom)]

    def test_infinite_bound_is_rejected(self):
        with pytest.raises(ValueError):
            OpinionState([0.0, 0.5, 2.0], math.inf)

    def test_complete_graph_reaches_limit_within_kappa(self):
        # on a complete graph a narrow state averages once and then drifts only
        # in rounding noise: the limit is hit to machine accuracy long before
        # the constant-influence ceiling
        from socialhk import bounds as bounds_mod

        rng = philox(163)
        g = complete_graph(5)
        x0 = rng.uniform(-0.4, 0.4, 5)
        traj = dynamics.simulate(g, OpinionState(x0, 1.0), 500)
        ss = dynamics.steady_state(traj)
        k = dynamics.eps_convergence_time(traj, ss, 1e-12)
        kappa = bounds_mod.constant_influence_upper_bound(5, 1, 1e-12, 1.0)
        assert k <= np.ceil(kappa.extras["kappa_eps"])
        assert traj.termination_k is not None  # bitwise fixed point reached

    def test_single_vertex_paths(self):
        g = graphs.Graph(1)
        traj = dynamics.simulate(g, OpinionState([0.7], 1.0), 5)
        assert traj.termination_k == 0
        ss = dynamics.steady_state(traj)
        assert ss.x_inf[0] == 0.7
        assert dynamics.eps_convergence_time(traj, ss, 0.1) == 0


class TestEngine:
    def test_states_match_python_reference(self):
        # each agent sums its own opinion first, then its live neighbors in
        # ascending order, and divides by the count: bit for bit
        rng = philox(109)
        for run in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            x0 = rng.uniform(0, 3 if run % 2 else 0.8, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 40)
            for k in range(len(traj.states) - 1):
                x = traj.states[k]
                want = []
                for i in range(g.n):
                    live = [j for j in range(g.n)
                            if j != i and g.has_edge(i, j) and abs(x[i] - x[j]) <= 1.0]
                    total = float(x[i])
                    for j in live:
                        total += float(x[j])
                    want.append(total / (len(live) + 1))
                assert np.array_equal(traj.states[k + 1], want), (run, k)

    def test_influence_graph_at_every_step(self):
        # epochs answer for every step, also for steps whose states the
        # history cap dropped
        rng = philox(113)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            s = OpinionState(rng.uniform(0, 3, g.n), 1.0)
            full = dynamics.simulate(g, s, 60)
            capped = dynamics.simulate(g, s, 60, history_cap=5)
            assert capped.n_steps == full.n_steps
            for k in range(full.n_steps + 1):
                want = dynamics.influence_graph(g, OpinionState(full.states[k], 1.0))
                assert capped.influence_graph_at(k) == want
                assert full.influence_graph_at(k) == want
            with pytest.raises(IndexError):
                full.influence_graph_at(full.n_steps + 1)

    def test_sorted_hull_lock_matches_all_pairs(self):
        def all_pairs(lo, hi, bound):
            if any(b - a > bound for a, b in zip(lo, hi)):
                return False
            for a in range(len(lo)):
                for b in range(a + 1, len(lo)):
                    gap = lo[b] - hi[a] if lo[b] >= hi[a] else lo[a] - hi[b]
                    if gap <= bound:
                        return False
            return True

        def check(lo, hi, want):
            assert dynamics._lock_holds(lo, hi, 1.0) == want, (lo, hi)
            # the exact engine passes Python integers, here scaled by 2^52
            lo_int, hi_int = (np.array([int(Fraction(v) * 2**52) for v in a], dtype=object) for a in (lo, hi))
            assert dynamics._lock_holds(lo_int, hi_int, 2**52) == want
            # the span bound never rejects hulls that lock
            for z, limit in ((np.concatenate([lo, hi]), 1.0), (np.concatenate([lo_int, hi_int]), 2**52)):
                rejects = bool(dynamics._span_rules_out_lock(z, len(lo), limit))
                assert not (rejects and want), (lo, hi, limit)
                seen[want, rejects] += 1

        seen = {(True, False): 0, (False, False): 0, (False, True): 0}
        # hulls on a quarter grid, so touching hulls (gap == R) and ties are common
        rng = philox(127)
        for _ in range(400):
            c = int(rng.integers(1, 6))
            lo = rng.integers(0, 20, c) / 4
            hi = lo + rng.integers(0, 5, c) / 4
            check(lo, hi, all_pairs(lo, hi, 1.0))

        # hulls at most 1/4 wide laid out both ways from one at [0, w], each
        # side with one gap: exactly nextafter(R, inf), the least that locks,
        # or R, or R + 1/4.  Then every endpoint is exact in doubles.
        tight = np.nextafter(1.0, np.inf)
        n_tight = 0
        for _ in range(400):
            c = int(rng.integers(1, 6))
            widths = rng.integers(0, 2, c) / 4
            mid = c // 2
            gaps = np.repeat(rng.choice([tight, tight, 1.0, 1.25], 2), [mid, c - 1 - mid])
            lo, hi = np.zeros(c), np.zeros(c)
            hi[mid] = widths[mid]
            for h in range(mid + 1, c):
                lo[h] = hi[h - 1] + gaps[h - 1]
                hi[h] = lo[h] + widths[h]
            for h in range(mid - 1, -1, -1):
                hi[h] = lo[h + 1] - gaps[h]
                lo[h] = hi[h] - widths[h]
            assert np.array_equal(lo[1:] - hi[:-1], gaps)
            n_tight += c > 1 and min(gaps) == tight and max(gaps) == tight
            perm = rng.permutation(c)
            want = all_pairs(lo[perm], hi[perm], 1.0)
            assert want == all(gaps > 1.0)
            check(lo[perm], hi[perm], want)
        assert n_tight >= 20 and min(seen.values()) >= 20, (n_tight, seen)

    def test_byte_compare_termination_matches_array_equal(self):
        # x0 has -0.0 entries, which np.array_equal counts equal to 0.0 and a
        # byte compare would not; K2 at [-0.0, -0.0] repeats at k = 0.  A
        # subnormal negative sum averages to -0.0 at step 1 and to +0.0 at
        # step 2, a repeat at k = 1 (the *_sub cases).
        rng = philox(131)
        k2_sub = (complete_graph(2), np.array([-5e-324, 0.0]))
        p2_sub = (path_graph(2), np.array([-5e-324, 0.0]))
        p3_sub = (path_graph(3), np.array([-5e-324, 0.0, 0.0]))
        cases = [(complete_graph(2), np.array([-0.0, -0.0])), (complete_graph(2), np.array([-0.0, 0.0])),
                 k2_sub, p2_sub, p3_sub]
        for i in range(200):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            x0 = rng.uniform(0, 0.8 if i % 2 else 3.0, g.n)
            x0[rng.random(g.n) < 0.3] = -0.0
            cases.append((g, x0))
        at_zero = signed = 0
        for g, x0 in cases:
            got = dynamics.simulate(g, OpinionState(x0, 1.0), 3000)
            want = loop_simulate_array_equal(g, OpinionState(x0, 1.0), 3000)
            assert got.termination_k is not None, (g, x0)
            assert (got.termination_k, got.n_steps, got.lock_k, got.events) == \
                (want.termination_k, want.n_steps, want.lock_k, want.events), (g, x0)
            assert [s.tobytes() for s in got.states] == [s.tobytes() for s in want.states], (g, x0)
            lock_bytes = [None if t.lock_state is None else t.lock_state.tobytes() for t in (got, want)]
            assert lock_bytes[0] == lock_bytes[1], (g, x0)
            at_zero += got.termination_k == 0
            signed += got.lock_k == 0 and bool(np.signbit(got.lock_state).any())
        first = dynamics.simulate(complete_graph(2), OpinionState([-0.0, -0.0], 1.0), 5)
        assert first.termination_k == 0 and np.signbit(first.states[0]).all()
        for g, x0 in (k2_sub, p2_sub, p3_sub):
            sub = dynamics.simulate(g, OpinionState(x0, 1.0), 5)
            assert sub.termination_k == 1 and np.signbit(sub.states[1][:2]).all(), (g, x0)
        assert at_zero >= 10 and signed >= 10, (at_zero, signed)

    def test_locked_blocks_match_one_step_loop(self, monkeypatch):
        # the locked stretch runs in blocks of dynamics._BLOCK rows: budgets
        # end 1, 63, 64, 65 and 129 steps past the lock, or at it, and caps
        # and eps stops fall on both sides of a block edge.  A locked block
        # hands back only a repeat or the row within eps of the limit.
        caught = spy_frozen_stretch(monkeypatch)
        rng = philox(139)
        cases = [(random_connected_graph(rng, int(rng.integers(2, 10))), None) for _ in range(6)]
        cases = [(g, rng.uniform(0, (0.8, 2.0)[i % 2], g.n)) for i, (g, _) in enumerate(cases)]
        cases += [(graphs.cycle_graph(n), rng.uniform(0, 0.9, n)) for n in (5, 12)]
        cases += [(path_graph(6), rng.uniform(0, 0.9, 6))]
        cases += [(path_graph(4), np.array([-1.0, 0.0, 1.0, -(1.0 - d)])) for d in (0.25, 1 / 64)]
        # vertex 1 and its whole neighbourhood at -0.0: bincount sums them to +0.0
        cases += [(path_graph(5), np.array([-0.0, -0.0, -0.0, 0.25, 0.5]))]
        seen = {"terminated": 0, "exhausted": 0, "eps": 0, "truncated": 0, "at_lock": 0}
        for g, x0 in cases:
            state = OpinionState(x0, 1.0)
            lock_k = dynamics.simulate(g, state, 400).lock_k
            assert lock_k is not None, (g, x0)
            # distances of the steps around the block edges, nudged up so that
            # the first step below them falls at or just before those steps
            far = loop_simulate_array_equal(g, state, lock_k + 129)
            x_inf = dynamics.steady_state(far).x_inf
            dists = [np.linalg.norm(s - x_inf) for s in far.states[lock_k:]]
            eps_values = {dists[j] * (1 + 1e-12) for j in (1, 63, 64, 65) if j < len(dists) and dists[j] > 0}
            stops = [None, "termination", *(("eps", v) for v in sorted(eps_values))]
            budgets = [lock_k + d for d in (0, 1, 63, 64, 65, 129) if lock_k + d >= 1]
            for max_steps in budgets:
                for history_cap in (1, 5, 64, 65, dynamics.HISTORY_CAP):
                    for stop_on in stops:
                        got, got_ex = run_exact(dynamics.simulate, g, state, max_steps, stop_on, history_cap)
                        want, want_ex = run_exact(loop_simulate_array_equal, g, state, max_steps, stop_on,
                                                  history_cap)
                        assert (exact_fields(got), got.truncated, got_ex) == \
                            (exact_fields(want), want.truncated, want_ex), (g, x0, max_steps, history_cap, stop_on)
                        seen["terminated"] += got.termination_k is not None
                        seen["exhausted"] += got_ex is not None
                        seen["eps"] += isinstance(stop_on, tuple) and got_ex is None and got.termination_k is None
                        seen["truncated"] += got.truncated
                        seen["at_lock"] += max_steps == lock_k
        signs = dynamics.simulate(path_graph(5), OpinionState([-0.0, -0.0, -0.0, 0.25, 0.5], 1.0), 3).states
        assert np.signbit(signs[0][:3]).all() and not np.signbit(signs[1][:2]).any()
        assert min(seen.values()) >= 20, seen
        kinds = handed_back_kinds(caught)
        locked = {kind: n for (was_locked, kind), n in kinds.items() if was_locked}
        assert set(locked) == {"repeat", "eps"} and min(locked.values()) >= 20, kinds

    def test_unlocked_blocks_match_one_step_loop(self, monkeypatch):
        # once an epoch has been quiet for dynamics._QUIET steps, its rows are
        # stepped in blocks of 8, 16, 32 and then 64 rows, and a block hands
        # its first repeat, link change or lock back to the one-step loop
        assert (dynamics._QUIET, dynamics._BLOCK) == (8, 64)
        # a 16-vertex path spread over [0, 3] and a pendant vertex 16 on its
        # top end: the top opinion falls step by step, so the pendant link
        # forms at the first step T where it is within R of the pendant.
        # Blocks start at steps 8, 16, 32, 64 and 128, so T is the 1st, 7th
        # or last row of the first block, the 1st or 9th of the second and
        # the third, the last of the third, the 1st, 7th to 9th, 63rd or last
        # of the fourth, or the 1st of the fifth.  From T = 65 on the path
        # locks as the link forms.
        path = graphs.Graph(17, frozenset({(i, i + 1) for i in range(16)}))
        far = np.append(np.linspace(0.0, 3.0, 16), 8.0)  # the pendant never links
        top = [x[15] for x in dynamics.simulate(path, OpinionState(far, 1.0), 130).states]
        # narrower paths lock with no link change at step 37 or 53, inside
        # the third block, and this one at step 66, inside the fourth
        cases = [(path, np.append(np.linspace(0.0, w, 16), 8.0), 80) for w in (2.0, 2.5)] + [(path, far, 80)]
        for t in (9, 15, 16, 17, 25, 33, 41, 63, 64, 65, 71, 72, 73, 127, 128, 129):
            x0 = far.copy()
            x0[16] = (top[t - 1] + top[t]) / 2 - 1.0
            assert [e.k_start for e in loop_simulate_array_equal(path, OpinionState(x0, 1.0), t).epochs] == [0, t]
            cases.append((path, x0, t + 2))
        # frozen unlocked epochs, some hundreds of steps long
        for seed in (7, 8):
            box = sampling.sample_initial_state(64, 1.0, "uniform_box", seed, lo=0, hi=3)
            cases.append((graphs.cycle_graph(64), box.opinions, 400))
        # path:7 cut at vertex 3 repeats at step 52 without a lock, also with
        # vertex 1 and its neighbourhood at -0.0
        cut = graphs.Graph(7, frozenset({(i, i + 1) for i in range(6)}))
        cases.append((cut, np.array([0, 0.1, 0.2, 5, 0.5, 0.6, 0.7]), 60))
        cases.append((cut, np.array([-0.0, -0.0, -0.0, 5, 0.5, 0.6, 0.7]), 60))
        # the four-path merges and locks at step 20, inside the second block
        cases.append((path_graph(4), np.array([-1.0, 0.0, 1.0, -(1.0 - 2.0**-20)]), 160))

        caught = spy_frozen_stretch(monkeypatch)
        stops = [None, "lock", "termination", ("eps", 1e-6)]
        for g, x0, max_steps in cases:
            state = OpinionState(x0, 1.0)
            # budgets cut the last block short, or end at its event row
            runs = [(m, cap, None) for m, cap in zip(range(max_steps - 3, max_steps), (5, 65, dynamics.HISTORY_CAP))]
            runs += [(max_steps, cap, stop_on) for cap, stop_on in zip((1, 5, 64, 65), stops)]
            runs += [(max_steps, dynamics.HISTORY_CAP, stop_on) for stop_on in stops]
            for m, history_cap, stop_on in runs:
                got, got_ex = run_exact(dynamics.simulate, g, state, m, stop_on, history_cap)
                want, want_ex = run_exact(loop_simulate_array_equal, g, state, m, stop_on, history_cap)
                assert (exact_fields(got), got.truncated, got_ex) == \
                    (exact_fields(want), want.truncated, want_ex), (g, x0, m, history_cap, stop_on)
        kinds = handed_back_kinds(caught)
        assert kinds[False, "repeat"] >= 20 and kinds[False, "link"] >= 200 and kinds[False, "lock"] >= 30, kinds


class TestObserveShortcuts:
    """``_observe`` skips the full lock test where the span rules a lock out,
    compares link masks by their bytes and builds merges from the groups.
    The float engine's quiet blocks test a block of states per call, so the
    wrappers below count the states tested, not the calls."""

    def test_matches_the_reference_observe(self, monkeypatch):
        rng = philox(137)
        cases = []
        for i in range(176):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            cases.append((g, rng.uniform(0, (0.8, 3.0, 6.0)[i % 3], g.n)))
        for n in (16, 24, 32, 48, 64, 96):
            for width in (3.0, 6.0):
                for _ in range(2):
                    cases.append((graphs.cycle_graph(n), rng.uniform(0, width, n)))
        cases = [(g, [float(v) for v in np.round(x0, 3)]) for g, x0 in cases]
        rejected = []
        span_bound = dynamics._span_rules_out_lock

        def runs():
            out = []
            for g, x0 in cases:
                out.append(exact_fields(dynamics.simulate(g, OpinionState(x0, 1.0), 400)))
                out.append(exact_fields(dynamics.simulate_exact(g, x0, 1.0, 120)))
            return out

        def count_states(z, c, bound):
            verdicts = span_bound(z, c, bound)
            rejected.extend(np.ravel(verdicts).tolist())
            return verdicts

        monkeypatch.setattr(dynamics, "_span_rules_out_lock", count_states)
        got = runs()
        # the reference observes every step: no quiet blocks
        monkeypatch.setattr(dynamics, "_observe", reference_observe)
        monkeypatch.setattr(dynamics, "_QUIET", 10**9)
        want = runs()
        for idx, (g, w) in enumerate(zip(got, want)):
            assert g == w, (idx, cases[idx // 2])
        events = [e for traj_fields in got for e in traj_fields[2]]
        merges = sum(e.kind == "merge" for e in events)
        late_locks = sum(f[4] is not None and f[4] > 0 for f in got)
        assert len(cases) >= 200 and merges >= 50 and late_locks >= 50, (merges, late_locks)
        assert sum(rejected) >= 1000 and rejected.count(False) >= 1000

    def test_full_test_never_runs_where_the_span_rules_a_lock_out(self, monkeypatch):
        calls = []  # (components, span) of each state tested
        full = dynamics._lock_holds

        def count_states(lo, hi, bound):
            lows, highs = np.min(lo, axis=-1).flat, np.max(hi, axis=-1).flat
            calls.extend((lo.shape[-1], top - bottom) for bottom, top in zip(lows, highs))
            return full(lo, hi, bound)

        monkeypatch.setattr(dynamics, "_lock_holds", count_states)
        box = sampling.sample_initial_state(64, 1.0, "uniform_box", 7, lo=0, hi=3)
        # path:7 whose vertex 3 is cut off: three components spanning 5 > 2 R
        cut = graphs.Graph(7, frozenset({(i, i + 1) for i in range(6)}))
        opened = []
        for g, state in ((graphs.cycle_graph(64), box), (cut, OpinionState([0, 0.1, 0.2, 5, 0.5, 0.6, 0.7], 1.0))):
            calls.clear()
            traj = dynamics.simulate(g, state, 400)
            assert not traj.locked
            assert not [(c, span) for c, span in calls if c > 1 and span < (c - 1) * 1.0]
            # every step where the bound does not rule a lock out runs the full test
            open_steps = 0
            for k, x in enumerate(traj.states):
                c = len(set(traj._epoch_at(k).labels.tolist()))
                open_steps += c == 1 or x.max() - x.min() >= c - 1
            assert len(calls) == open_steps
            opened.append((traj.n_steps, open_steps))
        # the float run on the cut path ends at a bitwise fixed point
        assert opened == [(400, 0), (52, 53)]


def energy(g, x, bound):
    """Energy with every non-loop edge of ``g`` live."""
    return dynamics._energy(g.n, g.src, g.dst, x, bound)


class TestEnergy:
    def test_consensus_energy_zero_on_complete(self):
        ig = dynamics.influence_graph(complete_graph(4), OpinionState(np.full(4, 1.0), 2.0))
        e, act = energy(ig.graph, np.full(4, 1.0), 2.0)
        assert e == 0.0 and act == 0.0

    def test_p3_example(self):
        x = np.array([0.0, 0.3, 0.6])
        ig = dynamics.influence_graph(path_graph(3), OpinionState(x, 1.0))
        e, act = energy(ig.graph, x, 1.0)
        assert act == pytest.approx(0.36, abs=1e-12)
        assert e == pytest.approx(2.36, abs=1e-12)

    def test_edgeless_energy(self):
        g = graphs.Graph(4)  # loops only
        x = np.array([0.0, 10.0, 20.0, 30.0])
        e, act = energy(g, x, 1.5)
        assert act == 0.0
        assert e == pytest.approx((16 - 4) * 1.5**2, abs=1e-12)

    def test_energy_cap(self):
        rng = philox(53)
        for _ in range(10):
            g = random_connected_graph(rng, 6)
            x = rng.uniform(-2, 2, 6)
            ig = dynamics.influence_graph(g, OpinionState(x, 1.0))
            e, _ = energy(ig.graph, x, 1.0)
            assert e <= 2 * (6 * 5 / 2) * 1.0**2 + 1e-9


class TestEnergySeries:
    def test_matches_one_state_at_a_time(self, monkeypatch):
        # A budget of 18 cells gives blocks of 1-3 rows at widths 6-12 (and of
        # one row where live links outnumber the cells), which split epochs
        # across blocks and blocks across epoch ends; each state must get the
        # bits it gets on its own, under the mask of its own epoch.
        monkeypatch.setattr(dynamics, "_CELLS", 18)
        rng = philox(907)
        multi_epoch = wide = capped = over = 0
        for i in range(120):
            g = random_connected_graph(rng, int(rng.integers(6, 13)), 0.5)
            x0 = rng.uniform(0.0, 0.8 if i % 2 else 2.5, g.n)
            cap = 5 if i % 3 == 0 else dynamics.HISTORY_CAP
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 30, history_cap=cap)
            want = []
            for k, x in enumerate(traj.states):
                mask = traj._epoch_at(k).mask
                want.append(dynamics._energy(g.n, g.src[mask], g.dst[mask], x, 1.0))
            hexed = [tuple(float(v).hex() for v in pair) for pair in want]
            assert [tuple(v.hex() for v in pair) for pair in traj.energies] == hexed, (i, g, x0)
            multi_epoch += len(traj.epochs) > 1
            links = max(int(e.mask.sum()) for e in traj.epochs)
            wide += links >= 8
            over += links > 18
            capped += traj.truncated
        assert multi_epoch >= 20 and wide >= 60 and capped >= 20 and over >= 30, (multi_epoch, wide, capped, over)

    def test_memory_does_not_grow_with_rows(self):
        # blocks of at most _CELLS cells of width max(n, live links): the
        # temporaries stay the same from 30 to 300 rows, and only the list of
        # (E, E_act) pairs grows with the run
        g = graphs.standard_graph("cycle", 1024)
        x0 = OpinionState(philox(5).uniform(0.0, 0.6, g.n), 1.0)
        peaks = []
        for steps in (30, 300):
            traj = dynamics.simulate(g, x0, steps)
            assert traj.lock_k == 0 and len(traj.states) == steps + 1
            tracemalloc.start()
            try:
                traj.energies
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0] and peaks[1] < 64 * dynamics._CELLS, peaks

    def test_energy_at_lock(self):
        # the lock state's total energy, bit for bit that of the series,
        # also when history_cap has dropped the lock state
        rng = philox(911)
        locked = dropped = 0
        for i in range(60):
            g = random_connected_graph(rng, int(rng.integers(4, 11)), 0.4)
            x0 = OpinionState(rng.uniform(0.0, 0.8 if i % 2 else 2.5, g.n), 1.0)
            traj = dynamics.simulate(g, x0, 200)
            if not traj.locked:
                assert traj.energy_at_lock is None
                continue
            want = traj.energies[traj.lock_k][0]
            assert traj.energy_at_lock.hex() == want.hex(), (i, g, x0)
            locked += 1
            if traj.lock_k > 0:
                capped = dynamics.simulate(g, x0, 200, history_cap=traj.lock_k - 1)
                assert len(capped.states) == traj.lock_k and capped.lock_k == traj.lock_k
                assert capped.energy_at_lock.hex() == want.hex(), (i, g, x0)
                dropped += 1
        assert locked >= 45 and dropped >= 15 and locked < 60, (locked, dropped)
        assert dynamics.simulate_exact(path_graph(3), [0.0, 0.5, 1.0], 1.0, 10).energy_at_lock is None

    def test_exact_runs_have_none(self):
        traj = dynamics.simulate_exact(path_graph(3), [0.0, 0.5, 1.0], 1.0, 10)
        assert traj.energies is None


class TestEnergyCertificates:
    def test_four_path_all_clauses(self):
        s = OpinionState([-1.0, 0.0, 1.0, -0.75], 1.0)
        traj = dynamics.simulate(path_graph(4), s, 40)
        rep = dynamics.verify_energy_certificates(traj)
        assert rep.ok, rep.violations
        assert rep.n_breaks == 0

    def test_engineered_break(self):
        g, x0 = star_with_tail()
        traj = dynamics.simulate(g, x0, 40)
        rep = dynamics.verify_energy_certificates(traj)
        assert rep.n_breaks >= 1
        assert rep.ok, rep.violations

    def test_consensus_trajectory_vacuous(self):
        traj = dynamics.simulate(path_graph(4), OpinionState(np.full(4, 2.0), 1.0), 10)
        rep = dynamics.verify_energy_certificates(traj)
        assert rep.ok and rep.n_breaks == 0

    def test_per_epoch_work_matches_per_step(self):
        # splitting every epoch into one-step epochs redoes the spectral and
        # diameter work on every step; the report must not change
        from test_acceptance import _energy_suite_graphs, _strained_state

        rng = philox(301)
        for i in range(60):
            g = _energy_suite_graphs(rng)
            x0 = _strained_state(rng, g) if i % 2 == 0 else rng.uniform(0.0, 2.5, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 50)
            per_step = dataclasses.replace(
                traj, epochs=[traj._epoch_at(k)._replace(k_start=k) for k in range(traj.n_steps + 1)]
            )
            assert dynamics.verify_energy_certificates(per_step) == dynamics.verify_energy_certificates(traj)

    def test_random_runs_hold(self):
        rng = philox(61)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(0, 2.5, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 50)
            rep = dynamics.verify_energy_certificates(traj)
            assert rep.ok, (g, x0, rep.violations)

    def test_a_rising_energy_fails_the_report(self):
        # widening recorded state 2 tenfold about its mean raises its energy
        # far above any rounding slack, so step 1 breaks monotonicity
        st = sampling.narrow_spread(12, 1.0, 0.0, 0.6, seed=5)
        traj = dynamics.simulate(graphs.cycle_graph(12), st, 40)
        assert dynamics.verify_energy_certificates(traj).ok
        x = traj.states[2]
        traj.states[2] = x.mean() + 10.0 * (x - x.mean())
        (e1, _), (e2, _) = traj.energies[1:3]
        assert e2 - e1 > 1.0
        rep = dynamics.verify_energy_certificates(traj)
        assert not rep.ok
        assert (1, "monotone") in [v[:2] for v in rep.violations]

    def test_a_flat_state_before_a_break_fails_the_break_clauses(self):
        # with recorded state 0 flat, step 0 starts from no active energy and
        # sheds none (its energy rises), and no neighbor pair is strained
        # before the break at k = 1
        g, x0 = star_with_tail()
        traj = dynamics.simulate(g, x0, 40)
        assert [e.k for e in traj.events_of("link_break")] == [1]
        traj.states[0] = np.full(g.n, traj.states[0].mean())
        clauses = [v[:2] for v in dynamics.verify_energy_certificates(traj).violations]
        for clause in [(0, "break_decrement"), (0, "break_active_floor"), (1, "break_witness")]:
            assert clause in clauses

    def test_report_flags_a_history_cap_prefix(self):
        st = sampling.narrow_spread(4, 1.0, 0.0, 0.5, seed=3)
        capped = dynamics.simulate(path_graph(4), st, 10_000, history_cap=100)
        rep = dynamics.verify_energy_certificates(capped)
        assert (rep.ok, rep.n_steps, capped.n_steps, rep.truncated) == (True, 100, 116, True)
        full = dynamics.verify_energy_certificates(dynamics.simulate(path_graph(4), st, 10_000))
        assert (full.n_steps, full.truncated) == (116, False)


class TestSteadyState:
    def test_p3_weighted_mean(self):
        traj = dynamics.simulate(path_graph(3), OpinionState([0.0, 0.3, 0.6], 1.0), 5)
        ss = dynamics.steady_state(traj)
        assert ss.values[0] == pytest.approx(0.3, abs=1e-12)
        long = dynamics.simulate(path_graph(3), OpinionState([0.0, 0.3, 0.6], 1.0), 200)
        assert np.allclose(long.states[-1], ss.x_inf, atol=1e-10)

    def test_two_component_means(self):
        s = OpinionState([0.0, 0.2, 5.0, 5.4], 1.0)
        traj = dynamics.simulate(path_graph(4), s, 300)
        ss = dynamics.steady_state(traj)
        assert len(ss.components) == 2
        assert ss.values[0] == pytest.approx((2 * 0.0 + 2 * 0.2) / 4, abs=1e-12)
        assert ss.values[1] == pytest.approx((2 * 5.0 + 2 * 5.4) / 4, abs=1e-12)
        long = dynamics.simulate(path_graph(4), s, 300)
        assert np.allclose(long.states[-1], ss.x_inf, atol=1e-9)

    def test_consensus_input_is_its_own_limit(self):
        traj = dynamics.simulate(path_graph(4), OpinionState(np.full(4, 1.1), 1.0), 5)
        assert np.allclose(dynamics.steady_state(traj).x_inf, 1.1, atol=0)

    def test_not_locked(self):
        s = OpinionState([-1.0, 0.0, 1.0, -0.75], 1.0)
        with pytest.raises(NotLocked):
            dynamics.steady_state(dynamics.simulate(path_graph(4), s, 1))

    def test_float_value_is_the_correctly_rounded_mean(self):
        # math.fsum of the rounded products deg * x reads -0x1.ced7593fd41dcp-8, 7 ulps off
        traj = dynamics.simulate(graphs.cycle_graph(12), sampling.narrow_spread(12, 1.0, 0.0, 0.6, seed=7), 10)
        assert dynamics.steady_state(traj).values == (float.fromhex("-0x1.ced7593fd41d5p-8"),)

    def test_float_values_are_the_correctly_rounded_means(self):
        # narrow spreads lock into one component at step 0; blocks of a path
        # or cycle 3 apart lock into one per block, lone vertices among them
        rng = philox(2718)
        runs = []
        for seed in range(1, 11):
            for name, n in (("cycle", 48), ("path", 40), ("dumbbell", 16)):
                g = graphs.standard_graph(name, n)
                runs.append(dynamics.simulate(g, sampling.narrow_spread(g.n, 1.0, 0.0, 0.6, seed), 20))
            sizes = rng.integers(1, 7, int(rng.integers(2, 5)))
            x0 = np.concatenate([3.0 * b + rng.uniform(-0.4, 0.4, size) for b, size in enumerate(sizes)])
            g = graphs.cycle_graph(len(x0)) if seed % 2 and len(x0) > 2 else path_graph(len(x0))
            runs.append(dynamics.simulate(g, OpinionState(x0, 1.0), 20))
        seen = Counter()
        for traj in runs:
            ss = dynamics.steady_state(traj)
            deg = traj.influence_graph_at(traj.lock_k).graph.degrees.tolist()
            for comp, val in zip(ss.components, ss.values):
                mean = sum(Fraction(traj.lock_state[v]) * deg[v] for v in comp) / sum(deg[v] for v in comp)
                assert val == float(mean) and np.all(ss.x_inf[list(comp)] == val), (traj.gph, comp)
            assert ss.exact_values == ()
            seen["values"] += len(ss.values)
            seen["several_components"] += len(ss.components) > 1
        assert seen["values"] >= 50 and seen["several_components"] == 10, seen

    def test_hull_containment(self):
        rng = philox(67)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(-2, 2, g.n)
            try:
                traj = dynamics.simulate(g, OpinionState(x0, 1.0), 200, stop_on="lock")
            except BudgetExhausted:
                continue
            if traj.lock_k is None:  # bitwise-terminated without the lock certificate
                continue
            ss = dynamics.steady_state(traj)
            x_lock = traj.states[traj.lock_k]
            for comp, val in zip(ss.components, ss.values):
                vals = x_lock[list(comp)]
                assert vals.min() - 1e-12 <= val <= vals.max() + 1e-12


class TestEpsConvergence:
    def test_already_within(self):
        traj = dynamics.simulate(path_graph(3), OpinionState(np.full(3, 0.2), 1.0), 5)
        ss = dynamics.steady_state(traj)
        assert dynamics.eps_convergence_time(traj, ss, 0.5) == 0

    def test_p3_pure_eigenvector(self):
        traj = dynamics.simulate(path_graph(3), OpinionState(0.1 * np.array([1.0, 0, -1.0]), 1.0), 200)
        ss = dynamics.steady_state(traj)
        assert dynamics.eps_convergence_time(traj, ss, 1e-3) == 8
        # verify against recorded simulation distances
        dists = [np.linalg.norm(s - ss.x_inf) for s in traj.states[:20]]
        assert dists[8] < 1e-3 <= dists[7]

    @pytest.mark.parametrize("delta", [0.25, 1 / 16])
    def test_four_path_lower_bound(self, delta):
        s = OpinionState([-1.0, 0.0, 1.0, -(1.0 - delta)], 1.0)
        traj = dynamics.simulate(path_graph(4), s, 400)
        ss = dynamics.steady_state(traj)
        want = int(np.ceil(np.log2(1 / delta)))
        for eps in (0.1, 0.25, 0.4):
            assert dynamics.eps_convergence_time(traj, ss, eps) >= want

    def test_tail_matches_the_component_loop(self):
        # one component, or blocks of a path or cycle more than R apart that
        # lock at step 0 into several, some of them lone vertices
        rng = philox(2323)
        seen = Counter()
        for i in range(40):
            sizes = rng.integers(1, 7, int(rng.integers(1, 5)))
            n = int(sizes.sum())
            g = graphs.cycle_graph(n) if i % 2 and n > 2 else path_graph(n)
            x0 = np.concatenate([3.0 * b + rng.uniform(-0.4, 0.4, size) for b, size in enumerate(sizes)])
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 1)
            ss = dynamics.steady_state(traj)
            for eps in (1e-2, 1e-6):
                want = reference_tail_steps(traj, ss, eps)
                if want is not None:
                    assert dynamics.eps_convergence_time(traj, ss, eps) == want, (g, x0, eps)
                    seen["compared"] += 1
                    seen["several_components"] += len(sizes) > 1
                    seen["lone_vertex"] += 1 in sizes
        assert seen["compared"] >= 50 and seen["several_components"] >= 30 and seen["lone_vertex"] >= 10, seen

    def test_eps_positive(self):
        traj = dynamics.simulate(path_graph(3), OpinionState(np.full(3, 0.2), 1.0), 5)
        ss = dynamics.steady_state(traj)
        for eps in (0.0, math.nan, [1e-2, math.nan]):  # NaN read as converged from step 0
            with pytest.raises(EpsTooSmall):
                dynamics.eps_convergence_time(traj, ss, eps)

    def test_eps_below_the_rounding_floor_is_refused(self):
        # the lambda = 1 cluster keeps a rounding-size weight at lock, so the
        # tail bound never falls below 1e-20 within the step cap
        traj = dynamics.simulate(path_graph(4), OpinionState([0.1, 0.2, 0.3, 0.4], 1.0), 50)
        ss = dynamics.steady_state(traj)
        assert dynamics.eps_convergence_time(traj, ss, 1e-6) > 0
        for eps in (1e-20, [1e-6, 1e-20]):
            with pytest.raises(EpsTooSmall, match="within 10,000,000 steps"):
                dynamics.eps_convergence_time(traj, ss, eps)

    def test_list_form_matches_single_calls(self):
        # a cycle (repeated eigenvalues) and a run locked into two components
        # at step 0, whose tail sums over both
        cyc = graphs.cycle_graph(12)
        two = path_graph(6)
        runs = [dynamics.simulate(cyc, OpinionState(philox(3).uniform(-0.4, 0.4, 12), 1.0), 300),
                dynamics.simulate(two, OpinionState([0.0, 0.1, 0.2, 5.0, 5.1, 5.2], 1.0), 300)]
        assert len(dynamics.steady_state(runs[1]).components) == 2
        eps_list = [1e-2, 1e-4, 1e-8]
        for traj in runs:
            ss = dynamics.steady_state(traj)
            singles = [dynamics.eps_convergence_time(traj, ss, e) for e in eps_list]
            assert dynamics.eps_convergence_time(traj, ss, eps_list) == singles
            assert dynamics.eps_convergence_time(traj, ss, []) == []
            for bad in ([1e-2, 0.0], [-1.0, 1e-2]):
                with pytest.raises(EpsTooSmall):
                    dynamics.eps_convergence_time(traj, ss, bad)

    def test_list_form_raises_history_truncated_alike(self):
        # eps 1.0 is decided by pre-lock states that a cap of 3 dropped
        state, _ = slowmerge.four_path_family(1 / 256)
        capped = dynamics.simulate(path_graph(4), state, 40, history_cap=3)
        ss = dynamics.steady_state(capped)
        assert dynamics.eps_convergence_time(capped, ss, [1e-3, 1e-2]) == \
            [dynamics.eps_convergence_time(capped, ss, e) for e in (1e-3, 1e-2)]
        for eps in (1.0, [1.0], [1e-3, 1.0]):
            with pytest.raises(HistoryTruncated):
                dynamics.eps_convergence_time(capped, ss, eps)

    def test_tail_bound_is_safe(self):
        # k_eps reported from the analytic tail must be >= the first time the
        # recorded distances stay below eps (the bound can only be conservative);
        # cycles have repeated eigenvalues, where the eigenbasis is not unique
        rng = philox(71)
        cases = [random_connected_graph(rng, int(rng.integers(2, 7))) for _ in range(10)]
        cases += [graphs.cycle_graph(int(rng.integers(3, 16))) for _ in range(10)]
        for g in cases:
            x0 = rng.uniform(-0.4, 0.4, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 300)
            ss = dynamics.steady_state(traj)
            eps = 1e-4
            n = dynamics.eps_convergence_time(traj, ss, eps)
            dists = np.array([np.linalg.norm(s - ss.x_inf) for s in traj.states])
            above = np.nonzero(dists >= eps)[0]
            first_ok = (above[-1] + 1) if len(above) else 0
            assert n >= first_ok

    def test_k_eps_ignores_vertex_labels(self):
        # a relabelled cycle has the same eigenspaces in permuted coordinates,
        # so the per-eigenspace tail bound gives the same k_eps
        from socialhk import sampling

        g = graphs.cycle_graph(24)
        for seed in range(1, 11):
            perm = philox(seed).permutation(g.n)
            g2 = graphs.Graph(g.n, frozenset((int(perm[i]), int(perm[j])) for i, j in g.edges))
            x0 = sampling.narrow_spread(g.n, 1.0, 0.0, 0.6, seed).opinions
            x2 = np.empty_like(x0)
            x2[perm] = x0
            t1 = dynamics.simulate(g, OpinionState(x0, 1.0), 1)
            t2 = dynamics.simulate(g2, OpinionState(x2, 1.0), 1)
            ss1, ss2 = dynamics.steady_state(t1), dynamics.steady_state(t2)
            for eps in (1e-2, 1e-4, 1e-8):
                k1 = dynamics.eps_convergence_time(t1, ss1, eps)
                assert dynamics.eps_convergence_time(t2, ss2, eps) == k1, (seed, eps)

    def test_history_cap_keeps_lock_state(self):
        # the four-path run at delta = 1/256 locks at k = 8, after a cap of 3
        # has dropped states 4..7
        state, _ = slowmerge.four_path_family(1 / 256)
        full = dynamics.simulate(path_graph(4), state, 40)
        capped = dynamics.simulate(path_graph(4), state, 40, history_cap=3)
        assert capped.lock_k == full.lock_k == 8
        assert len(capped.states) == 4
        ss = dynamics.steady_state(capped)
        assert ss.values == dynamics.steady_state(full).values == (-0.198828125,)
        assert dynamics.eps_convergence_time(capped, ss, 1e-3) == 29
        assert dynamics.eps_convergence_time(full, ss, 1e-3) == 29
        # a loose eps is decided before the lock, by the dropped states
        assert dynamics.eps_convergence_time(full, ss, 1.0) == 2
        with pytest.raises(HistoryTruncated):
            dynamics.eps_convergence_time(capped, ss, 1.0)


class TestInvariantProperties:
    def test_monotone_hull(self):
        rng = philox(73)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(-2, 2, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 40)
            tops = [s.max() for s in traj.states]
            bots = [s.min() for s in traj.states]
            assert all(a >= b - 1e-12 for a, b in zip(tops, tops[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(bots, bots[1:]))

    def test_translation_equivariance(self):
        # float engine: structural events identical, states shifted to rounding
        # accuracy (bitwise-termination timing is a float artifact and may move)
        rng = philox(79)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(-1, 1, g.n)
            t1 = dynamics.simulate(g, OpinionState(x0, 1.0), 30)
            t2 = dynamics.simulate(g, OpinionState(x0 + 5.0, 1.0), 30)
            structural = lambda t: [
                e.to_payload() for e in t.events if e.kind != "termination"
            ]
            assert structural(t1) == structural(t2)
            for s1, s2 in zip(t1.states, t2.states):
                assert np.allclose(s1 + 5.0, s2, atol=1e-9)

    def test_translation_equivariance_exact(self):
        # exact engine: shifting by a rational is perfectly equivariant,
        # termination timing included
        from fractions import Fraction

        rng = philox(80)
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(2, 7)))
            x0 = [Fraction(float(v)) for v in rng.uniform(-1, 1, g.n)]
            t1 = dynamics.simulate_exact(g, x0, 1.0, 25)
            t2 = dynamics.simulate_exact(g, [v + 5 for v in x0], 1.0, 25)
            assert [e.to_payload() for e in t1.events] == [e.to_payload() for e in t2.events]

    def test_joint_scale_equivariance_power_of_two(self):
        rng = philox(83)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(-1, 1, g.n)
            t1 = dynamics.simulate(g, OpinionState(x0, 1.0), 30)
            t2 = dynamics.simulate(g, OpinionState(2.0 * x0, 2.0), 30)
            assert [e.to_payload() for e in t1.events] == [e.to_payload() for e in t2.events]
            for s1, s2 in zip(t1.states, t2.states):
                assert np.array_equal(2.0 * s1, s2)

    def test_stationary_conservation_while_graph_constant(self):
        rng = philox(89)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(-1, 1, g.n)
            traj = dynamics.simulate(g, OpinionState(x0, 1.0), 30)
            epoch_starts = {e.k_start for e in traj.epochs}
            for k in range(traj.n_steps):
                if k + 1 >= len(traj.states):
                    break
                if k + 1 in epoch_starts:  # k and k + 1 lie in different epochs
                    continue
                ig = traj.influence_graph_at(k)
                deg = ig.graph.degrees
                for comp in ig.components:
                    c = list(comp)
                    before = float(deg[c] @ traj.states[k][c])
                    after = float(deg[c] @ traj.states[k + 1][c])
                    assert after == pytest.approx(before, rel=1e-9, abs=1e-12)

    def test_lock_soundness(self):
        rng = philox(97)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            x0 = rng.uniform(-2, 2, g.n)
            try:
                traj = dynamics.simulate(g, OpinionState(x0, 1.0), 100, stop_on="lock")
            except BudgetExhausted:
                continue
            if traj.lock_k is None:
                continue
            lock = traj.lock_k
            longer = dynamics.simulate(g, OpinionState(x0, 1.0), min(1000, 10 * max(lock, 10)))
            structural = [
                e for e in longer.events
                if e.kind in ("link_break", "link_form", "merge") and e.k > lock
            ]
            assert structural == []

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a float lock is certified on the state at lock, not on the rounded float "
        "steps after it; here step 1 has x_0 = 0.1 + 2^-56, so |x_3 - x_0| <= 0.3 and the link "
        "(0, 3) is live, yet the frozen influence graph omits it"))
    def test_float_lock_survives_rounding(self):
        # a triangle {0, 1, 2} plus the pendant edge (0, 3)
        g = graphs.Graph(4, frozenset({(0, 1), (0, 2), (1, 2), (0, 3)}))
        traj = dynamics.simulate(g, OpinionState([0.1, 0.1, 0.1, 0.4], 0.3), 10)
        assert traj.lock_k == 0 and traj.termination_k == 1
        assert traj.states[1][0] == 0.1 + 2**-56
        for k, x in enumerate(traj.states):
            assert traj.influence_edges_at(k) == dynamics.influence_edges(g, x, 0.3), k


class TestExactEngine:
    def test_max_steps_is_an_integer(self):
        with pytest.raises(TypeError):
            dynamics.simulate_exact(path_graph(4), [-1, 0, 1, -0.75], 1.0, 10.5)
        assert dynamics.simulate_exact(path_graph(4), [-1, 0, 1, -0.75], 1.0, np.int64(3)).n_steps == 3

    @pytest.mark.parametrize("x0, bound, max_steps, stop_on, exc_type, message", [
        ([-1, 0, 1, -0.75], 1.0, 0, None, ValueError, "max_steps must be >= 1"),
        ([-1, 0, 1, -0.75], 1.0, 10, ("eps", 1e-3), ValueError,
         "distance-based stops are a float-engine feature; use stop_on in {None, 'lock', 'termination'} here"),
        ([-1, 0, 1], 1.0, 10, None, DimensionMismatch, "state has 3 opinions, graph has 4 vertices"),
        ([-1, 0, 1, -0.75], 0, 10, None, ValueError, "confidence bound must be positive"),
        ([-1, 0, 1, -0.75], Fraction(-1, 2), 10, None, ValueError, "confidence bound must be positive"),
        ([-1, 0, 1, -0.75], 1.0, 10, "bogus", ValueError, "unknown stop condition 'bogus'"),
    ], ids=["no-step", "tuple-stop", "dimension", "zero-bound", "negative-bound", "unknown-stop"])
    def test_argument_refusals(self, x0, bound, max_steps, stop_on, exc_type, message, monkeypatch):
        monkeypatch.setattr(dynamics, "_averaging", None)  # refused before any step
        assert_refused(exc_type, message, dynamics.simulate_exact, path_graph(4), x0, bound, max_steps,
                       stop_on=stop_on)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_is_refused(self, value):
        assert_refused(ValueError, "opinions must be finite",
                       dynamics.simulate_exact, path_graph(3), [0, value, 0.2], 1.0, 5)
        assert_refused(ValueError, "confidence bound must be finite and positive",
                       dynamics.simulate_exact, path_graph(3), [0, 0.1, 0.2], value, 5)

    @pytest.mark.parametrize("opinions, bound, message", [
        ([10**400, 10**400], 1, "opinions must be finite"),
        ([0, Fraction(1, 3)], 10**400, "confidence bound must be finite and positive"),
        ([0, 1], Fraction(1, 10**400), "confidence bound must be positive"),
    ], ids=["huge-opinion", "huge-bound", "tiny-bound"])
    def test_input_past_the_float_range_is_refused(self, opinions, bound, message):
        assert_refused(ValueError, message, dynamics.simulate_exact, path_graph(2), opinions, bound, 3)

    def test_input_near_the_float_range_runs(self):
        traj = dynamics.simulate_exact(path_graph(2), [Fraction(1, 10**400), 10**300], 10**301, 3)
        assert traj.confidence_bound == 1e301
        assert traj.states[0].tolist() == [0.0, 1e300] and traj.states[1].tolist() == [5e299, 5e299]

    def test_matches_float_on_eventful_run(self):
        s = [-1.0, 0.0, 1.0, -0.75]
        tf = dynamics.simulate(path_graph(4), OpinionState(s, 1.0), 30)
        te = dynamics.simulate_exact(path_graph(4), s, 1.0, 30)
        assert [e.to_payload() for e in tf.events] == [e.to_payload() for e in te.events]
        for k in range(10):
            assert np.allclose(tf.states[k], te.states[k], atol=1e-12)

    def test_matches_float_on_random_runs(self):
        rng = philox(101)
        for _ in range(8):
            g = random_connected_graph(rng, int(rng.integers(2, 7)))
            x0 = np.round(rng.uniform(-2, 2, g.n), 6)  # short decimals, exact fractions
            tf = dynamics.simulate(g, OpinionState(x0, 1.0), 25)
            te = dynamics.simulate_exact(g, [float(v) for v in x0], 1.0, 25)
            kinds_f = [(e.k, e.kind) for e in tf.events if e.kind != "termination"]
            kinds_e = [(e.k, e.kind) for e in te.events if e.kind != "termination"]
            # float may terminate bitwise within the horizon; exact will not unless true
            cut = tf.termination_k if tf.termination_k is not None else 99
            assert [x for x in kinds_e if x[0] <= cut] == kinds_f

    def test_exact_termination_only_when_truly_fixed(self):
        te = dynamics.simulate_exact(complete_graph(3), [0.4, 0.4, 0.4], 1.0, 10)
        assert te.termination_k == 0

    def test_certified_state_never_terminates(self):
        te = dynamics.simulate_exact(path_graph(3), [0.1, 0.0, -0.1], 1.0, 2000)
        assert te.termination_k is None
        assert te.n_steps == 2000

    def test_float_termination_is_an_artifact(self):
        # doubles collapse to a bitwise fixed point; the exact engine does not
        tf = dynamics.simulate(path_graph(3), OpinionState([0.1, 0.0, -0.1], 1.0), 2000)
        assert tf.termination_k is not None

    def test_tail_ratio_matches_lambda2(self):
        for g in (path_graph(3), path_graph(4)):
            lam2 = spectral.decompose(g).second_largest_abs()
            rng = philox(103 + g.n)
            x0 = list(rng.uniform(-0.3, 0.3, g.n))
            te = dynamics.simulate_exact(g, x0, 1.0, 3000)
            ss = dynamics.steady_state(te)
            assert dynamics.tail_decay_ratio(te, ss) == pytest.approx(lam2, abs=1e-3)

    def test_exact_steady_state_is_rational(self):
        te = dynamics.simulate_exact(path_graph(3), [0.0, 0.3, 0.6], 1.0, 50)
        ss = dynamics.steady_state(te)
        assert ss.exact_values and float(ss.exact_values[0]) == pytest.approx(0.3, abs=1e-15)


def exact_corpus():
    """Seeded (graph, opinions) cases for the exact engine: random connected
    graphs of 2-8 vertices, paths, stars, K3 and larger complete graphs.
    Narrow states lock at step 0; wide ones break links first and lock later,
    often into several components."""
    rng = philox(707)
    shapes = [random_connected_graph(rng, int(rng.integers(2, 9))) for _ in range(16)]
    shapes += [path_graph(n) for n in (2, 3, 4, 6)] + [graphs.star_graph(n) for n in (4, 6)]
    shapes += [complete_graph(n) for n in (3, 4, 5)]
    cases = []
    for g in shapes:
        for width in (0.8, 4.0):
            cases.append((g, [float(v) for v in np.round(rng.uniform(0, width, g.n), 3)]))
    return cases


def late_lock_case():
    """path:8 with a pendant vertex 8 joined to vertex 0 and held R + 2^-60
    above the path's limit: vertex 8 never links, and the all-pairs lock test
    waits until the path's hull is that close to its limit (step 655)."""
    x = [Fraction(i, 8) for i in range(8)]
    d = [2] + [3] * 6 + [2]
    limit = sum(di * xi for di, xi in zip(d, x)) / sum(d)
    g = graphs.Graph(9, frozenset({(i, i + 1) for i in range(7)} | {(0, 8)}))
    return g, x + [limit + 1 + Fraction(1, 2**60)]


def exact_fields(traj, jump=None):
    """An exact run's fields, bitwise, with ``states`` cut after step
    ``jump[0]`` when a jump is given: a run that jumps records no state past
    the jump's first step, and the step loop records them all."""
    states = traj.states if jump is None else traj.states[:jump[0] + 1]
    return (
        traj.exact_window, [s.tobytes() for s in states], traj.events,
        [(e.k_start, e.mask.tobytes(), e.labels.tobytes()) for e in traj.epochs],
        traj.lock_k, None if traj.lock_state is None else traj.lock_state.tobytes(),
        traj.termination_k, traj.n_steps,
    )


def assert_matches_step_loop(traj, ref):
    """``traj`` from ``simulate_exact`` against ``ref`` from
    ``loop_simulate_exact``: every field bitwise, the states up to the jump's
    first step, and ``truncated`` exactly when the run jumped."""
    assert exact_fields(traj) == exact_fields(ref, traj.exact_jump)
    assert traj.truncated == (traj.exact_jump is not None) and not ref.truncated


def run_exact(fn, *args, **kwargs):
    """(trajectory, max_steps of BudgetExhausted or None) from either engine."""
    try:
        return fn(*args, **kwargs), None
    except BudgetExhausted as exc:
        return exc.trajectory, exc.max_steps


class TestExactJump:
    FLOOR = 2 + dynamics.EXACT_WINDOW  # a run locked at step 0 jumps from step 2

    def test_matches_the_step_loop_bitwise(self):
        cases = exact_corpus() + [late_lock_case()]
        seen = {"lock0": 0, "lock_later": 0, "jump": 0, "stepped_past_lock": 0, "exhausted": 0, "terminated": 0}
        for idx, (g, x0) in enumerate(cases):
            budgets = (self.FLOOR, self.FLOOR + 70, 200) if idx < len(cases) - 1 else (900,)
            for budget in budgets:
                for stop_on in (None, "lock", "termination"):
                    traj, exhausted = run_exact(dynamics.simulate_exact, g, x0, 1.0, budget, stop_on=stop_on)
                    ref, ref_exhausted = run_exact(loop_simulate_exact, g, x0, 1.0, budget, stop_on=stop_on)
                    jump = traj.exact_jump
                    assert (exact_fields(traj), traj.truncated, exhausted) == \
                        (exact_fields(ref, jump), jump is not None, ref_exhausted), (idx, budget, stop_on)
                    assert jump is None or jump == (traj.lock_k + 2, budget - dynamics.EXACT_WINDOW)
                    seen["exhausted"] += exhausted is not None
                    seen["jump"] += jump is not None
                    seen["stepped_past_lock"] += jump is None and traj.locked and traj.n_steps > traj.lock_k + 2
                    seen["terminated"] += traj.termination_k is not None
                    if traj.locked:
                        seen["lock0" if traj.lock_k == 0 else "lock_later"] += 1
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("window", [0, 5])
    def test_matches_the_step_loop_with_other_windows(self, window):
        x0 = [0.1, 0.0, -0.1]
        traj = dynamics.simulate_exact(path_graph(3), x0, 1.0, 600, window=window)
        assert traj.exact_jump == (traj.lock_k + 2, 600 - window)
        assert_matches_step_loop(traj, loop_simulate_exact(path_graph(3), x0, 1.0, 600, window=window))

    def test_locked_runs_terminate_by_lock_plus_one_or_never(self):
        # The frozen update is diagonalizable, so a state past lock_k + 1
        # repeats only if the one at lock_k + 1 already does.
        several = complete_at_next = 0
        for g, x0 in exact_corpus():
            traj = loop_simulate_exact(g, x0, 1.0, 300)
            if not traj.locked:
                continue
            assert traj.termination_k is None or traj.termination_k <= traj.lock_k + 1, (g, x0)
            ig = traj.influence_graph_at(traj.lock_k)
            several += len(ig.components) > 1
            complete_at_next += g.is_complete() and traj.termination_k == traj.lock_k + 1
        assert several >= 10 and complete_at_next >= 3, (several, complete_at_next)

    @pytest.mark.parametrize("n", [3, 4])
    def test_fires_on_short_paths(self, n):
        x0 = [float(v) for v in philox(n).uniform(-0.25, 0.25, n)]
        traj = dynamics.simulate_exact(path_graph(n), x0, 1.0, 10_000)
        assert traj.exact_jump == (traj.lock_k + 2, 10_000 - dynamics.EXACT_WINDOW)
        assert_matches_step_loop(traj, loop_simulate_exact(path_graph(n), x0, 1.0, 10_000))

    def test_starts_two_steps_past_a_late_lock(self):
        g, x0 = late_lock_case()
        traj = dynamics.simulate_exact(g, x0, 1.0, 2_000)
        assert traj.lock_k == 655 and traj.exact_jump == (657, 2_000 - dynamics.EXACT_WINDOW)
        assert len(traj.states) == 658

    def test_late_lock_keeps_the_states_eps_convergence_reads(self):
        # eps_convergence_time reads the states before a lock; a run that
        # locks late and jumps must still hold every one of them
        g, x0 = late_lock_case()
        traj = dynamics.simulate_exact(g, x0, 1.0, 2_000)
        ref = loop_simulate_exact(g, x0, 1.0, 2_000)
        ss, ref_ss = dynamics.steady_state(traj), dynamics.steady_state(ref)
        for eps in (1e-1, 1e-3, 1e-9):
            k_eps = dynamics.eps_convergence_time(traj, ss, eps)
            assert k_eps < traj.lock_k and k_eps == dynamics.eps_convergence_time(ref, ref_ss, eps), eps

    @pytest.mark.parametrize("case", ["path:12", "path:16", "random:10"])
    def test_fires_on_larger_components(self, case):
        # 2938 locked steps are more than n_c^2 / 2 for these 10-16 vertex
        # components
        if case == "random:10":
            rng = philox(10)
            g = random_connected_graph(rng, 10)
            x0 = [float(v) for v in rng.uniform(-0.2, 0.2, g.n)]
        else:
            g = path_graph(int(case.split(":")[1]))
            x0 = [float(v) for v in philox(g.n).uniform(-0.25, 0.25, g.n)]
        traj = dynamics.simulate_exact(g, x0, 1.0, 3_000)
        assert traj.exact_jump == (traj.lock_k + 2, 3_000 - dynamics.EXACT_WINDOW)
        assert_matches_step_loop(traj, loop_simulate_exact(g, x0, 1.0, 3_000))

    def test_fires_on_a_64_vertex_path(self):
        # 2938 locked steps are more than 64^2 / 2 = 2048
        x0 = [float(v) for v in philox(64).uniform(-0.25, 0.25, 64)]
        traj = dynamics.simulate_exact(path_graph(64), x0, 1.0, 3_000)
        assert traj.exact_jump == (2, 3_000 - dynamics.EXACT_WINDOW)
        assert_matches_step_loop(traj, loop_simulate_exact(path_graph(64), x0, 1.0, 3_000))

    def test_the_largest_component_sets_the_bound(self):
        # path:9 locked at step 0 into path:3 and path:6, so a stretch jumps
        # once it is longer than 6^2 / 2 = 18 steps
        g, x0 = path_graph(9), [0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 5.3, 5.4, 5.5]
        traj = dynamics.simulate_exact(g, x0, 1.0, self.FLOOR + 18)
        assert traj.lock_k == 0 and len(traj.influence_graph_at(0).components) == 2
        assert traj.exact_jump is None
        traj = dynamics.simulate_exact(g, x0, 1.0, self.FLOOR + 19)
        assert traj.exact_jump == (2, 21)
        assert_matches_step_loop(traj, loop_simulate_exact(g, x0, 1.0, self.FLOOR + 19))

    def test_does_not_fire_where_stepping_is_cheaper(self):
        # 238 locked steps of path:32 are fewer than 32^2 / 2 = 512
        x0 = [float(v) for v in philox(32).uniform(-0.25, 0.25, 32)]
        traj = dynamics.simulate_exact(path_graph(32), x0, 1.0, 300)
        assert traj.lock_k == 0 and traj.termination_k is None and traj.exact_jump is None

    def test_does_not_fire_without_a_stretch_to_skip(self):
        # path:3 jumps a stretch longer than 3^2 / 2 steps: 5 steps, not 4
        x0 = [0.1, 0.0, -0.1]
        assert dynamics.simulate_exact(path_graph(3), x0, 1.0, self.FLOOR + 4).exact_jump is None
        assert dynamics.simulate_exact(path_graph(3), x0, 1.0, self.FLOOR + 5).exact_jump == (2, 7)
        assert dynamics.simulate_exact(path_graph(3), x0, 1.0, 10_000, stop_on="lock").exact_jump is None

    def test_does_not_fire_on_an_unlocked_run(self):
        # path:7 cut at vertex 3 into two path:3 components whose hulls stay
        # within R of each other: never locked, never terminated
        x0 = [0.0, 0.1, 0.2, 5.0, 0.5, 0.6, 0.7]
        g = graphs.Graph(7, frozenset({(i, i + 1) for i in range(6)}))
        traj = dynamics.simulate_exact(g, x0, 1.0, 1_000)
        assert not traj.locked and traj.termination_k is None and traj.exact_jump is None


class TestLockedPower:
    def test_polynomial_power_matches_matrix_power_on_random_blocks(self):
        rng = philox(1613)
        for size in range(1, 17):
            for _ in range(3):
                rows = [[int(v) for v in rng.integers(-6, 7, size)] for _ in range(size)]
                chi = dynamics._charpoly(rows)
                # Cayley-Hamilton, exactly: chi(rows) is the zero matrix
                acc = [[int(i == j) for j in range(size)] for i in range(size)]
                for c in chi:
                    acc = [[sum(map(mul, row, col)) + (c if i == j else 0) for j, col in enumerate(zip(*rows))]
                           for i, row in enumerate(acc)]
                assert acc == [[0] * size] * size, rows
                v = [int(x) for x in rng.integers(-10**9, 10**9, size)]
                for p in (0, 1, size, int(rng.integers(2, 300))):
                    r = dynamics._xpow_mod(chi, p)
                    w, got = v, [0] * size
                    for ri in r:  # sum(r_i * rows^i v)
                        got = [g + ri * x for g, x in zip(got, w)]
                        w = [sum(map(mul, row, w)) for row in rows]
                    assert got == power_apply(rows, v, p), (rows, p)

    def test_matches_matrix_power_on_locked_blocks(self):
        # random live-link masks split random connected graphs into 1-16
        # vertex components, singletons included
        rng = philox(1614)
        for n in (1, 2, 3, 5, 8, 12, 16):
            for _ in range(4):
                g = random_connected_graph(rng, n)
                mask = rng.random(len(g.src)) < rng.uniform(0.3, 1.0)
                order, starts = graphs.label_groups(graphs.component_labels(n, g.src[mask], g.dst[mask]))
                components = [c.tolist() for c in np.split(order, starts[1:])]
                neigh = locked_neigh(g, mask)
                y = [int.from_bytes(rng.bytes(40), "big") - (1 << 319) for _ in range(n)]
                for p in (1, 2, int(rng.integers(3, 400))):
                    assert dynamics._locked_power(neigh, components, y, p) == \
                        reference_locked_power(neigh, components, y, p), (g, mask, p)


class TestFloatTailRatio:
    @staticmethod
    def cycle_run(**kwargs):
        x0 = np.random.default_rng(3).uniform(-0.3, 0.3, 24)
        return dynamics.simulate(graphs.cycle_graph(24), OpinionState(x0, 1.0), 3000, **kwargs)

    def test_reads_lambda2(self):
        traj = self.cycle_run()
        lam2 = spectral.decompose(traj.gph).second_largest_abs()
        assert dynamics.tail_decay_ratio(traj, dynamics.steady_state(traj)) == pytest.approx(lam2, abs=1e-3)

    def test_capped_run_is_refused(self):
        # its last recorded states are a prefix, whose decay is not the tail's
        capped = self.cycle_run(history_cap=60)
        assert capped.truncated
        with pytest.raises(HistoryTruncated):
            dynamics.tail_decay_ratio(capped, dynamics.steady_state(capped))

    def test_exact_run_that_jumped_keeps_its_ratio(self):
        traj = dynamics.simulate_exact(path_graph(3), [0.1, 0.0, -0.1], 1.0, 600)
        assert traj.exact_jump is not None and traj.truncated
        lam2 = spectral.decompose(path_graph(3)).second_largest_abs()
        assert dynamics.tail_decay_ratio(traj, dynamics.steady_state(traj)) == pytest.approx(lam2, abs=1e-3)

    def test_same_ratio_at_every_scale(self):
        # scaling by a power of two scales every state and distance exactly,
        # and the rounding floor scales with them
        for name in ("path:8", "cycle:12", "star:10", "dumbbell:8"):
            kind, n = name.split(":")
            g = graphs.standard_graph(kind, int(n))
            for seed in (1, 2, 3):
                x0 = sampling.narrow_spread(g.n, 1.0, 0.0, 0.6, seed).opinions
                ratios = set()
                for scale in (2.0**-40, 1.0, 2.0**40):
                    traj = dynamics.simulate(g, OpinionState(scale * x0, scale), 400)
                    ratios.add(dynamics.tail_decay_ratio(traj, dynamics.steady_state(traj), 20))
                assert len(ratios) == 1, (name, seed, ratios)

    def test_window_must_be_positive(self):
        for traj in (self.cycle_run(), dynamics.simulate_exact(path_graph(3), [0.1, 0.0, -0.1], 1.0, 600)):
            for window in (0, -1):
                with pytest.raises(ValueError, match="window"):
                    dynamics.tail_decay_ratio(traj, dynamics.steady_state(traj), window)


class TestExactTailRatio:
    def test_matches_the_distance_sums(self):
        cases = [(g, x0, b) for g, x0 in exact_corpus() for b in (200, TestExactJump.FLOOR + 70)]
        cases.append(late_lock_case() + (700,))  # locks at 655, after the window's first state
        seen = {"ratios": 0, "several_components": 0, "lock_in_window": 0}
        for g, x0, budget in cases:
            traj = dynamics.simulate_exact(g, x0, 1.0, budget)
            if not traj.locked or len(traj.exact_window) < 51:
                continue
            ss = dynamics.steady_state(traj)
            try:
                want = reference_tail_decay_ratio(traj, ss)
            except ZeroDivisionError:  # the state is at its limit at the window's start
                with pytest.raises(ZeroDivisionError):
                    dynamics.tail_decay_ratio(traj, ss)
                continue
            assert dynamics.tail_decay_ratio(traj, ss) == want, (g, x0, budget)
            seen["ratios"] += 1
            seen["several_components"] += len(ss.components) > 1
            seen["lock_in_window"] += traj.lock_k > traj.exact_window[-51][0]
        assert seen["ratios"] >= 20 and seen["several_components"] >= 5 and seen["lock_in_window"] >= 1, seen

    @pytest.mark.parametrize("window", [0, 5, 60])
    def test_matches_the_distance_sums_at_other_windows(self, window):
        # runs that jump, runs that do not, and a path:6 run whose last link
        # breaks at step 16, inside a 50-step measurement window
        cases = [(path_graph(3), [0.1, 0.0, -0.1], 600), (path_graph(4), [0.0, 0.1, 0.2, 0.3], 600),
                 (path_graph(6), [1.24, 0.56, 1.59, 1.93, 0.24, 0.43], 60)]
        cases += [(g, x0, 40) for g, x0 in exact_corpus()[:12]]
        seen = Counter()
        for g, x0, budget in cases:
            traj = dynamics.simulate_exact(g, x0, 1.0, budget, window=window)
            if not traj.locked:
                continue
            ss = dynamics.steady_state(traj)
            for measured in (1, 5, 50):
                if len(traj.exact_window) < measured + 1:
                    with pytest.raises(ValueError, match="exact window shorter"):
                        dynamics.tail_decay_ratio(traj, ss, measured)
                    seen["refused"] += 1
                    continue
                try:
                    want = reference_tail_decay_ratio(traj, ss, measured)
                except ZeroDivisionError:
                    continue
                assert dynamics.tail_decay_ratio(traj, ss, measured) == want, (g, x0, budget, measured)
                seen["ratios"] += 1
                seen["jumped"] += traj.exact_jump is not None
                seen["link_change_in_window"] += traj.epochs[-1].k_start > traj.exact_window[-1 - measured][0]
        if window == 0:
            assert seen["ratios"] == 0 and seen["refused"] >= 30, seen
        else:
            assert seen["ratios"] >= 20 and seen["jumped"] >= 2, seen
        if window == 60:
            assert seen["link_change_in_window"] >= 1, seen
