"""Social bounded-confidence averaging dynamics with structural event logs.

At every step each agent moves to the arithmetic mean of the opinions of its
influence neighbors: the agents it is joined to in the physical graph AND
whose opinions lie within the confidence bound.  Equivalently
``x[k+1] = D^{-1} A_adj x[k]`` over the influence graph at time k.

Two engines check their arguments with ``_check_run`` before any step and
observe their states with ``_observe``: the live-link mask, link and merge
events, epochs and the lock test on per-component opinion hulls, at step 0
and after every update until lock; each ends its own run.  They differ
only in the update and the termination test:

* the float engine (``simulate``) runs IEEE doubles and is the default; a
  state terminates when the update repeats it bitwise.  Where its influence
  graph is frozen, from the lock on and before it once ``_QUIET`` steps have
  passed without a link change, one stepper (``_frozen_stretch``) steps it
  in blocks of rows (``_step_rows``);
* the exact engine (``simulate_exact``) runs integer arithmetic over a
  common denominator, so state equality and neighbor tests are decided in
  exact rational arithmetic; a state terminates when every live link joins
  equal opinions.  It exists because a float trajectory collapses
  onto a bitwise fixed point once deviations reach rounding scale, which
  misreports genuinely non-terminating dynamics.  Once locked, its update is
  one fixed diagonalizable integer matrix M, so termination is decided two
  steps after lock, and the rest of the locked stretch, p steps, is computed
  per component as r(M) applied to the state, r(x) = x^p modulo the
  component's characteristic polynomial, whenever 2 p > n_max^2 for the
  largest locked component of n_max vertices.

A step whose links did not change costs ``_observe`` O(1) numpy calls: the
mask is compared by its bytes, and ``_span_rules_out_lock`` rejects the lock
test in O(n), before any sort, when c > 1 hulls span less than (c - 1) R.
The lock test takes one state or a block of states, one per row, so the
float engine's quiet blocks and ``_observe`` share it.

Both engines read the arrays the physical ``Graph`` owns: an influence graph
is a boolean mask of live links over its sorted non-loop edges, and the
update sums run over ``Graph.entries``, each agent's own opinion first and
then its live neighbors' in ascending order (one ``np.bincount``), so float
trajectories, and bitwise termination, do not depend on the BLAS build.
Trajectories store epochs of one influence graph: the mask plus the labels
of ``graphs.component_labels``; component tuples are built only for merge
events and when the API asks for them.

Events: ``link_break``/``link_form`` compare consecutive influence graphs;
``merge`` fires when a formed link joins two previously disconnected
components; ``lock`` fires when the influence graph is certified frozen
forever (every component's opinion spread is at most the confidence bound
and distinct components' opinion hulls are separated by more than it);
``termination`` fires when the state exactly repeats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import index, mul
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    EpsTooSmall,
    HistoryTruncated,
    NotLocked,
)
from .graphs import (
    Graph,
    component_labels,
    effective_diameter,
    induced_subgraph,
    label_components,
    label_groups,
)

HISTORY_CAP = 100_000
_CELLS = 4096  # float cells per block of output or energy rows (_row_blocks)
_BLOCK = 64  # float steps per block of a frozen influence graph (_step_rows)
_QUIET = 8  # unlocked float steps without a link change before stepping in blocks
EXACT_WINDOW = 60
ENERGY_TOL = 1e-9  # absolute slack of every clause of verify_energy_certificates


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
        if not (math.isfinite(self.confidence_bound) and self.confidence_bound > 0):
            raise ValueError("confidence bound must be finite and positive")

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


def _live_mask(gph: Graph, x, limit) -> np.ndarray:
    """Which non-loop edges join opinions at most ``limit`` apart: one entry
    per edge, or given states as the columns of ``x``, one row per edge."""
    return np.abs(x[gph.src] - x[gph.dst]) <= limit


def influence_edges(gph: Graph, opinions, bound) -> frozenset:
    """Edges of the physical graph whose endpoint opinions differ by at most
    the bound.  Exact comparisons."""
    return gph.masked(_live_mask(gph, np.asarray(opinions, dtype=float), bound)).edges


def influence_graph(gph: Graph, state: OpinionState) -> InfluenceGraph:
    if state.n != gph.n:
        raise DimensionMismatch(f"state has {state.n} opinions, graph has {gph.n} vertices")
    sub = gph.masked(_live_mask(gph, state.opinions, state.confidence_bound))
    return InfluenceGraph(sub, label_components(component_labels(sub.n, sub.src, sub.dst)))


def _averaging(gph: Graph, mask) -> tuple:
    """(targets, sources, degrees) of the update sums under a link mask."""
    tgt, nbr, edge = gph.entries[:3]
    live = np.append(mask, True)[edge]  # self entries (edge -1) read the appended True
    t = tgt[live]
    return t, nbr[live], np.bincount(t)


def _average(x, t, s, deg) -> np.ndarray:
    # bincount adds weights in entry order, which fixes the summation order
    return np.bincount(t, weights=x[s]) / deg


def step(gph: Graph, state: OpinionState) -> OpinionState:
    """One update: each opinion moves to the mean over its influence neighbors."""
    if state.n != gph.n:
        raise DimensionMismatch(f"state has {state.n} opinions, graph has {gph.n} vertices")
    x = state.opinions
    t, s, deg = _averaging(gph, _live_mask(gph, x, state.confidence_bound))
    return OpinionState(_average(x, t, s, deg), state.confidence_bound)


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


class Epoch(NamedTuple):
    """A stretch of steps with one influence graph, from ``k_start`` until the
    next epoch starts.  ``mask`` marks the live links among the physical
    graph's sorted non-loop edges; ``labels`` gives each vertex the smallest
    vertex of its component."""

    k_start: int
    mask: np.ndarray
    labels: np.ndarray


@dataclass
class Trajectory:
    """States, influence graphs (as epochs), events, and energies derived from the states.

    ``epochs`` starts with the influence graph at k = 0 and gains an entry
    at every step where the graph changes; ``n_steps`` counts the updates.
    """

    gph: Graph
    confidence_bound: float
    states: list                 # recorded states, index k -> ndarray (exact runs: float projections)
    epochs: list                 # [Epoch], ascending k_start
    events: list
    n_steps: int = 0
    lock_k: int | None = None
    lock_state: np.ndarray | None = None  # state at lock_k, kept whatever history_cap drops
    termination_k: int | None = None
    truncated: bool = False      # states stop before n_steps: history_cap, or an exact run's jump
    is_exact: bool = False
    exact_window: list = field(default_factory=list)  # [(k, numerators, denominator)], consecutive k
    exact_jump: tuple | None = None  # (k_from, k_to) computed as one power of the locked update

    @property
    def locked(self) -> bool:
        return self.lock_k is not None

    @property
    def energies(self) -> list | None:
        """(E, E_act) per recorded state under its epoch's mask; None for exact runs.

        Each epoch is evaluated in the blocks of ``_row_blocks`` of width
        max(n, live links), as a block's copy of its states has rows × n cells
        and its gathered gaps rows × live links."""
        if self.is_exact:
            return None
        gph, n_rec, out = self.gph, len(self.states), []
        ends = [e.k_start for e in self.epochs[1:]] + [n_rec]
        for (k0, mask, _), k1 in zip(self.epochs, ends):
            src, dst = gph.src[mask], gph.dst[mask]
            for a, b in _row_blocks(k0, min(k1, n_rec), max(gph.n, len(src))):
                e, act = _energy(gph.n, src, dst, np.array(self.states[a:b]), self.confidence_bound)
                out.extend(zip(e.tolist(), act.tolist()))
        return out

    @property
    def energy_at_lock(self) -> float | None:
        """Total energy E of ``lock_state`` under the last epoch's mask (a float
        run opens no epoch after its lock): ``energies[lock_k][0]`` bit for
        bit, also when ``history_cap`` has dropped that state.  None for exact
        or unlocked runs."""
        if self.is_exact or self.lock_state is None:
            return None
        gph, mask = self.gph, self.epochs[-1].mask
        return float(_energy(gph.n, gph.src[mask], gph.dst[mask], self.lock_state, self.confidence_bound)[0])

    def _epoch_at(self, k: int) -> Epoch:
        if not 0 <= k <= self.n_steps:
            raise IndexError(k)
        return self.epochs[bisect_right(self.epochs, k, key=lambda e: e.k_start) - 1]

    def influence_edges_at(self, k: int) -> frozenset:
        return self.gph.masked(self._epoch_at(k).mask).edges

    def influence_graph_at(self, k: int) -> InfluenceGraph:
        epoch = self._epoch_at(k)
        return InfluenceGraph(self.gph.masked(epoch.mask), label_components(epoch.labels))

    def events_of(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def merge_times(self) -> list:
        return [e.k for e in self.events_of("merge")]


def _lock_holds(lo, hi, bound):
    """Lock test on per-component opinion hulls ``[lo, hi]``: every hull is at
    most ``bound`` wide and every two hulls are more than ``bound`` apart.
    The hulls run along the last axis, of one state or of each row of a
    block of states; the answer is one bool or one per row.

    Hulls that pass are disjoint, so their ``lo`` and their ``hi`` sort in
    the same order, and each hull's nearest predecessor is the one just
    before it.  Conversely, if each sorted ``lo[i + 1]`` exceeds the sorted
    ``hi[i]`` by more than ``bound``, the ``i + 1`` hulls of smallest ``hi``
    are the ``i + 1`` of smallest ``lo`` for every ``i``, so both sorts give
    one order and the hulls pass.  One pass over the two sorted ends decides
    it.
    """
    wide = (hi - lo > bound).any(axis=-1)
    if lo.ndim == 1 and wide:  # one state with a hull too wide needs no sort
        return False
    lo, hi = lo.copy(), hi.copy()
    lo.sort(axis=-1)
    hi.sort(axis=-1)
    return (lo[..., 1:] - hi[..., :-1] > bound).all(axis=-1) & ~wide


def _span_rules_out_lock(z, c, bound):
    """Whether state ``z``, or each row of a block of states, is too narrow
    for its ``c`` component hulls to pass ``_lock_holds``: ``c`` hulls
    pairwise more than ``bound`` apart span more than ``(c - 1) * bound``.
    Sound bit for bit in floats, as rounding is monotone: a rounded gap
    above ``bound`` is a real gap above it, so the real span exceeds the real
    product and rounds to no less.  Exact on integers."""
    return z.max(axis=-1) - z.min(axis=-1) < (c - 1) * bound


def _hulls(z, groups) -> tuple:
    """(lo, hi) of each component of ``groups`` (``label_groups``) in state
    ``z``, or in each row of a block of states."""
    order, starts = groups
    zs = z.take(order, axis=-1)
    return np.minimum.reduceat(zs, starts, axis=-1), np.maximum.reduceat(zs, starts, axis=-1)


def _diff_events(k, gph: Graph, old, new, prev_labels, prev_groups):
    """link_break / link_form / merge events between consecutive link masks;
    ``prev_labels`` and their ``label_groups`` give the components under ``old``."""
    src, dst = gph.src, gph.dst
    events = [Event(k, "link_break", i, j)
              for i, j in zip(src[old & ~new].tolist(), dst[old & ~new].tolist())]
    fi, fj = src[new & ~old], dst[new & ~old]
    # groups ascend by their first vertex, which is their label
    order, starts = prev_groups
    heads, ends = order[starts], np.append(starts[1:], len(order))
    merged = {}
    for i, j, li, lj in zip(fi.tolist(), fj.tolist(), prev_labels[fi].tolist(), prev_labels[fj].tolist()):
        events.append(Event(k, "link_form", i, j))
        key = (min(li, lj), max(li, lj))  # labels are minimum vertices
        if li != lj and key not in merged:
            a, b = (tuple(order[starts[g]:ends[g]].tolist()) for g in heads.searchsorted(key))
            merged[key] = Event(k, "merge", i, j, a, b)
    events.extend(merged[key] for key in sorted(merged))
    return events


def _row_blocks(start, stop, width):
    """Consecutive blocks ``(a, b)`` of rows ``start`` to ``stop``, each of
    at most ``_CELLS`` cells of ``width`` and at least one row: the float
    writers and ``Trajectory.energies`` build their temporaries a block at a
    time, so these stay bounded however many rows a run records."""
    size = max(1, _CELLS // width)
    for a in range(start, stop, size):
        yield a, min(a + size, stop)


def _energy(n, src, dst, x, bound):
    """(total, active) energy over ordered vertex pairs of one state ``x``,
    or of each row of a block of states, the live non-loop links being
    ``src[e]-dst[e]``.

    Active energy is the squared-gap sum over ordered influence edges; every
    ordered non-edge pair contributes the squared bound on top of that.
    """
    # a block's gathered gaps are strided, and np.sum along a strided axis adds
    # in another order than one state's pairwise sum: make the rows contiguous
    gap = np.ascontiguousarray(x[..., src] - x[..., dst])
    act = 2.0 * np.sum(gap * gap, axis=-1)
    return act + (n * n - n - 2 * len(src)) * float(bound) ** 2, act


def _check_run(gph: Graph, n, max_steps, stop_on) -> int:
    """Check the arguments both engines share, before any step: a budget of
    one step or more, ``n`` opinions for ``gph`` and a known ``stop_on``
    (``("eps", value)`` with ``value`` > 0); returns ``max_steps`` as an index."""
    max_steps = index(max_steps)  # as range() would: 10.5 steps is a TypeError
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if n != gph.n:
        raise DimensionMismatch(f"state has {n} opinions, graph has {gph.n} vertices")
    if isinstance(stop_on, tuple) and len(stop_on) == 2 and stop_on[0] == "eps":
        if not stop_on[1] > 0:  # NaN too
            raise EpsTooSmall("eps must be positive")
    elif stop_on not in (None, "lock", "termination"):
        raise ValueError(f"unknown stop condition {stop_on!r}")
    return max_steps


def _observe(traj: Trajectory, k: int, z, limit, groups) -> tuple:
    """Log the events of step ``k`` of an unlocked run, open an epoch if its
    links changed (the first at k = 0) and test the lock on the component
    hulls of ``z``, the state scaled so that links live at
    ``|z_i - z_j| <= limit``.  ``groups`` is the current epoch's
    ``label_groups``; returns the grouping after step ``k``."""
    gph = traj.gph
    mask = _live_mask(gph, z, limit)
    if not traj.epochs or mask.tobytes() != traj.epochs[-1].mask.tobytes():
        if traj.epochs:
            _, old, labels = traj.epochs[-1]
            traj.events.extend(_diff_events(k, gph, old, mask, labels, groups))
        labels = component_labels(gph.n, gph.src[mask], gph.dst[mask])
        traj.epochs.append(Epoch(k, mask, labels))
        groups = label_groups(labels)
    if not _span_rules_out_lock(z, len(groups[1]), limit) and _lock_holds(*_hulls(z, groups), limit):
        traj.lock_k = k
        traj.events.append(Event(k, "lock"))
    return groups


def _step_rows(x, avg, n_rows) -> np.ndarray:
    """``x`` and the ``n_rows`` updates after it under one influence graph, as
    the rows of one array: each row is the ``_average`` of the row before,
    bit for bit, with the degrees of ``avg`` as floats."""
    t, s, deg = avg
    rows = np.empty((n_rows + 1, len(x)))
    rows[0] = x
    for prev, row in zip(rows, rows[1:]):
        np.divide(np.bincount(t, weights=prev[s]), deg, out=row)
    return rows


def _record(traj: Trajectory, rows, history_cap) -> None:
    """Append the stepped states ``rows`` to ``traj.states`` up to
    ``history_cap`` states past the initial one, and flag a run whose states
    stop short as ``truncated``."""
    room = max(history_cap + 1 - len(traj.states), 0)
    traj.states.extend(rows[:room])
    traj.truncated |= len(rows) > room


def _frozen_stretch(traj: Trajectory, k, x, avg, groups, near, max_steps, history_cap) -> tuple:
    """Step a float run from step ``k``, state ``x``, in blocks of rows of
    its averaging ``avg`` while its influence graph is frozen: from the lock
    on, or in an unlocked epoch quiet for ``_QUIET`` or more steps.

    A block is never longer than ``_BLOCK`` rows or the budget, nor, before
    the lock, than the quiet stretch before it.  One pass over the block
    finds its first row that repeats the row before it, or, before the lock,
    changes a link or passes the lock test on ``groups`` (the span bound
    first), or, from the lock on, is ``near`` the limit (given under an
    ``("eps", value)`` stop).  The rows before it are steps with nothing to
    observe, and are recorded.  Returns the last such step, its state and
    the row after it, which the caller steps as any other, or None in its
    place once the budget is used up."""
    gph, limit = traj.gph, traj.confidence_bound
    k_start, mask, _ = traj.epochs[-1]
    while k < max_steps:
        rows = _step_rows(x, avg, min(_BLOCK if traj.locked else k - k_start, _BLOCK, max_steps - k))
        new = rows[1:]
        event = (new == rows[:-1]).all(axis=1)
        if not traj.locked:
            event |= (_live_mask(gph, new.T, limit) != mask[:, None]).any(axis=0)
        quiet = int(event.argmax()) if event.any() else len(new)
        if near is not None:  # given from the lock on only
            quiet = next((i for i in range(quiet) if near(new[i])), quiet)
        elif not traj.locked:
            tested = np.flatnonzero(~_span_rules_out_lock(new[:quiet], len(groups[1]), limit))
            if len(tested):
                locks = tested[_lock_holds(*_hulls(new[tested], groups), limit)]
                quiet = int(locks[0]) if len(locks) else quiet
        _record(traj, new[:quiet], history_cap)
        k += quiet
        traj.n_steps = k
        if quiet < len(new):
            return k, rows[quiet], new[quiet]
        x = rows[-1]
    return k, x, None


def simulate(
    gph: Graph,
    state: OpinionState,
    max_steps: int,
    stop_on=None,
    history_cap: int = HISTORY_CAP,
) -> Trajectory:
    """Float-arithmetic simulation for up to ``max_steps`` updates.

    ``stop_on`` is ``None`` (run the full budget), ``"lock"``,
    ``"termination"``, or ``("eps", value)`` for a ``value`` > 0, which
    stops at the first state from the lock on within ``value`` (2-norm) of
    the limit; any other stop is refused before a step is taken.  When a
    requested condition is not met within the budget, BudgetExhausted
    carries the partial trajectory.  Termination (bitwise state repetition)
    always stops the run since nothing can change afterwards; its step,
    ``termination_k``, is the float fixed point, which rounding reaches near
    any limit.  Whether the exact dynamics from the lock state terminate
    is ``_locked_termination``'s verdict.

    Links, events, epochs and the lock come from ``_observe``, as in
    ``simulate_exact``, at every step up to the lock where they can change;
    this loop adds the float update, the bitwise termination test, the stop
    rule and ``history_cap``, one statement for each way a run ends (the
    lock, a state within eps at the lock, a repeat, the eps row, the
    budget).  From the lock on, and before it once ``_QUIET`` steps pass
    without a link change, ``_frozen_stretch`` steps the frozen update in
    blocks of rows and hands back the first row that repeats, changes a
    link, locks or lies within eps.  This loop records that row as any
    other, and it alone logs ``termination``; past the lock a row handed
    back without repeating is the eps row, so the run ends there.  The
    recorded states are bitwise those of one-step-at-a-time stepping.
    Energies are derived from the recorded states by ``Trajectory.energies``.
    """
    max_steps = _check_run(gph, state.n, max_steps, stop_on)
    bound = state.confidence_bound
    x = np.array(state.opinions, dtype=float)

    traj = Trajectory(gph=gph, confidence_bound=bound, states=[x.copy()], epochs=[], events=[])
    groups = near = x_new = None
    # A repeat is tested on the bytes of x + 0.0, which is the == of the
    # blocks and np.array_equal: an update can give -0.0 (a subnormal
    # negative sum divided by the degree rounds to it), and + 0.0 turns it
    # into +0.0, while the states kept keep their own bits.  A live link
    # never joins +inf and -inf (their gap is not <= bound), so no sum gives
    # NaN.
    x_bytes = (x + 0.0).tobytes()
    k = 0
    while True:
        groups = _observe(traj, k, x, bound, groups)
        k_start, mask, _ = traj.epochs[-1]
        if k_start == k:
            t, s, deg = _averaging(gph, mask)
            avg = t, s, deg.astype(float)  # a float divisor saves a cast per step
        if traj.locked:
            traj.lock_state = x.copy()
            if stop_on == "lock":
                break
            if isinstance(stop_on, tuple):
                x_inf, eps = steady_state(traj).x_inf, stop_on[1]
                near = lambda z: np.linalg.norm(z - x_inf) < eps
                if near(x):
                    break
        if traj.locked or k - k_start >= _QUIET:
            k, x, x_new = _frozen_stretch(traj, k, x, avg, groups, near, max_steps, history_cap)
            x_bytes = (x + 0.0).tobytes()
        if k == max_steps:
            if stop_on is not None:
                raise BudgetExhausted(max_steps, traj)
            break
        k += 1
        if x_new is None:
            x_new = _average(x, *avg)
        new_bytes = (x_new + 0.0).tobytes()
        if new_bytes == x_bytes:
            traj.termination_k = k - 1
            traj.events.append(Event(k - 1, "termination"))
            break
        x, x_bytes, x_new = x_new, new_bytes, None
        traj.n_steps = k
        if len(traj.states) <= history_cap:  # as _record does for a block
            traj.states.append(x)
        else:
            traj.truncated = True
        if traj.locked:  # a locked row handed back without repeating lies within eps
            break
    return traj


# -- exact-rational engine ---------------------------------------------------


def _charpoly(rows) -> list:
    """``[c_1, ..., c_n]`` with det(x I - rows) = x^n + c_1 x^(n-1) + ... + c_n
    for a square integer matrix, by Berkowitz's division-free recursion.  A
    trailing principal block with corner a, the rest R of its first row, the
    rest C of its first column and the block A below the corner has as its
    coefficients the lower-triangular Toeplitz matrix with first column
    ``1, -a, -R C, -R A C, -R A^2 C, ...`` times those of A.  About n^4 / 4
    products of small integers."""
    vec = [1, -rows[-1][-1]]
    for k in range(len(rows) - 2, -1, -1):
        sub = [row[k + 1:] for row in rows[k + 1:]]
        r, col = rows[k][k + 1:], [row[k] for row in rows[k + 1:]]
        t = [1, -rows[k][k]]
        for _ in sub:
            t.append(-sum(map(mul, r, col)))
            col = [sum(map(mul, row, col)) for row in sub]
        vec = [sum(map(mul, t[i::-1], vec)) for i in range(len(t))]
    return vec[1:]


def _xpow_mod(chi, p) -> list:
    """Ascending coefficients of x^p mod x^n + c_1 x^(n-1) + ... + c_n, given
    ``chi = [c_1, ..., c_n]``, by left-to-right binary powering.  A squaring
    takes n(n+1)/2 big products; folding the powers x^n..x^(2n-2) back
    multiplies by the small c_i only."""
    n = len(chi)
    fold = [-c for c in reversed(chi)]  # x^n = sum(fold[i] * x^i) modulo chi
    r = [1] + [0] * (n - 1)
    for bit in bin(p)[2:]:
        s = [0] * (2 * n - 1)
        for i, a in enumerate(r):
            s[2 * i] += a * a
            a += a
            for j in range(i + 1, n):
                s[i + j] += a * r[j]
        for d in range(2 * n - 2, n - 1, -1):
            top = s.pop()  # the coefficient of x^d
            for i, f in enumerate(fold, d - n):
                s[i] += top * f
        if bit == "1":
            top = s.pop()
            s = [a + top * f for a, f in zip([0, *s], fold)]
        r = s
    return r


def _locked_power(neigh, components, y, p) -> list:
    """The numerators ``p`` locked steps after ``y``.  ``neigh`` holds each
    vertex's ``(lcm // degree, itself, live neighbors)``; the update matrix M
    has that multiplier on the vertex's closed neighbourhood, and it is
    block-diagonal over ``components``.  By Cayley-Hamilton each block's M^p
    is r(M) for r(x) = x^p modulo the block's characteristic polynomial, so
    its numerators are sum(r_i * M^i y), the M^i y for i below the block size
    found by stepping.  Blocks with one polynomial (every singleton, whose M
    is ``[lcm]``) share one r."""
    walk = [list(y)]  # M^i y
    for _ in range(max(map(len, components)) - 1):
        w = walk[-1]
        walk.append([sum(map(w.__getitem__, nb), w[i]) * mult for mult, i, nb in neigh])
    y, powers = list(y), {}
    for comp in components:
        pos = {v: c for c, v in enumerate(comp)}
        rows = [[0] * len(comp) for _ in comp]
        for row, v in zip(rows, comp):
            mult, _, nb = neigh[v]
            for u in (v, *nb):
                row[pos[u]] = mult
        chi = tuple(_charpoly(rows))
        if chi not in powers:
            powers[chi] = _xpow_mod(chi, p)
        r = powers[chi]
        for v in comp:
            y[v] = sum(ri * w[v] for ri, w in zip(r, walk))
    return y


def _fraction(v, message) -> Fraction:
    """``v`` as a Fraction, never through a float; +-inf, NaN and a value
    past the float range raise ValueError(``message``): the trajectory
    records floats, and every later state lies in the hull of the first."""
    try:
        if v == v:  # NaN is the one value unequal to itself
            f = Fraction(v)
            float(f)
            return f
    except OverflowError:  # +-inf has no integer ratio, 10**400 no float
        pass
    raise ValueError(message)


def _over_lcm(ratios) -> tuple:
    """(numerators, denominator) of ``(numerator, denominator)`` pairs put
    over their least common denominator."""
    ratios = list(ratios)
    m = math.lcm(*{q for _, q in ratios})  # a float run's are few powers of two
    return [p * (m // q) for p, q in ratios], m


def _integer_averaging(gph: Graph, mask) -> tuple:
    """(lcm, neigh) of the integer update under a link mask: ``lcm`` is the
    lcm of the closed degrees and ``neigh`` holds each vertex's
    ``(lcm // degree, itself, live neighbors)``, so that a state's
    numerators one step on, over its denominator times ``lcm``, are
    ``sum(map(y.__getitem__, nb), y[i]) * mult`` for each ``(mult, i, nb)``."""
    _, s, deg = _averaging(gph, mask)  # each vertex's live entries: itself first, then its neighbors
    s, deg = s.tolist(), deg.tolist()
    lcm = math.lcm(*deg)
    return lcm, tuple((lcm // d, s[e - d], s[e - d + 1:e]) for d, e in zip(deg, accumulate(deg)))


def _locked_termination(gph: Graph, mask, x):
    """The step, 0 or 1, from which the exact dynamics started at the float
    state ``x`` repeat under the frozen live links ``mask``, or None if they
    never do.

    A state is fixed exactly when it is constant along every live link (an
    average equals its terms only when they are all equal).  The frozen
    update D^-1 (Adj + I) is similar to a symmetric matrix, so it is
    diagonalizable and x_k = sum of lambda^k part_lambda over its
    eigenvalues; x_k is fixed when its parts off lambda = 1 vanish.  The part
    at lambda = 0 is gone after one step and no other part ever vanishes, so
    a state that one step does not fix is never fixed.  Decided in integers:
    ``x`` over its least common denominator, and one step of
    ``_integer_averaging``, as ``simulate_exact`` takes it."""
    y, _ = _over_lcm(map(float.as_integer_ratio, x.tolist()))
    links = list(zip(gph.src[mask].tolist(), gph.dst[mask].tolist()))
    if all(y[i] == y[j] for i, j in links):
        return 0
    _, neigh = _integer_averaging(gph, mask)
    y = [sum(map(y.__getitem__, nb), y[i]) * mult for mult, i, nb in neigh]
    return 1 if all(y[i] == y[j] for i, j in links) else None


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
    repeats.  ``states`` holds the float projection of every state the loop
    steps, so a run that jumps (below) records states 0..k_from of its
    ``exact_jump`` and is ``truncated``; the exact states of the final
    ``window`` steps are kept for tail measurements.

    Links, events, epochs and the lock come from ``_observe``, as in
    ``simulate``, fed the numerators times the bound's denominator against
    the bound's numerator times the common denominator; this loop adds the
    integer update, the termination test, the stop rule, the exact window
    and the locked-stretch jump.

    After lock every step multiplies the numerators by one integer matrix
    M = lcm * D^-1 (Adj + I) and the denominator by lcm.  M is similar to a
    symmetric matrix, so it is diagonalizable, and a state past lock_k + 1
    repeats only if the state at lock_k + 1 already does: the termination
    test of step lock_k + 2 decides termination for good.  From there the
    stretch up to step ``max_steps - window``, ``gap`` steps, is one power of
    M.  M is block-diagonal over the locked components, and each block's
    power is a polynomial in the block of degree below its size
    (``_locked_power``): x^p modulo its characteristic polynomial, raised by
    repeated squaring at n_c (n_c + 1) / 2 big products a squaring.  The
    integers are those the steps would give; ``Trajectory.exact_jump`` names
    the stretch skipped.

    The power is taken when ``2 * gap > n_max ** 2``, for the largest locked
    component of n_max vertices.  The integers grow log2(lcm) bits a step,
    so stepping costs about n * gap^2 * log2(lcm) / 2 digit operations; the
    power's cost is its characteristic polynomials, some n_c^4 / 4 products
    with entries about n_c * log2(lcm) bits wide each.  log2(lcm) cancels,
    so the two cross at a gap proportional to n_c^2, and 1/2 is the factor
    that timings of both ways fit best: on one core of a 2-core x86 host
    under CPython 3.11, over whole runs of paths, cycles, stars and random
    graphs of 4 to 64 vertices with stretches of 1 to 3,200 steps, no pick
    lost more than 2.5 ms to the faster way (1/4 lost up to 73 ms, 1 up to
    207 ms).
    """
    if isinstance(stop_on, tuple):
        raise ValueError("distance-based stops are a float-engine feature; "
                         "use stop_on in {None, 'lock', 'termination'} here")
    fracs = [_fraction(v, "opinions must be finite") for v in opinions]
    max_steps = _check_run(gph, len(fracs), max_steps, stop_on)
    bound = _fraction(confidence_bound, "confidence bound must be finite and positive")
    if float(bound) <= 0:  # a bound below the float range rounds to 0
        raise ValueError("confidence bound must be positive")

    y, denom = _over_lcm(f.as_integer_ratio() for f in fracs)
    bp, bq = bound.numerator, bound.denominator

    def project(yv, m):
        return np.array([v / m for v in yv])  # int true division rounds correctly

    traj = Trajectory(gph=gph, confidence_bound=float(bound), states=[project(y, denom)], epochs=[],
                      events=[], is_exact=True)
    recent = deque([(0, tuple(y), denom)], maxlen=window + 1)
    groups = neigh = None
    k = 0
    while k <= max_steps:
        if k:
            if neigh is None:
                mask = traj.epochs[-1].mask
                links = list(zip(gph.src[mask].tolist(), gph.dst[mask].tolist()))
                lcm, neigh = _integer_averaging(gph, mask)
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
            traj.n_steps = k
            if traj.exact_jump is None:  # the final window past a jump keeps only exact states
                traj.states.append(project(y, denom))
            recent.append((k, tuple(y), denom))

        if not traj.locked:
            # bq * |y_i - y_j| <= bp * denom is |y_i - y_j| / denom <= bp / bq
            groups = _observe(traj, k, bq * np.array(y, dtype=object), bp * denom, groups)
            if traj.epochs[-1].k_start == k:
                neigh = None
            if traj.lock_k == k:
                traj.lock_state = project(y, denom)
                if stop_on == "lock":
                    break

        # Past lock_k + 1 without termination no later state repeats, so the
        # locked stretch up to the final window is one power of the frozen
        # update, taken per component, once it is longer than n_max^2 / 2
        # steps for the largest component (see the docstring).
        gap = max_steps - window - k
        if traj.locked and k == traj.lock_k + 2:
            components = [c.tolist() for c in np.split(groups[0], groups[1][1:])]
            if 2 * gap > max(map(len, components)) ** 2:
                y = _locked_power(neigh, components, y, gap)
                denom *= lcm**gap
                traj.exact_jump = (k, k + gap)
                k += gap
                traj.n_steps = k
                traj.truncated = True  # no projection is recorded past k_from
                recent.append((k, tuple(y), denom))
        k += 1

    traj.exact_window = list(recent)
    if k > max_steps and stop_on is not None:  # the loop ran out of budget
        raise BudgetExhausted(max_steps, traj)
    return traj


# -- steady state and convergence measurements --------------------------------


@dataclass(frozen=True)
class SteadyState:
    """Per-component consensus values of a locked trajectory;
    ``exact_values`` holds them as Fractions, for exact runs only."""

    components: tuple
    values: tuple
    lock_k: int
    x_inf: np.ndarray
    exact_values: tuple = ()


def steady_state(traj: Trajectory) -> SteadyState:
    """Limit of a locked trajectory: the within-component degree-weighted mean.

    While the influence graph is constant, the degree-weighted opinion sum of
    each component is conserved by every step, so the limit of the averaging
    is the weighted mean frozen at lock time.  Both engines form it from
    integers over one denominator: an exact run's last exact state (never
    before the lock), a float run's ``lock_state`` read exactly through
    ``float.as_integer_ratio``.  Each value is the correctly rounded mean, so
    it does not depend on the BLAS build or on a summation order.
    """
    if not traj.locked:
        raise NotLocked("steady state requires a locked trajectory")
    k = traj.lock_k
    ig = traj.influence_graph_at(k)
    deg = ig.graph.degrees.tolist()
    if traj.is_exact:
        _, numer, m = traj.exact_window[-1]
    else:
        numer, m = _over_lcm(map(float.as_integer_ratio, traj.lock_state.tolist()))
    means = [Fraction(sum(deg[v] * numer[v] for v in comp), sum(deg[v] for v in comp) * m)
             for comp in ig.components]
    values = tuple(map(float, means))  # a Fraction's float is correctly rounded
    x_inf = np.zeros(traj.gph.n)
    for comp, val in zip(ig.components, values):
        x_inf[list(comp)] = val
    return SteadyState(ig.components, values, k, x_inf, tuple(means) if traj.is_exact else ())


def _component_spectra(ig: InfluenceGraph) -> list:
    """(vertices, ``spectral.decompose`` of the subgraph they induce) for each
    component of ``ig`` with more than one vertex.  A lone vertex is at its
    limit already: it has no tail and no eigenvalue below 1."""
    subs = (induced_subgraph(ig.graph, comp) for comp in ig.components if len(comp) > 1)
    return [(list(vs), spectral.decompose(sub)) for sub, vs in subs]


def eps_convergence_time(traj: Trajectory, ss: SteadyState, eps):
    """First step from which the trajectory is certified to stay within
    ``eps`` (2-norm) of the limit: an upper bound on the smallest such N.
    Given a list of eps, returns the list of their steps, from one spectral
    tail built once.

    Beyond lock each frozen component's deviation splits over the eigenspaces
    of its normalized adjacency matrix, and the part in the eigenspace of
    lambda decays as |lambda|^k.  The tail bound sums ||part|| * |lambda|^k
    per eigenspace (per cluster of equal eigenvalues), so it does not depend
    on the eigenbasis the solver picks inside a repeated eigenvalue.  It is
    non-increasing, so it is decisive for all later k, and the result is the
    first step where it falls below eps.  By the triangle inequality the
    bound can exceed the true distance, so that step can lie past the
    smallest N (path:64, seed 1, eps 1e-2: 754 against 554).  When the bound
    is below eps from one step past lock, the recorded states up to lock are
    checked directly and the result is the smallest N.

    Raises HistoryTruncated when the answer needs pre-lock states that
    ``history_cap`` dropped, and EpsTooSmall when the tail bound stays at or
    above eps for 10,000,000 steps past lock.
    """
    eps_list = eps if isinstance(eps, list) else [eps]
    if not all(e > 0 for e in eps_list):  # NaN too
        raise EpsTooSmall("eps must be positive")
    if not traj.locked:
        raise NotLocked("eps-convergence time requires a locked trajectory")
    if not eps_list:
        return []
    k_lock = traj.lock_k

    # Per cluster of equal eigenvalues (consecutive indices) of each component:
    # the norm of the deviation at lock in its eigenspace and its |lambda|,
    # flat over the components, whose first clusters are at ``firsts``.
    weights, rates, firsts = [], [], []
    # the steady state's components: the lock's influence graph is labelled once
    ig = InfluenceGraph(traj.gph.masked(traj._epoch_at(k_lock).mask), ss.components)
    for vs, dec in _component_spectra(ig):
        starts = [cl[0] for cl in dec.clusters]
        dev = traj.lock_state[vs] - ss.x_inf[vs]
        parts = dec.eigenvectors * np.linalg.solve(dec.eigenvectors, dev)
        firsts.append(len(weights))
        weights.extend(np.linalg.norm(np.add.reduceat(parts, starts, axis=1), axis=0))
        rates.extend(np.maximum.reduceat(np.abs(dec.eigenvalues), starts))
    weights, rates = np.array(weights), np.array(rates)

    def tail(steps):
        return float(np.linalg.norm(np.add.reduceat(weights * rates**steps, firsts)))

    def first_step(e):
        # The bound is non-increasing in the step count past lock: find the
        # first step where it is below eps by doubling, then bisection.
        if tail(1) >= e:
            lo, hi = 1, 2
            while tail(hi) >= e:
                if hi >= 10_000_000:
                    raise EpsTooSmall(f"tail bound does not reach eps={e!r} within 10,000,000 steps")
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if tail(mid) >= e else (lo, mid)
            return k_lock + hi

        # The tail is within eps from one step past lock, so the answer is
        # one past the last state up to lock that is not.
        if np.linalg.norm(traj.lock_state - ss.x_inf) >= e:
            return k_lock + 1
        if len(traj.states) < k_lock:
            raise HistoryTruncated(
                f"states {len(traj.states)}..{k_lock - 1} before the lock were not recorded"
            )
        bad = [k for k in range(k_lock) if np.linalg.norm(traj.states[k] - ss.x_inf) >= e]
        return bad[-1] + 1 if bad else 0

    steps = [first_step(e) for e in eps_list]
    return steps if isinstance(eps, list) else steps[0]


def tail_decay_ratio(traj: Trajectory, ss: SteadyState, window: int = 50) -> float:
    """Geometric-mean per-step decay of the distance to the limit, measured
    over the final ``window`` steps.

    Exact trajectories measure in integer arithmetic, the last state and the
    one ``window`` steps before it against each locked component's weighted
    sum at the last (the ratio is formed before any float conversion, so
    underflow cannot corrupt it).  Float trajectories use recorded
    states above the floor 1e-13 max|x_0|, and raise HistoryTruncated
    when ``history_cap`` dropped the last states, as the ratio of a prefix
    is not the tail's.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if traj.is_exact:
        if len(traj.exact_window) < window + 1:
            raise ValueError("exact window shorter than the measurement window")
        if not ss.exact_values:
            raise ValueError("steady state lacks exact values")
        # The window holds consecutive steps.  A component of weight W (its
        # closed degrees summed) whose numerator sum at the last step is S
        # has the limit S / (W m_hi), so at a step of denominator
        # m = m_hi / q, W m_hi (y_v / m - limit) = W q y_v - S.  The squared
        # distance to the limits is those squares summed with weights L / W^2,
        # for L the lcm of the W^2, over L m_hi^2, which cancels in the ratio.
        deg = traj.gph.masked(traj._epoch_at(traj.lock_k).mask).degrees.tolist()
        (_, y_hi, m_hi), (_, y_lo, m_lo) = traj.exact_window[-1], traj.exact_window[-1 - window]
        comps = [(c, sum(deg[v] for v in c), sum(deg[v] * y_hi[v] for v in c)) for c in ss.components]
        scale = math.lcm(*(w * w for _, w, _ in comps))

        def spread(y, q):
            return sum(scale // (w * w) * sum((w * q * y[v] - s) ** 2 for v in c) for c, w, s in comps)

        # int true division rounds the exact ratio correctly
        return (spread(y_hi, 1) / spread(y_lo, m_hi // m_lo)) ** (1.0 / (2 * window))

    if traj.truncated:
        raise HistoryTruncated(f"states {len(traj.states)}..{traj.n_steps} were not recorded")
    dists = [float(np.linalg.norm(s - ss.x_inf)) for s in traj.states]
    floor = 1e-13 * float(np.max(np.abs(traj.states[0])))
    good = [d for d in dists if d > floor]
    if len(good) < window + 1:
        raise ValueError("not enough resolvable distances for the window")
    return (good[-1] / good[-1 - window]) ** (1.0 / window)


# -- energy certificates -------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    """Per-step verification of the energy descent inequalities.

    ``n_steps`` counts the steps checked; ``truncated`` is set when that is
    fewer than the trajectory ran because ``history_cap`` dropped states.
    """

    ok: bool
    n_steps: int
    n_breaks: int
    violations: tuple  # (k, clause, detail)
    truncated: bool = False


def verify_energy_certificates(traj: Trajectory) -> EnergyReport:
    """Check every step of a float trajectory against the descent inequalities.

    (a) energy never increases; (b) the decrement is at least
    (1 - lambda_k^2) times the active energy, lambda_k being the largest
    non-unit eigenvalue magnitude of the influence graph; (c) the spectral gap
    obeys 1 - lambda_k^2 >= 3 / (2 n^2 d_eff); (d) every step with a link
    break sheds at least R^2/(2 n^3) of energy from an active energy above
    R^2/3; (e) each break admits a strained witness pair: neighbors p of i and
    q of j whose opinions differed by more than the bound before the break.

    Only recorded steps can be checked: on a run that ``history_cap`` cut
    short the report covers a prefix and says so in ``truncated``.
    """
    energies = traj.energies
    if energies is None:
        raise ValueError("energy certificates need a float trajectory")
    n = traj.gph.n
    bound = traj.confidence_bound
    violations = []
    breaks_by_step: dict = {}
    for ev in traj.events_of("link_break"):
        breaks_by_step.setdefault(ev.k, []).append((ev.i, ev.j))

    n_recorded = min(len(traj.states) - 1, traj.n_steps)
    starts = [e.k_start for e in traj.epochs if e.k_start < n_recorded] + [n_recorded]
    for k0, k1 in zip(starts, starts[1:]):
        # one influence graph, so one lambda and one diameter, per epoch
        ig = traj.influence_graph_at(k0)
        lam = max((dec.second_largest_abs() for _, dec in _component_spectra(ig)), default=0.0)
        gap = 1.0 - lam * lam
        d_eff = effective_diameter(ig.graph)
        floor = 3.0 / (2.0 * n * n * max(d_eff, 1))
        for k in range(k0, k1):
            e_k, act_k = energies[k]
            e_next, _ = energies[k + 1]
            dec = e_k - e_next
            if e_next > e_k + ENERGY_TOL:
                violations.append((k, "monotone", f"E rose by {e_next - e_k:.3e}"))
            if dec < gap * act_k - ENERGY_TOL:
                violations.append((k, "decrement_vs_active", f"{dec:.3e} < {gap * act_k:.3e}"))
            if d_eff >= 1 and gap < floor - ENERGY_TOL:
                violations.append((k, "spectral_gap_floor", f"{gap:.3e} < {floor:.3e}"))

            broke = breaks_by_step.get(k + 1, [])
            if broke:
                if dec < bound**2 / (2 * n**3) - ENERGY_TOL:
                    violations.append((k, "break_decrement", f"{dec:.3e}"))
                if act_k <= bound**2 / 3 - ENERGY_TOL:
                    violations.append((k, "break_active_floor", f"{act_k:.3e}"))
                x_k = traj.states[k]
                for i, j in broke:
                    if not _strained_pair(ig.graph, x_k, bound, i, j):
                        violations.append((k + 1, "break_witness", f"no strained pair for ({i},{j})"))

    n_breaks = len(traj.events_of("link_break"))
    return EnergyReport(not violations, n_recorded, n_breaks, tuple(violations), n_recorded < traj.n_steps)


def _strained_pair(g: Graph, opinions, bound, i, j) -> bool:
    for p in g.neighbors(i):
        for q in g.neighbors(j):
            if abs(float(opinions[p]) - float(opinions[q])) > bound:
                return True
    return False
