"""Energy as a Lyapunov certificate, including a trajectory with a link break.

The energy charges every ordered pair: squared opinion gap on influence
edges, the squared confidence bound on non-edges.  Averaging makes it
non-increasing, each step sheds at least (1 - lambda^2) times the active
energy, and a step that breaks a link sheds at least R^2 / (2 n^3) from an
active energy above R^2 / 3 -- with a witness pair of neighbors straining
more than R apart.
"""

import numpy as np

import socialhk as hk
from socialhk.graphs import Graph

# Five leaves anchored at 0, a hub at 1, a pendant at 2: the base yanks the
# hub down in one step and the hub-pendant link snaps.
g = Graph(7, frozenset({(i, 5) for i in range(5)} | {(5, 6)}))
x0 = hk.OpinionState([0, 0, 0, 0, 0, 1.0, 2.0], 1.0)

traj = hk.simulate(g, x0, max_steps=40)
print("events:", [(e.k, e.kind, e.i, e.j) for e in traj.events if e.kind != "lock"])
print()
print(f"{'k':>3} {'E':>10} {'E_act':>10} {'decrement':>10}")
energies = traj.energies  # computed from the recorded states on each access
for k in range(min(6, traj.n_steps)):
    e, act = energies[k]
    dec = e - energies[k + 1][0]
    print(f"{k:>3} {e:10.4f} {act:10.4f} {dec:10.4f}")

rep = hk.verify_energy_certificates(traj)
print()
print(f"certificate report: ok={rep.ok}, steps checked={rep.n_steps}, breaks={rep.n_breaks}")

n = g.n
print(f"per-break floor R^2/(2 n^3) = {1 / (2 * n**3):.6f}")
print(f"active-energy floor R^2/3  = {1 / 3:.6f}")
print(f"break budget 2 n^5         = {2 * n**5}")

# The same inequalities hold on generic trajectories, break or no break.
rng = np.random.Generator(np.random.Philox(key=2024))
ok = 0
for _ in range(50):
    h = hk.dumbbell_graph(int(rng.integers(4, 9)))
    x = rng.uniform(0, 2.5, h.n)
    t = hk.simulate(h, hk.OpinionState(x, 1.0), 50)
    ok += hk.verify_energy_certificates(t).ok
print(f"\n50 random dumbbell runs: {ok} certificates green")
