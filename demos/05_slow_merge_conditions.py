"""Deciding which splits of a graph admit arbitrarily slow merging.

Sufficient: the contracting side has an eigenvalue in (0,1) whose eigenspace
contains a vector strictly one-signed on the boundary-adjacent vertices;
the explicit state built from it merges exactly at ceil(log_{1/lambda}(v0/delta)).

Necessary: some eigenvalue in (0,1) must admit a nonzero one-signed vector
in the boundary-restricted eigenspace.  Complete multipartite graphs fail
this on every split, so none of their merges can be delayed indefinitely.
"""

import numpy as np

import socialhk as hk
from socialhk import slowmerge as sm
from socialhk.graphs import PartiteSpec

p4 = hk.path_graph(4)
split = sm.make_split(p4, (0, 1, 2), (3,))

suff = sm.sufficient_check(p4, split)
print(f"4-path split {{1,2,3}} | {{4}}: {suff.kind} at lambda = {suff.eigenvalue}")
print(f"  witness (on the left trio): {suff.witness}")

for m in (2, 8, 32):
    state, predicted = sm.construct_slow_state(p4, split, suff, delta=0.5 / m)
    traj = hk.simulate(p4, state, max_steps=60)
    print(f"  delta = v0/{m:<3}: predicted merge {predicted}, simulated {traj.merge_times()}")

nec = sm.necessary_check(p4, split)
print(f"  necessary condition: {nec.kind} at lambda = {nec.eigenvalue}")

print()
print("complete multipartite graphs: every split fails the necessary condition")
for sizes in ((1, 2), (2, 2), (1, 1, 2), (2, 3)):
    rep = sm.rpartite_no_slow_merge(PartiteSpec(sizes))
    print(f"  parts {sizes}: splits checked {rep.checked:4d}, "
          f"all fail: {rep.all_fail}")

print()
print("the sign machinery behind the necessity argument:")
res = sm.parity_elimination(
    [0.5, -0.5, 0.25],
    [np.array([1.0, -1.0]), np.array([1.0, 1.0]), np.array([0.0, 2.0])],
    2,
)
print(f"  rates {res.mu}, even weights {res.alpha}, odd weights {res.zeta}")
print(f"  window sum at k=2: {res.even_sum(2)} (matches the direct sum)")

floor = sm.sign_ratio_floor(np.array([[1.0], [0.0], [-2.0]]), 3)
print(f"  sign-ratio floor of span([1,0,-2]) on a 3-window, one LP per window entry: "
      f"{floor.value} (exact={floor.exact})")
