"""The benchmark's three workloads: inputs made from a seed, units, checks.

Each workload is a fixed list of units.  A unit is one call into the public
library API or into ``socialhk.cli.main(argv)``; only that call is timed.
Every unit has named output checks that test invariants of the result, not
byte digests, so a kernel change that moves the last bits of a float still
passes.  The checks use their own oracles (closed forms, numpy) and call no
socialhk code, so they neither lean on the code under test nor show up in
its trace.

Why these workloads:

* ``sweep-consensus``: the researcher's main loop, CLI sweeps in which every
  row locks into one component at step 0.  Most of its time goes to
  ``spectral.decompose``, which runs again for every eps of every row on the
  same graph.  With one component, locking does not depend on the lock
  certificate's pair rule.
* ``sweep-fragment``: CLI sweeps with wide opinion boxes, whose rows break
  and form links and never lock under the current certificate.  The
  unlocked float kernel does nearly all the work and spectral code none, so
  it is the bypass workload for every spectral change.  A 512-cycle makes
  O(n^2) costs show in ``wall_s`` and ``peak_rss_mb``.
* ``certify``: the calls that decide or certify instead of sweeping: energy
  certificates, the exact engine, exhaustive conductance, slow-merge
  verdicts and the simplex behind them.  Every layer the sweeps never touch
  does its work here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from socialhk import cli, dynamics, graphs, slowmerge
from socialhk.dynamics import OpinionState

R = 1.0
EPS = [1e-2, 1e-4]
ENERGY_RTOL = 1e-12
HULL_RTOL = 1e-12

WORKLOADS = ("sweep-consensus", "sweep-fragment", "certify")


@dataclass
class Unit:
    name: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], list]  # -> [(check name, ok, detail)]


@dataclass
class CliResult:
    code: int
    stdout: str
    outdir: str

    def json(self):
        return json.loads(self.stdout)

    def read(self, name: str) -> str:
        with open(os.path.join(self.outdir, name)) as fh:
            return fh.read()


def digest(out) -> str:
    """Deterministic text of a unit's output, with file paths left out.

    Two rounds on the same inputs must give equal digests; that is how the
    traced rounds are shown to compute what the untraced ones compute.
    """
    if not isinstance(out, CliResult):
        return repr(out)
    try:
        payload = out.json()
        for key in ("file", "files", "state_file"):
            payload.pop(key, None)
        text = json.dumps(payload, sort_keys=True)
    except (ValueError, AttributeError):
        text = out.stdout
    parts = [str(out.code), text]
    for name in sorted(os.listdir(out.outdir)):
        parts.append(name + "\n" + out.read(name))
    return "\n".join(parts)


def _cli_unit(name: str, workdir: str, argv: list, check) -> Unit:
    outdir = os.path.join(workdir, name)
    os.makedirs(outdir, exist_ok=True)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--out", outdir, *argv])
        return CliResult(code, buf.getvalue(), outdir)

    def checked(out: CliResult):
        if out.code != 0:
            return [("cli.exit_code", False, f"exit {out.code}")]
        return [("cli.exit_code", True, "")] + check(out)

    return Unit(name, run, checked)


def _sweep_unit(name: str, workdir: str, cfg: dict, check) -> Unit:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return _cli_unit(name, workdir, ["sweep", "--config", path], lambda out: check(_rows(out)))


def _rows(out: CliResult) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out.read("sweep.csv"))))


def _opt_int(text: str):
    return None if text == "" else int(text)


# -- independent oracles -------------------------------------------------------


def philox_uniform(seed: int, lo: float, hi: float, n: int) -> np.ndarray:
    """The samplers' documented draw: Philox4x64-10 keyed by |seed|, uniform."""
    return np.random.Generator(np.random.Philox(key=abs(int(seed)))).uniform(lo, hi, n)


def degrees(kind: str, n: int) -> np.ndarray:
    """Degrees (self-loop counted once) of the standard graphs used here."""
    if kind == "cycle":
        return np.full(n, 3.0)
    if kind == "path":
        deg = np.full(n, 3.0)
        deg[0] = deg[-1] = 2.0
        return deg
    if kind == "dumbbell":
        left = n // 2 + n % 2
        deg = np.array([float(left)] * left + [float(n - left)] * (n - left))
        deg[left - 1] += 1
        deg[left] += 1
        return deg
    raise ValueError(kind)


def diameter(kind: str, n: int) -> int:
    return {"cycle": n // 2, "path": n - 1, "dumbbell": 3}[kind]


def influence_ceiling(n: int, d: int, eps: float, bound: float = R) -> float:
    """min(ceil(kappa(eps)), kappa(R/2)), kappa(e) = log(e/(n^2 R)) / log(1 - 1/(n^2 d))."""
    shrink = math.log(1.0 - 1.0 / (n * n * d))

    def kappa(e):
        return math.log(e / (n * n * bound)) / shrink

    return min(math.ceil(kappa(eps)), kappa(bound / 2.0))


def second_abs_eigenvalue(adj: np.ndarray) -> float:
    a = adj / adj.sum(axis=1)[:, None]
    mags = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    return float(mags[1])


def path_adjacency(n: int) -> np.ndarray:
    adj = np.eye(n)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return adj


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# -- checks ----------------------------------------------------------------------


def check_consensus_rows(rows, kind: str, n: int, seeds) -> list:
    """Rows that start inside one confidence window on a connected graph lock
    at step 0 with the influence graph equal to the physical graph, and their
    k_eps stays at or under the constant-influence ceiling."""
    d = diameter(kind, n)
    out = [("sweep.row_count", len(rows) == len(seeds), f"{len(rows)} rows")]
    for row in rows:
        tag = f"seed {row['seed']}"
        out.append(("consensus.locked_at_start", row["lock_k"] == "0", f"{tag} lock_k={row['lock_k']!r}"))
        changes = int(row["n_breaks"]) + int(row["n_forms"]) + int(row["n_merges"])
        out.append(("consensus.one_component", changes == 0, f"{tag} {changes} link events"))
        for eps in EPS:
            k = _opt_int(row.get(f"k_eps_{eps!r}", ""))
            cap = influence_ceiling(n, d, eps)
            ok = k is not None and k <= cap
            out.append(("consensus.k_eps_ceiling", ok, f"{tag} eps={eps} k={k} cap={cap}"))
    return out


def check_consensus_simulate(out: CliResult, kind: str, n: int, x0: np.ndarray) -> list:
    """One component locked at step 0; its steady value is the
    degree-weighted mean of x0."""
    s = out.json()
    deg = degrees(kind, n)
    want = float(np.dot(deg, x0) / deg.sum())
    values = s.get("steady_values", [])
    one = s["lock_k"] == 0 and len(values) == 1
    checks = [
        ("consensus.one_component", one, f"lock_k={s['lock_k']} values={values}"),
        ("consensus.steady_value", one and _close(values[0], want, 1e-9), f"{values} vs {want}"),
    ]
    d = diameter(kind, n)
    for eps in EPS:
        k = s.get("k_eps", {}).get(repr(eps))
        cap = influence_ceiling(n, d, eps)
        checks.append(("consensus.k_eps_ceiling", k is not None and k <= cap, f"eps={eps} k={k} cap={cap}"))
    return checks


def check_four_path_rows(rows, deltas) -> list:
    """The four-path family merges at ceil(log2(R / delta))."""
    out = [("sweep.row_count", len(rows) == len(deltas), f"{len(rows)} rows")]
    for row, delta in zip(rows, deltas):
        want = math.ceil(math.log2(R / delta))
        got = _opt_int(row["first_merge"])
        pred = _opt_int(row["predicted_merge"])
        detail = f"delta={delta} merge={got} predicted={pred} want={want}"
        out.append(("fourpath.merge_time", got == want == pred, detail))
    return out


def check_fragment_rows(rows, n: int, seeds, max_steps: int) -> list:
    """Link breaks stay within the 2 n^5 budget; every row stops at its step
    budget or at a bitwise termination."""
    budget = 2 * n**5
    out = [("sweep.row_count", len(rows) == len(seeds), f"{len(rows)} rows")]
    for row in rows:
        tag = f"seed {row['seed']}"
        breaks = int(row["n_breaks"])
        ok = breaks <= budget and float(row["bound_break_budget"]) == budget
        out.append(("fragment.break_budget", ok, f"{tag} {breaks} breaks"))
        steps, term = int(row["steps"]), _opt_int(row["termination_k"])
        ok = steps == max_steps or term == steps
        out.append(("fragment.stop_reason", ok, f"{tag} steps={steps} termination_k={term}"))
    return out


def check_fragment_simulate(out: CliResult, n: int, x0: np.ndarray) -> list:
    """Energy never rises, opinions stay inside the initial hull, and link
    breaks stay within the 2 n^5 budget."""
    traj = list(csv.reader(io.StringIO(out.read("trajectory.csv"))))[1:]
    states = np.array([[float(v) for v in row[1:]] for row in traj])
    energy = [float(row[1]) for row in list(csv.reader(io.StringIO(out.read("energy.csv"))))[1:]]
    events = [json.loads(line) for line in out.read("events.jsonl").splitlines() if line]
    lo, hi = float(x0.min()), float(x0.max())
    slack = HULL_RTOL * max(1.0, abs(lo), abs(hi))
    inside = bool(states.min() >= lo - slack and states.max() <= hi + slack)
    tol = ENERGY_RTOL * max(1.0, energy[0])
    rises = [k for k in range(len(energy) - 1) if energy[k + 1] > energy[k] + tol]
    breaks = sum(1 for e in events if e["kind"] == "link_break")
    return [
        ("fragment.initial_state", np.array_equal(states[0], x0), "trajectory row 0 vs x0"),
        ("fragment.energy_nonincreasing", not rises and len(energy) == len(states), f"rises at {rises[:5]}"),
        ("fragment.inside_hull", inside, f"[{states.min()}, {states.max()}] vs [{lo}, {hi}]"),
        ("fragment.break_budget", breaks <= 2 * n**5, f"{breaks} breaks"),
    ]


# -- workloads -----------------------------------------------------------------


def _seeds(rng, k: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31, size=k)]


def _sweep_consensus(rng, workdir: str) -> list[Unit]:
    units = []
    narrow = {"mode": "narrow_spread", "center": 0.0, "width": 0.6}
    # uniform box of width R: spread below R, so one component from step 0
    box = {"mode": "uniform_box", "lo": 0.0, "hi": R}
    # One row per sweep keeps each unit short, so the calibrations that
    # bracket it see the host speed it ran at.
    plan = (("cycle", 48, narrow, 1, 2), ("path", 40, narrow, 1, 2), ("dumbbell", 16, box, 2, 1))
    for kind, n, sampler, rows, k in plan:
        for j in range(k):
            seeds = _seeds(rng, rows)
            cfg = {"graph": f"{kind}:{n}", "R": R, "seeds": seeds, "sampler": sampler, "eps": EPS}

            def check(rows, kind=kind, n=n, seeds=seeds):
                return check_consensus_rows(rows, kind, n, seeds)

            units.append(_sweep_unit(f"sweep.{kind}{n}.{j}", workdir, cfg, check))

    exps = rng.integers(2, 21, size=6) + rng.uniform(0.1, 0.9, size=6)
    deltas = [float(2.0**-e) for e in exps]
    cfg = {"graph": "path:4", "R": R, "deltas": deltas, "eps": EPS}
    units.append(_sweep_unit("sweep.fourpath", workdir, cfg, lambda rows: check_four_path_rows(rows, deltas)))

    for kind, n, sampler in (("cycle", 48, narrow), ("dumbbell", 16, box)):
        (seed,) = _seeds(rng, 1)
        if sampler is narrow:
            x0 = philox_uniform(seed, -0.3, 0.3, n)
            spec = "narrow-spread:center=0,width=0.6"
        else:
            x0 = philox_uniform(seed, 0.0, R, n)
            spec = f"uniform-box:lo=0,hi={R}"
        argv = ["--seed", str(seed), "simulate", "--graph", f"{kind}:{n}", "--x0", spec, "--R", str(R),
                "--max-steps", "1000", "--eps", *map(repr, EPS)]

        def check(out, kind=kind, n=n, x0=x0):
            return check_consensus_simulate(out, kind, n, x0)

        units.append(_cli_unit(f"simulate.{kind}{n}", workdir, argv, check))
    return units


def _sweep_fragment(rng, workdir: str) -> list[Unit]:
    units = []
    for n, hi, rows, k, max_steps in ((64, 3.0, 1, 4, 400), (64, 5.0, 4, 1, 50), (512, 3.0, 1, 1, 60)):
        for j in range(k):
            seeds = _seeds(rng, rows)
            cfg = {"graph": f"cycle:{n}", "R": R, "seeds": seeds, "max_steps": max_steps, "eps": EPS,
                   "sampler": {"mode": "uniform_box", "lo": 0.0, "hi": hi}}

            def check(rows, n=n, seeds=seeds, m=max_steps):
                return check_fragment_rows(rows, n, seeds, m)

            units.append(_sweep_unit(f"sweep.cycle{n}.box{hi:g}.{j}", workdir, cfg, check))
    for n, hi, max_steps in ((64, 5.0, 50), (512, 3.0, 60)):
        (seed,) = _seeds(rng, 1)
        x0 = philox_uniform(seed, 0.0, hi, n)
        argv = ["--seed", str(seed), "simulate", "--graph", f"cycle:{n}",
                "--x0", f"uniform-box:lo=0,hi={hi:g}", "--R", str(R), "--max-steps", str(max_steps)]

        def check(out, n=n, x0=x0):
            return check_fragment_simulate(out, n, x0)

        units.append(_cli_unit(f"simulate.cycle{n}.box{hi:g}", workdir, argv, check))
    return units


def strained_state(rng, g) -> np.ndarray:
    """A hub one confidence width above a base cluster, with one hub neighbor
    pulled to the far side, so the hub's link to it is under strain."""
    hub = max(range(g.n), key=g.degree)
    far = [v for v in g.neighbors(hub) if v != hub][int(rng.integers(0, g.degree(hub) - 1))]
    x = rng.uniform(0.0, 0.05, g.n)
    x[hub] = 1.0
    x[far] = 2.0 - rng.uniform(0.0, 0.08)
    for v in range(g.n):
        if v not in (hub, far) and g.has_edge(v, far):
            x[v] = 2.8 + rng.uniform(0.0, 0.2)
    return x


def _certify(rng, workdir: str) -> list[Unit]:
    units = []

    # On a star of n >= 8 the strained state must break the hub's link to
    # the far leaf at step 1 (hub mean <= 0.42, far leaf mean >= 1.46), so
    # the batch exercises the break clauses whatever the seed.
    batch = []
    for i in range(8):
        for make, n in ((graphs.star_graph, 8 + i % 5), (graphs.path_graph, 4 + i % 5),
                        (graphs.dumbbell_graph, 4 + i % 5)):
            g = make(n)
            batch.append((g, OpinionState(strained_state(rng, g), R)))

    def run_batch():
        reports = [dynamics.verify_energy_certificates(dynamics.simulate(g, st, 50)) for g, st in batch]
        return [(r.ok, r.n_steps, r.n_breaks, len(r.violations)) for r in reports]

    def check_batch(out):
        bad = [i for i, r in enumerate(out) if not r[0]]
        breaks = sum(r[2] for r in out)
        return [("certify.energy_report_ok", not bad, f"failed states {bad}"),
                ("certify.breaks_exercised", breaks > 0, f"{breaks} breaks")]

    units.append(Unit("energy.strained_batch", run_batch, check_batch))

    long_g = graphs.path_graph(24)
    long_x0 = OpinionState(rng.uniform(-0.25, 0.25, 24), R)

    def run_long():
        r = dynamics.verify_energy_certificates(dynamics.simulate(long_g, long_x0, 1000))
        return (r.ok, r.n_steps, r.n_breaks, len(r.violations))

    def check_long(out):
        return [("certify.energy_report_ok", out[0] and out[1] == 1000, f"ok={out[0]} steps={out[1]}")]

    units.append(Unit("energy.path24_1000", run_long, check_long))

    for n in (3, 4):
        g = graphs.path_graph(n)
        x0 = [float(v) for v in rng.uniform(-0.25, 0.25, n)]
        lam2 = second_abs_eigenvalue(path_adjacency(n))

        def run_exact(g=g, x0=x0):
            traj = dynamics.simulate_exact(g, x0, R, 10_000)
            ss = dynamics.steady_state(traj)
            ratio = dynamics.tail_decay_ratio(traj, ss)
            return (traj.termination_k, traj.n_steps, ratio, [str(v) for v in ss.exact_values])

        def check_exact(out, lam2=lam2):
            never = out[0] is None and out[1] == 10_000
            return [("exact.never_terminates", never, f"termination_k={out[0]} steps={out[1]}"),
                    ("exact.tail_ratio", _close(out[2], lam2, 1e-3), f"{out[2]} vs lambda2 {lam2}")]

        units.append(Unit(f"exact.path{n}", run_exact, check_exact))

    def check_bounds(out):
        s = out.json()
        phi = 1.0 / 23.0  # path:16 with loops: one cut edge over d(S) = 2 + 3 * 7
        halves = (list(range(1, 9)), list(range(9, 17)))  # the middle cut, either side
        ceiling = influence_ceiling(16, 15, 1e-2)
        upper = [b["value"] for b in s["bounds"] if b["kind"] == "ConditionalUpper"]
        return [("bounds.conductance_known", _close(s["phi"], phi, 1e-12) and s["phi_witness"] in halves,
                 f"phi={s['phi']} witness={s['phi_witness']}"),
                ("bounds.diameter_known", s["diameter"] == 15, f"diameter={s['diameter']}"),
                ("bounds.ceiling_formula", len(upper) == 1 and _close(upper[0], ceiling, 1e-9 * ceiling),
                 f"{upper} vs {ceiling}")]

    argv = ["bounds", "--graph", "path:16", "--eps", "0.01", "--R", str(R)]
    units.append(_cli_unit("bounds.path16", workdir, argv, check_bounds))

    def check_path4(out):
        suf, nec = out.json()["sufficient"], out.json()["necessary"]
        ok = (suf["kind"] == slowmerge.SUFFICIENT_HOLDS and _close(suf["eigenvalue"], 0.5, 1e-9)
              and nec["kind"] == slowmerge.NECESSARY_HOLDS)
        return [("slowmerge.path4_split_holds", ok, f"{suf['kind']} {suf['eigenvalue']} / {nec['kind']}")]

    argv = ["check-merge", "--graph", "path:4", "--vp", "1,2,3", "--vq", "4"]
    units.append(_cli_unit("checkmerge.path4", workdir, argv, check_path4))

    def check_dumbbell(out):
        # complete halves: no eigenvalue of the vp side lies strictly inside (0, 1)
        suf, nec = out.json()["sufficient"], out.json()["necessary"]
        ok = suf["kind"] == slowmerge.SUFFICIENT_FAILS and nec["kind"] == slowmerge.NECESSARY_FAILS
        return [("slowmerge.clique_halves_fail", ok, f"{suf['kind']} / {nec['kind']}")]

    argv = ["check-merge", "--graph", "dumbbell:8", "--vp", "1,2,3,4", "--vq", "5,6,7,8"]
    units.append(_cli_unit("checkmerge.dumbbell8", workdir, argv, check_dumbbell))

    e = float(rng.integers(1, 13) + rng.uniform(0.1, 0.9))
    delta = 0.5 * 2.0**-e

    def check_construct(out):
        predicted = out.json()["predicted_merge_time"]
        x = json.loads(out.read("x0.json"))["opinions"]
        ok_state = _close(-float(x[2]), 0.5, 1e-12) and _close(float(x[3]), R - delta, 1e-12)
        want = math.ceil(e)
        return [("slowmerge.construct_merge_time", predicted == want, f"{predicted} vs {want}"),
                ("slowmerge.construct_state", ok_state, f"{x}")]

    argv = ["construct", "--graph", "path:4", "--vp", "1,2,3", "--vq", "4",
            "--delta", repr(delta), "--R", str(R)]
    units.append(_cli_unit("construct.path4", workdir, argv, check_construct))

    specs = [(1, 2), (2, 2), (1, 1, 2), (2, 3)]

    def run_scans():
        reps = [slowmerge.rpartite_no_slow_merge(graphs.PartiteSpec(s)) for s in specs]
        return [(r.all_fail, r.checked, r.skipped_no_boundary) for r in reps]

    def check_scans(out):
        return [("slowmerge.rpartite_all_fail", all(r[0] and r[1] > 0 for r in out), f"{out}")]

    units.append(Unit("slowmerge.rpartite_scans", run_scans, check_scans))
    return units


_BUILDERS = {"sweep-consensus": _sweep_consensus, "sweep-fragment": _sweep_fragment, "certify": _certify}


def build(workload: str, seed: int, workdir: str) -> list[Unit]:
    """The workload's units, with every input drawn from ``seed``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _BUILDERS[workload](rng, workdir)
