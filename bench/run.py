"""socialhk benchmark: cold-start rounds with drift-calibrated unit times.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-consensus --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --steadiness 10

Each round runs in a fresh child interpreter (``bench/child.py``), so it
pays the cold costs a CLI user pays.  Rounds repeat until ``--seconds`` have
passed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record of the run goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import measure

WORKLOADS = ("sweep-consensus", "sweep-fragment", "certify")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
PINNED_THREADS = "1"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One malloc arena: with per-thread arenas the sweep worker threads made the
# peak RSS of identical rounds land on 46, 48 or 50 MB at random.
MALLOC_ENV = {"MALLOC_ARENA_MAX": "1"}

LAYERS = [
    "bounds.all",
    "cli.main",
    "dynamics.eps_convergence_time",
    "dynamics.simulate",
    "dynamics.simulate_exact",
    "dynamics.steady_state",
    "dynamics.tail_decay_ratio",
    "dynamics.verify_energy_certificates",
    "graphs.conductance",
    "graphs.diameter",
    "graphs.effective_diameter",
    "linprog.max_min_margin",
    "linprog.nonneg_nonzero_vector",
    "sampling.sample_initial_state",
    "slowmerge.construct_slow_state",
    "slowmerge.necessary_check",
    "slowmerge.sufficient_check",
    "spectral.decompose",
]
COUNTS = [
    "dynamics.simulate.steps",
    "dynamics.simulate.link_events",
    "dynamics.simulate.rows_locked",
    "dynamics.simulate.rows_terminated",
    "dynamics.simulate.rows_budget",
    "dynamics.simulate_exact.steps",
    "dynamics.verify_energy_certificates.steps",
    "dynamics.verify_energy_certificates.breaks",
    "spectral.decompose.n_sum",
    "graphs.conductance.subsets",
]

# Trace sanity: every wrapped function records at least one call on the
# workload predicted to use it.  A wrapper put on the wrong namespace shows
# up here as a missing call.
EXPECTED_CALLS = {
    "sweep-consensus": [
        "cli.main", "sampling.sample_initial_state", "dynamics.simulate", "dynamics.steady_state",
        "dynamics.eps_convergence_time", "spectral.decompose", "graphs.conductance", "graphs.diameter",
        "bounds.all",
    ],
    "sweep-fragment": [
        "cli.main", "sampling.sample_initial_state", "dynamics.simulate", "graphs.diameter", "bounds.all",
    ],
    "certify": [
        "cli.main", "dynamics.simulate", "dynamics.simulate_exact", "dynamics.steady_state",
        "dynamics.tail_decay_ratio", "dynamics.verify_energy_certificates", "spectral.decompose",
        "graphs.conductance", "graphs.diameter", "graphs.effective_diameter", "slowmerge.sufficient_check",
        "slowmerge.necessary_check", "slowmerge.construct_slow_state", "linprog.max_min_margin",
        "linprog.nonneg_nonzero_vector", "bounds.all",
    ],
}

# Layer split predicted for this workload set, as shares of traced wall time.
# Reported with every traced run, never gated: a later change may move them.
PREDICTIONS = {
    "sweep-consensus": [("spectral.decompose", ">=", 0.50)],
    "sweep-fragment": [("dynamics.simulate", ">=", 0.60), ("spectral.decompose", "<", 0.05)],
    "certify": [
        ("dynamics.verify_energy_certificates", ">=", 0.10),
        ("dynamics.simulate_exact", ">=", 0.10),
        ("graphs.conductance", ">=", 0.10),
    ],
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    for name in COUNTS:
        units[name] = "count_computed" if name == "graphs.conductance.subsets" else "count"
    units["spectral.decompose.repeat_ratio"] = "ratio"
    units["calib.speed"] = "ratio"
    units["calib.raw_wall_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


def round_cpu() -> int:
    """The CPU every round is pinned to.

    The calibration kernel must run on the CPU the units run on, sweep
    worker threads included; on a shared host the CPUs drift in speed
    independently of each other.
    """
    return max(os.sched_getaffinity(0))


def run_child(root: str, workload: str, seed: int, traced: bool, workdir: str,
              setup_only: bool = False) -> dict:
    """Run one round in a fresh interpreter and return its report."""
    report = os.path.join(workdir, "report.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    env.update({name: PINNED_THREADS for name in THREAD_ENV}, **MALLOC_ENV)
    cpu = round_cpu()
    argv = [sys.executable, os.path.join("bench", "child.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced)), "--workdir", workdir, "--report", report]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundError(f"round timed out after {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RoundError(f"round exited with code {code}")
    if setup_only:
        return {}
    with open(report) as fh:
        out = json.load(fh)
    shutil.rmtree(workdir, ignore_errors=True)
    out["wall_raw_s"] = sum(u["raw_s"] for u in out["units"])
    out["wall_s"] = sum(u["raw_s"] * u["factor"] for u in out["units"])
    return out


def collect_rounds(root: str, workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Run rounds until ``seconds`` have passed and enough rounds exist.

    With ``trace`` the rounds alternate traced and untraced, so the tracing
    overhead is measured on the same host state.
    """
    base = os.path.join(root, "bench", ".work", str(os.getpid()))
    try:
        run_child(root, workload, seed, False, os.path.join(base, "warmup"), setup_only=True)
        rounds = []
        deadline = time.monotonic() + seconds
        while True:
            traced = trace and len(rounds) % 2 == 0
            rounds.append(run_child(root, workload, seed, traced, os.path.join(base, f"r{len(rounds)}")))
            kinds = [r["traced"] for r in rounds]
            if trace:
                enough = min(kinds.count(True), kinds.count(False)) >= 2
            else:
                enough = kinds.count(False) >= MIN_ROUNDS
            if enough and time.monotonic() >= deadline:
                return rounds
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _check_counts(rounds) -> dict:
    counts = {}
    for r in rounds:
        for u in r["units"]:
            for name, ok, _ in u["checks"]:
                passed, total = counts.get(name, (0, 0))
                counts[name] = (passed + ok, total + 1)
    return counts


def _failure(unit: dict) -> str:
    failed = "; ".join(f"{name} ({detail})" for name, ok, detail in unit["checks"] if not ok)
    return f"{unit['name']}: {unit['error'] or failed}"


def summarize(workload: str, seed: int, seconds: float, trace: bool, rounds: list) -> dict:
    """Fold the rounds of one run into its metrics, checks and context."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    units = [u for r in rounds for u in r["units"]]
    failed_units = [_failure(u) for u in units if not u["ok"]]
    problems = list(failed_units)
    if len({r["fingerprint"] for r in rounds}) != 1:
        problems.append("outputs differ between rounds" + (" (traced vs untraced)" if trace else ""))

    calib_all = [c for r in plain for c in r["calib"]]
    e2e = {
        "wall_s": measure.median(r["wall_s"] for r in plain),
        "setup_s": measure.median(r["setup_s"] for r in plain),
        "peak_rss_mb": measure.median(r["peak_rss_mb"] for r in plain),
    }
    result = {
        "workload": workload,
        "context": {
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            **rounds[0]["context"],
            "pinned_threads": PINNED_THREADS,
            "round_cpu": round_cpu(),
            "malloc_env": MALLOC_ENV,
            "nominal_calib_s": measure.NOMINAL_CALIB_S,
            "measured_calib_s": measure.median(calib_all),
            "rounds": len(plain),
            "traced_rounds": len(traced),
            "load_model": "closed loop, one caller, one child interpreter at a time",
        },
        "attempted": len(units),
        "failed": len(failed_units),
        "fail_frac": len(failed_units) / len(units),
        "e2e": e2e,
        "raw": {
            "wall_raw_s": measure.median(r["wall_raw_s"] for r in plain),
            "setup_raw_s": measure.median(r["setup_raw_s"] for r in plain),
            "round_spread_wall_s": measure.spread([r["wall_s"] for r in plain]),
            "round_spread_wall_raw_s": measure.spread([r["wall_raw_s"] for r in plain]),
        },
        "checks": {name: {"passed": p, "total": t} for name, (p, t) in sorted(_check_counts(rounds).items())},
        "problems": problems,
        "rounds": [{k: r[k] for k in ("traced", "wall_s", "wall_raw_s", "setup_s", "setup_raw_s",
                                      "peak_rss_mb")} for r in rounds],
    }
    if trace:
        result["per_layer"], sanity, result["predictions"] = trace_metrics(workload, plain, traced)
        result["problems"] += sanity
    result["correct"] = not result["problems"]
    return result


def trace_metrics(workload: str, plain: list, traced: list):
    """Per-layer metrics from the traced rounds, with trace-sanity problems
    and the predicted layer split."""
    metrics = {}
    walls = [r["wall_s"] for r in traced]
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = measure.median(r["trace"]["calls"].get(layer, 0) for r in traced)
        metrics[f"{layer}.self_s"] = measure.median(r["trace"]["self_s"].get(layer, 0.0) for r in traced)
        shares = (r["trace"]["self_s"].get(layer, 0.0) / w for r, w in zip(traced, walls))
        metrics[f"{layer}.share"] = measure.median(shares)
    for name in COUNTS:
        metrics[name] = measure.median(r["trace"]["counts"].get(name, 0) for r in traced)
    distinct = measure.median(r["trace"]["counts"].get("spectral.decompose.distinct", 0) for r in traced)
    calls = metrics["spectral.decompose.calls"]
    metrics["spectral.decompose.repeat_ratio"] = calls / distinct if distinct else 0.0
    metrics["calib.speed"] = measure.NOMINAL_CALIB_S / measure.median(c for r in plain for c in r["calib"])
    metrics["calib.raw_wall_s"] = measure.median(r["wall_raw_s"] for r in plain)
    metrics["trace.overhead_frac"] = measure.median(walls) / measure.median(r["wall_s"] for r in plain) - 1.0

    problems = []
    for r in traced:
        problems += [f"trace: {name} is missing from the program" for name in r["trace"]["missing"] or []]
    for layer in EXPECTED_CALLS[workload]:
        if min(r["trace"]["calls"].get(layer, 0) for r in traced) < 1:
            problems.append(f"trace: {layer} recorded no call on {workload}")
    predictions = []
    for layer, op, limit in PREDICTIONS[workload]:
        share = metrics[f"{layer}.share"]
        predictions.append({"layer": layer, "share": share, "predicted": f"{op} {limit}",
                            "holds": share >= limit if op == ">=" else share < limit})
    return metrics, sorted(set(problems)), predictions


def _write_result(root: str, name: str, payload: dict) -> str:
    out_dir = os.path.join(root, "bench", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return path


def run_once(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = collect_rounds(root, workload, seed, seconds, trace)
    result = summarize(workload, seed, seconds, trace, rounds)
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        spans = [r["trace"].pop("spans") for r in rounds if r["traced"]]
        fields = list(measure.Span._fields)
        payload = {"fields": fields, "spans": spans[0]}
        result["spans_file"] = _write_result(root, f"{name}-spans.json", payload)
    result["file"] = _write_result(root, f"{name}.json", result)
    return result


def _report(result: dict, trace: bool) -> dict:
    if trace:
        units = per_layer_units()
        metrics = {k: {"value": result["per_layer"][k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["e2e"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def _describe(result: dict) -> None:
    ctx = result["context"]
    err = sys.stderr
    print(f"{result['workload']}: {ctx['rounds']} rounds (+{ctx['traced_rounds']} traced), "
          f"seed {ctx['seed']}, calibration {ctx['measured_calib_s'] * 1e3:.2f} ms "
          f"(nominal {ctx['nominal_calib_s'] * 1e3:.2f} ms)", file=err)
    raw = result["raw"]
    print(f"  wall_s {result['e2e']['wall_s']:.4f} calibrated, {raw['wall_raw_s']:.4f} raw; round spread "
          f"{raw['round_spread_wall_s']:.2%} calibrated vs {raw['round_spread_wall_raw_s']:.2%} raw",
          file=err)
    print(f"  setup_s {result['e2e']['setup_s']:.4f} calibrated, {raw['setup_raw_s']:.4f} raw; "
          f"peak_rss_mb {result['e2e']['peak_rss_mb']:.1f}; fail_frac {result['fail_frac']:.3g} "
          f"({result['failed']}/{result['attempted']} units)", file=err)
    for p in result.get("predictions", []):
        print(f"  share {p['layer']} = {p['share']:.3f} (predicted {p['predicted']}: "
              f"{'holds' if p['holds'] else 'does not hold'})", file=err)
    if "per_layer" in result:
        print(f"  trace overhead {result['per_layer']['trace.overhead_frac']:.2%}", file=err)
    for p in result["problems"]:
        print(f"  PROBLEM {p}", file=err)
    print(f"  record: {result['file']}", file=err)


def steadiness(root: str, workloads: list, seed: int, seconds: float, n: int) -> int:
    """Run each workload ``n`` times on seeds seed..seed+n-1 and print, per
    end-to-end metric, its median, quartiles and spread, and the spread of
    raw against calibrated wall time."""
    ok = True
    for workload in workloads:
        runs = []
        for i in range(n):
            res = run_once(root, workload, seed + i, seconds, False)
            _describe(res)
            ok &= res["correct"]
            runs.append(res)
        table = {}
        series = {k: [r["e2e"][k] for r in runs] for k in E2E_UNITS}
        series["wall_raw_s"] = [r["raw"]["wall_raw_s"] for r in runs]
        series["setup_raw_s"] = [r["raw"]["setup_raw_s"] for r in runs]
        print(f"\n{workload}: {n} runs, seeds {seed}..{seed + n - 1}, {seconds:g} s each")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
        for name, values in series.items():
            q1, q2, q3 = measure.quartiles(values)
            table[name] = {"values": values, "median": q2, "q1": q1, "q3": q3,
                           "spread": measure.spread(values)}
            print(f"  {name:<14}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}{table[name]['spread']:>9.2%}")
        print(f"  max/min wall: calibrated {max(series['wall_s']) / min(series['wall_s']):.3f}, "
              f"raw {max(series['wall_raw_s']) / min(series['wall_raw_s']):.3f}")
        _write_result(root, f"steadiness-{workload}.json", {"workload": workload, "seed": seed, "runs": n,
                                                            "seconds": seconds, "context": runs[0]["context"],
                                                            "metrics": table})
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="run each workload N times on consecutive seeds and report the spread")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "socialhk", "__init__.py")):
        print("bench: src/socialhk not found; run from the root of a socialhk checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    try:
        if args.steadiness:
            chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
            return steadiness(root, chosen, args.seed, args.seconds, args.steadiness)
        if args.workload == "all":
            print("bench: --workload all needs --steadiness", file=sys.stderr)
            return 2
        result = run_once(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _describe(result)
    print(json.dumps(_report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
