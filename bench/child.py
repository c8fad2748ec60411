"""One benchmark round, run in a fresh interpreter by ``bench/run.py``.

The round imports socialhk from the checkout's ``src``, builds the
workload's inputs, then runs its units one after another.  Every unit is
bracketed by the calibration kernel.  After the last unit the outputs are
checked and a JSON report is written for the parent.  With ``--trace 1``
the round first replaces module attributes with span-recording wrappers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import socialhk
from socialhk import bounds, cli, dynamics, graphs, sampling, slowmerge, spectral

import measure
import workloads


def _count_simulate(tracer, args, kwargs, traj):
    max_steps = args[2] if len(args) > 2 else kwargs["max_steps"]
    terminated = traj.termination_k is not None
    tracer.add("dynamics.simulate.steps", traj.n_steps)
    links = sum(e.kind in ("link_break", "link_form") for e in traj.events)
    tracer.add("dynamics.simulate.link_events", links)
    tracer.add("dynamics.simulate.rows_locked", traj.locked)
    tracer.add("dynamics.simulate.rows_terminated", terminated)
    tracer.add("dynamics.simulate.rows_budget", not terminated and traj.n_steps >= max_steps)


def _count_exact(tracer, args, kwargs, traj):
    tracer.add("dynamics.simulate_exact.steps", traj.n_steps)


def _count_energy(tracer, args, kwargs, report):
    tracer.add("dynamics.verify_energy_certificates.steps", report.n_steps)
    tracer.add("dynamics.verify_energy_certificates.breaks", report.n_breaks)


def _count_decompose(tracer, args, kwargs, dec):
    g = args[0] if args else kwargs["g"]
    tracer.add("spectral.decompose.n_sum", g.n)
    tracer.distinct["spectral.decompose"].add(g)


def _count_conductance(tracer, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    tracer.add("graphs.conductance.subsets", 2 ** (g.n - 1))


# (module, attribute, span name, count hook).  Names bound into another
# module by ``from x import y`` are wrapped where the caller looks them up.
WRAPS = [
    (cli, "main", "cli.main", None),
    (sampling, "sample_initial_state", "sampling.sample_initial_state", None),
    (dynamics, "simulate", "dynamics.simulate", _count_simulate),
    (dynamics, "simulate_exact", "dynamics.simulate_exact", _count_exact),
    (dynamics, "steady_state", "dynamics.steady_state", None),
    (dynamics, "eps_convergence_time", "dynamics.eps_convergence_time", None),
    (dynamics, "tail_decay_ratio", "dynamics.tail_decay_ratio", None),
    (dynamics, "verify_energy_certificates", "dynamics.verify_energy_certificates", _count_energy),
    (spectral, "decompose", "spectral.decompose", _count_decompose),
    (graphs, "conductance", "graphs.conductance", _count_conductance),
    (graphs, "diameter", "graphs.diameter", None),
    (dynamics, "effective_diameter", "graphs.effective_diameter", None),
    (slowmerge, "sufficient_check", "slowmerge.sufficient_check", None),
    (slowmerge, "necessary_check", "slowmerge.necessary_check", None),
    (slowmerge, "construct_slow_state", "slowmerge.construct_slow_state", None),
    (slowmerge, "max_min_margin", "linprog.max_min_margin", None),
    (slowmerge, "nonneg_nonzero_vector", "linprog.nonneg_nonzero_vector", None),
] + [
    (bounds, name, "bounds.all", None)
    for name, fn in sorted(vars(bounds).items())
    if callable(fn) and getattr(fn, "__module__", None) == bounds.__name__ and not isinstance(fn, type)
]

LAYERS = sorted({name for _, _, name, _ in WRAPS})


def install(tracer: measure.Tracer) -> list:
    """Replace each wrapped attribute; returns the names that were missing."""
    missing = []
    for module, attr, name, count in WRAPS:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(name, fn, count))
    return missing


def _context() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": sorted(os.sched_getaffinity(0)),
        "socialhk": socialhk.__file__,
    }


def run_units(units, tracer=None) -> dict:
    """Time each unit between calibrations, then check every output."""
    calib = [measure.calibrate()]
    results = []
    for i, unit in enumerate(units):
        if tracer is not None:
            tracer.unit = i
        error = None
        t0 = time.perf_counter()
        try:
            out = unit.run()
        except Exception:
            out, error = None, traceback.format_exc()
        raw = time.perf_counter() - t0
        if tracer is not None:
            tracer.unit = None
        calib.append(measure.calibrate())
        results.append((unit, out, raw, error))

    factors = measure.unit_factors(calib)
    reports = []
    fingerprint = hashlib.sha256()
    for (unit, out, raw, error), factor in zip(results, factors):
        if error is None:
            try:
                checks = [(name, bool(ok), str(detail)) for name, ok, detail in unit.check(out)]
                fingerprint.update(workloads.digest(out).encode())
            except Exception:
                checks, error = [], traceback.format_exc()
        else:
            checks = []
        ok = error is None and bool(checks) and all(c[1] for c in checks)
        reports.append({"name": unit.name, "raw_s": raw, "factor": factor, "ok": ok, "error": error,
                        "checks": checks})
    return {"calib": calib, "units": reports, "fingerprint": fingerprint.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="the parent's time.monotonic() just before the spawn")
    p.add_argument("--workdir", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(socialhk.__file__).startswith(src + os.sep):
        print(f"socialhk imported from {socialhk.__file__}, not from {src}", file=sys.stderr)
        return 2

    os.makedirs(args.workdir, exist_ok=True)
    units = workloads.build(args.workload, args.seed, args.workdir)
    setup_raw = time.monotonic() - args.spawned_at
    if args.setup_only:
        return 0

    tracer = missing = None
    if args.trace:
        tracer = measure.Tracer()
        missing = install(tracer)
    report = run_units(units, tracer)
    report.update(
        setup_raw_s=setup_raw,
        setup_s=setup_raw * measure.NOMINAL_CALIB_S / report["calib"][0],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        traced=bool(args.trace),
        context=_context(),
    )
    if tracer is not None:
        factors = [u["factor"] for u in report["units"]]
        seconds, calls = measure.layer_self_seconds(tracer.spans, factors)
        counts = dict(tracer.counts)
        for name, graphs_seen in tracer.distinct.items():
            counts[name + ".distinct"] = len(graphs_seen)
        report["trace"] = {"self_s": seconds, "calls": calls, "counts": counts, "missing": missing,
                           "spans": [list(sp) for sp in tracer.spans]}
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
