"""Command-line front end: simulate, sweep, spectra, bounds, construct, check-merge.

Vertex indices are 1-based on the command line and in all output files, and
0-based inside the library.  Trajectory and energy tables are CSV (or JSON
with --format json); events and verdicts are JSONL.  All file writes are
atomic (temp file then rename).  Exit codes: 0 ok, 1 usage or malformed
input, 2 numerical/domain failure, 3 step budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import bounds as bounds_mod
from . import dynamics, graphs, sampling, slowmerge, spectral
from .errors import (BudgetExhausted, DeltaOutOfRange, DeltaTooLarge, EmptyVertexSet, EpsTooSmall, GraphFormatError,
                     InvalidSeed, SocialHKError)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts like a negative number (-0.5,0.5 or -1e-3) is a
        # value, not an unknown option; argparse's own rule takes only plain numbers
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _atomic_write(path: str, chunks):
    """Write the strings of ``chunks`` (any iterable) to ``path``, atomically."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_graph(source: str) -> graphs.Graph:
    if ":" in source:
        name, _, arg = source.partition(":")
        if name not in ("rpartite", "path", "cycle", "star", "complete", "dumbbell"):
            raise UsageError(f"unknown graph constructor {name!r}")
        try:
            if name == "rpartite":
                sizes = tuple(int(s) for s in arg.split(","))
                return graphs.complete_r_partite(graphs.PartiteSpec(sizes))
            return graphs.standard_graph(name, int(arg))
        except ValueError as exc:
            raise UsageError(f"bad graph {source!r}: {exc}") from None
    if not os.path.exists(source):
        raise UsageError(f"graph file not found: {source}")
    with open(source) as fh:
        return graphs.graph_from_json(fh.read())


def _parse_kv(arg: str) -> dict:
    out = {}
    for item in arg.split(",") if arg else ():
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"expected key=value, got {item!r}")
        if key in out:
            raise UsageError(f"key {key!r} given twice in {arg!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise UsageError(f"expected a number in {item!r}") from None
    return out


def _sample(n: int, bound: float, mode, seed, params: dict) -> dynamics.OpinionState:
    try:
        return sampling.sample_initial_state(n, bound, mode, seed, **params)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad sampler {mode!r}: {exc}") from None


def _parse_x0(source: str, n: int, bound: float, seed) -> dynamics.OpinionState:
    name, _, arg = source.partition(":")
    if os.path.exists(source):
        try:
            with open(source) as fh:
                payload = json.load(fh)
            opinions = payload["opinions"] if isinstance(payload, dict) else payload
            if bool in map(type, opinions):
                raise ValueError("true and false are not opinions")
            vals = np.array(opinions, dtype=float)
        except KeyError:
            raise UsageError(f"initial-state file {source!r} has no 'opinions' field") from None
        except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            raise UsageError(f"cannot read initial state from {source!r}: {exc}") from None
    elif name == "four-path":
        kv = _parse_kv(arg)
        if set(kv) != {"delta"}:
            raise UsageError(f"four-path takes delta=<value> and no other key, got {arg!r}")
        vals = slowmerge.four_path_family(kv["delta"], bound)[0].opinions
    elif name in ("narrow-spread", "uniform-box"):
        if seed is None:
            raise UsageError(f"sampler {name!r} requires --seed")
        return _sample(n, bound, name.replace("-", "_"), seed, _parse_kv(arg))
    elif ":" not in source:
        try:
            vals = np.array([float(v) for v in source.split(",")])
        except ValueError:
            raise UsageError(f"cannot parse initial state {source!r}") from None
    else:
        raise UsageError(f"unknown initial-state source {source!r}")
    if vals.shape != (n,) or not np.all(np.isfinite(vals)):
        raise UsageError(f"initial state {source!r} must hold {n} finite opinions, one per vertex")
    return dynamics.OpinionState(vals, bound)


def _parse_vertices(text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse vertex list {text!r}") from None


def _split(g, vp, vq) -> slowmerge.SplitSpec:
    """The split of the 1-based vertex lists ``vp`` and ``vq``."""
    for v in (*vp, *vq):
        if not 1 <= v <= g.n:
            raise UsageError(f"bad split: vertex {v} out of range 1..{g.n}")
    try:
        return slowmerge.make_split(g, [v - 1 for v in vp], [v - 1 for v in vq])
    except (ValueError, EmptyVertexSet) as exc:  # sides that overlap or are empty
        raise UsageError(f"bad split: {exc}") from None


def _block_rows(block) -> list:
    """The rows of a 2-D float ``block`` as text: each value its ``repr``,
    the values of a row joined by commas.

    HK states repeat (agents with one closed neighbourhood agree bit for
    bit), so each distinct 64-bit pattern (``-0.0`` and ``0.0`` are two) is
    formatted once, in one ``repr`` of their list, and every cell takes the
    text of its pattern.  A block without a repeat is formatted by one
    ``repr`` of its nested list, which holds no string per cell."""
    bits = block.view(np.int64).ravel()
    # stable, as in graphs.label_groups: numpy's other sorts load code that
    # no run otherwise touches, which shows in the peak RSS
    order = bits.argsort(kind="stable")
    bits = bits[order]
    first = np.empty(bits.size, bool)
    first[0] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if first.all():
        return repr(block.tolist())[2:-2].replace(", ", ",").split("],[")
    texts = np.array(repr(block.ravel()[order[first]].tolist())[1:-1].split(", "), dtype=object)
    ids = np.empty(bits.size, np.intp)
    ids[order] = first.cumsum() - 1
    return [",".join(row) for row in texts[ids].reshape(block.shape).tolist()]


def _float_table(header, rows, fmt: str):
    """The text of a table of float rows, numbered k = 0, 1, ..., in chunks.

    Every value is written as its ``repr``.  The rows go in the blocks of
    ``dynamics._row_blocks`` for the table's width (at most
    ``dynamics._CELLS`` cells, or one row), so the writer's temporaries do
    not grow with the table; ``_block_rows`` formats each block with one
    ``repr`` per distinct value.  The CSV is what ``csv.writer`` writes for
    these cells (none needs quoting, rows end in ``\\r\\n``); the JSON is
    the list of ``{"k": k, name: "repr", ...}`` objects that
    ``json.dumps(..., indent=1)`` writes, filled into one row template, as
    no ``repr`` of a float needs escaping.
    """
    if fmt == "json":
        yield "[\n"
        names = (json.dumps(name).replace("%", "%%") for name in header[1:])
        row = ' {\n  "k": %d' + "".join(f',\n  {name}: "%s"' for name in names) + "\n }"
    else:
        yield ",".join(header) + "\r\n"
    for a, b in dynamics._row_blocks(0, len(rows), len(header) - 1):
        cells = _block_rows(np.array(rows[a:b]))
        if fmt == "json":
            yield ",\n" * (a > 0) + ",\n".join([row % (k, *c.split(",")) for k, c in enumerate(cells, a)])
        else:
            yield "".join([f"{k},{c}\r\n" for k, c in enumerate(cells, a)])
    if fmt == "json":
        yield "\n]\n"


def _write_trajectory(traj: dynamics.Trajectory, out: str, fmt: str) -> dict:
    ext = "json" if fmt == "json" else "csv"
    paths = {"trajectory": os.path.join(out, f"trajectory.{ext}")}
    header = ["k"] + [f"x_{i+1}" for i in range(traj.gph.n)]
    _atomic_write(paths["trajectory"], _float_table(header, traj.states, fmt))

    paths["events"] = os.path.join(out, "events.jsonl")
    _atomic_write(paths["events"], (json.dumps(e.to_payload(one_based=True)) + "\n" for e in traj.events))

    if not traj.is_exact:
        paths["energy"] = os.path.join(out, f"energy.{ext}")
        _atomic_write(paths["energy"], _float_table(["k", "E", "E_act"], traj.energies, fmt))
    return paths


def _summary(traj: dynamics.Trajectory, eps_list) -> dict:
    out = {
        "steps": traj.n_steps,
        "lock_k": traj.lock_k,
        "termination_k": traj.termination_k,
        "merge_times": traj.merge_times(),
        "event_counts": {
            kind: len(traj.events_of(kind))
            for kind in ("link_break", "link_form", "merge", "lock", "termination")
        },
    }
    if traj.locked:
        ss = dynamics.steady_state(traj)
        out["steady_values"] = list(ss.values)
        out["k_eps"] = dict(zip(map(repr, eps_list), dynamics.eps_convergence_time(traj, ss, list(eps_list))))
        out["energy_at_lock"] = traj.energy_at_lock
        verdict = dynamics._locked_termination(traj.gph, traj.epochs[-1].mask, traj.lock_state)
        out["exact_termination_k"] = None if verdict is None else traj.lock_k + verdict
    return out


# -- subcommands ---------------------------------------------------------------


def _cmd_simulate(args) -> int:
    g = _parse_graph(args.graph)
    state = _parse_x0(args.x0, g.n, args.R, args.seed)
    stop = None if args.stop_on == "none" else args.stop_on
    if stop == "eps":
        if not args.eps:
            raise UsageError("--stop-on eps requires --eps")
        stop = ("eps", args.eps[0])
    try:
        traj, partial = dynamics.simulate(g, state, args.max_steps, stop_on=stop), False
    except BudgetExhausted as exc:
        traj, partial = exc.trajectory, True
        print(f"budget exhausted: {exc} (partial results written)", file=sys.stderr)
    summary = _summary(traj, args.eps)  # first: a run whose summary fails leaves no files
    paths = _write_trajectory(traj, args.out, args.format)
    print(json.dumps({**summary, "partial": partial, "files": paths}, indent=1))
    return EXIT_BUDGET if partial else EXIT_OK


def _cmd_spectra(args) -> int:
    g = _parse_graph(args.graph)
    dec = spectral.decompose(g)
    out = {
        "n": g.n,
        "eigenvalues_by_abs": [float(v) for v in dec.eigenvalues],
        "eigenvalues_by_value": [float(v) for v in dec.eigenvalues_by_value()],
        "clusters": [list(c) for c in dec.clusters],
    }
    if g.is_connected() and not g.is_complete():
        rep = spectral.incomplete_spectrum_report(g, dec)
        out["spectrum_checks"] = {name: bool(flag) for name, flag in vars(rep).items()}
    if args.graph.startswith("rpartite:"):
        sizes = tuple(int(s) for s in args.graph.split(":")[1].split(","))
        spec = graphs.PartiteSpec(sizes)
        rep = spectral.verify_rpartite_eigenbasis(spec, spectral.rpartite_eigenbasis(spec))
        out["rpartite_basis_checks"] = {name: bool(flag) for name, flag in vars(rep).items() if name != "failures"}
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g = _parse_graph(args.graph)
    if g.n < 2:
        raise UsageError("bounds needs a graph of at least two vertices (conductance has no cut otherwise)")
    phi, witness = graphs.conductance(g)
    diam = graphs.diameter(g)
    dec = spectral.decompose(g)
    reports = [
        bounds_mod.conductance_lower_bound(phi, args.eps, args.R),
        bounds_mod.constant_influence_upper_bound(g.n, diam, args.eps, args.R),
        bounds_mod.link_break_budget(g.n, args.R),
        bounds_mod.lambda2_diameter_bound(g.n, diam),
    ]
    out = {
        "phi": phi,
        "phi_witness": sorted(v + 1 for v in witness),
        "diameter": diam,
        "lambda2_abs": dec.second_largest_abs(),
        "bounds": [{"kind": r.kind, "value": r.value, "inputs": r.inputs, "degenerate": r.degenerate, **r.extras}
                   for r in reports],
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _verdict_payload(v: slowmerge.MergeVerdict) -> dict:
    return {
        "kind": v.kind,
        "eigenvalue": v.eigenvalue,
        "witness": None if v.witness is None else [float(x) for x in v.witness],
        "records": [{"eigenvalue": r.eigenvalue, "dim": r.dim, "feasible": r.feasible,
                     "margin": None if np.isnan(r.margin) else r.margin} for r in v.records],
    }


def _cmd_check_merge(args) -> int:
    g = _parse_graph(args.graph)
    split = _split(g, _parse_vertices(args.vp), _parse_vertices(args.vq))
    out = {
        "vp": [v + 1 for v in split.vp],
        "vq": [v + 1 for v in split.vq],
        "boundary_edges": [[i + 1, j + 1] for i, j in split.boundary_edges],
        "sufficient": _verdict_payload(slowmerge.sufficient_check(g, split)),
        "necessary": _verdict_payload(slowmerge.necessary_check(g, split)),
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def _cmd_construct(args) -> int:
    g = _parse_graph(args.graph)
    split = _split(g, _parse_vertices(args.vp), _parse_vertices(args.vq))
    verdict = slowmerge.sufficient_check(g, split)
    if verdict.kind != slowmerge.SUFFICIENT_HOLDS:
        print(json.dumps({"error": "sufficient condition fails", "verdict": _verdict_payload(verdict)}))
        return EXIT_NUMERICAL
    state, predicted = slowmerge.construct_slow_state(g, split, verdict, args.delta, args.R)
    path = os.path.join(args.out, "x0.json")
    opinions = state.opinions.tolist()
    _atomic_write(path, [json.dumps({"opinions": list(map(repr, opinions)), "confidence_bound": args.R}) + "\n"])
    print(json.dumps({"eigenvalue": verdict.eigenvalue, "delta": args.delta, "predicted_merge_time": predicted,
                      "state_file": path, "opinions": opinions}, indent=1))
    return EXIT_OK


def _graph_bounds(g, eps, bound) -> dict:
    out = {}
    if g.is_connected() and g.n >= 2:
        if g.n <= graphs.CONDUCTANCE_CAP:
            phi, _ = graphs.conductance(g)
            out["bound_conductance_floor"] = bounds_mod.conductance_lower_bound(phi, eps, bound).value
        out["bound_kappa_cap"] = bounds_mod.constant_influence_upper_bound(g.n, graphs.diameter(g), eps, bound).value
    out["bound_break_budget"] = bounds_mod.link_break_budget(g.n, bound).value
    return out


def _run_to_lock(g, state, max_steps) -> dynamics.Trajectory:
    """A sweep row's float run: it stops at its lock, whose state decides the
    exact termination, or else at a bitwise repeat or the end of its budget."""
    try:
        return dynamics.simulate(g, state, max_steps, stop_on="lock")
    except BudgetExhausted as exc:
        return exc.trajectory


def _flatten_summary(summary: dict) -> dict:
    """A sweep row's columns from the ``_summary`` of its ``_run_to_lock``: a
    locked row's ``steps`` is its lock step and its ``termination_k`` the
    exact one; an unlocked row's is the float run's."""
    out = {
        "steps": summary["steps"],
        "lock_k": summary["lock_k"],
        "termination_k": summary.get("exact_termination_k", summary["termination_k"]),
        "first_merge": summary["merge_times"][0] if summary["merge_times"] else None,
        "n_breaks": summary["event_counts"]["link_break"],
        "n_forms": summary["event_counts"]["link_form"],
        "n_merges": summary["event_counts"]["merge"],
        "energy_at_lock": summary.get("energy_at_lock"),
    }
    for key, val in summary.get("k_eps", {}).items():
        out[f"k_eps_{key}"] = val
    return out


def _cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    if not isinstance(cfg.get("graph"), str):
        raise UsageError("config field 'graph' must be a string such as \"path:4\" or a file name")
    g = _parse_graph(cfg["graph"])
    bound = _config_field(cfg, "R", _positive(float))
    max_steps = _config_field(cfg, "max_steps", _positive(int), 1000)
    eps_list = _config_field(cfg, "eps", _positive(float), [], many=True)
    if "deltas" in cfg:
        key, values = "delta", _config_field(cfg, "deltas", float, many=True)
        if "split" in cfg:
            if not isinstance(cfg["split"], dict):
                raise UsageError("config field 'split' must be an object with lists 'vp' and 'vq'")
            split = _split(g, *(_config_field(cfg["split"], side, int, many=True) for side in ("vp", "vq")))
            verdict = slowmerge.sufficient_check(g, split)

            def start(delta):
                return slowmerge.construct_slow_state(g, split, verdict, delta, bound)
        else:
            def start(delta):
                return slowmerge.four_path_family(delta, bound)
    elif "seeds" in cfg:
        if not isinstance(cfg.get("sampler"), dict):
            raise UsageError("config with 'seeds' needs a 'sampler' section")
        key, values = "seed", _config_field(cfg, "seeds", int, many=True)
        sampler = dict(cfg["sampler"])
        mode = sampler.pop("mode", None)
        sampler = {name: _config_field(sampler, name, float) for name in sampler}  # as --x0 reads them

        def start(seed):
            return _sample(g.n, bound, mode, seed, sampler), None
    else:
        raise UsageError("config needs either 'deltas' or 'seeds'")

    graph_bounds = _graph_bounds(g, min(eps_list or [1e-2]), bound)
    rows = []
    for i, val in enumerate(values):
        row = {"row": i, key: val, "config": json.dumps({**cfg, key: val}, sort_keys=True)}
        try:
            state, predicted = start(val)
            traj = _run_to_lock(g, state, max_steps)
            summary = _flatten_summary(_summary(traj, eps_list))
        except (DeltaOutOfRange, DeltaTooLarge, EpsTooSmall) as exc:  # a refused delta or eps loses its row only
            print(f"numerical failure: row {i}: {exc}", file=sys.stderr)
            rows.append({**row, "error": str(exc)})
            continue
        rows.append({
            **row, "predicted_merge": predicted, **summary,
            "partial": traj.n_steps >= max_steps and not traj.locked and traj.termination_k is None,
            **graph_bounds,
        })

    header = sorted({k for r in rows for k in r}, key=lambda k: (k != "row", k))
    buf = io.StringIO()  # csv.writer quotes the config cells
    csv.writer(buf).writerows([header] + [[r.get(h) for h in header] for r in rows])
    path = os.path.join(args.out, "sweep.csv")
    _atomic_write(path, [buf.getvalue()])
    print(json.dumps({"rows": len(rows), "file": path}, indent=1))
    return EXIT_NUMERICAL if any("error" in r for r in rows) else EXIT_OK


def _config_field(cfg: dict, name: str, parse, default=None, many=False):
    """Field ``name`` of a sweep config, read by ``parse``, the type of the
    matching command-line argument, from its JSON text (so 1.5 is no integer
    and true no number); with ``many``, a list of such values."""
    val = cfg.get(name, default)
    try:
        if many and not isinstance(val, list):
            raise ValueError(f"expected a list, got {json.dumps(val)}")
        return [parse(json.dumps(v)) for v in val] if many else parse(json.dumps(val))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"config field {name!r}: {exc}") from None


def _positive(cast):
    """argparse type: a finite ``cast`` (float or int) above 0."""
    def parse(text: str):
        try:
            val = cast(text)
        except ValueError:
            val = math.nan
        if not (math.isfinite(val) and val > 0):
            raise argparse.ArgumentTypeError(f"expected a finite {cast.__name__} > 0, got {text!r}")
        return val
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="socialhk", description=__doc__)
    p.add_argument("--seed", type=int, default=None, help="seed for samplers (0 is invalid)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run one trajectory and write its records")
    s.add_argument("--graph", required=True)
    s.add_argument("--x0", required=True)
    s.add_argument("--R", type=_positive(float), default=1.0)
    s.add_argument("--max-steps", type=_positive(int), default=1000)
    s.add_argument("--eps", type=_positive(float), nargs="*", default=())  # immutable: every parse shares it
    s.add_argument("--stop-on", choices=("none", "lock", "termination", "eps"), default="none")
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("spectra", help="eigenvalues, clusters, and spectrum checks")
    s.add_argument("--graph", required=True)
    s.set_defaults(func=_cmd_spectra)

    s = sub.add_parser("bounds", help="closed-form convergence-time bounds")
    s.add_argument("--graph", required=True)
    s.add_argument("--eps", type=_positive(float), default=1e-2)
    s.add_argument("--R", type=_positive(float), default=1.0)
    s.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("check-merge", help="sufficient/necessary slow-merge verdicts")
    s.add_argument("--graph", required=True)
    s.add_argument("--vp", required=True, help="comma-separated 1-based vertices")
    s.add_argument("--vq", required=True)
    s.set_defaults(func=_cmd_check_merge)

    s = sub.add_parser("construct", help="emit a slow-merging initial state")
    s.add_argument("--graph", required=True)
    s.add_argument("--vp", required=True)
    s.add_argument("--vq", required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--R", type=_positive(float), default=1.0)
    s.set_defaults(func=_cmd_construct)

    s = sub.add_parser("sweep", help="run a parameter sweep from a JSON config")
    s.add_argument("--config", required=True)
    s.set_defaults(func=_cmd_sweep)
    return p


_parser = None  # built by the first main() call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphFormatError, InvalidSeed) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SocialHKError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
