import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from socialhk import bounds, cli, dynamics, graphs, sampling, slowmerge
from socialhk.errors import EpsTooSmall


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path) as fh:
        return fh.read()


def reference_write_tables(traj, out, fmt):
    """The table writer the CLI had before block formatting: a row list per
    state with each value through ``repr``, written by ``csv.writer`` or as
    one ``json.dumps`` document."""
    def table(header, rows):
        if fmt == "json":
            return json.dumps([dict(zip(header, r)) for r in rows], indent=1) + "\n"
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()

    os.makedirs(out, exist_ok=True)
    header = ["k"] + [f"x_{i+1}" for i in range(traj.gph.n)]
    with open(os.path.join(out, f"trajectory.{fmt}"), "w") as fh:
        fh.write(table(header, [[k, *map(repr, s.tolist())] for k, s in enumerate(traj.states)]))
    with open(os.path.join(out, f"energy.{fmt}"), "w") as fh:
        fh.write(table(["k", "E", "E_act"], [[k, *map(repr, ea)] for k, ea in enumerate(traj.energies)]))


class TestAtomicWrite:
    def test_a_failing_writer_leaves_no_file(self, tmp_path):
        def chunks():
            yield "k,x_1\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            cli._atomic_write(str(tmp_path / "out" / "trajectory.csv"), chunks())
        assert os.listdir(tmp_path / "out") == []  # no target and no .tmp- file


class TestSimulateCommand:
    def test_four_path_outputs(self, tmp_path, capsys):
        out = str(tmp_path)
        code = run([
            "--out", out, "simulate", "--graph", "path:4",
            "--x0", "four-path:delta=0.25", "--R", "1", "--max-steps", "40",
            "--eps", "0.01",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["partial"] is False
        assert summary["merge_times"] == [2]
        assert summary["lock_k"] == 2
        events = [json.loads(line) for line in read(f"{out}/events.jsonl").splitlines()]
        assert {"k": 2, "kind": "merge", "i": 3, "j": 4,
                "component_a": [1, 2, 3], "component_b": [4]} in events
        header, first = read(f"{out}/trajectory.csv").splitlines()[:2]
        assert header == "k,x_1,x_2,x_3,x_4"
        assert first == "0,-1.0,0.0,1.0,-0.75"
        energy_lines = read(f"{out}/energy.csv").splitlines()
        assert energy_lines[0] == "k,E,E_act"
        assert energy_lines[1] == "0,12.0,4.0"

    @pytest.mark.parametrize("graph, x0, exact", [
        ("path:3", "0.0,0.3,0.6", None),  # the float run reaches a fixed point the exact one never does
        ("complete:4", "0,0.125,0.25,0.375", 1),
        ("path:4", "0.5,0.5,0.5,0.5", 0),
    ])
    def test_summary_says_when_the_exact_dynamics_terminate(self, graph, x0, exact, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "simulate", "--graph", graph, "--x0", x0, "--max-steps", "300"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["lock_k"], summary["exact_termination_k"]) == (0, exact)
        assert summary["termination_k"] is not None  # the float fixed point

    def test_unlocked_summary_has_no_exact_termination(self, tmp_path, capsys):
        argv = ["--out", str(tmp_path), "simulate", "--graph", "path:4", "--x0", "four-path:delta=0.25",
                "--max-steps", "1"]
        assert run(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["lock_k"] is None and "exact_termination_k" not in summary

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        args = [
            "simulate", "--graph", "path:4", "--x0", "narrow-spread:center=0,width=0.5",
            "--R", "1", "--max-steps", "30",
        ]
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["--seed", "7", "--out", out1] + args) == 0
        capsys.readouterr()
        assert run(["--seed", "7", "--out", out2] + args) == 0
        capsys.readouterr()
        for name in ("trajectory.csv", "events.jsonl", "energy.csv"):
            assert read(f"{out1}/{name}") == read(f"{out2}/{name}")

    def test_json_format(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run([
            "--out", out, "--format", "json", "simulate", "--graph", "path:3",
            "--x0", "0.0,0.3,0.6", "--max-steps", "10",
        ]) == 0
        rows = json.loads(read(f"{out}/trajectory.json"))
        assert rows[0]["x_2"] == "0.3"

    def test_graph_file_roundtrip(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
        assert run([
            "--out", str(tmp_path), "simulate", "--graph", str(gpath),
            "--x0", "0.0,0.3,0.6", "--max-steps", "5",
        ]) == 0

    def test_x0_list_may_start_with_a_minus(self, tmp_path, monkeypatch, capsys):
        # "-0.5,0.5" as its own argument is the value, as after "="
        runs = []
        for i, x0 in enumerate((["--x0", "-0.5,0.5"], ["--x0=-0.5,0.5"])):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            code = run(["simulate", "--graph", "path:2", *x0])
            files = {f.name: f.read_bytes() for f in sorted((tmp_path / str(i)).iterdir())}
            runs.append((code, capsys.readouterr().out, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert runs[0][2]["trajectory.csv"].splitlines()[1] == b"0,-0.5,0.5"

    @pytest.mark.parametrize("x0", [["--x0"], ["--x0", "-foo"]])
    def test_x0_without_a_value_is_a_usage_error(self, x0, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "simulate", "--graph", "path:2", *x0]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --x0: expected one argument")

    def test_eps_stop(self, tmp_path, capsys):
        # the CLI stops where the library does and writes the same states
        out, ref = str(tmp_path / "cli"), str(tmp_path / "ref")
        assert run([
            "--seed", "5", "--out", out, "simulate", "--graph", "cycle:12",
            "--x0", "narrow-spread:center=0,width=0.6", "--stop-on", "eps", "--eps", "1e-3",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 52
        state = sampling.narrow_spread(12, 1.0, 0.0, 0.6, 5)
        reference_write_tables(dynamics.simulate(graphs.cycle_graph(12), state, 1000, stop_on=("eps", 1e-3)),
                               ref, "csv")
        for name in ("trajectory.csv", "energy.csv"):
            assert read(f"{out}/{name}") == read(f"{ref}/{name}")

    def test_eps_stop_needs_eps(self, tmp_path, capsys):
        assert run([
            "--seed", "5", "--out", str(tmp_path), "simulate", "--graph", "cycle:12",
            "--x0", "narrow-spread:center=0,width=0.6", "--stop-on", "eps",
        ]) == 1
        assert capsys.readouterr().err.startswith("usage error: --stop-on eps requires --eps")

    def test_sampler_requires_seed(self, capsys):
        code = run(["simulate", "--graph", "path:3", "--x0", "narrow-spread:center=0,width=0.5"])
        assert code == 1


class TestTableWriter:
    CASES = {
        "special-values": (["--graph", "path:4", "--x0=-0.0,1e-05,1e+16,5e-324", "--max-steps", "50"], 0),
        "n=1": (["--graph", "n1.json", "--x0", "0.5", "--max-steps", "5"], 0),
        "one-state": (["--graph", "complete:2", "--x0=-0.0,-0.0", "--max-steps", "5"], 0),
        # 601 rows over three epochs: more than two default blocks
        "long": (["--graph", "cycle:12", "--x0", "uniform-box:lo=0,hi=2", "--max-steps", "600"], 0),
        "partial": (["--graph", "path:4", "--x0", "four-path:delta=0.25", "--stop-on", "termination",
                     "--max-steps", "5"], 3),
        # a row wider than the default cell budget: one row per block
        "wide": (["--graph", f"path:{dynamics._CELLS + 1}", "--x0", "uniform-box:lo=0,hi=3",
                  "--max-steps", "2"], 0),
        # the vertices of each clique agree bit for bit within a row
        "twins": (["--graph", "dumbbell:8", "--x0", "uniform-box:lo=0,hi=1", "--max-steps", "40"], 0),
        # fragments that stop moving: most cells repeat the cell above
        "frozen": (["--graph", "cycle:32", "--x0", "uniform-box:lo=0,hi=4", "--max-steps", "60"], 0),
        # -0.0 beside a repeated 0.0: one value to float ==, two bit patterns
        "signed-zeros": (["--graph", "path:4", "--x0=-0.0,0.0,0.0,3", "--max-steps", "5"], 0),
    }
    ROWS = {"special-values": 2, "n=1": 1, "one-state": 1, "long": 601, "partial": 6, "wide": 3,
            "twins": 41, "frozen": 61, "signed-zeros": 1}
    # cases whose trajectory table repeats a 64-bit pattern within a block
    # under both budgets, so they cover the writer's formatting of repeats
    REPEATS = {"twins", "frozen", "signed-zeros"}

    # a budget of 3 cells gives blocks of 3 rows at width 1 and of 1 row at width 2 or more
    @pytest.mark.parametrize("cells", [None, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference_writer(self, case, fmt, cells, tmp_path, monkeypatch, capsys):
        argv, want_code = self.CASES[case]
        (tmp_path / "n1.json").write_text('{"n": 1, "edges": []}')
        monkeypatch.chdir(tmp_path)
        if cells is not None:
            monkeypatch.setattr(dynamics, "_CELLS", cells)
        write = cli._write_trajectory
        rows, repeats = [], []

        def both(traj, out, fmt):
            rows.append(len(traj.states))
            n = traj.gph.n
            repeats.append(any(np.unique(np.array(traj.states[a:b]).view(np.int64)).size < (b - a) * n
                               for a, b in dynamics._row_blocks(0, len(traj.states), n)))
            reference_write_tables(traj, "ref", fmt)
            return write(traj, out, fmt)

        monkeypatch.setattr(cli, "_write_trajectory", both)
        assert run(["--seed", "4", "--out", "out", "--format", fmt, "simulate", *argv]) == want_code
        assert rows == [self.ROWS[case]]
        if case in self.REPEATS:
            assert repeats == [True]
        for name in (f"trajectory.{fmt}", f"energy.{fmt}"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name

    def test_block_rows_are_per_cell_reprs(self):
        # special values (two zeros, two NaN patterns of one text, subnormals),
        # in blocks with repeats and in blocks without
        pool = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e+16, 0.1, np.inf, -np.inf, np.nan, -np.nan, 1 / 3])
        rng = np.random.default_rng(5)
        blocks = [pool.reshape(1, -1), pool.reshape(4, 3), rng.permutation(pool).reshape(2, 6)]
        blocks += [rng.choice(pool, size=shape) for shape in [(1, 2), (3, 4), (40, 7), (1, 300)]]
        for block in blocks:
            assert cli._block_rows(block) == [",".join(map(repr, row)) for row in block.tolist()], block

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_rows(self, fmt):
        # the writer's temporaries are one block of at most _CELLS cells,
        # from 30 rows of a cycle:1024 run to 300
        g = graphs.standard_graph("cycle", 1024)
        traj = dynamics.simulate(g, sampling.sample_initial_state(g.n, 1.0, "uniform_box", 3, lo=0, hi=3), 300)
        assert len(traj.states) == 301
        header = ["k"] + [f"x_{i+1}" for i in range(g.n)]
        peaks = []
        for rows in (traj.states[:30], traj.states):
            tracemalloc.start()
            try:
                for _ in cli._float_table(header, rows, fmt):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0] and peaks[1] < 1024 * dynamics._CELLS, peaks


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        path4 = ["--graph", "path:4", "--max-steps", "30"]
        calls = [
            ["--format", "json", "--seed", "7", "simulate", *path4,
             "--x0", "narrow-spread:center=0,width=0.5", "--eps", "0.01", "0.001"],
            ["simulate", *path4, "--x0", "0,0.1,0.2,0.3"],  # locks at 0: k_eps shows any leaked eps
            ["--seed", "7", "simulate", *path4, "--x0", "uniform-box:lo=0,hi=1"],
            ["simulate", *path4, "--x0", "uniform-box:lo=0,hi=1"],  # needs the seed it must not inherit
        ]
        src = os.path.dirname(os.path.dirname(cli.__file__))

        def outputs(root, call):
            got = []
            for i, argv in enumerate(calls):
                code, stdout, stderr = call(["--out", f"run{i}", *argv])
                out = root / f"run{i}"
                files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.is_dir() else {}
                got.append((code, stdout, stderr, files))
            return got

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "socialhk", *argv], cwd=tmp_path / "fresh",
                                  env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
            return proc.returncode, proc.stdout, proc.stderr

        def reused(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        (tmp_path / "fresh").mkdir()
        (tmp_path / "reused").mkdir()
        want = outputs(tmp_path / "fresh", fresh)
        monkeypatch.chdir(tmp_path / "reused")
        run(["spectra", "--graph", "path:3"])  # the parser exists before the calls compared
        capsys.readouterr()
        parser = cli._parser
        got = outputs(tmp_path / "reused", reused)
        assert cli._parser is parser
        assert [w[0] for w in want] == [0, 0, 0, 1]
        assert json.loads(want[1][1])["k_eps"] == {}
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, calls[i]


class TestOtherCommands:
    def test_spectra(self, capsys):
        assert run(["spectra", "--graph", "rpartite:1,2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eigenvalues_by_abs"][0] == pytest.approx(1.0, abs=1e-9)
        assert out["spectrum_checks"]["has_positive_secondary"]
        assert all(out["rpartite_basis_checks"].values())

    def test_bounds(self, capsys):
        assert run(["bounds", "--graph", "path:4", "--eps", "0.01", "--R", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["phi"] == pytest.approx(0.2)
        kinds = {b["kind"] for b in out["bounds"]}
        assert kinds == {"ConductanceLower", "ConditionalUpper", "LinkBreakBudget", "Lambda2Diameter"}

    def test_check_merge(self, capsys):
        assert run(["check-merge", "--graph", "path:4", "--vp", "1,2,3", "--vq", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sufficient"]["kind"] == "sufficient_holds"
        assert out["necessary"]["kind"] == "necessary_holds"
        assert out["boundary_edges"] == [[3, 4]]

    def test_check_merge_multipartite_fails(self, capsys):
        assert run(["check-merge", "--graph", "rpartite:2,2", "--vp", "1,3", "--vq", "2,4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sufficient"]["kind"] == "sufficient_fails"
        assert out["necessary"]["kind"] == "necessary_fails"

    def test_check_merge_on_cycle_256_halves_is_quick(self, capsys):
        # the contracting side is path:128; only eigenvalues on the grid
        # mu / 6 are eliminated exactly, so no irrational one is
        start = time.perf_counter()
        assert run(["check-merge", "--graph", "cycle:256",
                    "--vp", ",".join(map(str, range(1, 129))), "--vq", ",".join(map(str, range(129, 257)))]) == 0
        assert time.perf_counter() - start < 5.0
        out = json.loads(capsys.readouterr().out)
        assert out["sufficient"]["kind"] == "sufficient_holds"
        assert out["necessary"]["kind"] == "necessary_holds"

    def test_check_merge_one_record_per_eigenvalue(self, tmp_path, capsys):
        # cycle:16 with a pendant at vertex 1: 1/3 is a double eigenvalue of
        # the cycle, and -1/3 sorts between its copies by absolute value
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 17, "edges": [[i, i % 16 + 1] for i in range(1, 17)] + [[1, 17]]}))
        vp = ",".join(str(v) for v in range(1, 17))
        assert run(["check-merge", "--graph", str(path), "--vp", vp, "--vq", "17"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sufficient"]["kind"] == "sufficient_holds"
        lams = [r["eigenvalue"] for r in out["sufficient"]["records"]]
        want = sorted((1 + 2 * np.cos(2 * np.pi * k / 16)) / 3 for k in range(1, 8))
        want = [lam for lam in want[::-1] if 0 < lam < 1]
        assert len(lams) == 5 and lams == pytest.approx(want, abs=1e-9)
        assert [r["dim"] for r in out["sufficient"]["records"]] == [2] * 5

    def test_construct(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run([
            "--out", out, "construct", "--graph", "path:4",
            "--vp", "1,2,3", "--vq", "4", "--delta", "0.0625", "--R", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_merge_time"] == 3
        saved = json.loads(read(f"{out}/x0.json"))
        assert [float(v) for v in saved["opinions"]] == [0.5, 0.0, -0.5, 0.9375]

    def test_construct_refuses_when_the_sufficient_condition_fails(self, tmp_path, capsys):
        assert run([
            "--out", str(tmp_path), "construct", "--graph", "dumbbell:8",
            "--vp", "1,2,3,4", "--vq", "5,6,7,8", "--delta", "0.01",
        ]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "sufficient condition fails"
        assert payload["verdict"]["kind"] == "sufficient_fails"
        assert not (tmp_path / "x0.json").exists()

    def test_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": "path:4", "R": 1.0,
            "deltas": [0.25, 0.0625, 0.00390625],
            "eps": [0.01], "max_steps": 300,
        }))
        out = str(tmp_path)
        assert run(["--out", out, "sweep", "--config", str(cfg)]) == 0
        import csv as csvmod

        with open(f"{out}/sweep.csv") as fh:
            rows = list(csvmod.DictReader(fh))
        assert [int(r["first_merge"]) for r in rows] == [2, 4, 8]
        assert [int(r["predicted_merge"]) for r in rows] == [2, 4, 8]
        # audit trail: every row echoes the full resolved config and bounds
        echo = json.loads(rows[0]["config"])
        assert echo["graph"] == "path:4" and echo["delta"] == 0.25
        assert float(rows[0]["bound_break_budget"]) == 2048.0
        assert float(rows[0]["bound_conductance_floor"]) > 0
        assert rows[0]["partial"] == "False"
        assert "error" not in rows[0]

    @pytest.mark.parametrize("refused", [1e-17, 0.7])  # its gap rounds to 0; not below R / 2
    def test_sweep_keeps_its_rows_when_a_delta_is_refused(self, refused, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "path:4", "R": 1.0, "deltas": [0.25, refused], "max_steps": 300}))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().out)["rows"] == 2
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        assert [(r["row"], r["first_merge"], r["error"]) for r in rows[:1]] == [("0", "2", "")]
        assert rows[1]["delta"] == repr(refused) and rows[1]["first_merge"] == ""
        assert rows[1]["error"].startswith("delta")

    def test_sweep_keeps_its_rows_when_a_merge_time_is_past_the_cap(self, tmp_path, capsys, monkeypatch):
        # at a rate of 1 - 2^-30, delta 0.4999 of v0 = 0.5 takes about 2e5
        # steps and delta 0.25 about 7.4e8, past the 10,000,000-step cap
        check = slowmerge.sufficient_check
        monkeypatch.setattr(slowmerge, "sufficient_check",
                            lambda g, split: dataclasses.replace(check(g, split), eigenvalue=1 - 2.0**-30))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "path:4", "R": 1.0, "deltas": [0.4999, 0.25], "max_steps": 20,
                                   "split": {"vp": [1, 2, 3], "vq": [4]}}))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 2
        assert "numerical failure: row 1: gap " in capsys.readouterr().err
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        assert rows[0]["error"] == "" and int(rows[0]["predicted_merge"]) > 10**5
        assert rows[1]["error"].startswith("gap ") and rows[1]["predicted_merge"] == ""

    def test_sweep_seeds(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": "star:4", "R": 1.0, "seeds": [3, 4],
            "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.5},
            "eps": [0.01], "max_steps": 300,
        }))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 0
        assert len(read(f"{tmp_path}/sweep.csv").splitlines()) == 3

    def test_k_eps_goes_through_the_module_attribute(self, tmp_path, monkeypatch, capsys):
        # the bench traces the CLI by wrapping dynamics.eps_convergence_time
        # and calls a run without a recorded call wrong
        calls = []
        wrapped = dynamics.eps_convergence_time
        monkeypatch.setattr(dynamics, "eps_convergence_time", lambda *a: calls.append(a) or wrapped(*a))
        assert run(["--out", str(tmp_path / "sim"), "--seed", "3", "simulate", "--graph", "cycle:8",
                    "--x0", "narrow-spread:center=0,width=0.5", "--max-steps", "100",
                    "--eps", "1e-2", "1e-4"]) == 0
        assert len(calls) >= 1 and calls[0][2] == [1e-2, 1e-4]
        calls.clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": "cycle:8", "R": 1.0, "seeds": [3, 4],
            "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.5},
            "eps": [1e-2, 1e-4], "max_steps": 100,
        }))
        assert run(["--out", str(tmp_path / "sweep"), "sweep", "--config", str(cfg)]) == 0
        assert len(calls) >= 1

    def test_sweep_evaluates_one_energy_per_locked_row(self, tmp_path, monkeypatch, capsys):
        # energy_at_lock takes the lock state alone, not the energy series
        calls = []
        wrapped = dynamics._energy
        monkeypatch.setattr(dynamics, "_energy", lambda *a: calls.append(a) or wrapped(*a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": "cycle:8", "R": 1.0, "seeds": [3, 4, 5],
            "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.5}, "max_steps": 100,
        }))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        assert [r["lock_k"] for r in rows] == ["0"] * 3
        assert [float(r["energy_at_lock"]) for r in rows] == [float(wrapped(*c)[0]) for c in calls]

    def test_sweep_empty_eps_list(self, tmp_path, capsys):
        # no k_eps columns, and the graph bounds use the default eps, as when
        # the config has no eps at all
        base = {"graph": "path:4", "R": 1.0, "seeds": [3],
                "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.5}}
        for name, extra in (("absent", {}), ("empty", {"eps": []})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**base, **extra}))
            assert run(["--out", str(tmp_path / name), "sweep", "--config", str(cfg)]) == 0
        absent, empty = (next(csv.DictReader(read(f"{tmp_path}/{name}/sweep.csv").splitlines()))
                         for name in ("absent", "empty"))
        assert "bound_conductance_floor" in empty
        assert {**empty, "config": None} == {**absent, "config": None}

    def test_sweep_kappa_cap_on_three_word_rows(self, tmp_path, capsys):
        # cycle:130 takes the numpy diameter kernel, three 64-bit words a row
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": "cycle:130", "R": 1.0, "seeds": [3],
            "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.5},
            "eps": [1e-2, 1e-3], "max_steps": 20,
        }))
        graphs.diameter.cache_clear()
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        want = bounds.constant_influence_upper_bound(130, 65, 1e-3, 1.0).value
        assert want != bounds.constant_influence_upper_bound(130, 64, 1e-3, 1.0).value
        assert [float(r["bound_kappa_cap"]) for r in rows] == [want]

    def test_split_sweep_decides_its_verdict_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        check = slowmerge.sufficient_check
        monkeypatch.setattr(slowmerge, "sufficient_check", lambda *a: calls.append(a) or check(*a))
        deltas = [0.25, 0.0625, 0.00390625]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": "path:4", "R": 1.0, "deltas": deltas,
            "split": {"vp": [1, 2, 3], "vq": [4]}, "eps": [0.01], "max_steps": 300,
        }))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        capsys.readouterr()
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        # every row starts from the state construct emits for its delta
        for row, delta in zip(rows, deltas, strict=True):
            assert run(["--out", str(tmp_path), "construct", "--graph", "path:4",
                        "--vp", "1,2,3", "--vq", "4", "--delta", repr(delta)]) == 0
            made = json.loads(capsys.readouterr().out)
            assert int(row["predicted_merge"]) == made["predicted_merge_time"] == int(row["first_merge"])

    MIXED = {"graph": "cycle:8", "R": 1.0, "seeds": list(range(1, 13)), "eps": [0.01], "max_steps": 100,
             "sampler": {"mode": "uniform_box", "lo": 0.0, "hi": 3.0}}

    def test_locked_rows_end_at_their_lock(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.MIXED))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        g = graphs.cycle_graph(8)
        locked = 0
        for row in rows:
            if row["lock_k"] == "":
                continue
            locked += 1
            assert row["steps"] == row["lock_k"] and row["partial"] == "False"
            state = sampling.sample_initial_state(8, 1.0, "uniform_box", int(row["seed"]), lo=0.0, hi=3.0)
            lock = dynamics.simulate(g, state, 100, stop_on="lock").lock_state
            exact = dynamics.simulate_exact(g, lock.tolist(), 1.0, 2).termination_k
            assert row["termination_k"] == ("" if exact is None else str(int(row["lock_k"]) + exact))
        assert 3 <= locked < len(rows)

    def test_unlocked_rows_are_those_of_a_run_through_the_budget(self, tmp_path, capsys, monkeypatch):
        # rows that never lock, ended by a repeat or by the budget, are byte
        # for byte what stepping every row through its budget writes; locked
        # rows differ from it in their steps only
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.MIXED))
        assert run(["--out", str(tmp_path / "lock"), "sweep", "--config", str(cfg)]) == 0
        simulate = dynamics.simulate
        monkeypatch.setattr(dynamics, "simulate", lambda g, state, max_steps, stop_on=None: simulate(g, state, max_steps))
        assert run(["--out", str(tmp_path / "budget"), "sweep", "--config", str(cfg)]) == 0
        lines = [read(f"{tmp_path}/{d}/sweep.csv").splitlines() for d in ("lock", "budget")]
        lock, budget = (list(csv.DictReader(text)) for text in lines)
        kinds = Counter()
        for row, ref, line, ref_line in zip(lock, budget, lines[0][1:], lines[1][1:], strict=True):
            if row["lock_k"] == "":
                assert line == ref_line
                kinds["budget" if row["steps"] == "100" else "repeat"] += 1
            else:
                assert {**row, "steps": None} == {**ref, "steps": None}
                assert int(row["steps"]) < int(ref["steps"])
                kinds["locked"] += 1
        assert min(kinds.values()) >= 2 and len(kinds) == 3, kinds

    def test_a_refused_eps_loses_its_row_only(self, tmp_path, capsys):
        # the tail bound never reaches 1e-20 (see the simulate refusal below)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "path:4", "R": 1.0, "seeds": [3, 4], "eps": [1e-20], "max_steps": 50,
                                   "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.6}}))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 2
        assert "numerical failure: row 0: tail bound does not reach eps=1e-20" in capsys.readouterr().err
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        assert [(r["seed"], r["error"].startswith("tail bound")) for r in rows] == [("3", True), ("4", True)]

    def test_a_row_whose_eps_is_refused_keeps_the_others(self, tmp_path, capsys, monkeypatch):
        eps_time = dynamics.eps_convergence_time

        def refuse_the_second(traj, ss, eps):
            if traj.states[0].tobytes() == second.tobytes():
                raise EpsTooSmall("refused")
            return eps_time(traj, ss, eps)

        second = sampling.sample_initial_state(4, 1.0, "narrow_spread", 4, center=0.0, width=0.6).opinions
        monkeypatch.setattr(dynamics, "eps_convergence_time", refuse_the_second)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "path:4", "R": 1.0, "seeds": [3, 4, 5], "eps": [0.01], "max_steps": 50,
                                   "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.6}}))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 2
        rows = list(csv.DictReader(read(f"{tmp_path}/sweep.csv").splitlines()))
        assert [(r["error"], r["lock_k"]) for r in rows] == [("", "0"), ("refused", ""), ("", "0")]

    def test_one_influence_graph_per_locked_row(self, tmp_path, capsys, monkeypatch):
        calls = []
        labelled = dynamics.Trajectory.influence_graph_at
        monkeypatch.setattr(dynamics.Trajectory, "influence_graph_at",
                            lambda traj, k: calls.append(k) or labelled(traj, k))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "cycle:8", "R": 1.0, "seeds": [3, 4, 5], "eps": [0.01, 1e-4],
                                   "sampler": {"mode": "narrow_spread", "center": 0.0, "width": 0.5}}))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 0
        assert calls == [0, 0, 0]

    def test_sweep_reruns_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": "path:5", "R": 1.0, "seeds": [9, 10, 11],
            "sampler": {"mode": "uniform_box", "lo": -1.0, "hi": 1.0},
            "eps": [0.01], "max_steps": 200,
        }))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(["--out", a, "sweep", "--config", str(cfg)]) == 0
        assert run(["--out", b, "sweep", "--config", str(cfg)]) == 0
        assert read(f"{a}/sweep.csv") == read(f"{b}/sweep.csv")


class TestExitCodes:
    def test_usage(self, capsys):
        assert run(["simulate", "--graph", "path:4"]) == 1
        assert run(["simulate", "--graph", "nosuch.json", "--x0", "0,0"]) == 1
        assert run(["check-merge", "--graph", "path:4", "--vp", "1,9", "--vq", "2"]) == 1

    @pytest.mark.parametrize("argv", [
        ["--graph", "path:abc", "--x0", "0,0"],
        ["--graph", "path:0", "--x0", "0,0"],
        ["--graph", "cycle:-3", "--x0", "0,0"],
        ["--graph", "rpartite:1,x", "--x0", "0,0"],
        ["--graph", "path:3", "--x0", "uniform-box:lo=0,hi=abc"],
        # a (file name, text) pair is written to a file whose path is passed
        ["--graph", "path:3", "--x0", ("x0.json", "[0.0, 0.5,")],
        ["--graph", "path:3", "--x0", ("x0.json", '{"values": [0.0, 0.5, 1.0]}')],
        ["--graph", "path:4", "--x0", "four-path:"],
        ["--graph", "path:4", "--x0", "four-path:d=0.1"],
        ["--graph", "path:3", "--x0", "uniform-box:lo=0"],
        ["--graph", "path:3", "--x0", "narrow-spread:center=0"],
        # one finite opinion per vertex, whatever the source
        ["--graph", "path:3", "--x0", "0,0,nan"],
        ["--graph", "path:3", "--x0", "0,0,inf"],
        ["--graph", "path:3", "--x0", "0,0"],
        ["--graph", "path:3", "--x0", ("x0.json", "[0.0, 0.5]")],
        ["--graph", "path:3", "--x0", ("x0.json", '{"opinions": [0.0, NaN, 1.0]}')],
        ["--graph", "path:3", "--x0", "four-path:delta=0.25"],
        # JSON true and false are not opinions
        ["--graph", "path:3", "--x0", ("x0.json", "[true, 0.5, 1]")],
    ])
    def test_malformed_arguments_are_usage_errors(self, argv, tmp_path, capsys):
        for idx, arg in enumerate(argv):
            if isinstance(arg, tuple):
                name, text = arg
                (tmp_path / name).write_text(text)
                argv = [*argv[:idx], str(tmp_path / name), *argv[idx + 1:]]
        assert run(["--seed", "1", "--out", str(tmp_path), "simulate", *argv]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("x0, message", [
        ("four-path:delta=0.1,dleta=3", "four-path takes delta=<value> and no other key"),
        ("four-path:delta=0.1,delta=0.2", "key 'delta' given twice"),
        ("narrow-spread:center=0,width=0.5,width=0.2", "key 'width' given twice"),
        ("uniform-box:lo=0,hi=1,lo=0.5", "key 'lo' given twice"),
    ], ids=["four-path-unknown", "four-path-twice", "narrow-spread-twice", "uniform-box-twice"])
    def test_unknown_or_repeated_keys_are_usage_errors(self, x0, message, tmp_path, capsys):
        argv = ["--seed", "1", "--out", str(tmp_path), "simulate", "--graph", "path:4", "--x0", x0]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--graph", "foo:3", "--x0", "0,0,0"], "unknown graph constructor"),
        (["simulate", "--graph", "path:3", "--x0", "0,0.5,x"], "cannot parse initial state"),
        (["simulate", "--graph", "path:3", "--x0", "bogus:1"], "unknown initial-state source"),
        (["--seed", "1", "simulate", "--graph", "path:3", "--x0", "narrow-spread:width"], "expected key=value"),
        (["check-merge", "--graph", "path:4", "--vp", "1,a", "--vq", "4"], "cannot parse vertex list"),
        # a dict is written as the sweep's config file; None names no file
        (["sweep", "--config", None], "cannot read config"),
        (["sweep", "--config", {"graph": "path:4", "R": 1.0, "deltas": [0.1], "split": 5}], "must be an object"),
        (["sweep", "--config", {"graph": "path:4", "R": 1.0, "seeds": [1]}], "needs a 'sampler' section"),
        (["sweep", "--config", {"graph": "path:4", "R": 1.0}], "needs either"),
    ], ids=["graph", "x0-list", "x0-source", "x0-key", "vertex-list", "no-config", "split",
            "no-sampler", "no-deltas-or-seeds"])
    def test_refusals_name_their_cause(self, argv, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for a in argv:
            if isinstance(a, dict):
                cfg.write_text(json.dumps(a))
        argv = [str(cfg) if a is None or isinstance(a, dict) else a for a in argv]
        assert run(["--out", str(tmp_path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err, err

    @pytest.mark.parametrize("edges", ["5", "null", "{}"])
    def test_graph_file_whose_edges_are_no_list_is_an_input_error(self, edges, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(f'{{"n": 3, "edges": {edges}}}')
        assert run(["--out", str(tmp_path), "spectra", "--graph", str(gpath)]) == 1
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("sampler", [
        {"center": 0.0, "width": 0.5},
        {"mode": "uniform_box", "lo": 0.0},
        # sampler parameters are numbers as the config's other fields are
        {"mode": "uniform_box", "lo": False, "hi": True},
        {"mode": "uniform_box", "lo": 0.0, "hi": True},
        {"mode": "uniform_box", "lo": "0.5", "hi": 1.0},
        {"mode": "narrow_spread", "center": 0.0, "width": "0.5"},
    ])
    def test_malformed_sweep_sampler_is_a_usage_error(self, sampler, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "path:3", "R": 1.0, "seeds": [1], "sampler": sampler}))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("numbers", [
        {"R": -1}, {"R": "abc"}, {"R": "1.5"}, {"R": float("inf")}, {"R": float("nan")},
        {"eps": [-1]}, {"eps": [0.01, "x"]}, {"eps": 0.01},
        {"max_steps": 0}, {"max_steps": 2.5},
    ])
    def test_out_of_range_sweep_numbers_are_usage_errors(self, numbers, tmp_path, capsys):
        sampler = {"mode": "uniform_box", "lo": 0.0, "hi": 1.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "path:3", "R": 1.0, "seeds": [1], "sampler": sampler, **numbers}))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("usage error: config field ")

    BOX = {"mode": "uniform_box", "lo": 0.0, "hi": 1.0}

    @pytest.mark.parametrize("cfg", [
        {"graph": "path:4", "R": 1.0, "seeds": 5, "sampler": BOX},
        {"graph": "path:4", "R": 1.0, "seeds": [1.5], "sampler": BOX},
        {"graph": "path:4", "R": 1.0, "seeds": [True], "sampler": BOX},
        {"graph": "path:4", "R": 1.0, "deltas": 0.1},
        {"graph": "path:4", "R": 1.0, "deltas": ["0.1"]},
        {"graph": 5, "R": 1.0, "deltas": [0.1]},
        {"graph": "path:4", "R": 1.0, "deltas": [0.1], "split": {"vp": [1, 2, 3], "vq": [9]}},
        {"graph": "path:4", "R": 1.0, "deltas": [0.1], "split": {"vp": [1, 2], "vq": [2, 3]}},
        {"graph": "path:4", "R": 1.0, "deltas": [0.1], "split": {"vp": [], "vq": [4]}},
        "graph R",
    ])
    def test_malformed_sweep_config_is_a_usage_error(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["--out", str(tmp_path), "sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_eps_the_tail_bound_never_reaches_is_a_numerical_failure(self, tmp_path, capsys):
        # the lambda = 1 cluster keeps a rounding-size weight, so the tail
        # bound stays above 1e-20 past the 10,000,000-step cap
        argv = ["--seed", "3", "--out", str(tmp_path), "simulate", "--graph", "path:4",
                "--x0", "narrow-spread:center=0,width=0.6", "--max-steps", "50", "--eps", "1e-20"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("numerical failure: tail bound does not reach eps=1e-20")
        assert os.listdir(tmp_path) == []  # the summary fails before any file is written

    @pytest.mark.parametrize("argv", [
        ["check-merge", "--graph", "path:4", "--vp", "1,2", "--vq", "2,3"],
        ["construct", "--graph", "path:4", "--vp", "1,2", "--vq", "2,3", "--delta", "0.1"],
    ])
    def test_overlapping_split_is_a_usage_error(self, argv, tmp_path, capsys):
        assert run(["--out", str(tmp_path), *argv]) == 1
        assert capsys.readouterr().err.startswith("usage error: bad split: ")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--graph", "path:3", "--x0", "0,0,0", "--R", "-1"],
        ["simulate", "--graph", "path:3", "--x0", "0,0,0", "--R", "0"],
        ["simulate", "--graph", "path:3", "--x0", "0,0,0", "--R", "nan"],
        ["simulate", "--graph", "path:3", "--x0", "0,0,0", "--R", "inf"],
        ["simulate", "--graph", "path:3", "--x0", "0,0,0", "--max-steps", "0"],
        ["simulate", "--graph", "path:3", "--x0", "0,0,0", "--eps", "0.1", "-0.1"],
        ["bounds", "--graph", "path:4", "--eps", "-1"],
        ["bounds", "--graph", "path:4", "--R", "inf"],
        ["construct", "--graph", "path:4", "--vp", "1,2", "--vq", "3,4", "--delta", "0.1", "--R", "0"],
    ])
    def test_out_of_range_numbers_are_usage_errors(self, argv, tmp_path, capsys):
        assert run(["--out", str(tmp_path), *argv]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument ")

    @pytest.mark.parametrize("value", [-1, 0, 1, "1.5", True, float("nan"), float("inf")])
    @pytest.mark.parametrize("option, field", [
        ("--R", "R"), ("--max-steps", "max_steps"), ("--eps", "eps"), ("--seed", "seeds"),
    ])
    def test_sweep_config_fields_follow_their_arguments(self, option, field, value, tmp_path, capsys):
        # the argument gets the JSON text of the value the config field holds;
        # both accept it or both refuse it, with one exit code and stderr prefix
        text = json.dumps(value)
        sim = ["--seed", text if option == "--seed" else "1", "--out", str(tmp_path), "simulate",
               "--graph", "path:3", "--x0", "uniform-box:lo=0,hi=1", "--max-steps", "5"]
        sim_code = run(sim if option == "--seed" else [*sim, option, text])
        sim_err = capsys.readouterr().err.partition(":")[0]
        cfg = {"graph": "path:3", "R": 1.0, "seeds": [1], "max_steps": 5,
               "sampler": {"mode": "uniform_box", "lo": 0.0, "hi": 1.0},
               field: [value] if field in ("eps", "seeds") else value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        sweep_code = run(["--out", str(tmp_path), "sweep", "--config", str(path)])
        assert (sweep_code, capsys.readouterr().err.partition(":")[0]) == (sim_code, sim_err)
        accepted = type(value) is int and value in ((1, -1) if field == "seeds" else (1,))
        assert sim_code == (0 if accepted else 1)

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "edges": [[1, 5]]}')
        code = run(["simulate", "--graph", str(bad), "--x0", "0,0"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_budget_exhausted(self, tmp_path, capsys):
        out = str(tmp_path)
        code = run([
            "--out", out, "simulate", "--graph", "path:4", "--x0", "four-path:delta=0.25",
            "--stop-on", "termination", "--max-steps", "5",
        ])
        assert code == 3
        # the partial run is written and flagged
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["partial"] is True
        assert summary["steps"] == 5 and summary["merge_times"] == [2]
        assert "partial results written" in captured.err
        assert len(read(f"{out}/trajectory.csv").splitlines()) == 1 + 6
        assert len(read(f"{out}/energy.csv").splitlines()) == 1 + 6
        events = [json.loads(line) for line in read(f"{out}/events.jsonl").splitlines()]
        assert [e["kind"] for e in events] == ["link_form", "merge", "lock"]

    @pytest.mark.parametrize("graph", ["path:1", "complete:1"])
    def test_bounds_on_one_vertex_is_a_usage_error(self, graph, capsys):
        # a traceback exits 1 too, so the message is checked as well
        assert run(["bounds", "--graph", graph, "--eps", "0.01", "--R", "1"]) == 1
        assert capsys.readouterr().err.startswith("usage error: bounds needs ")

    def test_numerical_failure(self, capsys):
        # conductance guard: exhaustive enumeration refuses n > 24
        code = run(["bounds", "--graph", "path:25", "--eps", "0.01", "--R", "1"])
        assert code == 2

    def test_seed_zero(self, capsys):
        code = run([
            "--seed", "0", "simulate", "--graph", "path:3",
            "--x0", "narrow-spread:center=0,width=0.5",
        ])
        assert code == 1
