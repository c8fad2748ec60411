"""Tests of the benchmark harness itself: calibration scaling, span self
time, order statistics, failure counting and trace sanity.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench/tests``.
"""

import os
import statistics
import sys
import threading

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

import child  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from socialhk import graphs, slowmerge  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tracer():
    clock = FakeClock()
    return measure.Tracer(clock=clock, cpu_clock=clock), clock


# -- calibration ---------------------------------------------------------------


def test_unit_factors_use_the_mean_of_the_bracketing_calibrations():
    factors = measure.unit_factors([0.010, 0.020, 0.010], nominal=0.015)
    assert factors == pytest.approx([1.0, 1.0])
    assert measure.unit_factors([0.006, 0.006], nominal=0.012) == pytest.approx([2.0])


def test_unit_factors_cancel_a_uniform_slowdown():
    raw = [0.3, 0.1, 0.5]
    calib = [0.01, 0.01, 0.01, 0.01]
    slow = [2 * x for x in raw], [2 * c for c in calib]
    base = sum(r * f for r, f in zip(raw, measure.unit_factors(calib)))
    scaled = sum(r * f for r, f in zip(slow[0], measure.unit_factors(slow[1])))
    assert scaled == pytest.approx(base)
    assert base == pytest.approx(sum(raw) * measure.NOMINAL_CALIB_S / 0.01)


def test_unit_factors_need_a_calibration_on_each_side():
    with pytest.raises(ValueError):
        measure.unit_factors([0.01])


def test_calibrate_returns_a_positive_time():
    assert measure.calibrate() > 0


# -- order statistics ----------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = measure.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == measure.median(values) == 4.0
    assert measure.spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_one_value():
    assert measure.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert measure.spread([2.5]) == 0.0


# -- spans and self time -------------------------------------------------------


def test_self_time_subtracts_nested_children():
    tracer, clock = _tracer()

    def leaf():
        clock.now += 2.0

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 3.0
        wrapped_leaf()

    tracer.unit = 0
    tracer.wrap("outer", outer)()
    seconds, calls = measure.layer_self_seconds(tracer.spans, [1.0])
    assert calls == {"outer": 1, "leaf": 2}
    assert seconds == pytest.approx({"outer": 4.0, "leaf": 4.0})
    parents = {s.name: s.parent for s in tracer.spans}
    outer_id = next(s.sid for s in tracer.spans if s.name == "outer")
    assert parents["leaf"] == outer_id and parents["outer"] is None


def test_self_time_is_scaled_by_the_unit_factor():
    tracer, clock = _tracer()
    step = tracer.wrap("step", lambda: setattr(clock, "now", clock.now + 1.0))
    for unit in (0, 1):
        tracer.unit = unit
        step()
    tracer.unit = None
    step()  # outside any unit: left out
    seconds, calls = measure.layer_self_seconds(tracer.spans, [2.0, 0.5])
    assert seconds["step"] == pytest.approx(2.5)
    assert calls["step"] == 2


def test_spans_in_other_threads_are_not_children():
    tracer = measure.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.wrap("outer", outer)()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent is None
    assert by_name["inner"].tid != by_name["outer"].tid


def test_self_time_counts_only_same_thread_children_and_their_union():
    S = measure.Span
    spans = [
        S(0, None, 1, "a", 0, 0.0, 10.0, 0.0, 10.0),
        S(1, 0, 1, "b", 0, 1.0, 4.0, 1.0, 4.0),
        S(2, 0, 1, "c", 0, 3.0, 6.0, 3.0, 6.0),  # overlaps b: union is 1..6
        S(3, None, 2, "d", 0, 2.0, 9.0, 2.0, 9.0),  # another thread, concurrent
    ]
    selfs = measure.self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(7.0)


def test_threaded_self_time_uses_the_thread_cpu_clock():
    S = measure.Span
    # two threads take turns on one lock for 2 s of wall time: 1 s of CPU each
    spans = [S(0, None, 1, "x", 0, 0.0, 2.0, 0.0, 1.0), S(1, None, 2, "x", 0, 0.0, 2.0, 5.0, 6.0)]
    assert sum(measure.self_times(spans).values()) == pytest.approx(2.0)


# -- trace wiring --------------------------------------------------------------


def test_layer_lists_agree():
    assert child.LAYERS == run.LAYERS
    assert set().union(*run.EXPECTED_CALLS.values()) == set(run.LAYERS)
    assert set(run.PREDICTIONS) == set(run.EXPECTED_CALLS) == set(workloads.WORKLOADS) == set(run.WORKLOADS)


def test_wrappers_sit_where_callers_look_names_up(monkeypatch):
    for module, attr, _, _ in child.WRAPS:
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = measure.Tracer()
    assert child.install(tracer) == []
    tracer.unit = 0
    g = graphs.path_graph(4)
    split = slowmerge.make_split(g, (0, 1, 2), (3,))
    assert slowmerge.sufficient_check(g, split).kind == slowmerge.SUFFICIENT_HOLDS
    assert slowmerge.necessary_check(g, split).kind == slowmerge.NECESSARY_HOLDS
    _, calls = measure.layer_self_seconds(tracer.spans, [1.0])
    for name in ("slowmerge.sufficient_check", "slowmerge.necessary_check",
                 "linprog.max_min_margin", "linprog.nonneg_nonzero_vector", "spectral.decompose"):
        assert calls.get(name, 0) >= 1, name


def test_trace_sanity_reports_a_layer_without_calls():
    rounds = [_round(traced=False), _round(traced=True, calls={"cli.main": 1})]
    result = run.summarize("sweep-fragment", 1, 1.0, True, rounds)
    assert not result["correct"]
    assert any("dynamics.simulate recorded no call" in p for p in result["problems"])


# -- failure counting ----------------------------------------------------------


def _round(traced=False, ok=True, fingerprint="f", calls=None):
    unit = {"name": "u", "raw_s": 1.0, "factor": 1.0, "ok": ok, "error": None,
            "checks": [("c.check", ok, "detail")]}
    r = {"traced": traced, "units": [unit, dict(unit, ok=True, checks=[("c.check", True, "")])],
         "fingerprint": fingerprint, "calib": [0.01, 0.01, 0.01], "wall_s": 2.0, "wall_raw_s": 2.0,
         "setup_s": 0.3, "setup_raw_s": 0.3, "peak_rss_mb": 40.0, "context": {}}
    if traced:
        r["trace"] = {"self_s": {}, "calls": calls or {}, "counts": {}, "missing": []}
    return r


def test_failed_units_are_counted_against_attempted():
    result = run.summarize("certify", 1, 1.0, False, [_round(), _round(ok=False), _round()])
    assert result["attempted"] == 6 and result["failed"] == 1
    assert result["fail_frac"] == pytest.approx(1 / 6)
    assert not result["correct"]
    assert result["checks"]["c.check"] == {"passed": 5, "total": 6}


def test_outputs_that_differ_between_rounds_are_a_problem():
    result = run.summarize("certify", 1, 1.0, False, [_round(), _round(fingerprint="g"), _round()])
    assert result["failed"] == 0 and not result["correct"]


def test_corrupted_output_gives_positive_fail_frac(tmp_path):
    units = {u.name: u for u in workloads.build("certify", 3, str(tmp_path))}
    good = units["checkmerge.path4"]

    def corrupted():
        out = good.run()
        out.stdout = out.stdout.replace("sufficient_holds", "sufficient_fails")
        return out

    bad = workloads.Unit("checkmerge.path4.corrupted", corrupted, good.check)
    report = child.run_units([good, bad])
    assert [u["ok"] for u in report["units"]] == [True, False]
    rnd = dict(report, traced=False, wall_s=1.0, wall_raw_s=1.0, setup_s=0.1, setup_raw_s=0.1,
               peak_rss_mb=1.0, context={})
    result = run.summarize("certify", 3, 1.0, False, [rnd])
    assert result["fail_frac"] > 0 and not result["correct"]


def test_a_raising_unit_is_a_failure(tmp_path):
    def boom():
        raise RuntimeError("boom")

    report = child.run_units([workloads.Unit("boom", boom, lambda out: [])])
    assert not report["units"][0]["ok"] and "boom" in report["units"][0]["error"]


# -- output checks -------------------------------------------------------------


def test_four_path_check_rejects_a_wrong_merge_time():
    delta = 2.0**-5.5
    good = [{"first_merge": "6", "predicted_merge": "6"}]
    assert all(ok for _, ok, _ in workloads.check_four_path_rows(good, [delta]))
    bad = [{"first_merge": "5", "predicted_merge": "6"}]
    assert not all(ok for _, ok, _ in workloads.check_four_path_rows(bad, [delta]))


def test_oracles_match_closed_forms():
    assert workloads.degrees("dumbbell", 6).tolist() == [3, 3, 4, 4, 3, 3]
    assert workloads.degrees("path", 4).tolist() == [2, 3, 3, 2]
    assert workloads.second_abs_eigenvalue(workloads.path_adjacency(3)) == pytest.approx(0.5)
    for kind, n in (("dumbbell", 16), ("cycle", 48), ("path", 40)):
        g = graphs.standard_graph(kind, n)
        assert g.degrees.tolist() == workloads.degrees(kind, n).tolist()
        assert graphs.diameter(g) == workloads.diameter(kind, n)


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    def configs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.build("sweep-consensus", seed, str(d))
        return {p.name: p.read_text() for p in sorted(d.glob("*.json"))}

    first, again, other = configs(5, "a"), configs(5, "b"), configs(6, "c")
    assert first == again != other
