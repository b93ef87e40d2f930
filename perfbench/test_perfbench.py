"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gedpower as gp  # noqa: E402
import gedpower.cli  # noqa: E402,F401  (one more namespace that binds names)
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _namespaces():
    return {name: mod for name, mod in sys.modules.items()
            if name == "gedpower" or name.startswith("gedpower.")}


def test_self_times_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 4.0, 1.0, 2.0]


def test_self_times_recursive_spans_sum_to_outer_duration():
    # f [0, 8] calls f [1, 7] calls f [2, 3]: each level keeps its own time
    parent = np.array([-1, 0, 1])
    start = np.array([0.0, 1.0, 2.0])
    end = np.array([8.0, 7.0, 3.0])
    own = spans.self_times(parent, start, end)
    assert own.tolist() == [2.0, 5.0, 1.0]
    assert own.sum() == 8.0


def test_traced_recursion_in_library():
    rec = spans.Recorder()
    with spans.tracing(rec):
        with rec.root("bench.query"):
            value = gp.log_gamma(0.25)  # recurses once via log_gamma(1.25)
    assert abs(value - math.lgamma(0.25)) < 1e-14
    names = [rec.names[i] for i in rec.name_id]
    assert names == ["bench.query", "specfun.log_gamma", "specfun.log_gamma"]
    assert list(rec.parent) == [-1, 0, 1]
    assert list(rec.trace) == [0, 0, 0]
    summary = spans.summarize(rec)
    stats = summary["by_name"]["specfun.log_gamma"]
    assert stats["calls"] == 2
    outer = rec.end[1] - rec.start[1]
    assert stats["self_s"] == pytest.approx(outer, rel=1e-9)
    assert summary["self_s"]["specfun"] == pytest.approx(outer, rel=1e-9)


def test_install_and_uninstall_leave_namespaces_unchanged():
    before = {name: dict(vars(mod)) for name, mod in _namespaces().items()}
    original = gp.specfun.log_gamma
    rec = spans.Recorder()
    replaced = spans.install(rec)
    try:
        wrapper = gp.specfun.log_gamma
        assert wrapper is not original and wrapper.__wrapped__ is original
        # every namespace that binds the function sees the same wrapper
        assert gp.ged.log_gamma is wrapper and gp.norming.log_gamma is wrapper
        assert gp.log_gamma is wrapper
        assert gp.cli.make_params is gp.ged.make_params is gp.make_params
        # classes and exceptions are never wrapped
        assert gp.SweepConfig is before["gedpower"]["SweepConfig"]
        assert gp.BudgetError is before["gedpower"]["BudgetError"]
        assert len(replaced) > 50
    finally:
        spans.uninstall(replaced)
    after = {name: dict(vars(mod)) for name, mod in _namespaces().items()}
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [a for a, v in attrs.items() if after[name][a] is not v]
        assert changed == [], (name, changed)


def test_tracing_does_not_change_results():
    config = gp.SweepConfig(v_list=(0.5, 2.0), p_list=(1.0,), r_list=(1, 2),
                            log_n_ladder=(20.0,), x_min=0.0, x_max=1.0,
                            x_step=0.5)
    plain = gp.run_sweep(config)
    rec = spans.Recorder()
    with spans.tracing(rec, run.SPAN_KEYS):
        traced = gp.run_sweep(config)
    assert traced == plain
    assert set(rec.keys["norming.solve_bn"]) == {(0.5, 20.0), (2.0, 20.0)}
    assert set(rec.keys["ged.make_params"]) == {0.5, 2.0}


def test_percentile_rule_on_known_sample():
    sample = list(range(1, 102))  # 1..101
    assert run.percentile(sample, 50) == 51.0
    assert run.percentile(sample, 99) == 100.0
    assert run.percentile(reversed(sample), 0) == 1.0
    assert run.percentile(sample, 100) == 101.0
    assert run.percentile([4.0], 99) == 4.0
    assert run.percentile([], 50) == 0.0
    # interpolates between neighbouring ranks like numpy and statistics
    data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert run.percentile(data, 99) == pytest.approx(np.percentile(data, 99))
    assert run.percentile(data, 25) == pytest.approx(
        statistics.quantiles(data, n=4, method="inclusive")[0])


def test_mc_tail_probability_matches_binomial_sum():
    reps, p = 100, 0.5
    fires = 0.0
    for k in range(reps + 1):
        est = k / reps
        se = math.sqrt(est * (1 - est) / reps) or math.sqrt(0.25 / reps)
        if abs(est - p) > 3 * se:
            fires += math.comb(reps, k) * p**reps
    assert workloads.mc_tail_probability([p], reps, 1) == pytest.approx(fires, rel=1e-9)
    assert workloads.mc_tail_probability([p, p], reps, 0) == pytest.approx(1.0)
    assert workloads.mc_tail_probability([p, p], reps, 2) == pytest.approx(fires**2, rel=1e-9)
    assert workloads.mc_tail_probability([1.0], reps, 1) == 0.0


def test_query_stream_depends_only_on_seed():
    a = workloads.QueryStream(7).block(300)
    assert a == workloads.QueryStream(7).block(300)
    assert a != workloads.QueryStream(8).block(300)
    assert {kind for kind, _ in a} == set(workloads.QUERIES)
    assert len(set(a)) == len(a)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = spans.Recorder()
    layer = run._layer_metrics(spans.summarize(rec), rec, 0)
    layer.update({"cli.cold_start_s": 0.0, "trace.overhead": 1.0})
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)

