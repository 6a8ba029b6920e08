"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from aimdexit import ExitKind, default_grid, evaluate  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("make", [workloads.grid_rows, workloads.sweeps, workloads.mc_rows])
def test_generators_are_deterministic_per_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_rescaled_rows_keep_their_value():
    cheap = [i for i, (_, spec, _) in enumerate(default_grid())
             if spec.kind not in (ExitKind.DRAWDOWN, ExitKind.DRAWUP)]
    base = workloads.grid_rows(0)
    moved = dict(zip(workloads.grid_order(11), workloads.grid_rows(11)))
    assert sorted(moved) == list(range(len(base)))
    assert any(moved[i][0].lam != base[i][0].lam for i in cheap)
    for i in cheap:
        assert moved[i][1].kind is base[i][1].kind
        assert math.isclose(evaluate(*moved[i]), evaluate(*base[i]), rel_tol=1e-9, abs_tol=1e-12)


def test_sweeps_cover_the_stated_settings():
    for seed in (0, 5):
        sws = workloads.sweeps(seed)
        assert {(sw.kind, sw.params.p) for sw in sws} == {
            (k, p) for k in workloads.SWEEP_KINDS for p in workloads.SWEEP_PS}
        assert sorted(sw.index for sw in sws) == list(range(len(sws)))
        for sw in sws:
            assert sw.w > 0.0 and list(sw.xs) == sorted(sw.xs)
            assert len(sw.rows()) == workloads.SWEEP_POINTS


def test_rescaled_sweeps_keep_their_values():
    base = workloads.sweeps(0)
    moved = workloads.sweeps(7)
    assert [sw.index for sw in moved] != list(range(len(base)))
    assert any(sw.params.lam != workloads.SWEEP_LAM for sw in moved)
    for p in workloads.SWEEP_PS:  # one barrier per p, so tables are shared
        assert len({(sw.params.lam, min(sw.levels.values())) for sw in moved
                    if sw.params.p == p}) == 1
    cheap = [sw for sw in moved if sw.kind is ExitKind.DOWN_ONE]
    for sw in cheap:
        ref = base[sw.index]
        assert sw.kind is ref.kind
        for row, ref_row in zip(sw.rows()[::6], ref.rows()[::6]):
            assert math.isclose(evaluate(*row), evaluate(*ref_row), rel_tol=1e-9, abs_tol=1e-12)


def _attributes():
    mods = (tracing.evaluate_mod, tracing.reflected, tracing.scalefn,
            tracing.drawup, tracing.simulator)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_restores_every_patched_attribute():
    before = _attributes()
    with tracing.Tracer() as tracer:
        during = _attributes()
        params, spec, w = default_grid()[60]  # two-sided-down
        with tracer.span(f"evaluate.{spec.kind.value}"):
            evaluate(params, spec, w)
    patched = {key for key in before if during[key] is not before[key]}
    assert {name for _, name in patched} >= {
        "hazard", "l_down", "lst_drawdown", "drawup_lst", "z_down",
        "_log_k_from_b", "z_up", "mp", "np", "exponentials", "uniforms"}
    after = _attributes()
    assert all(after[key] is value for key, value in before.items())
    # the run after the block is untraced
    calls = dict(tracer.calls)
    evaluate(params, spec, w)
    assert tracer.calls == calls


def test_spans_count_outermost_entries_and_self_time():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):
                pass
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_s["outer"] <= tracer.total_s["outer"]
    assert math.isclose(tracer.self_s["outer"] + tracer.total_s["inner"],
                        tracer.total_s["outer"], rel_tol=1e-9, abs_tol=1e-12)


def _fake_pass(window_mc: bool) -> dict:
    empty = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {}}
    out = {"setup_s": 0.5, "window_s": 1.0, "lat_s": [0.1, 0.2], "ref_s": [run.REF_NOMINAL_S],
           "attempted": 2, "failed": 0, "rss_mb": 1.0, "trace": empty,
           "mc": {"paths": 10, "t1_s": 1.0, "tN_s": 0.5, "time_to_se_s": 2.0}}
    if window_mc:  # an analytic pass times no Monte Carlo window
        out["mc"].update(kinds=list(run.KINDS), t1_rows=[0.1] * len(run.KINDS),
                         paths_per_row=1)
    return out


def test_metric_names_are_well_formed_and_declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    e2e = run.end_to_end([_fake_pass(True)], [_fake_pass(True)])
    for window_mc in (False, True):
        layer = run.per_layer(_fake_pass(window_mc), _fake_pass(window_mc))
        assert list(layer) == declared_layer
    assert list(e2e) == declared_e2e
    for name in declared_e2e + declared_layer:
        assert NAME.fullmatch(name), name
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layer}.items())


def test_times_are_stated_at_nominal_speed():
    slow = _fake_pass(True)
    slow["ref_s"] = [2.0 * run.REF_NOMINAL_S] * 3  # the machine ran at half speed
    wall = run.end_to_end([slow], [slow], adjust=False)
    nominal = run.end_to_end([slow], [slow])
    for name, factor in (("setup_s", 0.5), ("evals_per_s", 2.0), ("eval_p50_ms", 0.5),
                         ("eval_p90_ms", 0.5), ("mc_mpaths_per_s_t1", 2.0),
                         ("mc_time_to_se_s", 0.5), ("pass_frac", 1.0), ("peak_rss_mb", 1.0)):
        assert math.isclose(nominal[name][0], factor * wall[name][0]), name
