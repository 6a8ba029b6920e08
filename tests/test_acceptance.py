"""Acceptance gate: ten go/no-go criteria, one test (and one report line) each.

Every test pins its tolerances and wall-clock budget inline, measures its own
runtime, and ends by printing a single ``criterion NN: PASS`` line (visible
with ``pytest -v -s``; the test name itself carries the criterion number for
the default report).
"""

import filecmp
import math
import time
from itertools import product

from aimdexit import (ExitKind, ExitSpec, McConfig, ModelParams,
                      default_grid, default_horizon_cap, evaluate,
                      interval_index, k_up_coeffs, l_down, l_up, l_up_from_b,
                      lst_drawup, mc_lst, quadrature_oracle_lup, run_suite,
                      solve_a, volterra_oracle_zup, z_down, z_up)
from aimdexit.cli import main as cli_main
from unit_rate import at_rate


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS — {detail}")


class TestAcceptance:
    def test_criterion_01_drift_only_exactness(self):
        t0 = time.monotonic()
        params = ModelParams(lam=0.0, p=0.5)
        pairs = [(0.0, 1.0), (0.5, 2.0), (1.0, 1.5), (2.0, 6.0), (0.25, 0.75)]
        for w, (x, a) in product((0.0, 0.5, 1.0, 2.0, 5.0), pairs):
            spec = ExitSpec(ExitKind.UP_ONE, x=x, a=a)
            exact = math.exp(-w * (a - x))
            assert abs(evaluate(params, spec, w) - exact) <= 1e-12
            cfg = McConfig(n_paths=64, seed=1, w=w,
                           horizon_cap=default_horizon_cap(w, 0.0))
            est = mc_lst(spec, params, cfg)
            assert est.mean == math.exp(-w * (a - x))
            assert est.std_error == 0.0
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        _report(1, f"25 drift-only points exact to 1e-12, simulator exact ({elapsed:.2f}s)")

    def test_criterion_02_undiscounted_normalization(self):
        t0 = time.monotonic()
        params = ModelParams(lam=1.0, p=0.5)
        single_exit = [
            ExitSpec(ExitKind.UP_ONE, x=1.0, a=2.0),
            ExitSpec(ExitKind.DOWN_ONE, x=2.0, b=1.0),
            ExitSpec(ExitKind.REFL_UPPER_DOWN, x=1.5, a=2.0, c=1.0),
            ExitSpec(ExitKind.REFL_LOWER_UP, x=1.2, c=2.0, b=1.0),
            ExitSpec(ExitKind.DRAWDOWN, x=2.0, c=1.0),
            ExitSpec(ExitKind.DRAWUP, x=1.0, u=1.0, c=0.5),
        ]
        for spec in single_exit:
            assert abs(evaluate(params, spec, 0.0) - 1.0) <= 1e-12
        up = evaluate(params, ExitSpec(ExitKind.TWO_SIDED_UP, x=1.5, a=2.5, b=1.0), 0.0)
        dn = evaluate(params, ExitSpec(ExitKind.TWO_SIDED_DOWN, x=1.5, a=2.5, b=1.0), 0.0)
        assert abs(up + dn - 1.0) <= 1e-9
        # the down-passage series degenerates at w = 0 exactly; approach it
        for (lam, p, x, b) in [(1.0, 0.5, 2.0, 1.0), (2.0, 0.8, 1.5, 0.9),
                               (0.5, 0.3, 3.0, 1.0)]:
            assert abs(at_rate(z_down, 1e-6, lam, p, x, b) - 1.0) <= 1e-4
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        _report(2, f"w=0 transforms equal 1; z_down(w=1e-6) within 1e-4 ({elapsed:.2f}s)")

    def test_criterion_03_volterra_oracle_agreement(self):
        t0 = time.monotonic()
        w, a = 1.0, 1.0
        worst = 0.0
        for lam, p in product((0.5, 1.0, 2.0), (0.3, 0.5, 0.8)):
            exact = at_rate(z_up, w, lam, p, 0.0, a)
            got = volterra_oracle_zup(w, lam, p, a, 1 << 14)
            worst = max(worst, abs(got - exact))
            assert abs(got - exact) <= 1e-6
        # empirical convergence order of the oracle itself
        lam, p = 1.0, 0.5
        exact = z_up(w, p, 0.0, a)
        e12 = abs(volterra_oracle_zup(w, lam, p, a, 1 << 12) - exact)
        e13 = abs(volterra_oracle_zup(w, lam, p, a, 1 << 13) - exact)
        order = math.log2(e12 / e13)
        assert order >= 1.9
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        _report(3, f"9 points <= 1e-6 (worst {worst:.2e}), order {order:.2f} ({elapsed:.2f}s)")

    def test_criterion_04_quadrature_oracle_agreement(self):
        t0 = time.monotonic()
        # 12 points spread over interval indices k <= 6, within the oracle's
        # high-precision envelope gamma (x - b) <~ 15
        points = [
            (1.0, 1.0, 0.5, 1.0, 1), (1.0, 1.0, 0.5, 1.0, 2), (1.0, 1.0, 0.5, 1.0, 3),
            (0.5, 1.0, 0.3, 1.0, 1), (0.5, 1.0, 0.3, 1.0, 2),
            (0.5, 0.5, 0.8, 0.5, 4), (0.5, 0.5, 0.8, 0.5, 6),
            (2.0, 2.0, 0.8, 0.4, 3), (2.0, 2.0, 0.8, 0.4, 6),
            (0.25, 0.5, 0.5, 2.0, 1), (0.25, 0.5, 0.5, 2.0, 2), (1.5, 2.0, 0.7, 0.8, 4),
        ]
        worst = 0.0
        for (w, lam, p, b, k) in points:
            x = b * p ** -(k + 0.5)
            assert interval_index(x, b, p) == k
            ref = quadrature_oracle_lup(w, lam, p, b, x)
            got = at_rate(l_up_from_b, w, lam, p, b, x)
            rel = abs(got - ref) / ref
            worst = max(worst, rel)
            assert rel <= 1e-9
        # continuity of the reciprocal scale function across breakpoints
        w, p, b = 1.0, 0.8, 1.0
        for k in range(1, 7):
            xk = b * p ** -k
            lo = l_up_from_b(w, p, b, xk * (1 - 1e-12))
            hi = l_up_from_b(w, p, b, xk * (1 + 1e-12))
            assert abs(hi - lo) <= 1e-10 * lo
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        _report(4, f"12 points rel <= 1e-9 (worst {worst:.2e}); breakpoints continuous ({elapsed:.2f}s)")

    def test_criterion_05_closed_form_golden_point(self):
        t0 = time.monotonic()
        # undiscounted two-sided race from the lower barrier: b=1, target 3,
        # lam=1, p=0.5.  The reciprocal scale function there is
        # K(3) = e^2 - 2 e + 2 e^{1/2} and the up probability is 1/K(3).
        k_golden = math.e ** 2 - 2.0 * math.e + 2.0 * math.exp(0.5)
        l_golden = 1.0 / k_golden
        k = interval_index(3.0, 1.0, 0.5)
        via_table = math.exp(k_up_coeffs(0.0, 0.5, 1.0, k).eval_log(1.0, 0.5, 3.0))
        assert math.isclose(via_table, k_golden, rel_tol=1e-12)
        assert math.isclose(l_up_from_b(0.0, 0.5, 1.0, 3.0), l_golden, rel_tol=1e-12)
        oracle = quadrature_oracle_lup(0.0, 1.0, 0.5, 1.0, 3.0)
        assert math.isclose(oracle, l_golden, rel_tol=1e-9)
        spec = ExitSpec(ExitKind.TWO_SIDED_UP, x=1.0, a=3.0, b=1.0)
        params = ModelParams(lam=1.0, p=0.5)
        cfg = McConfig(n_paths=1_000_000, seed=20260815, w=0.0,
                       horizon_cap=default_horizon_cap(0.0, 1.0))
        est = mc_lst(spec, params, cfg, threads=4)
        assert abs(est.mean - l_golden) <= 3.0 * est.std_error
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        _report(5, f"K={k_golden:.7f}, L={l_golden:.6f}: table/oracle/MC agree "
                   f"(z={(est.mean - l_golden) / est.std_error:+.2f}, {elapsed:.1f}s)")

    def test_criterion_06_full_grid_monte_carlo_confrontation(self):
        t0 = time.monotonic()
        grid = default_grid()
        assert len(grid) == 160  # 8 kinds x 20 points
        rows = run_suite(grid, n_paths=1_000_000, threads=4)
        failures = [r for r in rows if r.verdict != "pass"]
        assert not failures, [(r.spec.kind, r.w, r.z_score, r.error) for r in failures]
        retried = sum(1 for r in rows if r.retried)
        elapsed = time.monotonic() - t0
        assert elapsed < 480.0
        _report(6, f"160/160 rows within 3 sigma at 1e6 paths, {retried} retried ({elapsed:.0f}s)")

    def test_criterion_07_barrier_removal_limits(self):
        t0 = time.monotonic()
        # two-sided down part -> unbounded down passage as the top recedes
        w, p, b, x = 1.0, 0.5, 1.0, 2.0
        target = z_down(w, p, x, b)
        seq = [l_down(w, p, x, b * p ** -k, b) for k in (4, 6, 8, 10, 12)]
        assert all(v0 <= v1 + 1e-15 for v0, v1 in zip(seq, seq[1:]))
        assert abs(seq[-1] - target) <= 1e-4 * target
        # two-sided up part -> one-sided up passage as the floor drains away
        w, p, x, a = 1.0, 0.5, 1.0, 2.0
        target_up = z_up(w, p, x, a)
        seq_up = [l_up(w, p, x, a, b) for b in (0.1 * x, 0.01 * x, 0.001 * x)]
        assert all(v0 <= v1 + 1e-15 for v0, v1 in zip(seq_up, seq_up[1:]))
        assert abs(seq_up[-1] - target_up) <= 1e-2 * target_up
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        _report(7, f"l_down->z_down within 1e-4, l_up->z_up within 1e-2, both monotone ({elapsed:.2f}s)")

    def test_criterion_08_structural_identities(self):
        t0 = time.monotonic()
        combos = list(product((0.5, 1.0, 2.0), (0.3, 0.5, 0.8)))
        # up-passage transform multiplies over intermediate levels
        for lam, p in combos:
            for w in (0.5, 1.5):
                whole = at_rate(z_up, w, lam, p, 0.7, 2.9)
                split = at_rate(z_up, w, lam, p, 0.7, 1.6) * at_rate(z_up, w, lam, p, 1.6, 2.9)
                assert math.isclose(whole, split, rel_tol=1e-12)
        # the two-sided parts are sub-probabilities summing to one at w = 0
        for lam, p in combos:
            x, a, b = 1.4, 2.2, 0.9
            for w in (0.0, 0.8):
                s = at_rate(l_up, w, lam, p, x, a, b) + at_rate(l_down, w, lam, p, x, a, b)
                assert s <= 1.0 + 5e-13
                if w == 0.0:
                    assert abs(s - 1.0) <= 1e-9
        # the down passage cannot beat the first jump's discount
        for lam, p in combos:
            for w in (0.5, 2.0):
                assert at_rate(z_down, w, lam, p, 1.8, 0.9) <= lam / (lam + w) + 1e-12
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        _report(8, f"multiplicativity 1e-12, side split, first-jump bound on 9 combos ({elapsed:.2f}s)")

    def test_criterion_09_drawup_balancing_level(self):
        t0 = time.monotonic()
        points = [(w, lam, p, 0.8, 1.0)
                  for (w, lam, p) in product((0.5, 1.0), (0.5, 1.0, 2.0), (0.3, 0.5))]
        points = points[:10] + [(1.0, 1.0, 0.8, 0.5, 2.0), (0.7, 2.0, 0.8, 1.2, 0.6)]
        assert len(points) == 12
        worst = 0.0
        for (w, lam, p, c, u) in points:
            w, c, u = w / lam, lam * c, lam * u  # at jump rate 1
            a = solve_a(w, p, c, u)
            target = 1.0 - z_down(w, p, u + c, u)
            resid = abs(l_up(w, p, u + c, a, u) - target)
            worst = max(worst, resid)
            assert resid <= 1e-10
            tightened = solve_a(w, p, c, u, tol=1e-14)
            assert abs(a - tightened) <= 1e-8 * max(1.0, abs(a))
        # a start already at the drawup boundary exits immediately
        for (w, lam, p, c, u) in points[:4]:
            v = at_rate(lst_drawup, w, lam, p, u + c, u, c)
            assert abs(v - 1.0) <= 1e-10
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        _report(9, f"12 balance residuals <= 1e-10 (worst {worst:.1e}), tol-invariant, "
                   f"boundary start exits instantly ({elapsed:.1f}s)")

    def test_criterion_10_cli_thread_byte_identity(self, tmp_path):
        t0 = time.monotonic()
        outputs = {}
        for cmd, extra in (("simulate", ["--paths", "400000"]),
                           ("compare", ["--paths", "200000"])):
            paths = []
            for threads in ("1", "4", "8"):
                out = tmp_path / f"{cmd}-t{threads}.csv"
                rc = cli_main([cmd, "--kind", "two-sided-up", "--lambda", "1.0",
                               "--p", "0.5", "--w", "0.5,1.0", "--x", "1.2",
                               "--a", "2.0", "--b", "0.8", "--seed", "20260815",
                               "--threads", threads, "--output", str(out)] + extra)
                assert rc == 0
                paths.append(out)
            assert filecmp.cmp(paths[0], paths[1], shallow=False)
            assert filecmp.cmp(paths[0], paths[2], shallow=False)
            outputs[cmd] = paths[0].read_text()
        assert "threads" not in outputs["simulate"]  # echo excludes concurrency
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        _report(10, f"simulate+compare outputs byte-identical across 1/4/8 threads ({elapsed:.1f}s)")
