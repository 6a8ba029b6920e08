"""Independent oracle routes, the validation grid, and the MC confrontation."""

import math
from collections import Counter

import pytest

from aimdexit import (ComparisonRow, ExitKind, ExitSpec, ModelParams,
                      ValidationError, default_grid, l_up_from_b, quadrature_oracle_lup,
                      run_suite, volterra_oracle_zup, z_down, z_up)
from aimdexit.scalefn import c_tilde
from oracles import c_tilde_statement_oracle, z_down_renewal_residual
from unit_rate import at_rate


class TestVolterraOracle:
    def test_reproduces_the_up_passage_transform(self):
        w, lam, p, a = 1.0, 1.0, 0.5, 1.0
        exact = z_up(w, p, 0.0, a)
        coarse = volterra_oracle_zup(w, lam, p, a, 1 << 12)
        fine = volterra_oracle_zup(w, lam, p, a, 1 << 13)
        assert abs(coarse - exact) < 2e-6
        # the trapezoid-with-interpolation scheme converges at order ~2
        assert abs(fine - exact) < 0.45 * abs(coarse - exact)

    def test_second_parameter_set(self):
        w, lam, p, a = 0.5, 2.0, 0.3, 1.5
        exact = at_rate(z_up, w, lam, p, 0.0, a)
        got = volterra_oracle_zup(w, lam, p, a, 1 << 13)
        assert math.isclose(got, exact, rel_tol=1e-6)


class TestQuadratureOracle:
    def test_reproduces_the_reciprocal_scale_function(self):
        for (w, lam, p, b, x) in [(1.0, 1.0, 0.5, 1.0, 3.0),
                                  (0.5, 2.0, 0.3, 0.8, 4.0),
                                  (2.0, 0.5, 0.8, 1.0, 1.6)]:
            ref = at_rate(l_up_from_b, w, lam, p, b, x)
            got = quadrature_oracle_lup(w, lam, p, b, x)
            assert math.isclose(got, ref, rel_tol=1e-9)

    def test_rejects_points_beyond_the_interval_budget(self):
        with pytest.raises(ValidationError):
            quadrature_oracle_lup(1.0, 1.0, 0.5, 1.0, 1000.0, k_max=4)


class TestConstantStatementOracle:
    def test_matches_the_production_series(self):
        for (w, lam, p, b) in [(1.0, 1.0, 0.5, 1.0), (0.5, 2.0, 0.8, 0.4),
                               (3.0, 0.5, 0.3, 2.0)]:
            ref = at_rate(c_tilde, w, lam, p, b)
            got = c_tilde_statement_oracle(w, lam, p, b)
            assert math.isclose(got, ref, rel_tol=5e-12)


class TestRenewalResidual:
    def test_down_passage_satisfies_its_renewal_equation(self):
        for (w, lam, p, x, b) in [(1.0, 1.0, 0.5, 2.0, 1.0),
                                  (0.5, 2.0, 0.8, 1.5, 0.9)]:
            assert abs(z_down_renewal_residual(w, lam, p, x, b)) < 1e-9

    def test_holds_through_the_precision_escalation(self):
        # deep-cancellation point where float64 summation is pure noise
        w, lam, p = 3.0, 1.0, 0.3
        b = 0.6 / 0.7
        x = b * p ** -3.0
        v = z_down(w, p, x, b)
        assert 0.0 < v < 0.05
        assert abs(z_down_renewal_residual(w, lam, p, x, b)) < 1e-9


class TestDefaultGrid:
    def test_shape_and_coverage(self):
        grid = default_grid()
        assert len(grid) == 160
        kinds = Counter(spec.kind for _, spec, _ in grid)
        assert set(kinds) == set(ExitKind)
        assert all(count == 20 for count in kinds.values())

    def test_rows_are_well_formed(self):
        for params, spec, w in default_grid():
            assert params.lam > 0.0
            assert 0.0 < params.p < 1.0
            assert w >= 0.0

    def test_every_kind_exercises_discounted_and_plain_rows(self):
        grid = default_grid()
        for kind in ExitKind:
            ws = [w for _, spec, w in grid if spec.kind is kind]
            assert any(w == 0.0 for w in ws)
            assert any(w > 0.0 for w in ws)


class TestRunSuite:
    def test_spread_of_grid_rows_passes(self):
        grid = default_grid()
        rows = run_suite(grid[::27], n_paths=20_000, threads=2)
        assert len(rows) == len(grid[::27])
        for row in rows:
            assert isinstance(row, ComparisonRow)
            assert row.verdict == "pass", (row.spec, row.error, row.z_score)
            assert 0.0 <= row.analytic <= 1.0
            assert row.mc is not None

    def test_exact_rows_compare_at_absolute_tolerance(self):
        grid = [(ModelParams(lam=0.0, p=0.5),
                 ExitSpec(ExitKind.UP_ONE, x=0.0, a=1.0), 1.0)]
        (row,) = run_suite(grid, n_paths=16)
        assert row.verdict == "pass"
        assert row.z_score == 0.0
        assert row.mc.std_error == 0.0

    def test_mc_setup_errors_are_captured_per_row(self):
        grid = [g for g in default_grid() if g[2] > 0][:3]
        rows = run_suite(grid, n_paths=100, horizon_cap=0.5)
        assert [r.verdict for r in rows] == ["error"] * 3
        for row in rows:
            assert row.mc is None
            assert "horizon_cap" in row.error
            assert math.isfinite(row.analytic)  # evaluation itself succeeded

    def test_impossible_threshold_shows_the_reseeded_retry(self):
        # w > 0 rows have sampling noise, so z > 0 always trips threshold 0
        grid = [g for g in default_grid() if g[2] > 0][:2]
        rows = run_suite(grid, n_paths=2000, z_threshold=0.0)
        assert all(r.retried for r in rows)
        assert all(r.verdict == "fail" for r in rows)

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValidationError):
            run_suite([])
