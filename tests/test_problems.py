import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfade.mesh import graded_mesh, uniform_grid
from tfade.operators import oracle_caputo
from tfade.problems import case, h1_norm, l2_norm, max_error, order_table
from tfade.solver import SchemeConfig, run


class TestCases:
    def test_case1_initial_value(self):
        mc = case(1, 0.5)
        assert mc.phi(np.array([0.5]))[0] == pytest.approx(0.0625, abs=0)

    def test_case2_boundary_compatibility(self):
        mc = case(2, 0.25)
        for t in (0.0, 0.3, 2.0):
            assert abs(mc.exact(np.array([1.0]), t)[0]) <= 1e-15
            assert abs(mc.exact(np.array([0.0]), t)[0]) == 0.0

    @pytest.mark.parametrize("cid", [0, 1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_initial_compatibility(self, cid, alpha):
        mc = case(cid, alpha)
        x = np.linspace(0.0, 1.0, 37)
        assert np.max(np.abs(mc.exact(x, 0.0) - mc.phi(x))) <= 1e-14

    @pytest.mark.parametrize("cid", [0, 1, 2, 3])
    def test_boundary_zero(self, cid):
        mc = case(cid, 0.5)
        for t in (0.1, 1.0, 2.0):
            assert abs(mc.exact(np.array([0.0]), t)[0]) <= 1e-15
            assert abs(mc.exact(np.array([1.0]), t)[0]) <= 1e-15

    def test_case0_is_the_zero_solution(self):
        mc = case(0, 0.5)
        x, t = np.linspace(0.0, 1.0, 9)[None, :], np.linspace(0.1, 2.0, 5)[:, None]
        assert np.all(mc.exact(x, t) == 0.0) and np.all(mc.forcing(x, t) == 0.0)
        assert mc.forcing(x, t).shape == (5, 9)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            case(4, 0.5)

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("alpha", {"alpha": 0.0}), ("alpha", {"alpha": 1.0}), ("alpha", {"alpha": math.nan}),
            ("lam", {"lam": -0.1}), ("lam", {"lam": math.inf}), ("lam", {"lam": math.nan}),
            ("delta", {"delta": -0.2}), ("delta", {"delta": 0.0}),
            ("delta", {"delta": math.inf}), ("delta", {"delta": math.nan}),
        ],
    )
    def test_invalid_field_named(self, field, kwargs):
        args = {"alpha": 0.5, "lam": 1.0, "delta": 1.8, **kwargs}
        with pytest.raises(ValueError, match=f"^{field} "):
            case(1, **args)


def _fd_time_derivative(fn, t, rel_step=1e-2):
    """4th-order central difference with a step proportional to t."""
    h = rel_step * t
    return (
        fn(t - 2 * h) - 8.0 * fn(t - h) + 8.0 * fn(t + h) - fn(t + 2 * h)
    ) / (12.0 * h)


def _fd_x(fn, x, h=1e-4):
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


def _fd_xx(fn, x, h=2e-4):
    return (
        -fn(x - 2 * h) + 16 * fn(x - h) - 30 * fn(x) + 16 * fn(x + h) - fn(x + 2 * h)
    ) / (12 * h * h)


def residual_at(mc, x, t):
    """PDE-consistency residual via independent numerics.

    u_t, u_x, u_xx are high-order finite differences of the exact solution;
    the tempered derivative comes from the quadrature oracle fed with a
    finite-difference time derivative (step scaled by s so the error stays
    integrable against the kernel).
    """
    u_of_t = lambda s: mc.exact(x, s)
    du_of_t = lambda s: _fd_time_derivative(u_of_t, s, rel_step=5e-3)
    d_frac = oracle_caputo(u_of_t, du_of_t, t, mc.alpha, mc.lam)
    u_t = _fd_time_derivative(u_of_t, t, rel_step=1e-3)
    u_x = _fd_x(lambda xx: mc.exact(xx, t), x)
    u_xx = _fd_xx(lambda xx: mc.exact(xx, t), x)
    return u_t + d_frac - u_xx + u_x - mc.forcing(x, t)


class TestForcingProvenance:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    @pytest.mark.parametrize("alpha,lam,delta", [(0.25, 1.0, 1.8), (0.5, 0.5, 1.2)])
    def test_pde_residual(self, cid, alpha, lam, delta):
        mc = case(cid, alpha, lam, delta)
        rng = np.random.default_rng(42)
        xs = rng.uniform(0.1, 0.9, 10)
        ts = rng.uniform(0.2, 1.9, 10)
        for x, t in zip(xs, ts):
            r = residual_at(mc, float(x), float(t))
            assert abs(r) <= 1e-6, (cid, alpha, lam, delta, x, t, r)

    def test_case3_residual_dense_sweep(self):
        # the transcription of case 3 needs the full q''-q' combination; a
        # denser scan guards the corrected polynomial factors
        mc = case(3, 0.25, 1.0, 1.8)
        for x in (0.15, 0.35, 0.55, 0.85):
            for t in (0.4, 1.5):
                assert abs(residual_at(mc, x, t)) <= 1e-6


class TestNorms:
    def test_l2_single_entry(self):
        assert l2_norm(np.array([3.0]), 0.5) == pytest.approx(math.sqrt(0.5) * 3.0, rel=0)

    def test_l2_zero(self):
        assert l2_norm(np.zeros(5), 0.1) == 0.0

    def test_l2_matches_piecewise_constant_integral(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(33)
        h = 1.0 / 34
        brute = math.sqrt(sum(h * vi * vi for vi in v))
        assert math.isclose(l2_norm(v, h), brute, rel_tol=1e-14)

    def test_h1_zero(self):
        assert h1_norm(np.zeros(9), 0.1) == 0.0

    def test_h1_spike(self):
        # single interior spike of height a: two jumps of a/h each
        a, h, m = 1.7, 0.125, 7
        v = np.zeros(m)
        v[3] = a
        seminorm_sq = 2.0 * a * a / h
        assert math.isclose(h1_norm(v, h) ** 2, h * a * a + seminorm_sq, rel_tol=1e-13)

    def test_h1_hat_function_analytic(self):
        # piecewise-linear hat on [0, 1]: |u|_{H1}^2 = 2/x0 analog on the grid
        m = 15
        h = 1.0 / (m + 1)
        x = np.arange(1, m + 1) * h
        peak = 8
        v = np.where(x <= x[peak - 1], x / x[peak - 1], (1 - x) / (1 - x[peak - 1]))
        # analytic H1 seminorm^2 of the interpolant: 1/a + 1/(1-a)
        a = x[peak - 1]
        semi_exact = 1.0 / a + 1.0 / (1.0 - a)
        l2_sq = h * float(np.dot(v, v))
        assert math.isclose(h1_norm(v, h) ** 2, l2_sq + semi_exact, rel_tol=1e-13)

    @pytest.mark.parametrize("norm", [l2_norm, h1_norm])
    def test_stack_gives_one_norm_per_row(self, norm):
        v = np.random.default_rng(1).standard_normal((4, 13))
        stacked = norm(v, 0.07)
        assert stacked.shape == (4,)
        for row, value in zip(v, stacked):
            assert math.isclose(value, norm(row, 0.07), rel_tol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_h1_dominates_l2(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(12)
        assert h1_norm(v, 0.05) >= l2_norm(v, 0.05)


class TestMaxError:
    def test_exact_trajectory_is_zero(self):
        mc = case(1, 0.5)
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=12, N=8, method="direct")
        mesh = graded_mesh(cfg.T, cfg.N, cfg.r)
        grid = uniform_grid(cfg.L, cfg.M)
        traj = run(cfg, mc)
        for n in traj.snapshots:
            traj.snapshots[n] = mc.exact(grid.x_interior, mesh.t[n])
        assert max_error(traj, mc, "l2") == 0.0
        assert max_error(traj, mc, "h1") == 0.0

    @pytest.mark.parametrize("norm", ["l2", "h1"])
    def test_matches_a_loop_over_levels(self, norm):
        mc = case(3, 0.5)
        traj = run(SchemeConfig(alpha=0.5, lam=1.0, M=20, N=16), mc)
        fn = {"l2": l2_norm, "h1": h1_norm}[norm]
        loop = max(
            fn(traj.snapshots[n] - mc.exact(traj.grid.x_interior, traj.mesh.t[n]), traj.grid.h)
            for n in range(1, 17)
        )
        assert math.isclose(max_error(traj, mc, norm), loop, rel_tol=1e-12)


class TestOrderTable:
    def test_exact_quartering(self):
        rows = order_table([(16, 4e-4), (32, 1e-4)])
        assert rows[0].order is None
        assert rows[1].order == pytest.approx(2.0, abs=1e-12)

    def test_spatial_doubling(self):
        rows = order_table([(20, 3.3885e-1), (40, 8.4711e-2)])
        assert rows[1].order == pytest.approx(2.0000, abs=5e-4)

    def test_step_referenced_order(self):
        # temporal tables measure order against the maximal step size on the
        # graded mesh, tau_N = T(1 - ((N-1)/N)^r): that convention turns the
        # published (16 -> 32) pair into 2.0588
        def tau_max(n):
            return 2.0 * (1.0 - ((n - 1) / n) ** 3.0)

        rows = order_table(
            [(16, 2.6375e-5), (32, 6.7577e-6)], steps=[tau_max(16), tau_max(32)]
        )
        assert rows[1].order == pytest.approx(2.0588, abs=2e-4)

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            order_table([(16, 1e-3), (32, 0.0)])

    def test_steps_must_align(self):
        with pytest.raises(ValueError):
            order_table([(16, 1e-3), (32, 1e-4)], steps=[0.1])
