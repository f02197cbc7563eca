import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfade.solver as solver_mod
from tfade.mesh import graded_mesh, soe_interval, uniform_grid
from tfade.operators import (
    HistoryState,
    ab_coeffs,
    direct_history_weights,
    direct_quadrature,
    explicit_part,
    history_advance,
    lambda_tables,
    local_coefficients,
)
from tfade.problems import case, l2_norm
from tfade.soe import build_soe
from tfade.solver import (
    SchemeConfig,
    SolveError,
    TridiagonalSystem,
    assemble_step,
    run,
    stability_probe,
    thomas_solve,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore:largest step violates the sufficient stability condition"
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(alpha=1.2, lam=1.0, M=8, N=8)
        with pytest.raises(ValueError):
            SchemeConfig(alpha=0.5, lam=-0.1, M=8, N=8)
        with pytest.raises(ValueError):
            SchemeConfig(alpha=0.5, lam=1.0, M=1, N=8)
        with pytest.raises(ValueError):
            SchemeConfig(alpha=0.5, lam=1.0, M=8, N=8, r=0.5)
        with pytest.raises(ValueError):
            SchemeConfig(alpha=0.5, lam=1.0, M=8, N=8, method="magic")

    def test_stability_warning_names_the_caller(self):
        # the warning points at the line that built the config, not into
        # the dataclass-generated __init__
        with pytest.warns(RuntimeWarning, match="stability condition") as rec:
            SchemeConfig(alpha=0.5, lam=1.0, M=8, N=16)
        assert rec[0].filename == __file__

    @pytest.mark.parametrize(
        "field,value",
        [("lam", math.nan), ("L", math.inf), ("T", math.inf), ("r", math.nan),
         ("alpha", -math.inf), ("epsilon", math.nan), ("M", 8.5), ("N", 16.0),
         ("N", True), ("epsilon", 0.5), ("lam", True), ("T", True)],
    )
    def test_bad_field_named(self, field, value):
        good = dict(alpha=0.5, lam=1.0, M=8, N=16)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            SchemeConfig(**{**good, field: value})

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_one_bad_field_rejected(self, data):
        non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
        bad = {
            "alpha": st.one_of(non_finite, st.floats(max_value=0.0), st.floats(min_value=1.0)),
            "lam": st.one_of(non_finite, st.floats(max_value=0.0, exclude_max=True)),
            "T": st.one_of(non_finite, st.floats(max_value=0.0)),
            "L": st.one_of(non_finite, st.floats(max_value=0.0)),
            "r": st.one_of(non_finite, st.floats(max_value=1.0, exclude_max=True)),
            "epsilon": st.one_of(non_finite, st.floats(max_value=0.0)),
            "M": st.one_of(st.integers(max_value=1), st.floats(), st.booleans()),
            "N": st.one_of(st.integers(max_value=1), st.floats(), st.booleans()),
            "method": st.text().filter(lambda m: m not in ("fast", "direct")),
        }
        field = data.draw(st.sampled_from(sorted(bad)))
        value = data.draw(bad[field])
        good = dict(alpha=0.5, lam=1.0, M=8, N=16, T=2.0, L=1.0, r=3.0, epsilon=1e-10)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            SchemeConfig(**{**good, field: value})

    def test_large_step_warns_but_proceeds(self):
        # tau_max^(2-2 alpha) >= 1/3 is only a sufficient condition
        with pytest.warns(RuntimeWarning, match="sufficient stability"):
            SchemeConfig(alpha=0.5, lam=1.0, M=8, N=4, r=3.0)

    def test_typical_config_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SchemeConfig(alpha=0.25, lam=1.0, M=8, N=64, r=3.0)


class TestThomas:
    def test_identity(self):
        m = 7
        sys_ = TridiagonalSystem(
            lower=np.zeros(m), diag=np.ones(m), upper=np.zeros(m),
            rhs=np.arange(1.0, m + 1.0),
        )
        assert np.array_equal(thomas_solve(sys_), np.arange(1.0, m + 1.0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_against_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        m = 5
        lower = rng.uniform(-1, 1, m)
        upper = rng.uniform(-1, 1, m)
        diag = 2.5 + rng.uniform(0, 1, m)  # diagonally dominant
        rhs = rng.uniform(-1, 1, m)
        dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        expected = np.linalg.solve(dense, rhs)
        got = thomas_solve(TridiagonalSystem(lower, diag, upper, rhs))
        assert np.max(np.abs(got - expected)) <= 1e-12 * (1 + np.max(np.abs(expected)))

    def test_actual_step_matrix_residual(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=40, N=16)
        mc = case(1, 0.5)
        mesh = graded_mesh(cfg.T, cfg.N, cfg.r)
        grid = uniform_grid(cfg.L, cfg.M)
        coeffs = local_coefficients(mesh, cfg.alpha, cfg.lam)
        u0 = mc.phi(grid.x_interior)
        E = explicit_part(coeffs, 0, u0, u0, 0.0)
        sys_ = assemble_step(
            grid.h, mesh.tau[0], coeffs.B[0], u0, E, mc.forcing(grid.x_interior, mesh.tbar[0])
        )
        x = thomas_solve(sys_)
        resid = (
            sys_.diag * x
            + np.concatenate(([0.0], sys_.lower[1:] * x[:-1]))
            + np.concatenate((sys_.upper[:-1] * x[1:], [0.0]))
            - sys_.rhs
        )
        assert np.max(np.abs(resid)) <= 1e-11 * max(1.0, np.max(np.abs(sys_.rhs)))

    def test_pivot_breakdown_reported(self):
        m = 3
        sys_ = TridiagonalSystem(
            lower=np.ones(m), diag=np.zeros(m), upper=np.ones(m), rhs=np.ones(m)
        )
        with pytest.raises(SolveError):
            thomas_solve(sys_)


def _step0_system(cfg: SchemeConfig, u0: np.ndarray, f_bar: np.ndarray):
    """The step-0 system of ``cfg`` from the initial interior values u0."""
    mesh = graded_mesh(cfg.T, cfg.N, cfg.r)
    grid = uniform_grid(cfg.L, cfg.M)
    coeffs = local_coefficients(mesh, cfg.alpha, cfg.lam)
    E = explicit_part(coeffs, 0, u0, u0, 0.0)
    return assemble_step(grid.h, mesh.tau[0], coeffs.B[0], u0, E, f_bar), mesh, grid, coeffs


class TestAssemble:
    def test_zero_history_zero_forcing(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=8, N=8, method="direct")
        sys_, *_ = _step0_system(cfg, np.zeros(cfg.M - 1), np.zeros(cfg.M - 1))
        assert np.all(sys_.rhs == 0.0)

    def test_single_interior_unknown_hand_formula(self):
        # M = 3: two boundary points, two interior unknowns collapse the
        # scheme to a 2x2 system; check row 0 against the hand formula
        cfg = SchemeConfig(alpha=0.5, lam=0.0, M=3, N=4, r=1.0, T=1.0, method="direct")
        u0 = np.array([0.2, -0.1])
        f_bar = np.array([1.0, 2.0])
        sys_, mesh, grid, coeffs = _step0_system(cfg, u0, f_bar)
        h = grid.h
        tau = mesh.tau[0]
        # rhs_0 = u0_0/tau + ((u0_1 - 2u0_0)/h^2 - u0_1/(2h))/2 - E_0 + f_0
        e0 = coeffs.c_expl[0] * u0[0] - coeffs.inv_gamma1 * coeffs.bndry[0] * u0[0]
        expected = (
            u0[0] / tau
            + 0.5 * ((u0[1] - 2 * u0[0]) / h**2 - u0[1] / (2 * h))
            - e0 + f_bar[0]
        )
        assert math.isclose(sys_.rhs[0], expected, rel_tol=1e-14)
        assert math.isclose(sys_.diag[0], 1 / tau + coeffs.B[0] + 1 / h**2, rel_tol=0)

    def test_lhs_eigenvalues_against_dense(self):
        # eigenvalues eta + 1/h^2 + 2 sqrt(ul) cos(k pi / M) >= eta > 0
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=8, N=8, method="direct")
        sys_, mesh, grid, coeffs = _step0_system(cfg, np.zeros(cfg.M - 1), np.zeros(cfg.M - 1))
        dense = (
            np.diag(sys_.diag)
            + np.diag(sys_.lower[1:], -1)
            + np.diag(sys_.upper[:-1], 1)
        )
        eigs = np.sort(np.linalg.eigvals(dense).real)
        h = grid.h
        eta = 1.0 / mesh.tau[0] + coeffs.B[0]
        k = np.arange(1, cfg.M)
        formula = np.sort(
            eta + 1.0 / h**2
            + 2.0 * math.sqrt((1 / (4 * h) - 1 / (2 * h**2)) * (-1 / (4 * h) - 1 / (2 * h**2)))
            * np.cos(k * np.pi / cfg.M)
        )
        assert np.allclose(eigs, formula, rtol=1e-10)
        assert np.all(eigs >= eta - 1e-9 * eta)

    def test_grouping_equivalence(self, soe_cache):
        # rhs assembled through the explicit-part route equals the regrouped
        # form with the a0/boundary terms folded per the error-equation layout
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=12, N=12)
        mesh = graded_mesh(cfg.T, cfg.N, cfg.r)
        grid = uniform_grid(cfg.L, cfg.M)
        soe = soe_cache(0.5, 1e-10, *soe_interval(mesh))
        coeffs = local_coefficients(mesh, cfg.alpha, cfg.lam)
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, cfg.lam)
        mc = case(1, 0.5)
        traj = run(cfg, mc)
        levels = np.stack([traj.snapshots[k] for k in range(cfg.N + 1)])
        hist = HistoryState(H=np.zeros((cfg.M - 1, soe.n_exp)))
        xi = grid.x_interior
        h = grid.h
        for n in range(1, cfg.N):
            history_advance(hist, levels[n], levels[n - 1], lam1[n], lam2[n], decay[n], n)
            f_bar = mc.forcing(xi, mesh.tbar[n])
            E = explicit_part(coeffs, n, levels[n], levels[0], cfg.alpha * (hist.H @ soe.weights))
            rhs_a = assemble_step(h, mesh.tau[n], coeffs.B[n], levels[n], E, f_bar).rhs.copy()
            # regrouped route
            ab = ab_coeffs(mesh, soe, cfg.lam, cfg.alpha, n)
            tau = mesh.tau[n]
            e = math.exp(-cfg.lam * tau / 2.0)
            pad = np.concatenate(([0.0], levels[n], [0.0]))
            up, dn = pad[2:], pad[:-2]
            bracket = (ab.a[0] - e * (tau / 2.0) ** (-cfg.alpha)) * levels[n] + (
                ab.b[n - 1] + coeffs.bndry[n]
            ) * levels[0]
            for l in range(1, n):
                bracket += (ab.a[n - l] + ab.b[n - 1 - l]) * levels[l]
            rhs_b = (
                up * (0.5 / h**2 - 1 / (4 * h))
                + dn * (0.5 / h**2 + 1 / (4 * h))
                + levels[n] * (1.0 / tau - (1 - 2 * e) * coeffs.B[n] - 1.0 / h**2)
                + coeffs.inv_gamma1 * bracket
                + f_bar
            )
            scale = np.max(np.abs(rhs_a)) or 1.0
            assert np.max(np.abs(rhs_a - rhs_b)) <= 1e-12 * scale


class TestRun:
    def test_zero_problem_stays_zero(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=16, N=16)
        traj = run(cfg, (lambda x: np.zeros_like(x), lambda x, t: np.zeros_like(x)))
        for n in range(17):
            assert np.all(traj.snapshots[n] == 0.0)

    @pytest.mark.parametrize("field", ["alpha", "lam", "L"])
    def test_case_for_another_problem_refused(self, field, monkeypatch):
        # a case whose alpha, lam or L differs from the config solves another
        # problem; run names the field before it builds any table (the
        # mesh builder is gone, so reaching it would be a TypeError)
        cfg = SchemeConfig(alpha=0.5, lam=2.0, M=8, N=8)
        monkeypatch.setattr(solver_mod, "graded_mesh", None)
        mc = {
            "alpha": case(1, 0.25, lam=2.0),
            "lam": case(1, 0.5, lam=1.0),
            "L": dataclasses.replace(case(1, 0.5, lam=2.0), L=2.0),
        }[field]
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            run(cfg, mc)

    def test_scalar_forcing_pair_accepted(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=8, N=8)
        traj = run(cfg, (lambda x: np.zeros_like(x), lambda x, t: 0.0))
        assert np.all(traj.snapshots[8] == 0.0)

    def test_nan_forcing_aborts_with_step(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=8, N=8, method="direct")

        def bad_forcing(x, t):
            return np.where(t > 1.0, np.nan, 0.0) * np.ones_like(x)

        with pytest.raises(SolveError) as err:
            run(cfg, (lambda x: np.zeros_like(x), bad_forcing))
        assert err.value.step is not None

    def test_forcing_fault_propagates(self):
        # an error the forcing raises ends the solve at once: its first
        # call, over (points, half levels), is its only one
        calls = []

        def faulty(x, t):
            calls.append(np.ndim(t))
            if np.ndim(t) > 0:
                raise ZeroDivisionError("fault in the forcing")
            return np.zeros_like(x)

        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=8, N=16)
        with pytest.raises(ZeroDivisionError):
            run(cfg, (lambda x: np.zeros_like(x), faulty))
        assert calls == [2]

    def test_table_block_size_leaves_levels_unchanged(self, monkeypatch):
        # the fast march makes its moments in blocks of rows over the live
        # exponents, and both methods evaluate the forcing and check for
        # NaN/Inf in blocks of steps; one row or step per block must give
        # the very same levels
        mc = case(2, 0.5)
        cfgs = [SchemeConfig(alpha=0.5, lam=1.0, M=12, N=200, method=method)
                for method in ("fast", "direct")]
        blocked = [run(cfg, mc) for cfg in cfgs]
        monkeypatch.setattr(solver_mod, "TABLE_BLOCK", 1)
        monkeypatch.setattr(solver_mod, "_BLOCK", 1)
        for cfg, ref in zip(cfgs, blocked):
            rows = run(cfg, mc)
            for n in range(cfg.N + 1):
                assert np.array_equal(ref.snapshots[n], rows.snapshots[n])

    @pytest.mark.parametrize("method", ["direct", "fast"])
    def test_numpy_march_matches_step_reference(self, method):
        # run's march folds the per-step coefficients into per-run tables;
        # rebuild every level from explicit_part + assemble_step and a dense
        # solve instead
        mc = case(1, 0.25)
        cfg = SchemeConfig(alpha=0.25, lam=1.0, M=24, N=24, method=method)
        traj = run(cfg, mc)
        mesh = graded_mesh(cfg.T, cfg.N, cfg.r)
        grid = uniform_grid(cfg.L, cfg.M)
        coeffs = local_coefficients(mesh, cfg.alpha, cfg.lam)
        levels = np.zeros((cfg.N + 1, cfg.M - 1))
        levels[0] = mc.phi(grid.x_interior)
        if method == "fast":
            soe = build_soe(cfg.alpha, cfg.epsilon, *soe_interval(mesh))
            lam1, lam2, decay = lambda_tables(mesh, soe.exponents, cfg.lam)
            state = HistoryState(H=np.zeros((cfg.M - 1, soe.n_exp)))
        else:
            nodes, hats = direct_quadrature(mesh)
        for n in range(cfg.N):
            hist = 0.0
            if method == "fast" and n >= 1:
                history_advance(state, levels[n], levels[n - 1], lam1[n], lam2[n], decay[n], n)
                hist = cfg.alpha * (state.H @ soe.weights)
            elif n >= 1:
                a, b = direct_history_weights(nodes, hats, mesh.tbar[n], cfg.lam, cfg.alpha, n)
                hist = cfg.alpha * (a @ levels[1 : n + 1] + b @ levels[:n])
            E = explicit_part(coeffs, n, levels[n], levels[0], hist)
            sys_ = assemble_step(
                grid.h, mesh.tau[n], coeffs.B[n], levels[n], E,
                mc.forcing(grid.x_interior, mesh.tbar[n]),
            )
            dense = (
                np.diag(sys_.diag)
                + np.diag(sys_.lower[1:], -1)
                + np.diag(sys_.upper[:-1], 1)
            )
            levels[n + 1] = np.linalg.solve(dense, sys_.rhs)
        for n in range(cfg.N + 1):
            assert np.allclose(traj.snapshots[n], levels[n], rtol=1e-12, atol=1e-15)

    def test_fast_direct_trajectory_agreement(self):
        # operational form of the O(eps) kernel-compression term
        for alpha in (0.25, 0.5):
            mc = case(1, alpha)
            t_f = run(SchemeConfig(alpha=alpha, lam=1.0, M=64, N=32, method="fast"), mc)
            t_d = run(SchemeConfig(alpha=alpha, lam=1.0, M=64, N=32, method="direct"), mc)
            gap = max(
                l2_norm(t_f.snapshots[n] - t_d.snapshots[n], t_f.grid.h)
                for n in range(1, 33)
            )
            assert gap <= 1e-6

    def test_every_level_is_a_view_of_one_table(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=12, N=32)
        traj = run(cfg, case(1, 0.5))
        assert list(traj.snapshots) == list(range(33))
        table = traj.snapshots[0].base
        assert table is not None and table.shape == (33, 11)
        assert all(u.base is table for u in traj.snapshots.values())

    def test_trajectory_metadata(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=16, N=8)
        traj = run(cfg, case(1, 0.5))
        assert traj.n_exp_used > 0
        assert traj.wall_time > 0
        assert np.all(traj.full_level(4)[[0, -1]] == 0.0)

    def test_step_cost_structure(self):
        # fast: history state size independent of n; direct: per-step weight
        # count grows linearly (the structural form of the cost claims)
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=16, N=16)
        mesh = graded_mesh(cfg.T, cfg.N, cfg.r)
        nodes, hats = direct_quadrature(mesh)
        a5, _ = direct_history_weights(nodes, hats, mesh.tbar[5], 1.0, 0.5, 5)
        a10, _ = direct_history_weights(nodes, hats, mesh.tbar[10], 1.0, 0.5, 10)
        assert len(a5) == 5 and len(a10) == 10
        traj = run(cfg, case(1, 0.5))
        assert traj.n_exp_used == run(cfg, case(1, 0.5)).n_exp_used


class TestStabilityProbe:
    def test_identical_data_rejected(self):
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=16, N=8)
        mc = case(1, 0.5)
        with pytest.raises(ValueError):
            stability_probe(cfg, mc.phi, mc.phi)

    def test_case1_contractive(self):
        mc = case(1, 0.5)
        cfg = SchemeConfig(alpha=0.5, lam=1.0, M=64, N=64)
        pert = lambda x: mc.phi(x) + 1e-3 * np.sin(np.pi * x)
        assert stability_probe(cfg, mc.phi, pert)["max_ratio"] <= 1 + 1e-10

    def test_classical_caputo_limit(self):
        mc = case(1, 0.5, lam=0.0)
        cfg = SchemeConfig(alpha=0.5, lam=0.0, M=32, N=32)
        pert = lambda x: mc.phi(x) + 1e-3 * np.sin(np.pi * x)
        assert stability_probe(cfg, mc.phi, pert)["max_ratio"] <= 1 + 1e-10
