import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from tfade.mesh import TemporalMesh, graded_mesh, soe_interval
from tfade.operators import (
    HistoryState,
    ab_coeffs,
    direct_history_weights,
    direct_quadrature,
    explicit_part,
    history_advance,
    lambda_tables,
    live_exponents,
    local_coefficients,
    oracle_caputo,
)
from tfade.problems import case
from tfade.soe import build_soe
from tfade.solver import SchemeConfig, run

mpmath.mp.dps = 40

ALPHA, LAM, DELTA = 0.5, 1.0, 1.8


def quad_lambda_oracle(lam, s, tau_n, tau_np1):
    """64-node quadrature of the two interpolation moments (independent path)."""
    mu = lam + s
    x, wq = leggauss(64)
    u = 0.5 * tau_n + 0.5 * tau_n * x
    w = 0.5 * tau_n * wq
    kern = np.exp(-mu * (tau_np1 / 2.0 + tau_n - u))
    return float(np.sum(w * kern * u / tau_n)), float(np.sum(w * kern * (tau_n - u) / tau_n))


def two_step_moments(lam, s, tau_n, tau_np1):
    """Row 1 of `lambda_tables` on the mesh (0, tau_n, tau_n + tau_np1) for
    the one exponent s: the moments of the interval [0, tau_n] seen from
    the half level of the step tau_np1."""
    t = np.array([0.0, tau_n, tau_n + tau_np1])
    mesh = TemporalMesh(
        T=float(t[-1]), N=2, r=1.0, t=t, tau=np.diff(t), tbar=0.5 * (t[:-1] + t[1:])
    )
    lam1, lam2, _ = lambda_tables(mesh, np.array([s], dtype=float), lam)
    return float(lam1[1, 0]), float(lam2[1, 0])


def fast_bracket(alpha, soe, hist):
    """History bracket alpha sum_i omega_i H_i of the fast operator."""
    return alpha * (hist.H @ soe.weights)


def direct_bracket(mesh, lam, alpha, u, n):
    """History bracket alpha sum_k a_k u^k + b_k u^{k-1} of the direct operator."""
    if n == 0:
        return 0.0
    nodes, hats = direct_quadrature(mesh)
    a, b = direct_history_weights(nodes, hats, mesh.tbar[n], lam, alpha, n)
    return alpha * float(a @ u[1 : n + 1] + b @ u[:n])


class TestLambdaWeights:
    def test_mu_zero_is_trapezoid(self):
        assert two_step_moments(0.0, 0.0, 0.1, 0.2) == (0.05, 0.05)

    def test_sum_identity(self):
        lam, s, tau_n, tau_np1 = 1.0, 10.0, 0.1, 0.2
        mu = lam + s
        l1, l2 = two_step_moments(lam, s, tau_n, tau_np1)
        closed = math.exp(-mu * tau_np1 / 2.0) * (1.0 - math.exp(-mu * tau_n)) / mu
        assert math.isclose(l1 + l2, closed, rel_tol=1e-14)

    def test_against_quadrature(self):
        l1, l2 = two_step_moments(1.0, 10.0, 0.1, 0.2)
        q1, q2 = quad_lambda_oracle(1.0, 10.0, 0.1, 0.2)
        assert math.isclose(l1, q1, rel_tol=1e-12)
        assert math.isclose(l2, q2, rel_tol=1e-12)

    def test_series_guard_against_high_precision(self):
        # oracle: the same moment factors at 40 digits; covers the series
        # branch, the crossover and the naive branch
        for z in [1e-8, 1e-5, 1e-3, 5e-3, 0.05, 0.3, 0.4, 2.0, 40.0]:
            tau = 0.1
            mu = z / tau
            l1, l2 = two_step_moments(0.0, mu, tau, tau)
            zm = mpmath.mpf(z)
            f1 = (mpmath.e**-zm - 1 + zm) / zm**2
            f2 = (1 - mpmath.e**-zm - zm * mpmath.e**-zm) / zm**2
            damp = mpmath.e ** (-zm / 2) * tau
            assert math.isclose(l1, float(damp * f1), rel_tol=5e-13), z
            assert math.isclose(l2, float(damp * f2), rel_tol=5e-13), z

    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(0.0, 5.0),
        s=st.floats(0.0, 1e6),
        tau_n=st.floats(1e-6, 0.5),
        ratio=st.floats(1.0, 3.0),
    )
    def test_nonnegative(self, lam, s, tau_n, ratio):
        l1, l2 = two_step_moments(lam, s, tau_n, ratio * tau_n)
        assert l1 >= 0.0 and l2 >= 0.0


class TestLocalCoefficients:
    def test_grouping_identity(self):
        # (1 - 2 alpha e) B == (1 - 2 e) B + e (tau/2)^-alpha / Gamma(1-alpha);
        # the two groupings must agree to 1e-13 relative to the coefficient
        # scale B (the combination itself suffers benign cancellation)
        mesh = graded_mesh(2.0, 64, 3.0)
        for alpha in (0.25, 0.5, 0.75):
            coeffs = local_coefficients(mesh, alpha, LAM)
            for n in (0, 5, 10, 63):
                tau = mesh.tau[n]
                B = coeffs.B[n]
                e = math.exp(-LAM * tau / 2.0)
                rhs = (1 - 2 * e) * B + e * (tau / 2.0) ** (-alpha) * coeffs.inv_gamma1
                assert abs(coeffs.c_expl[n] - rhs) <= 1e-13 * B

    def test_closed_form_b(self):
        # alpha = 0.5, tau = 0.01, lam = 0
        mesh = graded_mesh(0.02, 2, 1.0)  # uniform steps of 0.01
        coeffs = local_coefficients(mesh, 0.5, 0.0)
        expected = 0.01 ** (-0.5) / (2**0.5 * (math.sqrt(math.pi) / 2.0))
        assert math.isclose(coeffs.B[0], expected, rel_tol=1e-14)

    def test_n0_reduction(self):
        # at n = 0 the boundary term cancels the history opening exactly and
        # the operator is B [u1 + (1 - 2 e^{-lam tau1/2}) u0]
        mesh = graded_mesh(2.0, 8, 3.0)
        coeffs = local_coefficients(mesh, ALPHA, LAM)
        u0, u1 = 0.7, -0.3
        full = coeffs.B[0] * u1 + explicit_part(coeffs, 0, u0, u0, 0.0)
        expected = coeffs.B[0] * (u1 + (1 - 2 * math.exp(-LAM * mesh.tau[0] / 2.0)) * u0)
        assert math.isclose(full, expected, rel_tol=1e-12)


class TestHistoryAdvance:
    def test_zero_data(self, soe_cache):
        mesh = graded_mesh(2.0, 8, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, LAM)
        h = HistoryState(H=np.zeros((3, soe.n_exp)))
        history_advance(h, np.zeros(3), np.zeros(3), lam1[1], lam2[1], decay[1], 1)
        assert np.all(h.H == 0.0)
        assert h.n_last == 1

    def test_trapezoid_limit(self):
        # one exponent with mu = 0 and unit decay accumulates trapezoid sums
        mesh = graded_mesh(2.0, 8, 3.0)
        h = HistoryState(H=np.zeros((1, 1)))
        u = np.linspace(0.3, 1.7, 9)
        for n in range(1, 8):
            half = np.array([mesh.tau[n - 1] / 2.0])
            history_advance(h, u[n : n + 1], u[n - 1 : n], half, half, np.ones(1), n)
        trapezoid = float(np.sum(0.5 * mesh.tau[:7] * (u[1:8] + u[:7])))
        assert math.isclose(h.H[0, 0], trapezoid, rel_tol=1e-14)

    def test_unrolled_sum_oracle(self, soe_cache):
        mesh = graded_mesh(2.0, 12, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, LAM)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(13)
        h = HistoryState(H=np.zeros((1, soe.n_exp)))
        mu = LAM + soe.exponents
        for n in range(1, 12):
            history_advance(h, u[n : n + 1], u[n - 1 : n], lam1[n], lam2[n], decay[n], n)
            unrolled = np.zeros(soe.n_exp)
            for k in range(1, n + 1):
                shift = np.exp(-np.minimum(mu * (mesh.tbar[n] - mesh.tbar[k]), 700.0))
                unrolled += shift * (lam1[k] * u[k] + lam2[k] * u[k - 1])
            scale = np.max(np.abs(unrolled)) or 1.0
            assert np.max(np.abs(h.H[0] - unrolled)) <= 1e-12 * scale

    def test_step_order_violation(self, soe_cache):
        mesh = graded_mesh(2.0, 8, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, LAM)
        h = HistoryState(H=np.zeros((1, soe.n_exp)))
        with pytest.raises(ValueError):
            history_advance(h, np.ones(1), np.ones(1), lam1[2], lam2[2], decay[2], 2)
        with pytest.raises(ValueError):
            history_advance(h, np.ones(1), np.ones(1), lam1[0], lam2[0], decay[0], 0)


    @pytest.mark.parametrize("order", ["C", "F"])
    def test_prefix_update_touches_only_its_columns(self, soe_cache, order):
        # a row prefix of length a updates H[:, :a] exactly as the whole row
        # does and leaves the other columns alone, in either layout
        mesh = graded_mesh(2.0, 8, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, LAM)
        rng = np.random.default_rng(7)
        u = rng.standard_normal((9, 5))
        full = HistoryState(H=np.zeros((5, soe.n_exp), order=order))
        part = HistoryState(H=np.zeros((5, soe.n_exp), order=order))
        a = soe.n_exp // 2
        for n in range(1, 8):
            before = part.H.copy()
            history_advance(full, u[n], u[n - 1], lam1[n], lam2[n], decay[n], n)
            history_advance(part, u[n], u[n - 1], lam1[n, :a], lam2[n, :a], decay[n, :a], n)
            assert np.array_equal(part.H[:, :a], full.H[:, :a])
            assert np.array_equal(part.H[:, a:], before[:, a:])


class TestLivePrefix:
    """The exponents `live_exponents` drops are exactly dead in the tables."""

    @pytest.fixture(scope="class")
    def mesh_soe(self):
        mesh = graded_mesh(2, 256, 3)
        return mesh, build_soe(ALPHA, 1e-10, *soe_interval(mesh))

    @pytest.mark.parametrize("lam", [0.0, LAM, 50.0])
    def test_beyond_live_exactly_zero(self, mesh_soe, lam):
        mesh, soe = mesh_soe
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, lam)
        live = live_exponents(mesh, soe.exponents, lam)
        assert live.shape == (mesh.N,) and live[0] == soe.n_exp
        assert live[-1] < soe.n_exp  # something is dropped, so the check bites
        for n in range(1, mesh.N):
            a = live[n]
            assert np.all(lam1[n, a:] == 0.0)
            assert np.all(lam2[n, a:] == 0.0)
            assert np.all(decay[n, a:] == 0.0)

    @pytest.mark.parametrize("lam", [0.0, LAM, 50.0])
    def test_live_never_increases(self, mesh_soe, lam):
        mesh, soe = mesh_soe
        live = live_exponents(mesh, soe.exponents, lam)
        assert np.all(np.diff(live) <= 0)

    def test_running_minimum(self):
        # graded meshes never shrink a step; on a hand-built mesh whose third
        # step is shorter than its second, the exponent dropped at step 1
        # stays dropped at step 2
        tau = np.array([1.0, 2.0, 1.0, 3.0])
        t = np.concatenate(([0.0], np.cumsum(tau)))
        mesh = TemporalMesh(T=float(t[-1]), N=4, r=1.0, t=t, tau=tau,
                            tbar=0.5 * (t[:-1] + t[1:]))
        live = live_exponents(mesh, np.array([1.0, 300.0, 500.0]), 0.0)
        assert live.tolist() == [3, 2, 2, 1]

    @pytest.mark.parametrize("lo,hi", [(0, 1), (0, 7), (1, 2), (3, 100), (100, 256), (255, 256), (17, 17)])
    def test_row_range_bit_identical(self, mesh_soe, lo, hi):
        mesh, soe = mesh_soe
        full = lambda_tables(mesh, soe.exponents, LAM)
        part = lambda_tables(mesh, soe.exponents, LAM, lo, hi)
        a = live_exponents(mesh, soe.exponents, LAM)[min(lo, mesh.N - 1)]
        prefix = lambda_tables(mesh, soe.exponents[:a], LAM, lo, hi)
        for f, p, q in zip(full, part, prefix):
            assert p.shape == (hi - lo, soe.n_exp)
            assert np.array_equal(p, f[lo:hi])
            assert np.array_equal(q, f[lo:hi, :a])

    @pytest.mark.parametrize("lo,hi", [(-1, 4), (5, 4), (0, 257)])
    def test_row_range_validation(self, mesh_soe, lo, hi):
        mesh, soe = mesh_soe
        with pytest.raises(ValueError):
            lambda_tables(mesh, soe.exponents, LAM, lo, hi)


class TestABCoeffs:
    def test_single_interval(self, soe_cache):
        mesh = graded_mesh(2.0, 8, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        ab = ab_coeffs(mesh, soe, LAM, ALPHA, 1)
        assert len(ab.a) == 1 and len(ab.b) == 1
        lam1, _, _ = lambda_tables(mesh, soe.exponents, LAM)
        assert math.isclose(
            ab.a[0], ALPHA * float(soe.weights @ lam1[1]), rel_tol=1e-13
        )

    def test_positivity(self, soe_cache):
        mesh = graded_mesh(2.0, 16, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        for n in range(1, 16):
            ab = ab_coeffs(mesh, soe, LAM, ALPHA, n)
            assert np.all(ab.a >= 0) and np.all(ab.b >= 0)

    @pytest.mark.parametrize("alpha,lam", [(0.25, 0.5), (0.5, 1.0), (0.75, 1.0)])
    def test_telescoping_bound(self, soe_cache, alpha, lam):
        eps = 1e-10
        for (n_steps, r) in ((16, 3.0), (32, 2.0)):
            mesh = graded_mesh(2.0, n_steps, r)
            soe = soe_cache(alpha, eps, *soe_interval(mesh))
            slack_allow = 10 * eps * (mesh.tau[1] / 2.0) ** (-1.0 - alpha) * mesh.t[-1]
            for n in range(1, n_steps):
                ab = ab_coeffs(mesh, soe, lam, alpha, n)
                total = ab.a[0] + ab.b[n - 1] + float(np.sum(ab.a[1:n] + ab.b[1:n]))
                tau = mesh.tau[n]
                bound = math.exp(-lam * tau / 2.0) * (tau / 2.0) ** (-alpha) - math.exp(
                    -lam * mesh.tbar[n]
                ) * mesh.tbar[n] ** (-alpha)
                assert total <= bound + slack_allow

    def test_two_path_equivalence(self, soe_cache):
        # operator value via the running recurrence equals the unrolled
        # a/b-coefficient form
        n_steps = 32
        mesh = graded_mesh(2.0, n_steps, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        coeffs = local_coefficients(mesh, ALPHA, LAM)
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, LAM)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(n_steps + 1)
        h = HistoryState(H=np.zeros((1, soe.n_exp)))
        for n in range(n_steps):
            if n >= 1:
                history_advance(h, u[n : n + 1], u[n - 1 : n], lam1[n], lam2[n], decay[n], n)
            hist = fast_bracket(ALPHA, soe, h)[0]
            val_rec = coeffs.B[n] * u[n + 1] + explicit_part(coeffs, n, u[n], u[0], hist)
            if n >= 1:
                ab = ab_coeffs(mesh, soe, LAM, ALPHA, n)
                bracket = ab.a[0] * u[n] + (ab.b[n - 1] + coeffs.bndry[n]) * u[0]
                for l in range(1, n):
                    bracket += (ab.a[n - l] + ab.b[n - 1 - l]) * u[l]
                val_ab = (
                    coeffs.B[n] * u[n + 1] + coeffs.c_expl[n] * u[n]
                    - coeffs.inv_gamma1 * bracket
                )
            else:
                val_ab = val_rec
            assert abs(val_rec - val_ab) <= 1e-11 * (1.0 + abs(val_rec))

    def test_validation(self, soe_cache):
        mesh = graded_mesh(2.0, 8, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        with pytest.raises(ValueError):
            ab_coeffs(mesh, soe, LAM, ALPHA, 0)

    def test_step_index_validation(self, soe_cache):
        mesh = graded_mesh(2.0, 8, 3.0)
        soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
        with pytest.raises(ValueError):
            ab_coeffs(mesh, soe, LAM, ALPHA, 8)


def _march_operator(mesh, soe, lam, alpha, u):
    """Operator values B u^{n+1} + E at every half level, recurrence path."""
    coeffs = local_coefficients(mesh, alpha, lam)
    lam1, lam2, decay = lambda_tables(mesh, soe.exponents, lam)
    h = HistoryState(H=np.zeros((1, soe.n_exp)))
    vals = np.empty(mesh.N)
    for n in range(mesh.N):
        if n >= 1:
            history_advance(h, u[n : n + 1], u[n - 1 : n], lam1[n], lam2[n], decay[n], n)
        hist = fast_bracket(alpha, soe, h)[0]
        vals[n] = coeffs.B[n] * u[n + 1] + explicit_part(coeffs, n, u[n], u[0], hist)
    return vals


class TestFastOperator:
    def test_constant_function_zero_derivative(self, soe_cache):
        # lam = 0: the tempered derivative of a constant vanishes
        eps = 1e-10
        mesh = graded_mesh(2.0, 32, 3.0)
        soe = soe_cache(ALPHA, eps, *soe_interval(mesh))
        u = np.ones(33)
        vals = _march_operator(mesh, soe, 0.0, ALPHA, u)
        allow = 10 * eps * (mesh.tau[1] / 2.0) ** (-1.0 - ALPHA) / math.gamma(1 - ALPHA)
        assert np.max(np.abs(vals)) <= allow

    def test_closed_form_profile(self, soe_cache):
        # u = e^{-lam t} t^delta has derivative
        # e^{-lam t} Gamma(delta+1)/Gamma(delta+1-alpha) t^(delta-alpha);
        # the late-time error obeys the (n+1)^{-(2-alpha)} envelope uniformly
        gq = math.gamma(DELTA + 1.0) / math.gamma(DELTA + 1.0 - ALPHA)
        env_consts = []
        for n_steps in (16, 32, 64):
            mesh = graded_mesh(2.0, n_steps, 3.0)
            soe = soe_cache(ALPHA, 1e-10, *soe_interval(mesh))
            u = np.exp(-LAM * mesh.t) * mesh.t**DELTA
            vals = _march_operator(mesh, soe, LAM, ALPHA, u)
            exact = np.exp(-LAM * mesh.tbar) * gq * mesh.tbar ** (DELTA - ALPHA)
            errs = np.abs(vals - exact)
            n_idx = np.arange(1, n_steps)
            env_consts.append(float(np.max((n_idx + 1.0) ** (2.0 - ALPHA) * errs[1:])))
        # uniform-in-N envelope constant: varies by less than 3x across N
        assert max(env_consts) / min(env_consts) < 3.0

    def test_initial_step_true_rate(self):
        # the n = 0 error decays like N^{-r(delta-alpha)}; see the decisions
        # ledger for why this differs from the r(delta+1-alpha) guess probed
        # (and expected to fail) in the acceptance suite
        gq = math.gamma(DELTA + 1.0) / math.gamma(DELTA + 1.0 - ALPHA)
        errs = []
        ns = (16, 32, 64, 128)
        for n_steps in ns:
            mesh = graded_mesh(2.0, n_steps, 3.0)
            coeffs = local_coefficients(mesh, ALPHA, LAM)
            u = np.exp(-LAM * mesh.t) * mesh.t**DELTA
            val = coeffs.B[0] * u[1] + explicit_part(coeffs, 0, u[0], u[0], 0.0)
            exact = math.exp(-LAM * mesh.tbar[0]) * gq * mesh.tbar[0] ** (DELTA - ALPHA)
            errs.append(abs(val - exact))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        expected = -3.0 * (DELTA - ALPHA)
        assert abs(slope - expected) <= 0.2


class TestDirectOperator:
    def test_n0_matches_fast(self):
        # step 0 has no history term, so both methods march their first
        # level through the identical arithmetic
        mc = case(1, ALPHA, LAM)
        levels = [
            run(SchemeConfig(alpha=ALPHA, lam=LAM, M=16, N=8, method=method), mc).snapshots[1]
            for method in ("fast", "direct")
        ]
        assert np.array_equal(levels[0], levels[1])

    def test_constant_lam_zero(self):
        mesh = graded_mesh(2.0, 16, 3.0)
        coeffs = local_coefficients(mesh, ALPHA, 0.0)
        u = np.ones(17)
        scale = (mesh.tau[1] / 2.0) ** (-1.0 - ALPHA) / math.gamma(1 - ALPHA)
        for n in range(16):
            hist = direct_bracket(mesh, 0.0, ALPHA, u, n)
            val = coeffs.B[n] * 1.0 + explicit_part(coeffs, n, u[n], u[0], hist)
            assert abs(val) <= 1e-10 * scale

    def test_fast_within_soe_budget(self, soe_cache):
        # the fast/direct difference is exactly the kernel compression error
        eps = 1e-10
        mesh = graded_mesh(2.0, 32, 3.0)
        soe = soe_cache(ALPHA, eps, *soe_interval(mesh))
        coeffs = local_coefficients(mesh, ALPHA, LAM)
        lam1, lam2, decay = lambda_tables(mesh, soe.exponents, LAM)
        u = np.exp(-LAM * mesh.t) * (mesh.t**DELTA + 1.0) * 0.0625
        allow = (
            10 * eps * math.exp(LAM * 2.0) * float(np.max(np.abs(u))) * 2.0
            * (mesh.tau[1] / 2.0) ** (-1.0 - ALPHA) / math.gamma(1 - ALPHA)
        )
        h = HistoryState(H=np.zeros((1, soe.n_exp)))
        for n in range(32):
            if n >= 1:
                history_advance(h, u[n : n + 1], u[n - 1 : n], lam1[n], lam2[n], decay[n], n)
            e_fast = explicit_part(coeffs, n, u[n], u[0], fast_bracket(ALPHA, soe, h)[0])
            e_direct = explicit_part(
                coeffs, n, u[n], u[0], direct_bracket(mesh, LAM, ALPHA, u, n)
            )
            assert abs(e_fast - e_direct) <= allow

    def test_weights_nonnegative(self):
        mesh = graded_mesh(2.0, 16, 3.0)
        nodes, hats = direct_quadrature(mesh)
        for n in (1, 5, 15):
            a, b = direct_history_weights(nodes, hats, mesh.tbar[n], LAM, ALPHA, n)
            assert np.all(a >= 0) and np.all(b >= 0)
            assert len(a) == n and len(b) == n

    @pytest.mark.parametrize("n", [1, 10, 63])
    def test_weights_against_mpmath(self, n):
        # each of a and b on its own against adaptive high-precision
        # quadrature: a swap of the right and left hats fails here, while
        # the constant-function checks only see a + b
        mesh = graded_mesh(2.0, 64, 3.0)
        nodes, hats = direct_quadrature(mesh)
        a, b = direct_history_weights(nodes, hats, mesh.tbar[n], LAM, ALPHA, n)
        tbar_n = mpmath.mpf(float(mesh.tbar[n]))
        for k in sorted({1, (n + 1) // 2, n}):
            t0, t1 = mpmath.mpf(float(mesh.t[k - 1])), mpmath.mpf(float(mesh.t[k]))

            def kern(s):
                v = tbar_n - s
                return mpmath.exp(-LAM * v) * v ** (-1 - ALPHA)

            ref_a = mpmath.quad(lambda s: kern(s) * (s - t0) / (t1 - t0), [t0, t1])
            ref_b = mpmath.quad(lambda s: kern(s) * (t1 - s) / (t1 - t0), [t0, t1])
            assert math.isclose(a[k - 1], float(ref_a), rel_tol=1e-12), (n, k)
            assert math.isclose(b[k - 1], float(ref_b), rel_tol=1e-12), (n, k)


class TestOracleCaputo:
    def test_power_profile_closed_form(self):
        for alpha, lam, delta in [(0.25, 1.0, 1.8), (0.5, 0.5, 1.2), (0.5, 1.0, 1.8)]:
            gq = math.gamma(delta + 1.0) / math.gamma(delta + 1.0 - alpha)
            u = lambda s: np.exp(-lam * s) * s**delta
            du = lambda s: np.exp(-lam * s) * (delta * s ** (delta - 1.0) - lam * s**delta)
            for t in (0.05, 0.7, 2.0):
                got = oracle_caputo(u, du, t, alpha, lam)
                expected = math.exp(-lam * t) * gq * t ** (delta - alpha)
                assert math.isclose(got, expected, rel_tol=1e-8), (alpha, lam, delta, t)

    def test_constant(self):
        u = lambda s: np.full_like(np.asarray(s, dtype=float), 3.0)
        du = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        assert abs(oracle_caputo(u, du, 1.3, 0.5, 0.0)) <= 1e-12

    def test_linear_classical(self):
        # lam = 0 reduces to the classical value t^(1-alpha)/Gamma(2-alpha)
        u = lambda s: np.asarray(s, dtype=float)
        du = lambda s: np.ones_like(np.asarray(s, dtype=float))
        for alpha in (0.25, 0.5, 0.75):
            t = 1.7
            expected = t ** (1.0 - alpha) / math.gamma(2.0 - alpha)
            assert math.isclose(oracle_caputo(u, du, t, alpha, 0.0), expected, rel_tol=1e-10)
