import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from tfade.mesh import graded_mesh, soe_interval, uniform_grid


class TestGradedMesh:
    def test_small_cubic_mesh(self):
        mesh = graded_mesh(2.0, 4, 3.0)
        assert mesh.t.tolist() == [0.0, 0.03125, 0.25, 0.84375, 2.0]

    def test_uniform_degenerate(self):
        mesh = graded_mesh(1.0, 8, 1.0)
        assert np.allclose(mesh.tau, 1.0 / 8, atol=1e-16)

    def test_step_growth_bound(self):
        # tau_{k+1} <= C T N^{-r} k^{r-1} with C = r 2^{r-1}, k >= 1
        T, N, r = 2.0, 64, 3.0
        mesh = graded_mesh(T, N, r)
        C = r * 2.0 ** (r - 1.0)
        k = np.arange(1, N)
        assert np.all(mesh.tau[1:] <= C * T * N ** (-r) * k ** (r - 1.0) * (1 + 1e-12))

    def test_endpoints_exact(self):
        mesh = graded_mesh(2.0, 37, 2.5)
        assert mesh.t[0] == 0.0
        assert mesh.t[-1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            graded_mesh(2.0, 4, 0.9)  # r < 1
        with pytest.raises(ValueError):
            graded_mesh(2.0, 1, 3.0)
        with pytest.raises(ValueError):
            graded_mesh(-1.0, 4, 3.0)
        with pytest.raises(ValueError, match="^T "):
            graded_mesh(math.inf, 8, 3.0)
        with pytest.raises(ValueError, match=r"\br\b"):
            graded_mesh(2.0, 8, math.inf)

    @settings(max_examples=50, deadline=None)
    @given(
        T=st.floats(0.1, 10.0),
        N=st.integers(2, 200),
        r=st.floats(1.0, 5.0),
    )
    def test_sum_of_steps_and_monotonicity(self, T, N, r):
        mesh = graded_mesh(T, N, r)
        assert abs(np.sum(mesh.tau) - T) <= 1e-12 * T
        assert np.all(mesh.tau > 0)
        assert np.all(np.diff(mesh.tau) >= -1e-15 * T)
        assert np.allclose(mesh.tbar, 0.5 * (mesh.t[:-1] + mesh.t[1:]), atol=0)

    def test_grading_sharpness(self):
        T, N, r = 2.0, 50, 3.0
        mesh = graded_mesh(T, N, r)
        ratio = mesh.tau[-1] / mesh.tau[0]
        closed = N**r * (1.0 - ((N - 1) / N) ** r)
        assert abs(ratio - closed) <= 1e-10 * closed


class TestSOEInterval:
    def test_small_cubic_mesh(self):
        mesh = graded_mesh(2.0, 4, 3.0)
        lo, hi = soe_interval(mesh)
        assert lo == pytest.approx(0.109375, abs=0)
        assert hi == pytest.approx(1.421875, abs=0)

    def test_uniform(self):
        mesh = graded_mesh(1.0, 10, 1.0)
        lo, hi = soe_interval(mesh)
        assert lo == pytest.approx(0.05, abs=1e-15)
        assert hi == pytest.approx(0.95, abs=1e-15)

    @pytest.mark.parametrize("N,r", [(2, 1.0), (3, 2.0), (5, 3.0), (9, 3.0), (16, 2.2)])
    def test_history_arguments_covered(self, N, r):
        # every quadrature argument tbar_n - s, s in [t_{k-1}, t_k], k <= n,
        # over every step n >= 1, lies inside the returned interval
        mesh = graded_mesh(2.0, N, r)
        lo, hi = soe_interval(mesh)
        x, _ = leggauss(32)
        for n in range(1, N):
            for k in range(1, n + 1):
                a, b = mesh.t[k - 1], mesh.t[k]
                s = 0.5 * (a + b) + 0.5 * (b - a) * x
                args = mesh.tbar[n] - s
                assert np.all(args >= lo * (1 - 1e-12))
                assert np.all(args <= hi * (1 + 1e-12))


class TestUniformGrid:
    def test_five_points(self):
        grid = uniform_grid(1.0, 4)
        assert grid.x.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_table_resolution(self):
        grid = uniform_grid(1.0, 2000)
        assert grid.h == pytest.approx(5e-4, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(L=st.floats(0.1, 50.0), M=st.integers(2, 5000))
    def test_span_exact(self, L, M):
        grid = uniform_grid(L, M)
        assert grid.x[-1] - grid.x[0] == L
        assert len(grid.x) == M + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_grid(0.0, 4)
        with pytest.raises(ValueError):
            uniform_grid(1.0, 1)
        with pytest.raises(ValueError, match="^L "):
            uniform_grid(math.inf, 8)
