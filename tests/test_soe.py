import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfade.soe import (
    SOEApprox,
    build_soe,
    certify_soe,
    eval_soe,
    leggauss,
)


class TestGaussLegendre:
    """The cached rule `build_soe` and the direct quadrature draw on: its
    increasing nodes make the exponents increasing."""

    def test_order_one_is_midpoint(self):
        x, w = leggauss(1)
        assert x.tolist() == [0.0]
        assert w.tolist() == [2.0]

    def test_order_two_closed_form(self):
        x, w = leggauss(2)
        assert np.allclose(x, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(w, [1.0, 1.0], atol=1e-15)

    def test_monomial_exactness_order_16(self):
        x, w = leggauss(16)
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(w * x**k) - exact) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_invariants(self, order):
        x, w = leggauss(order)
        assert abs(np.sum(w) - 2.0) <= 1e-13
        assert np.max(np.abs(x + x[::-1])) <= 1e-13
        assert np.all(w > 0)
        assert np.all(np.diff(x) > 0)
        assert np.all((x > -1) & (x < 1))

    def test_against_numpy(self):
        # numpy's rule, built once and shared read-only
        for order in (4, 12, 40, 64):
            x, w = leggauss(order)
            assert leggauss(order)[0] is x
            assert not x.flags.writeable and not w.flags.writeable
            ref_x, ref_w = np.polynomial.legendre.leggauss(order)
            assert np.array_equal(x, ref_x)
            assert np.array_equal(w, ref_w)


class TestBuildSOE:
    def test_unit_argument(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-4, 2.0)
        assert math.isclose(eval_soe(soe, 1.0), 1.0, rel_tol=1e-10)

    def test_certified_on_dense_grid(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-3, 2.0)
        report = certify_soe(soe, n_samples=10_000)
        assert report.max_rel_error <= 1e-10

    def test_kernel_values(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-4, 2.0)
        assert math.isclose(eval_soe(soe, 0.01), 0.01 ** (-1.5), rel_tol=1e-10)
        soe25 = soe_cache(0.25, 1e-10, 1e-3, 2.0)
        assert math.isclose(eval_soe(soe25, 2.0), 2.0 ** (-1.25), rel_tol=1e-10)

    def test_invariants(self, soe_cache):
        soe = soe_cache(0.25, 1e-10, 1e-3, 2.0)
        assert soe.n_exp >= 1
        assert np.all(soe.weights > 0)
        assert np.all(soe.exponents >= 0)
        assert np.all(np.diff(soe.exponents) > 0)

    def test_positivity_and_decay(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-3, 2.0)
        t = np.geomspace(soe.t_min, soe.t_max, 2000)
        vals = eval_soe(soe, t)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_monotone_refinement(self):
        # raising the per-panel node cap never worsens the certificate
        errs = []
        for cap in (8, 16, 64):
            soe = build_soe(0.5, 1e-6, 1e-3, 2.0, max_nodes_per_panel=cap)
            errs.append(certify_soe(soe, 2000).max_rel_error)
        assert errs[1] <= errs[0] * (1 + 1e-12)
        assert errs[2] <= errs[1] * (1 + 1e-12)

    def test_growth_law(self, soe_cache):
        # halving t_min costs at most one extra dyadic panel's nodes (<= 64)
        sizes = [soe_cache(0.5, 1e-10, t, 2.0).n_exp for t in (1e-3, 5e-4, 2.5e-4)]
        assert sizes[1] - sizes[0] <= 64
        assert sizes[2] - sizes[1] <= 64
        assert sizes[1] >= sizes[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_soe(0.5, 1e-16, 1e-4, 2.0)  # beyond double-precision certification
        with pytest.raises(ValueError):
            build_soe(0.5, 1e-1, 1e-4, 2.0)
        with pytest.raises(ValueError):
            build_soe(0.5, 1e-10, 2.0, 1e-4)  # t_min >= t_max
        with pytest.raises(ValueError):
            build_soe(1.5, 1e-10, 1e-4, 2.0)
        with pytest.raises(ValueError, match="t_max"):
            build_soe(0.5, 1e-10, 1e-3, math.inf)


class TestCertify:
    def test_postcondition(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-4, 2.0)
        assert certify_soe(soe, 10_000).max_rel_error <= soe.epsilon

    def test_mutation_detected(self, soe_cache):
        # Deleting a mid-spectrum term (the largest contributor at the
        # geometric-mean argument) must blow the certificate.  The literal
        # last term is below the drop threshold's significance by
        # construction, so corruption is probed where it matters.
        soe = soe_cache(0.5, 1e-10, 1e-3, 2.0)
        t_mid = math.sqrt(soe.t_min * soe.t_max)
        contrib = soe.weights * np.exp(-soe.exponents * t_mid)
        kill = int(np.argmax(contrib))
        keep = np.ones(soe.n_exp, dtype=bool)
        keep[kill] = False
        broken = SOEApprox(
            alpha=soe.alpha, epsilon=soe.epsilon, t_min=soe.t_min, t_max=soe.t_max,
            weights=soe.weights[keep], exponents=soe.exponents[keep],
        )
        assert certify_soe(broken, 2000).max_rel_error > soe.epsilon

    def test_sample_count_validation(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-3, 2.0)
        with pytest.raises(ValueError):
            certify_soe(soe, 99)

    def test_speed(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-4, 2.0)
        start = time.perf_counter()
        certify_soe(soe, 10_000)
        assert time.perf_counter() - start < 1.0


class TestEval:
    def test_degenerate_single_term(self):
        soe = SOEApprox(alpha=0.5, epsilon=1e-10, t_min=0.1, t_max=2.0,
                        weights=np.array([1.0]), exponents=np.array([0.0]))
        assert eval_soe(soe, 1.0) == 1.0
        assert eval_soe(soe, 0.3) == 1.0

    def test_out_of_range_rejected(self, soe_cache):
        soe = soe_cache(0.5, 1e-10, 1e-3, 2.0)
        with pytest.raises(ValueError):
            eval_soe(soe, 1e-4)
        with pytest.raises(ValueError):
            eval_soe(soe, 3.0)


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.1, 0.9),
    eps_exp=st.integers(-10, -4),
)
def test_certificate_property(alpha, eps_exp):
    eps = 10.0**eps_exp
    soe = build_soe(alpha, eps, 1e-3, 2.0)
    assert certify_soe(soe, 500).max_rel_error <= eps
