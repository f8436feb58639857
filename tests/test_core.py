"""Tests for problem parameters, reference zeros and scalar kernels."""

import numpy as np
import pytest

from frozenhill import (
    ConfigError,
    FrozenConfig,
    Potential,
    compute_alpha,
    phi,
)
from frozenhill.core import (
    SERIES_CUTOFF,
    delta0,
    reference_lambda,
    reference_lambda_array,
    reference_rho,
    reflect_problem,
    shift_to_zero,
    simpson,
    simpson_weights,
    snap_index,
    unshift,
)

PI = np.pi


class TestAlpha:
    def test_gamma_one_gives_zero(self):
        assert compute_alpha(1.0).alpha == 0

    def test_gamma_minus_one_gives_one(self):
        assert compute_alpha(-1.0).alpha == pytest.approx(1.0, abs=1e-15)

    def test_gamma_two_is_imaginary_log(self):
        alpha = compute_alpha(2.0).alpha
        assert alpha == pytest.approx(1j * np.log(2.0) / PI, abs=1e-13)
        assert np.cos(PI * alpha) == pytest.approx(1.25, abs=1e-13)

    def test_negative_gamma_lands_on_upper_strip_boundary(self):
        alpha = compute_alpha(-2.0).alpha
        assert alpha.real == pytest.approx(1.0, abs=1e-13)
        assert alpha.imag > 0
        assert np.cos(PI * alpha) == pytest.approx(-1.25, abs=1e-12)

    @pytest.mark.parametrize(
        "gamma", [2.0, 0.5, -3.0, 1 + 1j, 0.5 + 0.5j, 0.3 - 0.8j, -0.2 + 1.5j]
    )
    def test_region_and_cosine(self, gamma):
        alpha = compute_alpha(gamma).alpha
        re, im = alpha.real, alpha.imag
        assert (0 <= re <= 1 and im >= 0) or (0 < re < 1 and im < 0)
        target = (1 + gamma**2) / (2 * gamma)
        assert np.cos(PI * alpha) == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("gamma", [2.0, 1 + 1j, -0.7, 0.25 - 0.3j])
    def test_inversion_symmetry(self, gamma):
        a1 = compute_alpha(gamma).alpha
        a2 = compute_alpha(1.0 / gamma).alpha
        assert np.cos(PI * a1) == pytest.approx(np.cos(PI * a2), rel=1e-12)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ConfigError):
            compute_alpha(0.0)


class TestReferenceZeros:
    def test_even_branch(self):
        assert reference_rho(0, 0.5) == pytest.approx(0.5 * PI)
        assert reference_rho(2, 0.25j) == pytest.approx((2 + 0.25j) * PI)

    def test_odd_branch(self):
        assert reference_rho(1, 0.0) == pytest.approx(2 * PI)
        assert reference_rho(3, 0.3) == pytest.approx((4 - 0.3) * PI)

    @pytest.mark.parametrize(
        "gamma", [2.0, 0.5 + 0.5j, complex(np.exp(1j * PI / 4)), -1.05, 1.02, 1.0, -1.0, 3j]
    )
    def test_array_equals_scalar_loop(self, gamma):
        alpha = compute_alpha(gamma)
        got = reference_lambda_array(3000, alpha)
        want = np.array([reference_lambda(n, alpha) for n in range(3000)], dtype=complex)
        assert np.array_equal(got, want)
        # signed zeros too: compare the sign bits of every part
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))

    @pytest.mark.parametrize("gamma", [2.0, 1 + 1j, -1.0, 1.0, 0.5 + 0.5j])
    def test_reference_zeros_kill_delta0(self, gamma):
        alpha = compute_alpha(gamma)
        for n in range(12):
            lam = reference_lambda(n, alpha)
            assert abs(delta0(lam, gamma)) < 1e-10 * (1 + abs(lam))


class TestDelta0:
    def test_at_zero(self):
        assert delta0(0.0, 2.0) == pytest.approx(1.0)

    def test_pi_squared_periodic(self):
        assert delta0(PI**2, 1.0) == pytest.approx(4.0)

    def test_periodic_reference_zero(self):
        assert abs(delta0(4 * PI**2, 1.0)) < 1e-12

    def test_gamma_three_at_zero(self):
        assert delta0(0.0, 3.0) == pytest.approx(4.0)


class TestPhi:
    def test_zero_rho_limit(self):
        assert phi(0.0, 0.4) == pytest.approx(0.4)

    def test_sin_pi(self):
        assert abs(phi(PI, 1.0)) < 1e-15

    def test_series_matches_quotient(self):
        rho = 1e-4
        assert phi(rho, 1.0) == pytest.approx(1 - 1e-8 / 6, abs=1e-15)

    def test_continuity_across_cutoff(self):
        for angle in np.linspace(0, 2 * PI, 17):
            rho = SERIES_CUTOFF * np.exp(1j * angle)
            below = phi(rho * 0.999999, 0.7)
            above = phi(rho * 1.000001, 0.7)
            assert abs(below - above) < 1e-12 * abs(above)

    def test_vectorized_over_x(self):
        xs = np.linspace(-1, 1, 11)
        got = phi(2.0 + 1.0j, xs)
        expect = np.sin((2 + 1j) * xs) / (2 + 1j)
        assert np.allclose(got, expect, rtol=1e-14)


class TestSimpson:
    def test_cubic_exact(self):
        xs = np.linspace(0, 1, 17)
        val = simpson(xs**3, 1 / 16)
        assert val == pytest.approx(0.25, abs=1e-14)

    def test_odd_interval_count(self):
        n = 21
        xs = np.linspace(0, 1, n + 1)
        val = simpson(xs**3, 1 / n)
        assert val == pytest.approx(0.25, abs=1e-13)

    def test_weights_cached_read_only(self):
        w = simpson_weights(16)
        with pytest.raises(ValueError):
            w[0] = 99.0


class TestConfig:
    def test_rejects_zero_gamma(self):
        with pytest.raises(ConfigError):
            FrozenConfig(a=0.5, gamma=0.0)

    def test_rejects_a_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            FrozenConfig(a=1.5, gamma=1.0)

    def test_snap_rejects_misaligned(self):
        cfg = FrozenConfig(a=1 / 3, gamma=2.0)
        with pytest.raises(ConfigError):
            cfg.snap(16)

    @pytest.mark.parametrize("n", (16, 1024))
    def test_snap_tolerance_boundary(self, n):
        # a misalignment of 0.9e-9 max(1, n) grid steps snaps, one of 1.1e-9 max(1, n) does not
        k = n // 4
        assert snap_index((k + 0.9e-9 * n) / n, n) == k
        with pytest.raises(ConfigError):
            snap_index((k + 1.1e-9 * n) / n, n)

    def test_potential_grid_invariants(self):
        with pytest.raises(ConfigError):
            Potential(np.zeros(16))  # N = 15 odd
        with pytest.raises(ConfigError):
            Potential(np.zeros(11))  # N = 10 < 16


class TestShiftUnshift:
    def test_a_zero_identity(self):
        rng = np.random.default_rng(0)
        q = Potential(rng.normal(size=33) + 1j * rng.normal(size=33))
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        assert np.array_equal(shift_to_zero(q, cfg).samples, q.samples)
        assert np.array_equal(unshift(q, cfg).samples, q.samples)

    def test_a_one_scales(self):
        n = 32
        xs = np.linspace(0, 1, n + 1)
        q = Potential(xs.astype(complex))
        cfg = FrozenConfig(a=1.0, gamma=2.0)
        q_a = shift_to_zero(q, cfg)
        assert np.allclose(q_a.samples, xs / 2)
        back = unshift(q_a, cfg)
        assert np.allclose(back.samples, xs)

    def test_constant_through_half(self):
        q = Potential(np.ones(33, dtype=complex))
        cfg = FrozenConfig(a=0.5, gamma=1.0)
        assert np.allclose(shift_to_zero(q, cfg).samples, 1.0)

    def test_round_trip_exact_off_breakpoint(self):
        n = 64
        xs = np.linspace(0, 1, n + 1)
        q = Potential(np.exp(2j * PI * xs))
        # gamma = 2 makes the 1/gamma scaling exact in binary floats
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        back = unshift(shift_to_zero(q, cfg), cfg)
        # the lone polluted node is the image of the snapped breakpoint, x = 1
        assert np.max(np.abs(back.samples[:-1] - q.samples[:-1])) == 0.0

    def test_round_trip_generic_gamma(self):
        n = 64
        xs = np.linspace(0, 1, n + 1)
        q = Potential(np.exp(2j * PI * xs))
        cfg = FrozenConfig(a=0.25, gamma=3.0)
        back = unshift(shift_to_zero(q, cfg), cfg)
        assert np.max(np.abs(back.samples[:-1] - q.samples[:-1])) < 1e-12

    def test_shift_matches_formula(self):
        n = 32
        xs = np.linspace(0, 1, n + 1)
        q = Potential((xs + 1j * xs**2).astype(complex))
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        q_a = shift_to_zero(q, cfg)
        j_a = 8
        # left of the breakpoint: q(x + a)
        assert np.array_equal(q_a.samples[: n - j_a], q.samples[j_a:n])
        # from the breakpoint on: q(x + a - 1)/gamma
        assert np.allclose(q_a.samples[n - j_a :], q.samples[: j_a + 1] / 2.0)


class TestReflect:
    def test_parameters(self):
        q = Potential(np.linspace(0, 1, 33).astype(complex))
        cfg = FrozenConfig(a=0.7, gamma=2.0)
        q_r, cfg_r = reflect_problem(q, cfg)
        assert cfg_r.a == pytest.approx(0.3)
        assert cfg_r.gamma == pytest.approx(0.5)
        assert np.array_equal(q_r.samples, q.samples[::-1])

    def test_involution(self):
        rng = np.random.default_rng(1)
        q = Potential(rng.normal(size=33) + 1j * rng.normal(size=33))
        cfg = FrozenConfig(a=0.5, gamma=1 + 2j)
        q_rr, cfg_rr = reflect_problem(*reflect_problem(q, cfg))
        assert np.array_equal(q_rr.samples, q.samples)
        assert cfg_rr.a == pytest.approx(cfg.a)
        assert cfg_rr.gamma == pytest.approx(cfg.gamma, rel=1e-15)
