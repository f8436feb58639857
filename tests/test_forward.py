"""Tests for kernel assembly, the two Delta routes and eigenvalue location."""

import math

import numpy as np
import pytest

from conftest import (
    flat_sine_coeffs,
    potential_from_w_coeffs,
    sine_poly_potential,
    trig_poly_potential,
    window_flat_potential,
)
from frozenhill import (
    ConfigError,
    FrozenConfig,
    Potential,
    RootIsolationError,
    SineSeries,
    build_w,
    compute_alpha,
    compute_spectrum,
    eval_delta_det,
    eval_delta_fundrep,
    phi,
    verify_asymptotics,
)
from frozenhill.core import (
    delta0,
    reference_lambda,
    reference_rho,
    shift_to_zero,
    simpson_weights,
)
from frozenhill import forward
from frozenhill.forward import (
    PAIR_GAP,
    _SampledDelta,
    _accepted,
    _exp_sums,
    _newton,
    _quadratic_pair_refine,
    _reference_sums,
    _solve_window,
    fundamental_solutions,
)

PI = np.pi
N = 256


def grid(n=N):
    return np.linspace(0.0, 1.0, n + 1)


def fundamental_reference(x, lam, q, cfg):
    """C, C' and W at x from phi/cos kernels sampled pointwise on the segment [a, x]."""
    n = q.n
    j_x, j_a = round(x * n), round(cfg.a * n)
    rho = np.sqrt(complex(lam))
    a = cfg.a
    c, c_prime, w = np.cos(rho * (x - a)), -rho * np.sin(rho * (x - a)), 1.0
    if j_x != j_a:
        lo, hi = min(j_a, j_x), max(j_a, j_x)
        sign = 1.0 if j_x >= j_a else -1.0
        ts = np.linspace(lo / n, hi / n, hi - lo + 1)
        wts = simpson_weights(hi - lo) / n * q.samples[lo : hi + 1]
        c += sign * np.dot(wts, phi(rho, x - ts))
        c_prime += sign * np.dot(wts, np.cos(rho * (x - ts)))
        w += sign * np.dot(wts, phi(rho, a - ts))
    return complex(c), complex(c_prime), complex(w)


class TestBuildW:
    def test_zero_potential(self):
        w = build_w(Potential.zeros(N), FrozenConfig(a=0.25, gamma=2.0))
        assert np.all(w.samples == 0)

    def test_a_zero_constant(self):
        w = build_w(Potential(np.ones(N + 1, complex)), FrozenConfig(a=0.0, gamma=2.0))
        assert np.allclose(w.samples, 6.0)

    def test_quarter_point_unit_coupling(self):
        w = build_w(Potential(np.ones(N + 1, complex)), FrozenConfig(a=0.25, gamma=1.0))
        assert np.allclose(w.samples, 2.0)

    @pytest.mark.parametrize("gamma,sign", [(1.0, 1.0), (-1.0, -1.0)])
    def test_symmetry_for_unit_couplings(self, gamma, sign):
        rng = np.random.default_rng(5)
        q = trig_poly_potential(rng, N)
        for a in (0.0, 0.25, 0.5):
            w = build_w(q, FrozenConfig(a=a, gamma=gamma)).samples
            assert np.max(np.abs(w - sign * w[::-1])) < 1e-12 * max(1, np.max(np.abs(w)))

    def test_reflection_for_large_a(self):
        # w for a > 1/2 is gamma^2 times the mirrored problem's kernel
        rng = np.random.default_rng(6)
        q = trig_poly_potential(rng, N)
        cfg = FrozenConfig(a=0.75, gamma=2.0)
        w = build_w(q, cfg)
        q_r = Potential(q.samples[::-1].copy())
        w_r = build_w(q_r, FrozenConfig(a=0.25, gamma=0.5))
        assert np.allclose(w.samples, 4.0 * w_r.samples, rtol=1e-13)


class TestFundamentalSolutions:
    def test_initial_conditions_at_a(self):
        q = Potential(np.ones(N + 1, complex))
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        fs = fundamental_solutions(0.25, 17.0 + 3j, q, cfg)
        assert fs.c == pytest.approx(1.0)
        assert fs.s_prime == pytest.approx(1.0)
        assert abs(fs.s) < 1e-15 and abs(fs.c_prime) < 1e-15
        assert fs.w == pytest.approx(1.0)

    def test_free_solutions(self):
        q = Potential.zeros(N)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        fs = fundamental_solutions(1.0, PI**2, q, cfg)
        assert fs.c == pytest.approx(-1.0, abs=1e-14)
        assert abs(fs.s) < 1e-14

    def test_constant_potential_closed_form(self):
        # C(1, 0) = 1 + int_0^1 (1 - t) dt = 3/2 for q = 1, a = 0
        q = Potential(np.ones(2048 + 1, complex))
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        fs = fundamental_solutions(1.0, 0.0, q, cfg)
        assert fs.c == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 1.0])
    def test_matches_pointwise_kernels(self, a):
        # rho on both sides of the |rho| = 0.5 switch to the exponential
        # kernels, |Im rho| up to 14, lambda = 0, and x = a (empty segment)
        rng = np.random.default_rng(11)
        q = trig_poly_potential(rng, 1024, degree=4)
        cfg = FrozenConfig(a=a, gamma=2.0)
        rhos = (0.0, 0.3, 0.2 + 0.45j, 0.4999, 0.5001, 0.7 + 0.2j, 14j, -14j,
                3 + 14j, 3 - 14j, 0.5 + 13.9j, 10 + 5j, 20.0)
        for x in (0.0, 0.125, 0.25, 0.375, 0.5, 0.8125, 1.0):
            for rho in rhos:
                lam = complex(rho) ** 2
                fs = fundamental_solutions(x, lam, q, cfg)
                ref = fundamental_reference(x, lam, q, cfg)
                for got, want in zip((fs.c, fs.c_prime, fs.w), ref):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (x, rho)

    @pytest.mark.parametrize("n", [16, 18, 1000, 2048])
    def test_blocked_sums_match_direct(self, n):
        # segment lengths around the b x b blocking (b = isqrt(n)), and the full grid;
        # the reference is the direct sum in extended precision where the
        # platform has it
        rng = np.random.default_rng(n)
        b = math.isqrt(n)
        for size in sorted({1, 2, 3, b * b - 1, b * b, b * b + 1, n + 1}):
            c = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
            k = np.arange(size, dtype=np.longdouble)
            for rho in (0.5, 3 + 0.2j, 40 - 7j, 2 + 60j, 0.7 - 150j, 5 + 300j, -5 - 300j, 200 + 200j):
                for anchor in (0.0, 0.25, (size - 1) / n):
                    fwd, bwd = _exp_sums(c, rho, anchor, n)
                    e = np.exp(1j * np.clongdouble(rho) * (np.longdouble(anchor) - k / n))
                    for got, terms in ((fwd, c * e), (bwd, c / e)):
                        bound = 1e-13 * np.sum(np.abs(terms))
                        assert abs(np.clongdouble(got) - np.sum(terms)) <= bound, (size, rho, anchor)

    def test_wronski_identity(self):
        rng = np.random.default_rng(7)
        q = trig_poly_potential(rng, 2048, degree=3)
        cfg = FrozenConfig(a=0.5, gamma=2.0)
        for lam in (3.0 + 1j, -25.0, 144.7):
            for x in (0.0, 0.25, 1.0):
                fs = fundamental_solutions(x, lam, q, cfg)
                assert abs(fs.w - (fs.c * fs.s_prime - fs.c_prime * fs.s)) < 1e-9


class TestDeltaRoutes:
    def test_det_free_equals_delta0(self):
        q = Potential.zeros(N)
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        for lam in (0.0, 3 - 2j, -70.0, 120.0 + 40j):
            assert eval_delta_det(lam, q, cfg) == pytest.approx(
                delta0(lam, 2.0), rel=1e-12, abs=1e-12
            )

    def test_det_at_zero_energy(self):
        q = Potential.zeros(N)
        cfg = FrozenConfig(a=0.25, gamma=3.0)
        assert eval_delta_det(0.0, q, cfg) == pytest.approx(4.0, abs=1e-12)

    def test_constant_potential_value(self):
        # Delta(pi^2) = 9 - 12/pi^2 for q = 1, a = 0, gamma = 2
        q = Potential(np.ones(2048 + 1, complex))
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        expect = 9 - 12 / PI**2
        assert eval_delta_det(PI**2, q, cfg) == pytest.approx(expect, abs=1e-10)
        w = build_w(q, cfg)
        assert eval_delta_fundrep(PI**2, w, 2.0) == pytest.approx(expect, abs=1e-10)

    def test_fundrep_zero_kernel(self):
        for lam in (2.0, -10 + 1j):
            got = eval_delta_fundrep(lam, Potential.zeros(N), 0.5 + 0.5j)
            assert got == pytest.approx(delta0(lam, 0.5 + 0.5j), rel=1e-14)

    def test_sine_series_kernel_near_resonance(self):
        b = np.array([0.0, 0.0, 1.5 - 0.5j])
        series = SineSeries(b)
        lam_res = (3 * PI) ** 2
        at_res = eval_delta_fundrep(lam_res, series, 2.0)
        nearby = eval_delta_fundrep((3 * PI + 1e-7) ** 2, series, 2.0)
        assert abs(at_res - nearby) < 1e-6 * (1 + abs(at_res))
        # quadrature cross-check of the closed-form sine integrals
        n = 4096
        xs = np.linspace(0, 1, n + 1)
        w_grid = Potential(series.evaluate(xs))
        for lam in (lam_res, 7.0 - 3j, -40.0):
            a_val = eval_delta_fundrep(lam, series, 2.0)
            b_val = eval_delta_fundrep(lam, w_grid, 2.0)
            assert abs(a_val - b_val) < 1e-9 * (1 + abs(a_val))

    def test_two_route_agreement_spot(self):
        rng = np.random.default_rng(8)
        q = trig_poly_potential(rng, 2048, degree=4)
        for a in (0.0, 0.25, 0.5):
            cfg = FrozenConfig(a=a, gamma=0.5 + 0.5j)
            w = build_w(q, cfg)
            for lam in (1.0, -50.0 + 10j, 130.0 - 80j):
                d1 = eval_delta_det(lam, q, cfg)
                d2 = eval_delta_fundrep(lam, w, cfg.gamma)
                assert abs(d1 - d2) <= 1e-7 * (1 + abs(d1))

    def test_factored_form_matches_fundrep(self):
        rng = np.random.default_rng(9)
        q = trig_poly_potential(rng, 2048, degree=4)
        for gamma in (1.0, -1.0):
            cfg = FrozenConfig(a=0.0, gamma=gamma)
            w = build_w(q, cfg)
            cofactor = _SampledDelta(w, gamma, factored=True)
            for lam in (0.3, 17.0 + 4j, -60.0, 200.0):
                rho = np.sqrt(complex(lam))
                # lead(rho): (2/rho) sin(rho/2), stable at rho = 0, or 2 cos(rho/2)
                lead = 2.0 * phi(rho, 0.5) if gamma == 1 else 2.0 * np.cos(rho / 2.0)
                d1 = eval_delta_fundrep(lam, w, gamma)
                d2 = lead * cofactor(lam)
                assert abs(d1 - d2) <= 1e-8 * (1 + abs(d1))

    def test_fundrep_constant_potential_at_pi_squared(self):
        q = Potential(np.ones(N + 1, complex))
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        value = eval_delta_fundrep(PI**2, build_w(q, cfg), 2.0)
        assert value == pytest.approx(9 - 12 / PI**2, abs=1e-8)

    def test_two_route_agreement_mirrored_a(self):
        rng = np.random.default_rng(18)
        q = trig_poly_potential(rng, 2048, degree=3)
        cfg = FrozenConfig(a=0.75, gamma=2.0)
        w = build_w(q, cfg)
        for lam in (2.5, -30.0 + 5j, 90.0):
            d1 = eval_delta_det(lam, q, cfg)
            d2 = eval_delta_fundrep(lam, w, cfg.gamma)
            assert abs(d1 - d2) <= 1e-7 * (1 + abs(d1))


    def test_det_route_keeps_digits_at_large_imaginary_rho(self):
        # at a = 0 the products C(1) S'(1) and C'(1) S(1) grow like e^{2 |Im rho|},
        # about 1e12 here, and cancel to W(1); the route must not lose those digits
        rng = np.random.default_rng(19)
        q = trig_poly_potential(rng, 2048, degree=6)
        for gamma in (2.0, 0.5 + 0.5j, 1.0):
            cfg = FrozenConfig(a=0.0, gamma=gamma)
            w = build_w(q, cfg)
            for rho in (1.3 + 14.0j, -0.4 + 13.8j, 7.0 - 14.2j):
                d1 = eval_delta_det(rho * rho, q, cfg)
                d2 = eval_delta_fundrep(rho * rho, w, gamma)
                assert abs(d1 - d2) <= 1e-13 * (1 + abs(d1))


class TestKernelSlope:
    """Newton in rho takes its derivative from the kernel, not from a central difference."""

    @pytest.mark.parametrize(
        "gamma, factored", [(2.0, False), (0.5 + 0.5j, False), (1.0, True), (-1.0, True)]
    )
    def test_slope_is_the_derivative_of_the_simpson_sum(self, gamma, factored):
        # the same weighted samples c_j, differentiated term by term in extended
        # precision where the platform has it
        rng = np.random.default_rng(40)
        q = trig_poly_potential(rng, 1024, degree=5)
        kernel = _SampledDelta(build_w(q, FrozenConfig(a=0.25, gamma=gamma)), gamma, factored)
        c = (kernel.wts * kernel.samples).astype(np.clongdouble)
        x = np.arange(len(c), dtype=np.longdouble) / kernel.n
        for rho in (0.5, 0.5j, 3 + 0.2j, 2 - 9j, 40 - 7j, 0.7 + 14j, 123.4 + 13.5j, 150 - 14j, 200):
            for z in (complex(rho), -complex(rho)):  # the kernel runs at sqrt(z^2) for both
                zl = np.clongdouble(z)
                if kernel.cosine:
                    want = 2 * np.sin(zl / 2) + zl * np.cos(zl / 2) + np.sum(c * x * np.sin(zl * x))
                else:
                    # d/dz of sum c_j sin(z x_j) / z
                    sums = np.sum(c * (x * np.cos(zl * x) / zl - np.sin(zl * x) / zl**2))
                    want = sums - np.sin(zl / 2) if factored else 2 * gamma * np.sin(zl) - sums
                grows = np.exp(abs(z.imag) * x)
                scale = np.sum(np.abs(c) * (1 + x) * grows) + (1 + abs(gamma)) * grows[-1]
                bound = 64 * 2.0**-53 * (1 + abs(z)) * scale
                kernel(z * z)
                got = kernel.slope(z)  # reuses the integral of the call just made
                assert abs(np.clongdouble(got) - want) <= bound, (z, got)
                # without that call, or after one at another lambda, the same bits
                fresh = _SampledDelta(build_w(q, FrozenConfig(a=0.25, gamma=gamma)), gamma, factored)
                assert fresh.slope(z) == got
                kernel(1.0)
                assert kernel.slope(z) == got
        assert kernel.slope(0j) == 0  # the value is even in rho; a 17x17 scan can seed 0

    def test_central_difference_only_in_lambda(self, monkeypatch):
        # Newton in lambda near rho = 0 keeps the central difference of Delta itself;
        # every step in rho, the pair polish's included, takes the kernel's slope
        rng = np.random.default_rng(30)
        q = trig_poly_potential(rng, 256, degree=3, scale=0.5)
        differenced, refined = [], []
        central, refine = forward._slope, forward._quadratic_pair_refine
        monkeypatch.setattr(forward, "_slope", lambda g, z: differenced.append(g) or central(g, z))
        monkeypatch.setattr(
            forward, "_quadratic_pair_refine", lambda *args: refined.append(1) or refine(*args)
        )
        compute_spectrum(q, FrozenConfig(a=0.25, gamma=1.001), 12)
        assert refined  # nearly merged pairs
        assert differenced and all(isinstance(g, _SampledDelta) for g in differenced)

    def test_newton_kernel_passes_per_window(self, monkeypatch):
        # a value and a slope per Newton step; a central difference took three values
        # (881 on this case, 4.41 per window)
        xs = grid(1024)
        q = Potential(np.sin(2 * PI * xs) + 0.3j * np.sin(PI * xs) ** 2)
        passes = []
        value, slope = _SampledDelta.__call__, _SampledDelta.slope
        monkeypatch.setattr(
            _SampledDelta, "__call__", lambda self, lam: passes.append(1) or value(self, lam)
        )
        monkeypatch.setattr(
            _SampledDelta, "slope", lambda self, rho: passes.append(1) or slope(self, rho)
        )
        m = 200
        compute_spectrum(q, FrozenConfig(a=0.25, gamma=2.0), m)
        assert len(passes) <= 3.3 * m


def degenerate_reference(q, cfg, m):
    """gamma = +-1 eigenvalues solved window by window, Newton from every reference point."""
    w = build_w(q, cfg)
    alpha = compute_alpha(cfg.gamma)
    half = w.n // 2  # w(1/2 - x) on the half grid x in [0, 1/2]
    xs, wts = np.linspace(0.0, 0.5, half + 1), simpson_weights(half) / w.n
    wxs = wts * xs
    v = w.samples[half::-1]

    def inner_lam(lam):
        rho = np.sqrt(complex(lam))
        if cfg.gamma == 1:
            return complex(2.0 * rho * np.sin(rho / 2.0) - np.dot(wts, v * np.cos(rho * xs)))
        return complex(2.0 * np.cos(rho / 2.0) + np.dot(wts, v * phi(rho, xs)))

    def g(rho):
        return inner_lam(rho * rho)

    def slope(rho):
        # the exact rho-derivative at the kernel's point r = sqrt(rho^2); odd in r
        r = np.sqrt(complex(rho * rho))
        if cfg.gamma == 1:
            der = 2.0 * np.sin(r / 2.0) + r * np.cos(r / 2.0) + np.dot(wxs, v * np.sin(r * xs))
        else:
            odd = (np.dot(wxs, v * np.cos(r * xs)) - np.dot(wts, v * phi(r, xs))) / r
            der = odd - np.sin(r / 2.0)
        return complex(der if (r * np.conj(rho)).real >= 0 else -der)

    g.slope = slope

    lams = np.empty(m, dtype=complex)
    for idx in range(m):
        rho0 = reference_rho(idx, alpha)
        tol = 1e-11 * (1.0 + 2.0 * abs(rho0))
        if idx % 2 == 1:
            lams[idx] = rho0 * rho0
        elif abs(rho0) < 0.5:
            lams[idx], ok = _newton(inner_lam, rho0 * rho0, tol)
            assert ok
        else:
            rho, ok = _solve_window(g, rho0, tol)
            assert _accepted(rho, ok, rho0)
            lams[idx] = rho * rho
    return lams


def generic_reference(q, cfg, m):
    """Generic eigenvalues by Newton from every reference point, then a re-refine
    over all index pairs.

    Returns the values, the number of pair refinements and the number of windows
    whose reference point passes Newton's first check.
    """
    w = build_w(q, cfg)
    gamma = cfg.gamma
    alpha = compute_alpha(gamma)
    xs, wts = w.grid(), simpson_weights(w.n) / w.n
    wxs = wts * xs

    def dfun(lam):
        rho = np.sqrt(complex(lam))
        return complex(
            1.0 + gamma * gamma - 2.0 * gamma * np.cos(rho) - np.dot(wts, w.samples * phi(rho, xs))
        )

    def g(rho):
        return dfun(rho * rho)

    def slope(rho):
        # the exact rho-derivative at the kernel's point r = sqrt(rho^2); odd in r
        r = np.sqrt(complex(rho * rho))
        odd = (np.dot(wxs, w.samples * np.cos(r * xs)) - np.dot(wts, w.samples * phi(r, xs))) / r
        der = 2.0 * gamma * np.sin(r) - odd
        return complex(der if (r * np.conj(rho)).real >= 0 else -der)

    g.slope = slope

    tol = 1e-11 * (1.0 + (1.0 + abs(gamma)) ** 2)
    rhos = np.empty(m, dtype=complex)
    refs = np.empty(m, dtype=complex)
    at_reference = 0
    for idx in range(m):
        rho0 = reference_rho(idx, alpha)
        refs[idx] = rho0
        if abs(rho0) < 0.5:
            lam, ok = _newton(dfun, rho0 * rho0, tol)
            assert ok
            root = np.sqrt(complex(lam))
            rhos[idx] = root if abs(root - rho0) <= abs(root + rho0) else -root
        else:
            at_reference += abs(g(rho0)) < tol
            rhos[idx], ok = _solve_window(g, rho0, tol)
            assert _accepted(rhos[idx], ok, rho0)
    refined = 0
    for i in range(m):
        for j in range(i + 1, m):
            if abs(rhos[i] - rhos[j]) < PAIR_GAP and abs(refs[i] - refs[j]) < 1.0:
                rhos[i], rhos[j] = _quadratic_pair_refine(g, refs[i], refs[j], tol)
                refined += 1
    return rhos * rhos, refined, at_reference


class TestDegenerateFirstPass:
    """Every solve checks its reference points from one pair of FFTs first."""

    @pytest.mark.parametrize("gamma", [1.0, -1.0, 2.0, 0.5 + 0.5j, -1.05])
    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("m", [40, 150])  # m/2 below the grid size 64, then beyond it
    def test_reference_sums_match_direct(self, gamma, a, m):
        rng = np.random.default_rng(20)
        q = trig_poly_potential(rng, 64, degree=5)
        w = build_w(q, FrozenConfig(a=a, gamma=gamma))
        # the solver's weighted samples: the cofactor's half profile at gamma = +-1
        kernel = _SampledDelta(w, gamma, factored=gamma in (1, -1))
        c = kernel.wts * kernel.samples
        xs = np.arange(len(c)) / w.n
        alpha = compute_alpha(gamma)
        plus, minus, slack = _reference_sums(c, w.n, alpha, m)
        assert plus.shape == minus.shape == slack.shape == (m,)
        for idx in range(m):
            rho0 = reference_rho(idx, alpha)
            assert abs(plus[idx] - np.dot(c, np.exp(1j * rho0 * xs))) <= slack[idx]
            assert abs(minus[idx] - np.dot(c, np.exp(-1j * rho0 * xs))) <= slack[idx]
            # the bound's shift term: Newton's first check runs at sqrt(rho0^2)
            assert abs(np.sqrt(complex(rho0 * rho0)) - rho0) <= 8 * 2.0**-53 * abs(rho0)

    @pytest.mark.parametrize("gamma", [1.0, -1.0, 2.0, 0.5 + 0.5j])
    def test_reference_check_spares_the_rounding_bound(self, gamma):
        # a window whose value at rho0 clears tol, but not by the sums' rounding
        # bound, must go to Newton; once tol clears value + bound it passes
        rng = np.random.default_rng(27)
        q = trig_poly_potential(rng, 64, degree=5)
        w = build_w(q, FrozenConfig(a=0.25, gamma=gamma))
        kernel = _SampledDelta(w, gamma, factored=gamma in (1, -1))
        alpha = compute_alpha(gamma)
        plus, minus, slack = _reference_sums(kernel.wts * kernel.samples, w.n, alpha, 8)
        for idx in (2, 4, 6):  # |rho0| > 2, so dividing a bound by |rho0| shrinks it
            rho0 = reference_rho(idx, alpha)
            # the value and the bound as the check forms them from the two sums
            if kernel.cosine:
                part, bound = -(plus[idx] + minus[idx]) / 2.0, slack[idx]
            else:
                part, bound = (plus[idx] - minus[idx]) / (2j * rho0), slack[idx] / abs(rho0)
            lam = rho0 * rho0
            value = abs(kernel._value(lam, np.sqrt(complex(lam)), part))
            args = (rho0, plus[idx], minus[idx], slack[idx])
            assert not kernel.passes_at(*args, value + bound / 2)
            assert kernel.passes_at(*args, value + 2 * bound)

    @pytest.mark.parametrize(
        "seed, n, m",
        [
            pytest.param(21, 512, 120, id="21"),
            pytest.param(22, 512, 120, id="22"),
            pytest.param(23, 512, 120, id="23"),
            # m/2 >= n: reference indices wrap the FFT length 2n
            pytest.param(25, 128, 300, id="aliased"),
        ],
    )
    def test_spectrum_equals_window_loop(self, seed, n, m):
        rng = np.random.default_rng(seed)
        for a in (0.0, 0.25, 0.75):  # build_w mirrors a = 3/4
            q = window_flat_potential(rng, a, n)
            for gamma in (1.0, -1.0):
                cfg = FrozenConfig(a=a, gamma=gamma)
                spec = compute_spectrum(q, cfg, m)
                assert np.array_equal(spec.values, degenerate_reference(q, cfg, m))

    @pytest.mark.parametrize(
        "gamma, a, n, m",
        [
            pytest.param(2.0, 0.25, 512, 120, id="2.0"),
            pytest.param(0.5 + 0.5j, 0.25, 512, 120, id="(0.5+0.5j)"),
            pytest.param(-1.05, 0.25, 512, 120, id="-1.05"),
            pytest.param(2.0, 0.75, 512, 120, id="2.0-mirrored"),  # build_w mirrors a = 3/4
            pytest.param(0.5 + 0.5j, 0.25, 256, 600, id="aliased"),  # m/2 >= n: indices wrap
        ],
    )
    def test_generic_spectrum_equals_window_loop(self, gamma, a, n, m, monkeypatch):
        # finite sine-series kernels: many windows already pass at rho0
        rng = np.random.default_rng(24)
        cfg = FrozenConfig(a=a, gamma=gamma)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng), cfg, n)
        newton_runs = []
        solve = forward._solve_window
        monkeypatch.setattr(
            forward, "_solve_window", lambda *args: newton_runs.append(1) or solve(*args)
        )
        spec = compute_spectrum(q, cfg, m)
        expected, refined, at_reference = generic_reference(q, cfg, m)
        assert np.array_equal(spec.values, expected)
        assert refined == 0
        assert at_reference > m // 3
        # Newton runs only where the reference point fails (n = 0 has |rho0| >= 0.5 here)
        assert len(newton_runs) == m - at_reference


class TestPairRescan:
    """The neighbour-only re-refine scan equals the scan over all index pairs."""

    @pytest.mark.parametrize("gamma", [1.001, 1 + 1e-6, -1.001, -1 - 1e-6, 1.02])
    def test_spectrum_equals_all_pairs_scan(self, gamma, monkeypatch):
        rng = np.random.default_rng(30)
        q = trig_poly_potential(rng, 256, degree=3, scale=0.5)
        cfg = FrozenConfig(a=0.25, gamma=gamma)
        m = 200
        expected, refined, _ = generic_reference(q, cfg, m)
        fired = []
        refine = forward._quadratic_pair_refine
        monkeypatch.setattr(
            forward,
            "_quadratic_pair_refine",
            lambda g, ri, rj, tol: fired.append((ri, rj)) or refine(g, ri, rj, tol),
        )
        spec = compute_spectrum(q, cfg, m)
        assert np.array_equal(spec.values, expected)
        assert len(fired) == refined
        if gamma == -1 - 1e-6:
            # indices pair as (2k, 2k + 1) near gamma = -1, so the last pair is refined too
            assert fired[-1][0] == reference_rho(m - 2, spec.alpha)


class TestAcceptanceRule:
    """Each returned value has a residual under tol and lies in its window, or the solve raises."""

    @pytest.mark.parametrize(
        "scale, gamma",
        [
            # without the acceptance rule these returned values with residual > 4 tol
            pytest.param(100.0, -1.05, id="100,-1.05"),
            pytest.param(300.0, -1.05, id="300,-1.05"),
            # ... and this one a value over tol and a duplicate
            pytest.param(300.0, 1.02, id="300,1.02"),
        ],
    )
    def test_stiff_windows_raise(self, scale, gamma):
        # some of windows 0-4 of these hold 0 or 2 eigenvalues, not 1
        xs = grid(1024)
        q = Potential(scale * (np.cos(2 * PI * xs) + 0.5j * np.sin(3 * PI * xs)))
        with pytest.raises(RootIsolationError):
            compute_spectrum(q, FrozenConfig(a=0.25, gamma=gamma), 40)

    @staticmethod
    def _pair_case():
        rng = np.random.default_rng(30)
        q = trig_poly_potential(rng, 256, degree=3, scale=0.5)
        return q, FrozenConfig(a=0.25, gamma=1.001)  # three pairs among the first 12

    @pytest.mark.parametrize("fault", ["non-root", "outside-window"])
    def test_pair_refine_output_is_checked(self, fault, monkeypatch):
        q, cfg = self._pair_case()
        refine = forward._quadratic_pair_refine
        fired = []

        def faulty(g, ri, rj, tol):
            fired.append(1)
            first, second = refine(g, ri, rj, tol)
            # g is even in rho, so -second is a root too, but in no window near rj
            return (first + 1e-3, second) if fault == "non-root" else (first, -second)

        assert compute_spectrum(q, cfg, 12).values.shape == (12,)  # the true pairs pass
        monkeypatch.setattr(forward, "_quadratic_pair_refine", faulty)
        with pytest.raises(RootIsolationError):
            compute_spectrum(q, cfg, 12)
        assert fired

    @pytest.mark.parametrize("gamma", [1.02, 1.0])
    def test_lambda_branch_outside_window_raises(self, gamma, monkeypatch):
        # |rho0| < 1/2 at n = 0 for both; Newton in lambda started from the reference
        # of index 2 converges to a true root, but one outside window 0
        rng = np.random.default_rng(31)
        q = trig_poly_potential(rng, 256, degree=3, scale=0.5)
        cfg = FrozenConfig(a=0.25, gamma=gamma)
        newton = forward._newton
        far = reference_lambda(2, compute_alpha(gamma))
        branch = []

        def misled(g, z0, tol, *args, **kwargs):
            if isinstance(g, _SampledDelta):  # only the lambda branch iterates on Delta itself
                branch.append(newton(g, far, tol))
                return branch[-1]
            return newton(g, z0, tol, *args, **kwargs)

        compute_spectrum(q, cfg, 6)
        monkeypatch.setattr(forward, "_newton", misled)
        with pytest.raises(RootIsolationError) as err:
            compute_spectrum(q, cfg, 6)
        assert branch and branch[0][1]  # a converged root, refused for its window
        assert err.value.index == 0


class TestSpectrum:
    def test_free_problem_hits_references(self):
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        spec = compute_spectrum(Potential.zeros(512), cfg, 12)
        for n, lam in enumerate(spec.values):
            assert lam == pytest.approx(reference_lambda(n, spec.alpha), rel=1e-10, abs=1e-9)

    def test_degenerate_odd_indices_exact(self):
        rng = np.random.default_rng(10)
        q = trig_poly_potential(rng, 512, degree=3)
        for gamma in (1.0, -1.0):
            spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=gamma), 14)
            for n in range(1, 14, 2):
                assert spec.values[n] == reference_lambda(n, spec.alpha)

    def test_constant_potential_against_scalar_oracle(self):
        # independent oracle: fixed-point iteration on cos(rho) = (6c/rho^2-5)/(6c/rho^2-4)
        c = 1.0
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        q = Potential(np.full(1024 + 1, c, dtype=complex))
        spec = compute_spectrum(q, cfg, 8)
        alpha = spec.alpha

        def oracle(n):
            rho = reference_rho(n, alpha)
            base = 2 * PI * ((n + 1) // 2)
            for _ in range(200):
                t = 6.0 * c / rho**2
                ac = np.arccos(complex((t - 5.0) / (t - 4.0)))
                cand = min((base + ac, base - ac), key=lambda z: abs(z - rho))
                if abs(cand - rho) < 1e-15 * (1 + abs(rho)):
                    rho = cand
                    break
                rho = cand
            return rho * rho

        for n in range(1, 8):
            assert spec.values[n] == pytest.approx(oracle(n), rel=1e-9)

    def test_small_index_root_with_large_shift(self):
        # q = 1, gamma = 2: lambda_0 sits across the window, found by fallback
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        q = Potential(np.ones(1024 + 1, complex))
        spec = compute_spectrum(q, cfg, 1)
        lam0 = spec.values[0]
        assert lam0.real == pytest.approx(0.958, abs=5e-3)
        w = build_w(q, cfg)
        assert abs(eval_delta_fundrep(lam0, w, 2.0)) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        q = window_flat_potential(rng, 0.25, 1024)
        gamma = 2.0
        for a in (0.25, 0.5):
            cfg = FrozenConfig(a=a, gamma=gamma)
            spec_a = compute_spectrum(q, cfg, 12)
            q_a = shift_to_zero(q, cfg)
            spec_0 = compute_spectrum(q_a, FrozenConfig(a=0.0, gamma=gamma), 12)
            assert np.max(np.abs(spec_a.values - spec_0.values)) < 1e-7

    def test_reflection_invariance(self):
        rng = np.random.default_rng(12)
        q = window_flat_potential(rng, 0.25, 1024)
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        spec = compute_spectrum(q, cfg, 12)
        q_r = Potential(q.samples[::-1].copy())
        spec_r = compute_spectrum(q_r, FrozenConfig(a=0.75, gamma=0.5), 12)
        assert np.max(np.abs(spec.values - spec_r.values)) < 1e-7

    def test_near_degenerate_pair_refinement(self):
        rng = np.random.default_rng(13)
        q = sine_poly_potential(rng, 512, degree=2, scale=0.3)
        cfg = FrozenConfig(a=0.0, gamma=1.0 + 1e-4)
        spec = compute_spectrum(q, cfg, 8)
        res = verify_asymptotics(spec)
        assert np.all(np.abs(res.eps) < 0.5)


class TestAsymptotics:
    def test_free_problem_zero_residuals(self):
        cfg = FrozenConfig(a=0.0, gamma=1 + 1j)
        spec = compute_spectrum(Potential.zeros(512), cfg, 10)
        res = verify_asymptotics(spec)
        assert np.max(np.abs(res.kappa)) < 1e-8
        assert res.tail_ok

    def test_degenerate_odd_residuals_vanish(self):
        rng = np.random.default_rng(14)
        q = trig_poly_potential(rng, 512, degree=3)
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=-1.0), 12)
        res = verify_asymptotics(spec)
        assert np.all(np.abs(res.kappa[1::2]) == 0)

    def test_kappa_eps_consistency(self):
        rng = np.random.default_rng(15)
        q = trig_poly_potential(rng, 512, degree=3, scale=0.5)
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=2.0), 20)
        res = verify_asymptotics(spec)
        for n in range(20):
            rho0 = reference_rho(n, spec.alpha)
            recon = (rho0 + res.eps[n]) ** 2 - rho0**2
            assert abs(recon - res.kappa[n]) < 1e-10 * (1 + abs(res.kappa[n]))

    def test_tail_decay_for_smooth_potential(self):
        rng = np.random.default_rng(16)
        q = sine_poly_potential(rng, 1024, degree=4)
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=2.0), 60)
        res = verify_asymptotics(spec)
        assert res.last_quarter_energy < res.first_quarter_energy
        partial = np.cumsum(np.abs(res.kappa) ** 2)
        assert np.all(np.diff(partial) >= 0)


class TestSineSeriesGrid:
    @pytest.mark.parametrize(
        "k_terms, n",
        [(1, 16), (7, 16), (32, 16), (100, 16), (200, 1024)],  # K >= 2n folds (aliases)
    )
    def test_fft_synthesis_matches_direct_sum(self, k_terms, n):
        rng = np.random.default_rng(k_terms)
        series = SineSeries(rng.standard_normal(k_terms) + 1j * rng.standard_normal(k_terms))
        fast = series.sample_grid(n)
        direct = series.evaluate(np.linspace(0.0, 1.0, n + 1))
        assert fast.shape == (n + 1,)
        assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))
        assert fast[0] == 0 and fast[n] == 0

    def test_fft_synthesis_against_exact_phases(self):
        # reducing k*j mod 2n in integers keeps the sine arguments exact
        rng = np.random.default_rng(5)
        n, k_terms = 64, 300
        b = rng.standard_normal(k_terms) + 1j * rng.standard_normal(k_terms)
        j = np.arange(n + 1)[:, None]
        k = np.arange(1, k_terms + 1)[None, :]
        exact = np.sin(PI * ((k * j) % (2 * n)) / n) @ b
        got = SineSeries(b).sample_grid(n)
        assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            SineSeries(np.array([1.0])).sample_grid(0)
