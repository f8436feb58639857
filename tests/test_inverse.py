"""Tests for product reconstruction, Fourier recovery and the four algorithms."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    flat_sine_coeffs,
    half_ratio_potential,
    potential_from_w_coeffs,
    sine_poly_potential,
    trig_poly_potential,
    window_flat_potential,
)
from frozenhill import (
    ConfigError,
    DegenerateCaseError,
    FrozenConfig,
    GrowthConditionError,
    InconsistentSpectrumError,
    OperatorError,
    OperatorSpec,
    PoleInTailError,
    Potential,
    Spectrum,
    TwoSpectra,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    build_w,
    check_growth,
    compute_alpha,
    compute_spectrum,
    delta_from_spectrum,
    eval_delta_det,
    eval_delta_fundrep,
    inverse,
    isobispectral_family,
    isospectral_family,
    reconstruct,
    recover_w,
    rel_l2_error,
)
from frozenhill.core import (
    AlphaParam,
    delta0,
    delta0_d1,
    delta0_d2,
    reference_lambda,
    reference_lambda_array,
)
from frozenhill.inverse import _BLOCK, _delta_and_delta0, _support_report, check_degeneration

PI = np.pi


def reference_spectrum(gamma, m, a=0.0):
    """Spectrum of the zero potential, written down directly."""
    alpha = compute_alpha(gamma)
    values = np.array([reference_lambda(n, alpha) for n in range(m)])
    return Spectrum(values=values, config=FrozenConfig(a=a, gamma=gamma), alpha=alpha)


def forward_pair(q, a, m):
    s0 = compute_spectrum(q, FrozenConfig(a=a, gamma=1.0), m)
    s1 = compute_spectrum(q, FrozenConfig(a=a, gamma=-1.0), m)
    return TwoSpectra(spec0=s0, spec1=s1, a=a)


def delta_pointwise(spec, lam, n_trunc):
    """One point at a time, in scalar arithmetic: the reference for the array form."""
    lam = complex(lam)
    tol = 1e-8 * (1.0 + abs(lam))
    refs = np.array([reference_lambda(n, spec.alpha) for n in range(n_trunc)])
    lams = spec.values[:n_trunc]
    diff = refs - lam
    colliding = np.abs(diff) <= tol
    z_mult = int(np.count_nonzero(colliding))
    poles = int(np.count_nonzero(colliding & (np.abs(lams - lam) > tol)))
    for n in range(n_trunc, max(n_trunc, int(np.sqrt(abs(lam)) / PI) + 3)):
        if abs(reference_lambda(n, spec.alpha) - lam) <= tol:
            if z_mult - poles >= 1:
                return 0j
            raise PoleInTailError(n)
    if poles < z_mult:
        return 0j
    # one rule: the moved eigenvalues' ratios, the bare numerator where lam collides
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(colliding, lams - lam, (lams - lam) / diff)
    value = np.prod(ratios[lams != refs])
    gamma = spec.config.gamma
    if z_mult == 0:
        limit = delta0(lam, gamma)
    else:
        limit = -delta0_d1(lam, gamma) if poles == 1 else delta0_d2(lam, gamma)
    return complex(limit * value)


#: generic couplings, e^{i pi/4} (where an array complex multiply rounds
#: differently from a scalar one) and gamma = +-1, whose even-k points collide
ARRAY_GAMMAS = (2.0, complex(np.exp(1j * PI / 4)), 0.5 + 0.5j, 1.0, -1.0)


def same_bits(got, want):
    """Equal bit for bit, so NaN payloads and the signs of zeros count too."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def moved_spectrum(gamma, m, values):
    """reference_spectrum with the eigenvalues at the keys of values replaced."""
    spec = reference_spectrum(gamma, m)
    moved = spec.values.copy()
    moved[list(values)] = list(values.values())
    return Spectrum(values=moved, config=spec.config, alpha=spec.alpha)


class TestDeltaFromSpectrum:
    @pytest.mark.parametrize("gamma", ARRAY_GAMMAS)
    def test_array_form_matches_pointwise(self, gamma):
        rng = np.random.default_rng(25)
        q = trig_poly_potential(rng, 512, degree=3, scale=2.0)
        spec = compute_spectrum(q, FrozenConfig(a=0.25, gamma=gamma), 120)
        # every sample point of recover_w and check_growth at K = NT, where
        # the last points scan past the truncation, plus off-axis points
        lams = np.array([(PI * k) ** 2 for k in range(1, 121)] + [0.0, -5.0, 30 + 11j])
        batch = delta_from_spectrum(spec, lams, 120)
        assert batch.shape == lams.shape
        assert same_bits(batch, [delta_from_spectrum(spec, lam, 120) for lam in lams])
        assert same_bits(batch, [delta_pointwise(spec, lam, 120) for lam in lams])

        # Reference zeros with a few, none and a single eigenvalue moved, off
        # the real axis or along it; the product skips the columns left in
        # place, also where every factor is real, and at gamma = +-1 the
        # even- or odd-k points collide with a moved eigenvalue or are zeros.
        # The points include an eigenvalue itself (an exact zero factor) and,
        # at gamma = +-1, points between moved eigenvalues and their references.
        refs = reference_spectrum(gamma, 48).values
        for shift in (0.5 + 0.25j, -30.0):
            for moved in ((3, 17, 40, 41), (), (7,)):
                spec = moved_spectrum(gamma, 48, {n: refs[n] + shift for n in moved})
                extra = [spec.values[n] for n in moved[:1]] + [refs[1] - 10.0, refs[3] - 20.0]
                for count in (1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
                    lams = np.array([(PI * k) ** 2 for k in range(1, count + 1)], dtype=complex)
                    lams[1::5] += 11j
                    lams[-len(extra) :] = extra[:count]
                    batch = delta_from_spectrum(spec, lams, 48)
                    assert same_bits(batch, [delta_from_spectrum(spec, x, 48) for x in lams])
                    assert same_bits(batch, [delta_pointwise(spec, x, 48) for x in lams])

    @pytest.mark.parametrize("gamma", [2.0, 0.5 + 0.5j, complex(np.exp(1j * PI / 4))])
    def test_nonfinite_factors_match_pointwise(self, gamma):
        # NaN and inf eigenvalues, and far points whose Delta0 overflows: the
        # array multiply of Delta0 by the product keeps the scalar's bits.
        # Only the non-finite eigenvalues, a single one, or those among moved
        # finite ones leave their reference, at 1, 16, 17, 33 and 100 points.
        spec = reference_spectrum(gamma, 60)
        nan, inf, nan_im = complex(np.nan, 1.0), complex(np.inf, 0.0), complex(1.0, np.nan)
        shifted = {n: spec.values[n] * (1 + 1e-3j) for n in (5, 29, 52)}
        lams = np.concatenate(
            [[(PI * k) ** 2 for k in range(1, 61)], -np.logspace(2, 8, 20), 1j * np.logspace(2, 8, 20)]
        )
        with np.errstate(all="ignore"):
            for s in (
                spec,
                moved_spectrum(gamma, 60, {3: nan, 17: inf, 40: nan_im}),
                moved_spectrum(gamma, 60, {17: inf}),
                moved_spectrum(gamma, 60, {**shifted, 40: nan_im}),
            ):
                for count in (1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, len(lams)):
                    pts = lams[-count:]
                    got = delta_from_spectrum(s, pts, 60)
                    want = np.array([delta_pointwise(s, lam, 60) for lam in pts])
                    assert not np.all(np.isfinite(got))
                    assert same_bits(got, want)
                    assert same_bits(got, [delta_from_spectrum(s, lam, 60) for lam in pts])

    def test_pole_in_tail_same_in_both_forms(self):
        spec = reference_spectrum(2.0, 40)
        first, second = reference_lambda(30, spec.alpha), reference_lambda(25, spec.alpha)
        for lam in (first, second):
            with pytest.raises(PoleInTailError):
                delta_from_spectrum(spec, lam, 20)
        with pytest.raises(PoleInTailError) as err:
            delta_from_spectrum(spec, np.array([-3.0, first, 7.0, second]), 20)
        assert err.value.index == 30  # the first offending point in order
        clean = np.array([-3.0, 7.0])
        assert np.array_equal(
            delta_from_spectrum(spec, clean, 20), [delta_from_spectrum(spec, x, 20) for x in clean]
        )

    def test_rejects_bad_points(self):
        spec = reference_spectrum(2.0, 20)
        with pytest.raises(ConfigError):
            delta_from_spectrum(spec, np.ones((2, 2)), 20)
        with pytest.raises(ConfigError):
            delta_from_spectrum(spec, np.array([1.0, np.nan]), 20)
        assert delta_from_spectrum(spec, np.array([]), 20).shape == (0,)

    def test_reference_spectrum_reproduces_delta0(self):
        spec = reference_spectrum(2.0, 50)
        for lam in (0.3, -12.0, 7 + 5j, 90.0):
            assert delta_from_spectrum(spec, lam, 50) == pytest.approx(
                delta0(lam, 2.0), rel=1e-12
            )

    def test_periodic_free_value_at_pi_squared(self):
        # Delta = lambda * prod(1 - lambda/(4 k^2 pi^2)) equals 2(1 - cos rho): value 4
        spec = reference_spectrum(1.0, 200)
        assert delta_from_spectrum(spec, PI**2, 200) == pytest.approx(4.0, abs=1e-9)

    def test_matches_determinant_route(self):
        q = Potential(np.ones(1024 + 1, complex))
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        spec = compute_spectrum(q, cfg, 100)
        got = delta_from_spectrum(spec, -10.0, 100)
        want = eval_delta_det(-10.0, q, cfg)
        assert abs(got - want) <= 1e-5 * (1 + abs(want))

    def test_matches_integral_route(self):
        q = Potential(np.ones(1024 + 1, complex))
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        spec = compute_spectrum(q, cfg, 100)
        w = build_w(q, cfg)
        for lam in (-10.0, 3.0 + 4j):
            prod = delta_from_spectrum(spec, lam, 100)
            integral = eval_delta_fundrep(lam, w, 2.0)
            assert abs(prod - integral) <= 1e-5 * (1 + abs(integral))

    def test_pole_in_tail_raises(self):
        spec = reference_spectrum(2.0, 40)
        lam = reference_lambda(30, spec.alpha)
        with pytest.raises(PoleInTailError):
            delta_from_spectrum(spec, lam, 20)

    def test_collision_with_degenerate_reference_gives_zero(self):
        # for gamma = 1 data the probe 4 k^2 pi^2 is still an eigenvalue
        rng = np.random.default_rng(21)
        q = sine_poly_potential(rng, 512, degree=3)
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=1.0), 40)
        val = delta_from_spectrum(spec, (2 * PI) ** 2, 40)
        assert abs(val) < 1e-9

    def test_collision_rule_returns_zero_not_the_limit(self):
        # the documented collision rule, pinned so that changing it is deliberate:
        # at lambda_p^0, with lambda_p within 1e-8 (1 + |lambda|) of it but not
        # equal, the value is exactly 0, while the truncated product tends to
        # -Delta0'(lambda_p^0) (lambda_p - lambda_p^0) prod_{n != p}(...) != 0
        rng = np.random.default_rng(28)
        q = trig_poly_potential(rng, 256, degree=3)
        spec = compute_spectrum(q, FrozenConfig(a=0.25, gamma=2.0), 40)
        p, n_trunc = 7, 40
        refs = reference_lambda_array(n_trunc, spec.alpha)
        values = spec.values.copy()
        values[p] = refs[p] + 1e-9 * (1.0 + abs(refs[p]))
        moved = Spectrum(values=values, config=spec.config, alpha=spec.alpha)
        assert delta_from_spectrum(moved, refs[p], n_trunc) == 0
        assert delta_from_spectrum(moved, np.array([refs[p]]), n_trunc)[0] == 0
        others = np.arange(n_trunc) != p
        ratios = (values[others] - refs[p]) / (refs[others] - refs[p])
        limit = -delta0_d1(refs[p], 2.0) * (values[p] - refs[p]) * np.prod(ratios)
        assert abs(limit) > 1e-9

    def test_collision_at_lambda_zero_periodic(self):
        rng = np.random.default_rng(22)
        q = sine_poly_potential(rng, 512, degree=3)
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=1.0), 40)
        # gamma = 1 branch: Delta(0) = -lambda_0 * prod_{n>=1} lambda_n/lambda_n^0
        val = delta_from_spectrum(spec, 0.0, 40)
        direct = -spec.values[0]
        for n in range(1, 40):
            direct *= spec.values[n] / reference_lambda(n, spec.alpha)
        assert val == pytest.approx(direct, rel=1e-10)

    def test_truncation_stability(self):
        rng = np.random.default_rng(23)
        q = sine_poly_potential(rng, 1024, degree=4)
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=2.0), 200)
        for lam in (-5.0, -120.0, 30.0 + 11j):
            d100 = delta_from_spectrum(spec, lam, 100)
            d200 = delta_from_spectrum(spec, lam, 200)
            assert abs(d200 - d100) <= 1e-5 * (1 + abs(d200))


#: one point, one short of a block, one block, one past it, two blocks and one more
BLOCK_COUNTS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


@pytest.fixture(scope="module")
def block_spectra():
    rng = np.random.default_rng(26)
    q = trig_poly_potential(rng, 256, degree=3, scale=2.0)
    return {g: compute_spectrum(q, FrozenConfig(a=0.25, gamma=g), 40) for g in (1.0, -1.0, 2.0)}


class TestBlockedProduct:
    """The product is taken _BLOCK points at a time; no block edge may show."""

    @pytest.mark.parametrize("gamma", (1.0, -1.0, 2.0))
    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_every_height_matches_pointwise(self, block_spectra, gamma, count):
        spec = block_spectra[gamma]
        # (pi k)^2 sits on a double reference zero at even k for gamma = 1
        # and at odd k for gamma = -1; the last point is off the axis
        lams = np.array([(PI * k) ** 2 for k in range(1, count + 1)], dtype=complex)
        lams[-1] += 11j if count > 1 else 0
        batch = delta_from_spectrum(spec, lams, 40)
        assert np.array_equal(batch, [delta_from_spectrum(spec, lam, 40) for lam in lams])
        assert np.array_equal(batch, [delta_pointwise(spec, lam, 40) for lam in lams])

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("where", ("first", "middle", "last"))
    def test_pole_in_tail_from_any_block(self, count, where):
        spec = reference_spectrum(2.0, 40)
        pole = reference_lambda(30, spec.alpha)
        lams = np.linspace(-50.0, 50.0, count) + 1j
        lams[{"first": 0, "middle": count // 2, "last": count - 1}[where]] = pole
        with pytest.raises(PoleInTailError) as batch:
            delta_from_spectrum(spec, lams, 20)
        with pytest.raises(PoleInTailError) as single:
            delta_from_spectrum(spec, pole, 20)
        with pytest.raises(PoleInTailError) as scalar:
            delta_pointwise(spec, pole, 20)
        assert batch.value.index == single.value.index == scalar.value.index == 30

    @pytest.mark.parametrize("gamma", (1.0, -1.0))
    def test_folds_live_points_over_moved_eigenvalues(self, block_spectra, gamma, monkeypatch):
        # at recover_w's points (pi k)^2 every other k meets a double reference
        # zero whose kept eigenvalue pins Delta to 0; that point is not folded,
        # and no point takes the factor 1 of an eigenvalue at its reference
        spec = block_spectra[gamma]
        folded, fold = [], inverse._fold

        def spy(prods, pts, idx, lams, *args, **kwargs):
            folded.append((idx.copy(), len(lams)))
            fold(prods, pts, idx, lams, *args, **kwargs)

        monkeypatch.setattr(inverse, "_fold", spy)
        recover_w(spec, 40, 40)
        pts = np.array([(PI * k) ** 2 for k in range(1, 41)])
        refs, lams = reference_lambda_array(40, spec.alpha), spec.values
        tol = 1e-8 * (1.0 + pts[:, None])
        colliding = np.abs(refs - pts[:, None]) <= tol
        poles = colliding & (np.abs(lams - pts[:, None]) > tol)
        zero = poles.sum(axis=1) < colliding.sum(axis=1)
        moved = np.count_nonzero(lams != refs)
        assert np.count_nonzero(zero) == 20 and 0 < moved < 40
        rows = np.concatenate([idx for idx, _ in folded])
        assert np.array_equal(np.sort(rows), np.flatnonzero(~zero))
        assert all(columns == moved for _, columns in folded)

    def test_recover_w_allocates_no_k_by_n_array(self):
        # one K x NT complex array at K = 400, NT = 800 alone is 5.1 MB
        spec = reference_spectrum(2.0, 800)
        noise = np.random.default_rng(27).normal(size=800) * 1e-6
        spec = Spectrum(values=spec.values * (1 + noise), config=spec.config, alpha=spec.alpha)
        recover_w(spec, 400, 800)
        tracemalloc.start()
        try:
            recover_w(spec, 400, 800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


#: couplings of both degenerate signs, a real and a complex generic one and
#: the two near-degenerate ones
WINDOW_GAMMAS = (1.0, -1.0, 2.0, 0.5 + 0.5j, 1.02, -1.05)


def synthetic_spectrum(gamma, m, seed):
    """Reference zeros moved by ~1e-3 relative, every third left exactly in place.

    For gamma = +-1 the odd-indexed values stay on their references too, as
    degenerate data require.
    """
    alpha = compute_alpha(gamma)
    refs = np.array([reference_lambda(n, alpha) for n in range(m)])
    rng = np.random.default_rng(seed)
    values = refs * (1 + 1e-3 * (rng.normal(size=m) + 1j * rng.normal(size=m)))
    keep = np.arange(m) % 3 == 0
    if gamma in (1, -1):
        keep |= np.arange(m) % 2 == 1
    values[keep] = refs[keep]
    return Spectrum(values=values, config=FrozenConfig(a=0.0, gamma=gamma), alpha=alpha)


def window_points(refs, rng):
    """Points just inside and just outside the collision tolerance of refs.

    Each reference gets offsets of (1 -+ 1e-3) tol along its own direction
    (where only the moduli differ), against it and at a random angle.
    """
    pts = []
    for r in refs:
        tol = 1e-8 * (1 + abs(r))
        radial = r / abs(r) if r != 0 else 1.0
        for f in (1 - 1e-3, 1 + 1e-3):
            for turn in (radial, -radial, np.exp(2j * PI * rng.uniform())):
                pts.append(r + f * tol * turn)
    return pts


class TestCollisionWindow:
    """Collisions come from a window of sorted moduli; none may be missed or added."""

    @pytest.mark.parametrize("gamma", WINDOW_GAMMAS)
    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_boundary_points_match_pointwise(self, gamma, count):
        n_trunc = 24
        spec = synthetic_spectrum(gamma, n_trunc, seed=count)
        refs = np.array([reference_lambda(n, spec.alpha) for n in range(n_trunc)])
        rng = np.random.default_rng(count)
        pts = window_points(refs[rng.choice(n_trunc, 3, replace=False)], rng)
        pts += [-7.5, -(3 * PI) ** 2, 0.5 * (refs[4] + refs[5]), refs[7] + 3j, refs[0]]
        pts = np.array(pts)[rng.permutation(len(pts))][:count]
        batch = delta_from_spectrum(spec, pts, n_trunc)
        single = [delta_from_spectrum(spec, lam, n_trunc) for lam in pts]
        scalar = [delta_pointwise(spec, lam, n_trunc) for lam in pts]
        assert np.array_equal(batch.view(np.int64), np.array(single).view(np.int64))
        assert np.array_equal(batch.view(np.int64), np.array(scalar).view(np.int64))

    def test_overflowing_modulus_collides_everywhere(self):
        # |lam| overflows to inf, so does tol: every reference collides, no
        # pole cancels, and the value is the zero of Delta0
        spec = synthetic_spectrum(2.0, 20, seed=3)
        lams = np.array([1.5e308 + 1.5e308j, 3.0])
        with np.errstate(invalid="ignore", over="ignore"):
            batch = delta_from_spectrum(spec, lams, 20)
            single = delta_from_spectrum(spec, lams[0], 20)
        assert batch[0] == single == 0
        assert batch[1] == delta_pointwise(spec, 3.0, 20)

    @pytest.mark.parametrize("gamma", WINDOW_GAMMAS)
    def test_tail_boundary_raises_same_index(self, gamma):
        spec = synthetic_spectrum(gamma, 30, seed=1)
        refs = reference_lambda_array(30, spec.alpha)
        rng = np.random.default_rng(2)
        inside, outside = [], []
        for lam in window_points(refs[[20, 27]], rng):
            try:
                delta_pointwise(spec, lam, 20)
                outside.append(lam)
            except PoleInTailError as err:
                inside.append((lam, err.index))
        # (1 - 1e-3) tol from reference 27; from 20 too unless, as for
        # gamma = 1, it doubles head zero 19 that a kept eigenvalue cancels
        assert len(inside) >= 3
        for lam, index in inside:
            lams = np.array([-3.0, *outside[:5], lam, 7.0])
            with pytest.raises(PoleInTailError) as batch:
                delta_from_spectrum(spec, lams, 20)
            assert batch.value.index == index
        assert np.array_equal(
            delta_from_spectrum(spec, np.array(outside), 20),
            [delta_pointwise(spec, lam, 20) for lam in outside],
        )


class TestArrayDelta0:
    @pytest.mark.parametrize(
        "gamma", [2.0, 0.5 + 0.5j, complex(np.exp(1j * PI / 4)), -1.05, 1.02, 1.0, -1.0, 3j]
    )
    def test_equals_scalar_delta0(self, gamma):
        # Delta0 beside the product equals delta0 bit for bit, also where
        # cos(sqrt(lambda)) overflows (Re lambda below about -5e5) and the
        # value turns infinite or NaN
        rng = np.random.default_rng(30)
        mag = 10.0 ** rng.uniform(-3, 7, 600)
        lams = mag * np.exp(2j * PI * rng.uniform(size=600))
        lams[:100] = -mag[:100]
        lams[100:150] = -((700.0 + 30 * rng.uniform(size=50)) ** 2) + 1j * rng.normal(size=50)
        spec = synthetic_spectrum(gamma, 1, seed=0)
        with np.errstate(all="ignore"):
            _, got = _delta_and_delta0(spec, lams, 1)
            want = np.array([delta0(lam, gamma) for lam in lams.tolist()])
        assert np.count_nonzero(~np.isfinite(want)) >= 20
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRecoverW:
    def test_reference_spectrum_zero_kernel(self):
        spec = reference_spectrum(2.0, 60)
        w = recover_w(spec, 60, 60)
        assert np.max(np.abs(w.coeffs)) == 0.0

    def test_constant_potential_kernel(self):
        # q = 1, gamma = 2, a = 0 has w = 6; compare against its sine projection
        q = Potential(np.ones(1024 + 1, complex))
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=2.0), 200)
        w = recover_w(spec, 60, 200)
        ks = np.arange(1, 61)
        b_true = np.where(ks % 2 == 1, 6.0 * 4.0 / (PI * ks), 0.0)
        err = np.sqrt(np.sum(np.abs(w.coeffs - b_true) ** 2) / 2)
        assert err <= 1e-3

    def test_finite_kernel_recovered_uniformly(self):
        rng = np.random.default_rng(24)
        b = flat_sine_coeffs(rng, degree=10)
        cfg = FrozenConfig(a=0.0, gamma=2.0)
        q = potential_from_w_coeffs(b, cfg, 1024)
        spec = compute_spectrum(q, cfg, 60)
        w = recover_w(spec, 60, 60)
        b_full = np.zeros(60, complex)
        b_full[:10] = b
        xs = np.linspace(0, 1, 513)
        err = np.max(np.abs(w.evaluate(xs) - (np.sin(np.outer(xs, np.arange(1, 61) * PI)) @ b_full)))
        assert err <= 1e-4


class TestAlgorithm1:
    def test_reference_gives_zero(self):
        spec = reference_spectrum(2.0, 60)
        q = algorithm1(spec, spec.config, 60, 60, grid_n=256)
        assert np.max(np.abs(q.samples)) < 1e-10

    def test_rejects_unit_coupling(self):
        spec = reference_spectrum(1.0, 60)
        with pytest.raises(DegenerateCaseError):
            algorithm1(spec, spec.config, 60, 60)

    @pytest.mark.parametrize("a", [0.0, 0.25])
    def test_round_trip(self, a):
        rng = np.random.default_rng(25)
        cfg = FrozenConfig(a=a, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=12), cfg, 1024)
        spec = compute_spectrum(q, cfg, 60)
        q_rec = algorithm1(spec, cfg, 60, 60, grid_n=1024)
        assert rel_l2_error(q_rec, q) <= 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(26)
        cfg = FrozenConfig(a=0.0, gamma=1 + 1j)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 512)
        spec = compute_spectrum(q, cfg, 40)
        r1 = algorithm1(spec, cfg, 40, 40, grid_n=512)
        r2 = algorithm1(spec, cfg, 40, 40, grid_n=512)
        assert np.array_equal(r1.samples, r2.samples)

    def test_reflected_data_give_reflected_potential(self):
        rng = np.random.default_rng(27)
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 1024)
        spec = compute_spectrum(q, cfg, 60)
        cfg_r = FrozenConfig(a=0.75, gamma=0.5)
        q_r_rec = algorithm1(
            Spectrum(values=spec.values, config=cfg_r, alpha=spec.alpha), cfg_r, 60, 60, 1024
        )
        q_rec = algorithm1(spec, cfg, 60, 60, 1024)
        flipped = Potential(q_rec.samples[::-1].copy())
        assert rel_l2_error(q_r_rec, flipped) <= 1e-6


class TestAlgorithm2:
    def test_reference_with_zero_profile(self):
        spec = reference_spectrum(1.0, 60)
        k_op = OperatorSpec.constant(np.zeros(129, complex), 0.5)
        q = algorithm2(spec, spec.config, k_op, 60, 60, grid_n=256)
        assert np.max(np.abs(q.samples)) < 1e-10

    @pytest.mark.parametrize("c", [1.0, 0.5])
    def test_scalar_ratio_round_trip(self, c):
        rng = np.random.default_rng(28)
        q, _ = half_ratio_potential(rng, c, 1024)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(q, cfg, 120)
        k_op = OperatorSpec.scalar(c, 0.5)
        q_rec = algorithm2(spec, cfg, k_op, 60, 120, grid_n=1024)
        assert rel_l2_error(q_rec, q) <= 1e-3

    def test_constant_profile_round_trip(self):
        rng = np.random.default_rng(29)
        q, _ = half_ratio_potential(rng, 0.5, 1024)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(q, cfg, 120)
        half = 512
        profile = q.samples[half::-1]  # true q_a(1/2 - x) samples
        k_op = OperatorSpec.constant(profile, 0.5)
        q_rec = algorithm2(spec, cfg, k_op, 60, 120, grid_n=1024)
        assert rel_l2_error(q_rec, q) <= 1e-3

    def test_forbidden_scalar_rejected(self):
        spec = reference_spectrum(1.0, 40)
        k_op = OperatorSpec.scalar(-1.0, 0.5)  # K = -gamma I is not eligible
        with pytest.raises(OperatorError):
            algorithm2(spec, spec.config, k_op, 40, 40, grid_n=256)

    @pytest.mark.parametrize("gamma", (1.0, -1.0))
    def test_singular_tolerance_boundary(self, gamma):
        # I + gamma K is singular once |1 + gamma c| (or the smallest singular
        # value of I + gamma K) is at most 1e-10, and invertible just above it
        m = 9
        for gap, singular in ((5e-11, True), (2e-10, False)):
            c = (gap - 1.0) / gamma
            matrix = np.diag(np.r_[c, np.zeros(m - 1)])
            for k_op in (OperatorSpec.scalar(c, 0.5), OperatorSpec.matrix(matrix, 0.5)):
                if singular:
                    with pytest.raises(OperatorError):
                        k_op.ensure_invertible(gamma, m)
                else:
                    k_op.ensure_invertible(gamma, m)

    def test_violated_degeneration_rejected(self):
        spec = reference_spectrum(1.0, 40)
        values = spec.values.copy()
        values[1] += 1e-3
        bad = Spectrum(values=values, config=spec.config, alpha=spec.alpha)
        with pytest.raises(InconsistentSpectrumError):
            algorithm2(bad, bad.config, OperatorSpec.scalar(1.0, 0.5), 40, 40, grid_n=256)

    def test_matrix_operator_matches_scalar(self):
        rng = np.random.default_rng(30)
        q, _ = half_ratio_potential(rng, 0.5, 512)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(q, cfg, 40)
        half = 256
        mat = 0.5 * np.eye(half + 1, dtype=complex)
        r_scalar = algorithm2(spec, cfg, OperatorSpec.scalar(0.5, 0.5), 40, 40, 512)
        r_matrix = algorithm2(spec, cfg, OperatorSpec.matrix(mat, 0.5), 40, 40, 512)
        assert np.allclose(r_scalar.samples, r_matrix.samples, atol=1e-12)


class TestAlgorithm3:
    def test_reference_pair_gives_zero(self):
        two = TwoSpectra(
            spec0=reference_spectrum(1.0, 60), spec1=reference_spectrum(-1.0, 60), a=0.0
        )
        q = algorithm3(two, 60, 60, grid_n=256)
        assert np.max(np.abs(q.samples)) < 1e-10

    def test_linear_potential_hand_case(self):
        # q(x) = x: w0 = 1 and w1 = 2x - 1, compared through their sine projections
        n = 1024
        q = Potential(np.linspace(0, 1, n + 1).astype(complex))
        two = forward_pair(q, 0.0, 60)
        w0 = recover_w(two.spec0, 60, 60)
        w1 = recover_w(two.spec1, 60, 60)
        ks = np.arange(1, 61)
        b0_true = np.where(ks % 2 == 1, 4.0 / (PI * ks), 0.0)
        b1_true = np.where(ks % 2 == 0, -4.0 / (PI * ks), 0.0)
        assert np.sqrt(np.sum(np.abs(w0.coeffs - b0_true) ** 2) / 2) <= 1e-3
        assert np.sqrt(np.sum(np.abs(w1.coeffs - b1_true) ** 2) / 2) <= 1e-3

    def test_round_trip_sine_poly(self):
        rng = np.random.default_rng(31)
        q = sine_poly_potential(rng, 1024, degree=4)
        two = forward_pair(q, 0.0, 120)
        q_rec = algorithm3(two, 60, 120, grid_n=1024)
        assert rel_l2_error(q_rec, q) <= 1e-3

    def test_a_one_returns_mirror(self):
        rng = np.random.default_rng(32)
        q = sine_poly_potential(rng, 1024, degree=4)
        two_zero = forward_pair(q, 0.0, 60)
        # the mirrored potential with a = 1 has the same spectra pair
        q_m = Potential(q.samples[::-1].copy())
        two_one = forward_pair(q_m, 1.0, 120)
        assert np.max(np.abs(two_one.spec0.values[:60] - two_zero.spec0.values)) < 1e-7
        q_rec = algorithm3(two_one, 60, 120, grid_n=1024)
        assert rel_l2_error(q_rec, q_m) <= 1e-3

    def test_interior_a_rejected(self):
        two = TwoSpectra(
            spec0=reference_spectrum(1.0, 40), spec1=reference_spectrum(-1.0, 40), a=0.25
        )
        with pytest.raises(ConfigError):
            algorithm3(two, 40, 40)


class TestGrowthCheck:
    def test_matched_pair_passes(self):
        rng = np.random.default_rng(33)
        q = window_flat_potential(rng, 0.3, 1000)
        two = forward_pair(q, 0.3, 120)
        report = check_growth(two, 120, grid_n=1000)
        assert report.passed

    def test_mismatched_pair_fails(self):
        rng = np.random.default_rng(34)
        q = window_flat_potential(rng, 0.3, 1000)
        two = forward_pair(q, 0.3, 120)
        broken = TwoSpectra(spec0=two.spec0, spec1=reference_spectrum(-1.0, 120), a=0.3)
        report = check_growth(broken, 120, grid_n=1000)
        assert not report.passed
        assert report.max_violation > 1e-2

    @pytest.mark.parametrize("scale", (0.5, 1.0, 40.0))
    def test_support_tolerance_boundary(self, scale):
        # the window may hold up to 1e-6 max(1, scale), and no more
        limit = 1e-6 * max(1.0, scale)
        for viol, passed in ((0.9 * limit, True), (1.1 * limit, False)):
            wsum = np.zeros(65, dtype=complex)
            wsum[3] = scale
            wsum[50] = viol * 1j
            report = _support_report(wsum, 40)
            assert (report.max_violation, report.scale) == (viol, scale)
            assert report.passed is passed

    def test_endpoint_window_trivially_passes(self):
        two = TwoSpectra(
            spec0=reference_spectrum(1.0, 40), spec1=reference_spectrum(-1.0, 40), a=0.0
        )
        report = check_growth(two, 40)
        assert report.passed and report.max_violation == 0.0


class TestAlgorithm4:
    def test_reference_pair_zero_profile(self):
        two = TwoSpectra(
            spec0=reference_spectrum(1.0, 60), spec1=reference_spectrum(-1.0, 60), a=0.25
        )
        p_op = OperatorSpec.constant(np.zeros(65, complex), 0.25)
        q = algorithm4(two, p_op, 60, 60, grid_n=256)
        assert np.max(np.abs(q.samples)) < 1e-10

    def test_round_trip_with_true_profile(self):
        rng = np.random.default_rng(35)
        a = 0.25
        q = window_flat_potential(rng, a, 1024)
        two = forward_pair(q, a, 120)
        j_a = 256
        profile = q.samples[j_a::-1]  # true q(a - x) samples
        p_op = OperatorSpec.constant(profile, a)
        q_rec = algorithm4(two, p_op, 60, 120, grid_n=1024)
        assert rel_l2_error(q_rec, q) <= 1e-3

    def test_half_matches_algorithm2(self):
        rng = np.random.default_rng(36)
        a = 0.5
        q = window_flat_potential(rng, a, 1024)
        cfg = FrozenConfig(a=a, gamma=1.0)
        two = forward_pair(q, a, 120)
        half = 512
        p_op = OperatorSpec.constant(q.samples[half::-1], a)
        q4 = algorithm4(two, p_op, 60, 120, grid_n=1024)
        # the equivalent one-spectrum operator couples the halves of q_a
        from frozenhill.core import shift_to_zero

        q_a = shift_to_zero(q, cfg)
        k_op = OperatorSpec.constant(q_a.samples[half::-1], 0.5)
        q2 = algorithm2(two.spec0, cfg, k_op, 60, 120, grid_n=1024)
        assert rel_l2_error(q4, q2) <= 1e-5

    def test_mismatched_pair_raises_growth_error(self):
        rng = np.random.default_rng(37)
        q = window_flat_potential(rng, 0.25, 1024)
        two = forward_pair(q, 0.25, 120)
        broken = TwoSpectra(spec0=two.spec0, spec1=reference_spectrum(-1.0, 120), a=0.25)
        p_op = OperatorSpec.constant(np.zeros(257, complex), 0.25)
        with pytest.raises(GrowthConditionError):
            algorithm4(broken, p_op, 60, 120, grid_n=1024)


class TestReconstruct:
    """reconstruct dispatches to the algorithm each case needs, with identical results."""

    SCALAR_K = OperatorSpec.scalar(0.5, 0.5)

    def test_generic_coupling_is_algorithm1(self):
        rng = np.random.default_rng(43)
        cfg = FrozenConfig(a=0.25, gamma=2.0)
        q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=8), cfg, 512)
        spec = compute_spectrum(q, cfg, 40)
        expected = algorithm1(spec, cfg, 40, 40, 512).samples
        assert np.array_equal(reconstruct(spec, 40, 40, 512).samples, expected)
        # an operator is ignored where the coupling needs none
        assert np.array_equal(reconstruct(spec, 40, 40, 512, op=self.SCALAR_K).samples, expected)

    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    def test_unit_coupling_is_algorithm2(self, gamma):
        rng = np.random.default_rng(44)
        q, _ = half_ratio_potential(rng, 0.5, 512)
        cfg = FrozenConfig(a=0.0, gamma=gamma)
        spec = compute_spectrum(q, cfg, 60)
        expected = algorithm2(spec, cfg, self.SCALAR_K, 40, 60, 512).samples
        assert np.array_equal(reconstruct(spec, 40, 60, 512, op=self.SCALAR_K).samples, expected)
        with pytest.raises(ConfigError, match="supply --op"):
            reconstruct(spec, 40, 60, 512)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_endpoint_pair_is_algorithm3(self, a):
        rng = np.random.default_rng(45)
        two = forward_pair(sine_poly_potential(rng, 512, degree=4), a, 60)
        expected = algorithm3(two, 40, 60, 512).samples
        assert np.array_equal(reconstruct(two, 40, 60, 512).samples, expected)
        p_op = OperatorSpec.constant(np.zeros(129, complex), 0.25)
        assert np.array_equal(reconstruct(two, 40, 60, 512, op=p_op).samples, expected)

    def test_interior_pair_is_algorithm4(self):
        rng = np.random.default_rng(46)
        q = window_flat_potential(rng, 0.25, 512)
        two = forward_pair(q, 0.25, 60)
        p_op = OperatorSpec.constant(q.samples[128::-1], 0.25)
        expected = algorithm4(two, p_op, 40, 60, 512).samples
        assert np.array_equal(reconstruct(two, 40, 60, 512, op=p_op).samples, expected)
        with pytest.raises(ConfigError, match="needs --op"):
            reconstruct(two, 40, 60, 512)

    def test_large_a_mirrors_algorithm4(self):
        rng = np.random.default_rng(47)
        q = window_flat_potential(rng, 0.25, 512)
        two = forward_pair(q, 0.25, 60)
        p_op = OperatorSpec.constant(q.samples[128::-1], 0.25)
        mirrored = TwoSpectra(spec0=two.spec0, spec1=two.spec1, a=0.75)
        expected = algorithm4(two, p_op, 40, 60, 512).samples[::-1]
        assert np.array_equal(reconstruct(mirrored, 40, 60, 512, op=p_op).samples, expected)
        with pytest.raises(ConfigError, match="needs --op"):
            reconstruct(mirrored, 40, 60, 512)


class TestFamilies:
    def test_isospectral_zero_profile_reference(self):
        spec = reference_spectrum(1.0, 40)
        members = isospectral_family(
            spec, spec.config, [np.zeros(129, complex)], 40, 40, grid_n=256
        )
        assert len(members) == 1
        assert np.max(np.abs(members[0].samples)) < 1e-10

    def test_isospectral_members_share_spectrum(self):
        rng = np.random.default_rng(38)
        base, _ = half_ratio_potential(rng, 1.0, 1024)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(base, cfg, 120)
        xs_half = np.linspace(0, 0.5, 513)
        p1 = np.zeros(513, complex)
        p2 = np.sin(2 * PI * xs_half) * (0.8 - 0.3j)
        members = isospectral_family(spec, cfg, [p1, p2], 60, 120, grid_n=1024)
        assert rel_l2_error(members[0], members[1]) > 0.1
        s1 = compute_spectrum(members[0], cfg, 30)
        s2 = compute_spectrum(members[1], cfg, 30)
        assert np.max(np.abs(s1.values - s2.values)) <= 1e-6
        assert np.max(np.abs(s1.values - spec.values[:30])) <= 1e-6

    def test_isospectral_idempotence(self):
        rng = np.random.default_rng(39)
        base, _ = half_ratio_potential(rng, 1.0, 1024)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(base, cfg, 120)
        xs_half = np.linspace(0, 0.5, 513)
        p = 0.5 * np.sin(2 * PI * xs_half)
        member = isospectral_family(spec, cfg, [p], 60, 120, grid_n=1024)[0]
        spec_m = compute_spectrum(member, cfg, 120)
        member_again = isospectral_family(spec_m, cfg, [p], 60, 120, grid_n=1024)[0]
        assert rel_l2_error(member_again, member) <= 1e-5

    def test_isospectral_members_equal_algorithm2(self):
        rng = np.random.default_rng(41)
        base, _ = half_ratio_potential(rng, 1.0, 1024)
        cfg = FrozenConfig(a=0.0, gamma=1.0)
        spec = compute_spectrum(base, cfg, 120)
        xs_half = np.linspace(0, 0.5, 513)
        profiles = [np.zeros(513, complex), np.sin(2 * PI * xs_half) * (0.8 - 0.3j)]
        members = isospectral_family(spec, cfg, profiles, 60, 120, grid_n=1024)
        for member, p in zip(members, profiles):
            single = algorithm2(spec, cfg, OperatorSpec.constant(p, 0.5), 60, 120, grid_n=1024)
            assert np.array_equal(member.samples, single.samples)

    def test_isobispectral_members_equal_algorithm4(self):
        rng = np.random.default_rng(42)
        a = 0.25
        two = forward_pair(window_flat_potential(rng, a, 1024), a, 120)
        xs_a = np.linspace(0, a, 257)
        profiles = [np.zeros(257, complex), (0.6 + 0.2j) * np.sin(PI * xs_a / a)]
        members = isobispectral_family(two, profiles, 60, 120, grid_n=1024)
        for member, p in zip(members, profiles):
            single = algorithm4(two, OperatorSpec.constant(p, a), 60, 120, grid_n=1024)
            assert np.array_equal(member.samples, single.samples)

    def test_empty_profile_lists(self):
        spec = reference_spectrum(1.0, 20)
        two = TwoSpectra(spec0=spec, spec1=reference_spectrum(-1.0, 20), a=0.25)
        assert isospectral_family(spec, spec.config, [], 20, 20) == []
        assert isobispectral_family(two, [], 20, 20) == []

    def test_isobispectral_members(self):
        rng = np.random.default_rng(40)
        a = 0.25
        q = window_flat_potential(rng, a, 1024)
        two = forward_pair(q, a, 120)
        xs_a = np.linspace(0, a, 257)
        p1 = np.zeros(257, complex)
        p2 = (0.6 + 0.2j) * np.sin(PI * xs_a / a)
        members = isobispectral_family(two, [p1, p2], 60, 120, grid_n=1024)
        assert rel_l2_error(members[0], members[1]) > 0.05
        # the (2a, 1) portion is profile-independent, bitwise
        tail = slice(2 * 256 + 1, None)
        assert np.array_equal(members[0].samples[tail], members[1].samples[tail])
        pair1 = forward_pair(members[0], a, 30)
        pair2 = forward_pair(members[1], a, 30)
        assert np.max(np.abs(pair1.spec0.values - pair2.spec0.values)) <= 1e-6
        assert np.max(np.abs(pair1.spec1.values - pair2.spec1.values)) <= 1e-6


class TestTwoSpectraValidation:
    def test_wrong_couplings_rejected(self):
        s0 = reference_spectrum(1.0, 10)
        s1 = reference_spectrum(-1.0, 10)
        with pytest.raises(ConfigError):
            TwoSpectra(spec0=s1, spec1=s0, a=0.0)
        with pytest.raises(ConfigError):
            TwoSpectra(spec0=s0, spec1=reference_spectrum(2.0, 10), a=0.0)

    def test_growth_window_mirrors_for_large_a(self):
        # the support window for a > 1/2 is (a, 1), matching the mirrored problem
        rng = np.random.default_rng(42)
        q = window_flat_potential(rng, 0.25, 1024)
        two = forward_pair(q, 0.25, 120)
        q_m = Potential(q.samples[::-1].copy())
        two_m = forward_pair(q_m, 0.75, 120)
        assert np.max(np.abs(two_m.spec0.values - two.spec0.values)) < 1e-7
        report = check_growth(two_m, 120, grid_n=512)
        assert report.passed


class TestDegenerationCheck:
    def test_forward_degenerate_data(self):
        rng = np.random.default_rng(41)
        q = sine_poly_potential(rng, 512, degree=3)
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=1.0), 30)
        assert check_degeneration(spec)

    def test_perturbed_fails(self):
        spec = reference_spectrum(-1.0, 30)
        values = spec.values.copy()
        values[1] += 1e-3
        bad = Spectrum(values=values, config=spec.config, alpha=spec.alpha)
        assert not check_degeneration(bad)

    def test_nan_odd_eigenvalue_fails(self):
        spec = reference_spectrum(1.0, 30)
        values = spec.values.copy()
        values[3] = np.nan
        assert not check_degeneration(Spectrum(values=values, config=spec.config, alpha=spec.alpha))

    @pytest.mark.parametrize("gamma", (1.0, -1.0))
    def test_matches_scalar_rule_at_the_bound(self, gamma):
        spec = reference_spectrum(gamma, 30)
        rng = np.random.default_rng(28)
        for _ in range(40):
            values = spec.values.copy()
            n = 2 * int(rng.integers(15)) + 1
            ref = reference_lambda(n, spec.alpha)
            # a step within a few ulps of the bound 1e-9 (1 + |ref|), either side
            size = 1e-9 * (1.0 + abs(ref)) * (1.0 + rng.uniform(-1e-12, 1e-12))
            values[n] = ref + size * np.exp(1j * rng.uniform(0, 2 * PI))
            bad = Spectrum(values=values, config=spec.config, alpha=spec.alpha)
            rule = abs(values[n] - ref) <= 1e-9 * (1.0 + abs(ref))
            assert check_degeneration(bad) == rule

    def test_single_entry_vacuous(self):
        spec = reference_spectrum(1.0, 1)
        assert check_degeneration(spec)

    def test_wrong_gamma_rejected(self):
        spec = reference_spectrum(2.0, 10)
        with pytest.raises(ConfigError):
            check_degeneration(spec)
