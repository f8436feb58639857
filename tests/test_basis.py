"""Tests for the Gram-truncation frame-bound diagnostics of the sine system."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gram_entry_by_quadrature
from frozenhill import FrozenHillError, compute_alpha, frame_bounds, gram_matrix, riesz_report
from frozenhill import basis
from frozenhill.basis import _gram_entries, _real_form
from frozenhill.core import phi, sinc_entire

PI = np.pi

#: backward-error scale of either eigensolver, in units of max(1, |upper|)
EIG_ULPS = 64 * np.finfo(float).eps


def dense_gram(alpha, n_half):
    """Reference: every entry from I(u, v) = [sinc((u-v)pi) - sinc((u+v)pi)] / 2."""
    ns = np.arange(-n_half, n_half + 1)
    u = 2.0 * ns + complex(alpha)
    v = 2.0 * ns + np.conj(complex(alpha))
    diff = u[:, None] - v[None, :]
    summ = u[:, None] + v[None, :]
    return 0.5 * (sinc_entire(PI * diff) - sinc_entire(PI * summ))


def frame_bounds_per_size(alpha, n_half):
    """Reference: a fresh Gram truncation per size, symmetrised before eigvalsh."""
    g = gram_matrix(alpha, n_half, cross_check=False).matrix
    eigs = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    return float(eigs[0]), float(eigs[-1])


def gather_gram(alpha, n_half):
    """Reference: G = (T - H)/2 gathered from the diagonals by index matrices."""
    alpha = complex(alpha)
    offsets = 2.0 * np.arange(-2 * n_half, 2 * n_half + 1)
    toeplitz = sinc_entire(PI * (offsets + 2j * alpha.imag))
    hankel = sinc_entire(PI * (offsets + 2.0 * alpha.real))
    i = np.arange(2 * n_half + 1)
    return 0.5 * (toeplitz[i[:, None] - i + 2 * n_half] - hankel[i[:, None] + i])


def assert_bounds_match(got, want, exact):
    if exact:
        assert got == want
    else:
        tol = EIG_ULPS * max(1.0, abs(want[1]))
        assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol


def assert_structure(g, alpha):
    """The exact structure the real form assumes for this alpha."""
    if alpha.imag == 0:
        assert not g.imag.any()
    elif alpha.real == 0:
        re, im = g.real, g.imag
        assert np.array_equal(re[::-1, ::-1], re) and np.array_equal(im[::-1, ::-1], -im)


def random_hermitian(rng, n_half, kind):
    """Odd-size Hermitian matrix: exactly real, exactly centro-Hermitian or general."""
    size = 2 * n_half + 1
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if kind == "real":
        a = a.real + 0j
    g = a + a.conj().T
    if kind == "centro":
        g = (g + g[::-1, ::-1].conj()) / 2.0
    return g


def diagonal_entry(alpha, n):
    """Closed-form G_nn = 1/2 - sin(2(2n+alpha)pi)/(4(2n+alpha)pi) for real alpha."""
    return 0.5 - 0.5 * complex(phi(2 * PI * (2 * n + complex(alpha)), 1.0))


class TestGramMatrix:
    def test_hermitian(self):
        for alpha in (0.25, 0.3 + 0.1j, 0.5 + 0.5j):
            g = gram_matrix(alpha, 6, cross_check=False).matrix
            assert np.max(np.abs(g - g.conj().T)) < 1e-12

    def test_closed_form_matches_quadrature(self):
        for alpha in (0.25, 0.3 + 0.1j):
            g = gram_matrix(alpha, 4, cross_check=False).matrix
            for m in (-2, 0, 1):
                for n in (-1, 0, 2):
                    quad = gram_entry_by_quadrature(alpha, m, n)
                    assert abs(g[m + 4, n + 4] - quad) <= 1e-10

    def test_cross_check_runs(self):
        gram_matrix(0.5, 8, cross_check=True)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 0.25, 0.22j, 0.25 + 0.11j])
    @pytest.mark.parametrize("n_half", [1, 4, 256])
    def test_toeplitz_hankel_matches_dense(self, alpha, n_half):
        # same sinc_entire arguments as the dense form whenever 2n + Re(alpha)
        # is exact, so the entries agree to rounding of the sinc itself
        g = _gram_entries(alpha, n_half)
        ref = dense_gram(alpha, n_half)
        assert g.shape == ref.shape == (2 * n_half + 1, 2 * n_half + 1)
        assert np.max(np.abs(g - ref)) <= 1e-15
        assert np.array_equal(g, g.conj().T)

    def test_toeplitz_hankel_inexact_real_part(self):
        # Re(alpha) = 0.3 rounds in 2n + alpha, which the dense form then
        # differences; the Toeplitz form uses the exact 2(m - n)
        g = _gram_entries(0.3 + 0.1j, 64)
        assert np.max(np.abs(g - dense_gram(0.3 + 0.1j, 64))) <= 1e-13

    @pytest.mark.parametrize("n_half", [1, 2, 8])
    def test_cross_check_catches_perturbed_entry(self, monkeypatch, n_half):
        exact = basis._gram_entries

        def perturbed(alpha, n):
            g = exact(alpha, n)
            g[n, n + 1] += 1e-8  # entry (0, 1) of the checked block
            return g

        monkeypatch.setattr(basis, "_gram_entries", perturbed)
        with pytest.raises(FrozenHillError, match=r"disagree at \(0,1\)"):
            gram_matrix(0.25 + 0.11j, n_half, cross_check=True)

    def test_diagonal_closed_form_real_alpha(self):
        alpha = 0.3
        g = gram_matrix(alpha, 5, cross_check=False).matrix
        for n in (-3, 0, 2):
            assert g[n + 5, n + 5] == pytest.approx(diagonal_entry(alpha, n), abs=1e-13)

    def test_diagonal_half_for_alpha_half(self):
        # sin(2(2n + 1/2)pi) = sin((4n+1)pi) = 0, so every diagonal entry is 1/2
        g = gram_matrix(0.5, 6, cross_check=False).matrix
        assert np.allclose(np.diag(g), 0.5, atol=1e-13)

    def test_integer_alpha_singular(self):
        # rows n and -n are proportional at alpha = 0
        g = gram_matrix(0.0, 4, cross_check=False).matrix
        assert np.max(np.abs(g[4 + 1] + g[4 - 1])) < 1e-12

    def test_complex_alpha_finite(self):
        g = gram_matrix(0.3 + 0.1j, 8, cross_check=False).matrix
        assert np.all(np.isfinite(g))


class TestFrameBounds:
    def test_integer_alpha_collapses(self):
        lower, _ = frame_bounds(0.0, 8)
        assert abs(lower) <= 1e-12
        lower1, _ = frame_bounds(1.0, 16)
        assert abs(lower1) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.3 + 0.1j, 0.5 + 0.5j])
    def test_noninteger_alpha_bounded_below(self, alpha):
        a1_16, a2_16 = frame_bounds(alpha, 16)
        a1_64, a2_64 = frame_bounds(alpha, 64)
        assert a1_64 > 0
        assert a1_64 / a1_16 >= 0.5
        assert a2_64 < np.inf

    def test_alpha_half_stable_floor(self):
        lows = [frame_bounds(0.5, n)[0] for n in (8, 16, 32)]
        assert all(low > 0.2 for low in lows)
        assert max(lows) / min(lows) < 1.2

    def test_bounds_are_real_floats(self):
        a1, a2 = frame_bounds(0.25j, 8)
        assert isinstance(a1, float) and isinstance(a2, float)
        assert a1 <= a2


class TestRieszReport:
    def test_interlacing(self):
        report = riesz_report(0.5, [4, 8, 16])
        assert report.lower_nonincreasing
        assert report.upper_nondecreasing

    def test_degeneration_towards_integer_alpha(self):
        lows = [frame_bounds(alpha, 16)[0] for alpha in (0.1, 0.01, 0.001)]
        assert lows[0] > lows[1] > lows[2]
        assert lows[2] < 1e-4

    def test_condition_number_column(self):
        report = riesz_report(0.25, [4, 8])
        for row in report.rows:
            assert row.condition == pytest.approx(row.upper / row.lower)

    def test_singular_case_reports_inf(self):
        report = riesz_report(0.0, [4])
        assert np.isinf(report.rows[0].condition) or report.rows[0].condition > 1e10

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.3 + 0.1j, 0.5 + 0.5j, 0.25j, 0.0])
    def test_rows_match_per_size_bounds(self, alpha):
        # the rows come from blocks of one matrix, in any size order: blocks
        # of G equal each truncation's complex bounds exactly; blocks of its
        # real form are unitarily similar and agree to the backward error
        sizes = [8, 1, 64, 4, 128, 16, 32]
        report = riesz_report(alpha, sizes)
        real_path = alpha not in (0.3 + 0.1j, 0.5 + 0.5j)  # real, or Re(alpha) = 0
        for n_half in (1, 2, max(sizes)):
            g = _gram_entries(alpha, n_half)
            assert (_real_form(g, complex(alpha)) is not g) == real_path
        assert [row.n_half for row in report.rows] == sizes
        for row, n_half in zip(report.rows, sizes):
            bounds = (row.lower, row.upper)
            assert_bounds_match(bounds, frame_bounds_per_size(alpha, n_half), exact=not real_path)
            assert frame_bounds(alpha, n_half) == bounds

    @pytest.mark.parametrize("gamma", [2.0, 0.5 + 0.5j, complex(np.exp(1j * PI / 4)), 1e-3])
    def test_peak_memory(self, gamma):
        alpha = compute_alpha(gamma).alpha
        tracemalloc.start()
        try:
            riesz_report(alpha, [4, 8, 16, 32, 64, 128, 256])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_empty_size_list(self):
        report = riesz_report(0.25, [])
        assert report.rows == ()
        assert report.lower_nonincreasing and report.upper_nondecreasing


class TestRealForm:
    @pytest.mark.parametrize("kind", ["real", "centro", "general"])
    @pytest.mark.parametrize("n_half", [0, 1, 2, 7, 40])
    def test_eigenvalues_match_complex(self, kind, n_half):
        g = random_hermitian(np.random.default_rng(n_half), n_half, kind)
        r = _real_form(g, {"real": 1.0 + 0j, "centro": 1j, "general": 1 + 1j}[kind])
        if kind == "general":
            assert r is g
            return
        assert r.dtype == float and r.shape == g.shape
        want = np.linalg.eigvalsh(g)
        tol = EIG_ULPS * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(np.linalg.eigvalsh(r) - want)) <= tol

    def test_paths_follow_alpha(self):
        real = _gram_entries(0.25, 8)
        assert np.shares_memory(_real_form(real, 0.25 + 0j), real)  # real G: its real part
        alpha = compute_alpha(2.0).alpha  # Re(alpha) = 0: h even
        assert _real_form(_gram_entries(alpha, 8), alpha).dtype == float
        general = _gram_entries(0.25 + 0.11j, 8)
        assert _real_form(general, 0.25 + 0.11j) is general

    @pytest.mark.parametrize(
        "gamma", [2.0, 3.0, 0.3, 1e-3, 1j, complex(np.exp(1j * PI / 4)), -1.0, 0.5 + 0.5j]
    )
    def test_gram_has_the_structure_alpha_promises(self, gamma):
        alpha = compute_alpha(gamma).alpha
        assert_structure(_gram_entries(alpha, 256), alpha)

    @pytest.mark.parametrize("source", ["random", "gram"])
    def test_central_blocks_commute(self, source):
        top = 24
        if source == "random":
            alpha = 1j
            g = random_hermitian(np.random.default_rng(3), top, "centro")
        else:
            alpha = compute_alpha(3.0).alpha
            g = _gram_entries(alpha, top)
        r = _real_form(g, alpha)
        for n_half in range(top + 1):
            block = slice(top - n_half, top + n_half + 1)
            assert np.array_equal(r[block, block], _real_form(g[block, block], alpha))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 0.25, 0.22j, 0.25 + 0.11j, 1 + 0.22j])
    @pytest.mark.parametrize("n_half", [0, 1, 4, 256])
    def test_gather_free_build_is_bit_identical(self, alpha, n_half):
        got, want = _gram_entries(alpha, n_half), gather_gram(alpha, n_half)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["i*beta", "rho", "1/2+i*beta"]),
    x=st.floats(0.0, 1.0),
    n_max=st.integers(1, 48),
)
def test_real_path_rows_match_complex_path(family, x, n_max):
    alpha = {"i*beta": 1j * x, "rho": complex(x), "1/2+i*beta": 0.5 + 1j * x}[family]
    sizes = [n_max // 4, n_max // 2, n_max]
    assert_structure(_gram_entries(alpha, n_max), alpha)
    report = riesz_report(alpha, sizes)
    with mock.patch.object(basis, "_real_form", lambda g, alpha: g):
        complex_path = riesz_report(alpha, sizes)
    for row, ref in zip(report.rows, complex_path.rows):
        assert row.n_half == ref.n_half
        assert_bounds_match((row.lower, row.upper), (ref.lower, ref.upper), exact=False)
    assert report.lower_nonincreasing == complex_path.lower_nonincreasing
    assert report.upper_nondecreasing == complex_path.upper_nondecreasing
