"""Tests for the Gram-truncation frame-bound diagnostics of the sine system."""

import numpy as np
import pytest

from frozenhill import FrozenHillError, frame_bounds, gram_matrix, riesz_report
from frozenhill import basis
from frozenhill.basis import _gram_entries, _quadrature_entry
from frozenhill.core import phi, sinc_entire

PI = np.pi


def dense_gram(alpha, n_half):
    """Reference: every entry from I(u, v) = [sinc((u-v)pi) - sinc((u+v)pi)] / 2."""
    ns = np.arange(-n_half, n_half + 1)
    u = 2.0 * ns + complex(alpha)
    v = 2.0 * ns + np.conj(complex(alpha))
    diff = u[:, None] - v[None, :]
    summ = u[:, None] + v[None, :]
    return 0.5 * (sinc_entire(PI * diff) - sinc_entire(PI * summ))


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
                    quad = _quadrature_entry(alpha, m, n)
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
