"""Shared factories for test potentials.

Round-trip tolerances are dominated by two representation effects, so the
random families below are built to keep both under control at the fixed
truncation depths used in the checks:

* the recovered kernel w is a K-term sine partial sum, so test potentials are
  constructed from finite sine expansions (zero representation tail), and
* the truncated zero-product inherits an error from the first omitted
  residuals kappa_n, so the expansions are drawn with vanishing odd
  derivatives of w at x = 1, which pushes kappa_n from O(1/n) decay to
  O(n^-4) and the product-truncation noise far below the 1e-3 budgets.
"""

import numpy as np

from frozenhill import FrozenConfig, Potential, SineSeries
from frozenhill.core import reference_rho, unshift


def project_out_rows(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Joint least-squares projection of coeffs onto the null space of rows."""
    c = np.atleast_2d(np.asarray(rows, dtype=complex))
    b = np.asarray(coeffs, dtype=complex)
    gram = c @ c.conj().T
    return b - c.conj().T @ np.linalg.solve(gram, c @ b)


def shift_to_zero(q: Potential, config: FrozenConfig) -> Potential:
    """Transport the potential so the frozen point moves to the origin.

    q_a(x) = q(x + a) left of the snapped node x = 1 - a and q(x + a - 1)/gamma
    from that node on; for a = 0 the map is the identity.  The spectrum of
    (q, a, gamma) equals the spectrum of (q_a, 0, gamma).
    """
    n = q.n
    j_a = config.snap(n)
    if j_a == 0:
        return Potential(q.samples.copy())
    s = q.samples
    gamma = config.gamma
    out = np.empty(n + 1, dtype=complex)
    cut = n - j_a
    js = np.arange(0, cut)
    out[js] = s[j_a + js]
    js = np.arange(cut, n + 1)
    out[js] = s[j_a + js - n] / gamma
    return Potential(out)


def reference_lambda(n: int, alpha) -> complex:
    """Unperturbed eigenvalue lambda = (reference rho)**2, in Python's complex multiply."""
    r = reference_rho(n, alpha)
    return r * r


def random_complex(rng, count, scale=0.7):
    return scale * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))


def flat_sine_coeffs(rng, degree=12, scale=0.7, orders=(1.0, 3.0)):
    """Random sine coefficients with w^(order)(1) = 0 for the given odd orders."""
    b = random_complex(rng, degree, scale)
    ks = np.arange(1, degree + 1, dtype=float)
    rows = [(ks**p) * (-1.0) ** np.arange(1, degree + 1) for p in orders]
    return project_out_rows(b, np.array(rows))


def potential_from_w_coeffs(b, config: FrozenConfig, grid_n: int) -> Potential:
    """Potential whose kernel w is exactly the finite sine series with coefficients b.

    Inverts the non-degenerate main-equation system on the grid and transports
    the frozen point from the origin to config.a.
    """
    gamma = config.gamma
    if gamma in (1, -1):
        raise ValueError("finite-w construction needs gamma != +-1")
    ws = SineSeries(b).evaluate(np.linspace(0.0, 1.0, grid_n + 1))
    q_a = (gamma * ws - ws[::-1]) / (gamma**3 - gamma)
    return unshift(Potential(q_a), config)


def trig_poly_potential(rng, grid_n, degree=6, scale=1.0) -> Potential:
    """1-periodic trigonometric polynomial with complex coefficients, |c| <= scale."""
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    coeffs = random_complex(rng, 2 * degree + 1, scale)
    out = np.full(grid_n + 1, coeffs[0], dtype=complex)
    for j in range(1, degree + 1):
        out += coeffs[2 * j - 1] * np.cos(2 * np.pi * j * xs)
        out += coeffs[2 * j] * np.sin(2 * np.pi * j * xs)
    return Potential(out)


def sine_poly_potential(rng, grid_n, degree=4, scale=0.7) -> Potential:
    """q(x) = sum_{j<=degree} c_j sin(pi j x); both kernels w0, w1 are finite sine series."""
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    coeffs = random_complex(rng, degree, scale)
    out = np.zeros(grid_n + 1, dtype=complex)
    for j in range(1, degree + 1):
        out += coeffs[j - 1] * np.sin(np.pi * j * xs)
    return Potential(out)


def half_ratio_potential(rng, c, grid_n, odd_ks=(1, 3, 5, 7, 9), scale=0.7):
    """Potential with q(1/2 - x) = c * q(1/2 + x) whose w is a finite odd-sine series.

    Three constraints are projected onto the draw: w(1/2) = 0 (the ratio
    relation forces q(1/2) = 0 for c != 1) and sum b_j j = sum b_j j^3 = 0,
    which push the eigenvalue residual tail from O(m^-2) to O(m^-6) so deep
    product truncations stay quiet.
    """
    if grid_n % 2:
        raise ValueError("grid_n must be even")
    if any(k % 2 == 0 for k in odd_ks):
        raise ValueError("only odd sine modes keep w symmetric")
    k_arr = np.array(odd_ks, dtype=float)
    b_odd = random_complex(rng, len(odd_ks), scale)
    rows = np.array([np.sin(np.pi * k_arr / 2), k_arr, k_arr**3])
    b_odd = project_out_rows(b_odd, rows)
    k_max = max(odd_ks)
    b = np.zeros(k_max, dtype=complex)
    for k, val in zip(odd_ks, b_odd):
        b[k - 1] = val
    ws = SineSeries(b).evaluate(np.linspace(0.0, 1.0, grid_n + 1))
    half = grid_n // 2
    q = np.empty(grid_n + 1, dtype=complex)
    q[half:] = ws[half:] / (1.0 + c)
    idx = np.arange(1, half + 1)
    q[half - idx] = c * q[half + idx]
    return Potential(q), SineSeries(b)


def window_flat_potential(rng, a, grid_n, scale=3.0) -> Potential:
    """Smooth potential vanishing to high order at 0, 1 and to third order at a.

    Keeps the two-spectra kernels C^3 across their branch points, so their
    sine expansions decay like k^-5 and the truncated reconstructions meet
    tight support/consistency tolerances.
    """
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    t = random_complex(rng, 3, scale)
    envelope = np.sin(np.pi * xs) ** 6 * (np.cos(np.pi * xs) - np.cos(np.pi * a)) ** 3
    trig = t[0] + t[1] * np.cos(2 * np.pi * xs) + t[2] * np.sin(2 * np.pi * xs)
    return Potential(envelope * trig)


def gram_entry_by_quadrature(alpha, m, n, grid_n=2048) -> complex:
    """int_0^1 sin((2m+alpha) pi x) conj(sin((2n+alpha) pi x)) dx by composite Simpson.

    Independent of frozenhill's quadrature: its own nodes and weights.
    """
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    wts = np.where(np.arange(grid_n + 1) % 2 == 1, 4.0, 2.0)
    wts[0] = wts[-1] = 1.0
    fm = np.sin((2 * m + alpha) * np.pi * xs)
    fn = np.sin((2 * n + alpha) * np.pi * xs)
    return complex(np.dot(wts, fm * np.conj(fn)) / (3.0 * grid_n))
