"""Seeded potential families, written independently of the package under test.

Each family is a closed-form function of x, so the same potential can be
sampled on the grid a spectrum is computed on and on the finer grid a
reconstruction is compared on.  The frozen-point shift is reimplemented here
from its definition rather than taken from frozenhill, so the inputs do not
change when the program does.
"""

from __future__ import annotations

import numpy as np

PI = np.pi


def random_complex(rng, count, scale=1.0):
    return scale * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))


def trig_poly(coeffs):
    """q(x) = c0 + sum_j c_{2j-1} cos(2 pi j x) + c_{2j} sin(2 pi j x)."""
    coeffs = np.asarray(coeffs, dtype=complex)

    def f(xs):
        xs = np.asarray(xs, dtype=float)
        out = np.full(xs.shape, coeffs[0], dtype=complex)
        for j in range(1, (len(coeffs) - 1) // 2 + 1):
            out += coeffs[2 * j - 1] * np.cos(2 * PI * j * xs)
            out += coeffs[2 * j] * np.sin(2 * PI * j * xs)
        return out

    return f


def sine_series(b):
    """w(x) = sum_k b_k sin(pi k x), k = 1..len(b)."""
    b = np.asarray(b, dtype=complex)
    ks = np.arange(1, len(b) + 1)

    def f(xs):
        return np.sin(np.multiply.outer(np.asarray(xs, dtype=float), ks * PI)) @ b

    return f


def project_out(b, rows):
    """Least-squares projection of b onto the null space of the constraint rows."""
    c = np.atleast_2d(np.asarray(rows, dtype=complex))
    return b - c.conj().T @ np.linalg.solve(c @ c.conj().T, c @ b)


def flat_coeffs(rng, ks, scale=0.7, extra_rows=()):
    """Sine coefficients on the modes ks with w'(1) = w'''(1) = 0.

    The two derivative constraints push the eigenvalue residuals kappa_n
    from O(1/n) to fast decay, so truncated products stay accurate.
    """
    ks = np.asarray(ks, dtype=float)
    sign = (-1.0) ** ks
    rows = [ks * sign, ks**3 * sign, *extra_rows]
    b_sub = project_out(random_complex(rng, len(ks), scale), np.array(rows))
    b = np.zeros(int(ks.max()), dtype=complex)
    b[ks.astype(int) - 1] = b_sub
    return b


def shifted(q_a, a: float, gamma: complex):
    """Potential q with frozen point a whose shift to the origin is q_a.

    q(x) = gamma q_a(x - a + 1) on [0, a) and q_a(x - a) on [a, 1].
    """

    def f(xs):
        xs = np.asarray(xs, dtype=float)
        left = xs < a
        out = np.empty(xs.shape, dtype=complex)
        out[left] = gamma * q_a(xs[left] - a + 1.0)
        out[~left] = q_a(xs[~left] - a)
        return out

    return f


def generic_trig(rng, degree=6, scale=1.0):
    """Smooth periodic trig polynomial: the w kernel jumps, so it is Gibbs-limited."""
    return trig_poly(random_complex(rng, 2 * degree + 1, scale))


def stiff_trig(rng, sup_norm: float, degree=3, probe_n=4096):
    """Trig polynomial rescaled to the given sup norm (30 to 100 is stiff)."""
    coeffs = random_complex(rng, 2 * degree + 1)
    peak = np.max(np.abs(trig_poly(coeffs)(np.linspace(0.0, 1.0, probe_n + 1))))
    return trig_poly(coeffs * (sup_norm / peak))


def flat_generic(rng, a: float, gamma: complex, degree=12):
    """Potential whose kernel w is a boundary-flat finite sine series (gamma != +-1).

    Inverts the main equation, q_a = (gamma w - w(1 - x)) / (gamma^3 - gamma),
    and moves the frozen point from the origin to a.
    """
    w = sine_series(flat_coeffs(rng, np.arange(1, degree + 1)))

    def q_a(t):
        return (gamma * w(t) - w(1.0 - t)) / (gamma**3 - gamma)

    return shifted(q_a, a, gamma)


def _halves(right, c: complex):
    """q_a with q_a(1/2 + x) = right(x) and q_a(1/2 - x) = c right(x)."""

    def q_a(t):
        t = np.asarray(t, dtype=float)
        x = np.abs(t - 0.5)
        return np.where(t < 0.5, c, 1.0) * right(x)

    return q_a


def degenerate(rng, kind: str, a: float, gamma: float, c: complex):
    """Potential q, and its shift q_a, for gamma = +-1 with q_a(1/2 - x) = c q_a(1/2 + x).

    The scalar operator K = c is then the auxiliary operator algorithm2 needs.
    kind "trig": the right half is a generic trig polynomial (jump at 1/2).
    kind "flat": the halves come from a flat sine-series kernel of the
    symmetry gamma imposes (odd modes for +1, even modes for -1), with
    w(1/2) = 0 so the two halves meet continuously.
    """
    if kind == "trig":
        right = generic_trig(rng, degree=4, scale=0.7)
    else:
        ks = np.arange(1, 12, 2) if gamma == 1 else np.arange(2, 13, 2)
        b = flat_coeffs(rng, ks, extra_rows=[np.sin(PI * ks / 2)] if gamma == 1 else [])
        w = sine_series(b)

        def right(x):
            return gamma * w(0.5 - x) / (1.0 + gamma * c)

    q_a = _halves(right, c)
    return shifted(q_a, a, gamma), q_a


def window_flat(rng, a: float, scale=3.0):
    """Vanishes to sixth order at 0 and 1 and to third order at a.

    The two-spectra kernels are then C^3 across their branch points, so the
    support test of w0 + w1 passes and truncated reconstructions are accurate.
    """
    t = random_complex(rng, 3, scale)

    def f(xs):
        xs = np.asarray(xs, dtype=float)
        env = np.sin(PI * xs) ** 6 * (np.cos(PI * xs) - np.cos(PI * a)) ** 3
        return env * (t[0] + t[1] * np.cos(2 * PI * xs) + t[2] * np.sin(2 * PI * xs))

    return f


def unshift_samples(q_a: np.ndarray, a: float, gamma: complex) -> np.ndarray:
    """Grid form of `shifted`: q_j = gamma q_a[j + n - j_a] left of a, q_a[j - j_a] from a on."""
    n = len(q_a) - 1
    j_a = round(a * n)
    return np.concatenate([gamma * q_a[n - j_a : n], q_a[: n - j_a + 1]])


def grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n + 1)


def rel_l2(p: np.ndarray, q: np.ndarray) -> float:
    """Relative L2 distance of two sample vectors on a common uniform grid (trapezoid)."""
    d = np.abs(p - q) ** 2
    r = np.abs(q) ** 2
    num = np.sum(d) - (d[0] + d[-1]) / 2.0
    den = np.sum(r) - (r[0] + r[-1]) / 2.0
    return float(np.sqrt(num / den))
