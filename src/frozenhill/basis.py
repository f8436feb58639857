"""Riesz-basis diagnostics for the two-sided sine system {sin((2n+alpha)pi x)}.

The infinite-dimensional basis property is probed through growing Gram
truncations: the extreme eigenvalues of the (2N+1)x(2N+1) Gram matrix bound
the frame constants of the truncated system, and their stabilisation as N
grows is the desk-scale proxy for two-sided frame bounds.  Integer alpha
degenerates the system (rows n and -n become proportional) and drives the
lower bound to zero.

With u_m = 2m + alpha and v_n = 2n + conj(alpha), the entry
G_mn = int_0^1 sin(u_m pi x) conj(sin(v_n pi x)) dx
     = [sinc((u_m - v_n) pi) - sinc((u_m + v_n) pi)] / 2,
and u_m - v_n = 2(m - n) + 2i Im(alpha), u_m + v_n = 2(m + n) + 2 Re(alpha).
So G = (T - H)/2 with T Toeplitz in m - n and H Hankel in m + n: the
4N+1 values of each are computed once and G is read off sliding windows.

The eigenvalues come from a real symmetric matrix unitarily similar to G
whenever alpha makes G so.  A real alpha (|gamma| = 1) makes G real.
Re(alpha) = 0 (gamma > 0) makes H even, so G is exactly centro-Hermitian,
G[-p, -q] = conj(G[p, q]), and real in the basis u_N..u_1, e_0, v_1..v_N with
u_p = (e_p + e_-p)/sqrt(2), v_p = i(e_p - e_-p)/sqrt(2) (A. Lee, Linear Algebra
Appl. 29, 1980); the real form of a central block is then the central block
of the real form.  Any other G keeps the complex Hermitian eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import PI, simpson_weights, sinc_entire
from .errors import FrozenHillError

_QUAD_CHECK_N = 2048
_QUAD_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class RieszRow:
    n_half: int
    lower: float
    upper: float
    condition: float


@dataclass(frozen=True)
class RieszReport:
    alpha: complex
    rows: tuple
    lower_nonincreasing: bool
    upper_nondecreasing: bool


def _gram_entries(alpha: complex, n_half: int) -> np.ndarray:
    """Closed-form entries G = (T - H)/2 from one sinc per diagonal and anti-diagonal."""
    alpha = complex(alpha)
    offsets = 2.0 * np.arange(-2 * n_half, 2 * n_half + 1)  # 2(m-n) and 2(m+n)
    toeplitz = sinc_entire(PI * (offsets + 2j * alpha.imag))
    hankel = sinc_entire(PI * (offsets + 2.0 * alpha.real))
    w = 2 * n_half + 1
    g = np.subtract(sliding_window_view(toeplitz, w)[:, ::-1], sliding_window_view(hankel, w))
    return np.multiply(g, 0.5, out=g)


def _real_form(g: np.ndarray, alpha: complex) -> np.ndarray:
    """Real form of G(alpha) where alpha makes G real or centro-Hermitian, else g itself."""
    if alpha.imag == 0:  # T and H real; alpha, not g, decides, so all blocks take one path
        return g.real
    if alpha.real != 0:  # H not even
        return g
    n = len(g) // 2
    # A = G[p, q], B = G[p, -q] and G[0, q] for p, q = N..1
    a, b, c = g[:n:-1, :n:-1], g[:n:-1, :n], g[n, :n:-1]
    r = np.empty(g.shape)
    np.add(a.real, b.real, out=r[:n, :n])  # u_p . u_q
    np.subtract(a.real, b.real, out=r[:n:-1, :n:-1])  # v_p . v_q
    np.subtract(b.imag, a.imag, out=r[:n, :n:-1])  # u_p . v_q
    r[n + 1 :, :n] = r[:n, n + 1 :].T
    np.multiply(c.real, np.sqrt(2.0), out=r[n, :n])
    np.multiply(c.imag, -np.sqrt(2.0), out=r[n, :n:-1])
    r[n, n] = g[n, n].real
    r[:, n] = r[n]
    return r


def _quadrature_rows(alpha: complex, ms: np.ndarray) -> np.ndarray:
    """sin((2m+alpha) pi x) on the cross-check grid, one row per m."""
    xs = np.linspace(0.0, 1.0, _QUAD_CHECK_N + 1)
    return np.sin(np.multiply.outer((2 * ms + alpha) * PI, xs))


def gram_matrix(alpha: complex, n_half: int, cross_check: bool = True) -> np.ndarray:
    """The read-only Hermitian Gram matrix of sin((2n+alpha)pi x), n = -N..N, on
    L2(0, 1); optionally a central block is verified by quadrature."""
    alpha = complex(alpha)
    g = _gram_entries(alpha, n_half)
    if cross_check:
        ms = np.arange(max(-2, -n_half), min(2, n_half) + 1)
        rows = _quadrature_rows(alpha, ms)
        wts = simpson_weights(_QUAD_CHECK_N) / _QUAD_CHECK_N
        quad = (rows * wts) @ rows.conj().T
        err = np.abs(g[np.ix_(ms + n_half, ms + n_half)] - quad)
        bad = np.argwhere(err > _QUAD_CHECK_TOL)
        if len(bad):
            i, j = bad[0]
            raise FrozenHillError(
                f"Gram closed form and quadrature disagree at ({ms[i]},{ms[j]}): "
                f"{err[i, j]:.3e}"
            )
    g.setflags(write=False)
    return g


def frame_bounds(alpha: complex, n_half: int) -> tuple[float, float]:
    """Extreme eigenvalues of the Gram truncation: the truncated frame constants."""
    row = riesz_report(alpha, [n_half]).rows[0]
    return row.lower, row.upper


def riesz_report(alpha: complex, n_list) -> RieszReport:
    """Frame bounds of nested truncations, each a central block of one G."""
    n_list = [int(n) for n in n_list]
    top = max(n_list, default=0)
    alpha = complex(alpha)
    g = _real_form(_gram_entries(alpha, top), alpha)
    rows = []
    for n_half in n_list:
        block = slice(top - n_half, top + n_half + 1)
        # G and its real form are exactly symmetric, and eigvalsh reads one triangle
        eigs = np.linalg.eigvalsh(g[block, block])
        lower, upper = float(eigs[0]), float(eigs[-1])
        cond = upper / lower if lower > 0 else float("inf")
        rows.append(RieszRow(n_half=n_half, lower=lower, upper=upper, condition=cond))
    lowers = [r.lower for r in rows]
    uppers = [r.upper for r in rows]
    return RieszReport(
        alpha=alpha,
        rows=tuple(rows),
        lower_nonincreasing=all(b <= a + 1e-12 for a, b in zip(lowers, lowers[1:])),
        upper_nondecreasing=all(b >= a - 1e-12 for a, b in zip(uppers, uppers[1:])),
    )

