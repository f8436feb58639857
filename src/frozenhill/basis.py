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
4N+1 values of each are computed once and G is filled by indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PI, simpson_weights, sinc_entire
from .errors import FrozenHillError

_QUAD_CHECK_N = 2048
_QUAD_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class GramTruncation:
    """Hermitian Gram matrix of sin((2n+alpha)pi x), n = -N..N, on L2(0, 1)."""

    alpha: complex
    n_half: int
    matrix: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.matrix, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


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
    i = np.arange(2 * n_half + 1)
    return 0.5 * (toeplitz[i[:, None] - i + 2 * n_half] - hankel[i[:, None] + i])


def _quadrature_rows(alpha: complex, ms: np.ndarray) -> np.ndarray:
    """sin((2m+alpha) pi x) on the cross-check grid, one row per m."""
    xs = np.linspace(0.0, 1.0, _QUAD_CHECK_N + 1)
    return np.sin(np.multiply.outer((2 * ms + alpha) * PI, xs))


def _quadrature_entry(alpha: complex, m: int, n: int) -> complex:
    fm, fn = _quadrature_rows(alpha, np.array([m, n]))
    wts = simpson_weights(_QUAD_CHECK_N) / _QUAD_CHECK_N
    return complex(np.dot(wts, fm * np.conj(fn)))


def gram_matrix(alpha: complex, n_half: int, cross_check: bool = True) -> GramTruncation:
    """Assemble the Gram truncation; optionally verify a central block by quadrature."""
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
    return GramTruncation(alpha=alpha, n_half=n_half, matrix=g)


def frame_bounds(alpha: complex, n_half: int) -> tuple[float, float]:
    """Extreme eigenvalues of the Gram truncation: the truncated frame constants."""
    row = riesz_report(alpha, [n_half]).rows[0]
    return row.lower, row.upper


def riesz_report(alpha: complex, n_list) -> RieszReport:
    """Frame bounds of nested truncations, each a central block of one G."""
    n_list = [int(n) for n in n_list]
    top = max(n_list, default=0)
    g = _gram_entries(complex(alpha), top)
    rows = []
    for n_half in n_list:
        block = slice(top - n_half, top + n_half + 1)
        # G is exactly Hermitian, and eigvalsh reads one triangle
        eigs = np.linalg.eigvalsh(g[block, block])
        lower, upper = float(eigs[0]), float(eigs[-1])
        cond = upper / lower if lower > 0 else float("inf")
        rows.append(RieszRow(n_half=n_half, lower=lower, upper=upper, condition=cond))
    lowers = [r.lower for r in rows]
    uppers = [r.upper for r in rows]
    return RieszReport(
        alpha=complex(alpha),
        rows=tuple(rows),
        lower_nonincreasing=all(b <= a + 1e-12 for a, b in zip(lowers, lowers[1:])),
        upper_nondecreasing=all(b >= a - 1e-12 for a, b in zip(uppers, uppers[1:])),
    )

