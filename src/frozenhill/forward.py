"""Forward solver: characteristic function evaluation and eigenvalue location.

Two independent evaluation routes are provided for the characteristic
function Delta(lambda): the 2x2 boundary determinant built from the
fundamental solutions, and the integral representation
Delta = 1 + gamma^2 - 2 gamma cos(rho) - int_0^1 w(x) sin(rho x)/rho dx
driven by the kernel w produced from q by the main functional equation.
Their agreement is the central consistency check of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PI,
    AlphaParam,
    AsymptoticResidues,
    FrozenConfig,
    Potential,
    Spectrum,
    compute_alpha,
    delta0,
    phi,
    reference_rho,
    reflect_problem,
    simpson_weights,
    sinc_entire,
    snap_index,
)
from .errors import ConfigError, RootIsolationError

#: converged-root pairs closer than this (in rho) are re-refined jointly
PAIR_GAP = 1e-4

#: accepted distance of a converged root from its reference window centre
WINDOW_RADIUS = PI / 2

NEWTON_MAX_ITER = 50

#: below this |rho| the determinant route keeps the phi/cos kernels, whose
#: series branch avoids the cancellation of (e^{i rho s} - e^{-i rho s}) / rho
_EXP_KERNEL_MIN_RHO = 0.5

_UNIT_ROUNDOFF = 2.0**-53

#: share of tol set aside for rounding the reference check's last subtraction,
#: its abs and its comparison, on top of the bound from _reference_sums
_ROUNDING_SLACK = 16 * _UNIT_ROUNDOFF


@dataclass(frozen=True)
class SineSeries:
    """Finite sine expansion w(x) = sum_{k=1..K} b_k sin(pi k x) on [0, 1]."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or len(arr) < 1:
            raise ConfigError("sine series needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("sine coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def k_max(self) -> int:
        return len(self.coeffs)

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Direct sum at arbitrary points; sample_grid is faster on x_j = j/n."""
        xs = np.asarray(xs, dtype=float)
        ks = np.arange(1, self.k_max + 1)
        return np.sin(np.multiply.outer(xs, ks * PI)) @ self.coeffs

    def sample_grid(self, n: int) -> np.ndarray:
        """Values at x_j = j/n, j = 0..n, from one FFT of length 2n (a DST-I).

        sin(pi k j/n) has period 2n in k, so the coefficients fold onto
        c[k mod 2n] (aliasing K >= 2n exactly), and with F = fft(c)
        w_j = (F[-j] - F[j]) / 2i.  w_0 and w_n are exactly 0.
        """
        if n < 1:
            raise ConfigError("grid size must be positive")
        period = 2 * n
        rows = self.k_max // period + 1  # index 0 (k = 0) through K, padded
        folded = np.zeros(rows * period, dtype=complex)
        folded[1 : self.k_max + 1] = self.coeffs
        f = np.fft.fft(folded.reshape(rows, period).sum(axis=0))
        j = np.arange(n + 1)
        out = (f[-j] - f[j]) / 2j
        out[0] = out[n] = 0.0
        return out


@dataclass(frozen=True)
class FundamentalSolutions:
    """Values of the fundamental system and its Wronski-type determinant at (x, lambda)."""

    x: float
    lam: complex
    c: complex
    c_prime: complex
    s: complex
    s_prime: complex
    w: complex


def build_w(q: Potential, config: FrozenConfig) -> Potential:
    """Assemble the integral kernel w from q via the three-branch main equation.

    Interior branch-boundary nodes x = a and x = 1 - a carry the mean of the
    two one-sided limits, which keeps composite Simpson at O(h^4) across the
    jump w may have there.  For a > 1/2 the mirrored problem is assembled and
    scaled back by gamma^2 (the two characteristic functions differ by that
    constant factor).
    """
    n = q.n
    gamma = config.gamma
    j_a = config.snap(n)
    if 2 * j_a > n:
        q_ref, c_ref = reflect_problem(q, config)
        w_ref = build_w(q_ref, c_ref)
        return Potential(gamma * gamma * w_ref.samples)
    s = q.samples
    if j_a == 0:
        return Potential(gamma * s[::-1] + gamma * gamma * s)
    w = np.empty(n + 1, dtype=complex)
    js = np.arange(0, j_a)
    w[js] = gamma * gamma * s[j_a + js] + s[j_a - js]
    js = np.arange(j_a + 1, n - j_a)
    w[js] = gamma * s[j_a + n - js] + gamma * gamma * s[j_a + js]
    js = np.arange(n - j_a + 1, n + 1)
    w[js] = gamma * (s[j_a + n - js] + s[j_a - n + js])
    if 2 * j_a == n:
        w[j_a] = (gamma * gamma * s[n] + s[0] + gamma * (s[n] + s[0])) / 2.0
    else:
        w[j_a] = gamma * gamma * s[2 * j_a] + (s[0] + gamma * s[n]) / 2.0
        w[n - j_a] = gamma * s[2 * j_a] + (gamma * gamma * s[n] + gamma * s[0]) / 2.0
    return Potential(w)


def _segment_quadrature(q: Potential, j_lo: int, j_hi: int):
    n = q.n
    ts = np.linspace(j_lo / n, j_hi / n, j_hi - j_lo + 1)
    wts = simpson_weights(j_hi - j_lo) / n
    return ts, wts, q.samples[j_lo : j_hi + 1]


def fundamental_solutions(
    x: float, lam: complex, q: Potential, config: FrozenConfig
) -> FundamentalSolutions:
    """Evaluate C, C', S, S' and the Wronski-type W at a grid node x."""
    n = q.n
    j_x = snap_index(x, n)
    j_a = config.snap(n)
    rho = np.sqrt(complex(lam))
    a = config.a
    if j_x == j_a:
        i_phi = i_cos = i_w = 0.0 + 0.0j
    else:
        lo, hi = min(j_a, j_x), max(j_a, j_x)
        sign = 1.0 if j_x >= j_a else -1.0
        ts, wts, qseg = _segment_quadrature(q, lo, hi)
        # W(x) = 1 + int_a^x q(t) phi(rho, a - t) dt, the unrolled form of
        # 1 - int_0^{a-x} q(a - t) phi(rho, t) dt
        if abs(rho) < _EXP_KERNEL_MIN_RHO:
            i_phi = sign * np.dot(wts, qseg * phi(rho, x - ts))
            i_cos = sign * np.dot(wts, qseg * np.cos(rho * (x - ts)))
            i_w = sign * np.dot(wts, qseg * phi(rho, a - ts))
        else:
            # the same three integrals from fwd/bwd = int q(t) e^{+-i rho (a-t)} dt:
            # sin/cos rho(x-t) split into e^{+-i rho (x-a)} times e^{+-i rho (a-t)}
            e_at = np.exp(1j * rho * (a - ts))
            fwd = np.dot(wts, qseg * e_at)
            bwd = np.dot(wts, qseg / e_at)
            e_xa = np.exp(1j * rho * (x - a))
            i_phi = sign * (e_xa * fwd - bwd / e_xa) / (2j * rho)
            i_cos = sign * (e_xa * fwd + bwd / e_xa) / 2.0
            i_w = sign * (fwd - bwd) / (2j * rho)
    c = np.cos(rho * (x - a)) + i_phi
    c_prime = -rho * np.sin(rho * (x - a)) + i_cos
    s = phi(rho, x - a)
    s_prime = np.cos(rho * (x - a))
    return FundamentalSolutions(
        x=float(x),
        lam=complex(lam),
        c=complex(c),
        c_prime=complex(c_prime),
        s=complex(s),
        s_prime=complex(s_prime),
        w=complex(1.0 + i_w),
    )


def eval_delta_det(lam: complex, q: Potential, config: FrozenConfig) -> complex:
    """Characteristic function via the boundary 2x2 determinant.

    Expanding det [[C(0) - gamma C(1), S(0) - gamma S(1)], [C'(0) - gamma C'(1),
    S'(0) - gamma S'(1)]] gives W(0) - gamma (cross terms) + gamma^2 W(1).  The
    integrated W(x) stands in for C S' - C' S, whose two products grow like
    e^{2 |Im rho|} and cancel to W, so no digits are lost to that cancellation.
    """
    gamma = config.gamma
    f0 = fundamental_solutions(0.0, lam, q, config)
    f1 = fundamental_solutions(1.0, lam, q, config)
    cross = f0.c * f1.s_prime - f0.c_prime * f1.s + f1.c * f0.s_prime - f1.c_prime * f0.s
    return f0.w - gamma * cross + gamma * gamma * f1.w


def _sine_phi_integral(k: int, rho: complex) -> complex:
    """Closed form of int_0^1 sin(pi k x) sin(rho x)/rho dx.

    Equals (-1)^k pi k sin(rho) / (rho (rho^2 - pi^2 k^2)); the removable
    singularities at rho = +-pi k are bridged with sin(d)/d of the offset.
    """
    pk = PI * k
    dp = rho - pk
    dm = rho + pk
    if abs(dp) < 0.5:
        return complex(pk * sinc_entire(np.array(dp))[()] / (rho * dm))
    if abs(dm) < 0.5:
        return complex(pk * sinc_entire(np.array(dm))[()] / (rho * dp))
    sign = -1.0 if k % 2 else 1.0
    return complex(sign * pk * sinc_entire(np.array(rho))[()] / (dp * dm))


def eval_delta_fundrep(lam: complex, w, gamma: complex) -> complex:
    """Characteristic function via Delta0 minus the sine transform of w.

    Accepts w either as grid samples (composite Simpson) or as a finite sine
    series (exact termwise integrals).
    """
    rho = np.sqrt(complex(lam))
    base = complex(1.0 + gamma * gamma - 2.0 * gamma * np.cos(rho))
    if isinstance(w, SineSeries):
        total = 0.0 + 0.0j
        for k in range(1, w.k_max + 1):
            bk = w.coeffs[k - 1]
            if bk != 0:
                total += bk * _sine_phi_integral(k, rho)
        return base - total
    if isinstance(w, Potential):
        n = w.n
        xs = w.grid()
        wts = simpson_weights(n) / n
        return base - complex(np.dot(wts, w.samples * phi(rho, xs)))
    raise ConfigError("w must be a Potential or a SineSeries")


def _half_profile(w: Potential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples of w(1/2 - x) on the half grid along with quadrature weights."""
    n = w.n
    half = n // 2
    xs = np.linspace(0.0, 0.5, half + 1)
    wts = simpson_weights(half) / n
    return xs, wts, w.samples[half::-1]


def _cofactor(w: Potential, gamma: complex):
    """The gamma = +-1 cofactor of Delta as closures (integral, cofactor).

    Delta = lead(rho) * cofactor(rho, integral(rho)), where
    gamma = +1: lead = (2/rho) sin(rho/2), cofactor = 2 rho sin(rho/2) + integral,
                integral = -int_0^{1/2} w(1/2-x) cos(rho x) dx;
    gamma = -1: lead = 2 cos(rho/2), cofactor = 2 cos(rho/2) + integral,
                integral = int_0^{1/2} w(1/2-x) sin(rho x)/rho dx.
    The lead's zeros are the degenerate half of the spectrum.  Requires the
    symmetry w(x) = +-w(1-x), which build_w guarantees exactly on the grid.
    """
    xs, wts, v = _half_profile(w)
    if gamma == 1:

        def integral(rho: complex) -> complex:
            return -np.dot(wts, v * np.cos(rho * xs))

        def cofactor(rho: complex, part: complex) -> complex:
            return complex(2.0 * rho * np.sin(rho / 2.0) + part)

    else:

        def integral(rho: complex) -> complex:
            return np.dot(wts, v * phi(rho, xs))

        def cofactor(rho: complex, part: complex) -> complex:
            return complex(2.0 * np.cos(rho / 2.0) + part)

    return integral, cofactor


def _newton_rho(g, rho0: complex, tol: float, damping: float = 1.0):
    """Damped Newton in rho with a hard fence one window away from the start."""
    rho = rho0
    for _ in range(NEWTON_MAX_ITER):
        val = g(rho)
        if abs(val) < tol:
            return rho, True
        h = 1e-6 * (1.0 + abs(rho))
        der = (g(rho + h) - g(rho - h)) / (2.0 * h)
        if der == 0:
            return rho, False
        rho = rho - damping * val / der
        if abs(rho - rho0) > 2.0 * PI:
            return rho, False
    return rho, abs(g(rho)) < tol


def _newton_lambda(g, lam0: complex, tol: float):
    """Newton directly in lambda; used where the rho-derivative vanishes (rho ~ 0)."""
    lam = lam0
    for _ in range(NEWTON_MAX_ITER):
        val = g(lam)
        if abs(val) < tol:
            return lam, True
        h = 1e-6 * (1.0 + abs(lam))
        der = (g(lam + h) - g(lam - h)) / (2.0 * h)
        if der == 0:
            return lam, False
        lam = lam - val / der
    return lam, abs(g(lam)) < tol


def _solve_window(g, rho0: complex, tol: float, index: int) -> complex:
    """Locate the root of g inside the asymptotic window centred at rho0."""
    for damping in (1.0, 0.5):
        rho, ok = _newton_rho(g, rho0, tol, damping)
        if ok and abs(rho - rho0) <= WINDOW_RADIUS:
            return rho
    # coarse scan over the window, then polish
    offs = np.linspace(-WINDOW_RADIUS, WINDOW_RADIUS, 17)
    cand_grid = rho0 + offs[:, None] + 1j * offs[None, :]
    vals = np.abs([[g(c) for c in row] for row in cand_grid])
    seed = cand_grid[np.unravel_index(np.argmin(vals), vals.shape)]
    rho, ok = _newton_rho(g, complex(seed), tol)
    if ok and abs(rho - rho0) <= WINDOW_RADIUS:
        return rho
    raise RootIsolationError(index)


def _quadratic_pair_refine(g, rho0_i, rho0_j, tol):
    """Resolve a nearly merged root pair from a local quadratic model of g."""
    centre = (rho0_i + rho0_j) / 2.0
    h = max(abs(rho0_i - rho0_j), 1e-3)
    fm, f0, fp = g(centre - h), g(centre), g(centre + h)
    c2 = (fp + fm - 2.0 * f0) / (2.0 * h * h)
    c1 = (fp - fm) / (2.0 * h)
    if c2 == 0:
        roots = [centre - f0 / c1] * 2 if c1 != 0 else [centre, centre]
    else:
        disc = np.sqrt(c1 * c1 - 4.0 * c2 * f0)
        roots = [centre + (-c1 + disc) / (2.0 * c2), centre + (-c1 - disc) / (2.0 * c2)]
    # polish each root with Newton deflated by its partner
    for _ in range(3):
        polished = []
        for own, other in ((roots[0], roots[1]), (roots[1], roots[0])):
            val = g(own)
            if abs(val) < tol:
                polished.append(own)
                continue
            hstep = 1e-6 * (1.0 + abs(own))
            der = (g(own + hstep) - g(own - hstep)) / (2.0 * hstep)
            gap = own - other
            deflated = der - (val / gap if gap != 0 else 0.0)
            polished.append(own - val / deflated if deflated != 0 else own)
        roots = polished
    # assign by proximity to the two reference points
    direct = abs(roots[0] - rho0_i) + abs(roots[1] - rho0_j)
    swapped = abs(roots[1] - rho0_i) + abs(roots[0] - rho0_j)
    if swapped < direct:
        roots = [roots[1], roots[0]]
    return roots[0], roots[1]


def _reference_sums(c: np.ndarray, n: int, alpha: AlphaParam, m: int):
    """Exponential sums at every reference point from two FFTs, with an error bound.

    Returns plus_k = sum_j c_j e^{i rho0 x_j} and minus_k = sum_j c_j e^{-i rho0 x_j}
    on x_j = j/n at the reference point rho0 of every index k < m, and slack_k.
    Write rho0 = (p + alpha) pi with p = k for even k, and rho0 = (p - alpha) pi
    with p = k + 1 for odd k.  With d+- = c e^{+-i pi alpha x} and F+- the FFTs of
    length L = 2n, e^{+-i pi p j/n} picks entry -+p mod L, so plus = F+[-p] and
    minus = F-[p] for even k, plus = F-[-p] and minus = F+[p] for odd k.  Indices
    wrap modulo L, which aliases windows with p >= L exactly.

    slack_k bounds the distance of either sum from Newton's direct evaluation.
    Let u = 2^-53 and T = sqrt(L) max ||d+-||_2, which bounds
    sum_j |c_j| e^{|Im rho0| x_j}, so each sum and its rho-derivative.
      * The FFT rounds by at most 8 u log2(L) T (a normwise bound).
      * The Simpson dot, e.g. np.dot(wts, w * sin(rho x) / rho) scaled by |rho|
        to these units, rounds by at most u (2 len(c) + 2 |rho0| + 16) T: the
        summation, plus the rounding u |rho x| of the kernel's argument.
      * Newton evaluates at rho = sqrt(rho0^2), and |rho - rho0| <= 8 u |rho0|.
        For |rho0| >= 1/2 the sums, and |rho0| times sums / rho, change by at
        most 3 T per unit of rho.
    slack_k is twice the total: 2 u T (8 log2 L + 2 len(c) + 26 |rho0| + 16).
    """
    period = 2 * n
    al = alpha.alpha
    x = np.arange(len(c)) / n
    d_up = c * np.exp(1j * PI * al * x)
    d_dn = c * np.exp(-1j * PI * al * x)
    f_up = np.fft.fft(d_up, period)
    f_dn = np.fft.fft(d_dn, period)
    k = np.arange(m)
    even = k % 2 == 0
    p = np.where(even, k, k + 1)
    plus = np.where(even, f_up[-p % period], f_dn[-p % period])
    minus = np.where(even, f_dn[p % period], f_up[p % period])
    scale = np.sqrt(period) * max(np.linalg.norm(d_up), np.linalg.norm(d_dn))
    rho0 = PI * np.abs(np.where(even, p + al, p - al))
    slack = 2.0 * _UNIT_ROUNDOFF * scale * (
        8.0 * np.log2(period) + 2.0 * len(c) + 26.0 * rho0 + 16.0
    )
    return plus, minus, slack


def _spectrum_generic(w: Potential, config: FrozenConfig, alpha: AlphaParam, m: int):
    gamma = config.gamma
    n = w.n
    xs = w.grid()
    wts = simpson_weights(n) / n
    ws = w.samples

    # Delta is a closed-form head minus the integral of w against sin(rho x)/rho
    def delta(rho: complex, part: complex) -> complex:
        return complex(1.0 + gamma * gamma - 2.0 * gamma * np.cos(rho) - part)

    def dfun(lam: complex) -> complex:
        rho = np.sqrt(complex(lam))
        return delta(rho, np.dot(wts, ws * phi(rho, xs)))

    def g(rho: complex) -> complex:
        return dfun(rho * rho)

    tol = 1e-11 * (1.0 + (1.0 + abs(gamma)) ** 2)
    # Delta at every reference point from the FFT sums: a window accepted there
    # is one that the first check of _newton_rho accepts at rho0
    plus, minus, slack = _reference_sums(wts * ws, n, alpha, m)
    rhos = np.empty(m, dtype=complex)
    refs = np.empty(m, dtype=complex)
    for idx in range(m):
        rho0 = reference_rho(idx, alpha)
        refs[idx] = rho0
        if abs(rho0) < 0.5:
            # g is even in rho, so Newton in rho stalls near the origin
            lam, ok = _newton_lambda(dfun, rho0 * rho0, tol)
            if not ok:
                raise RootIsolationError(idx)
            root = np.sqrt(complex(lam))
            rhos[idx] = root if abs(root - rho0) <= abs(root + rho0) else -root
            continue
        rho = np.sqrt(complex(rho0 * rho0))  # the point g(rho0) evaluates at
        part = (plus[idx] - minus[idx]) / (2j * rho0)
        if abs(delta(rho, part)) + slack[idx] / abs(rho0) + _ROUNDING_SLACK * tol < tol:
            rhos[idx] = rho0
        else:
            rhos[idx] = _solve_window(g, rho0, tol, idx)
    # re-refine nearly coincident converged pairs (near-degenerate gamma).  Only
    # neighbours can qualify: Re alpha lies in [0, 1], so Re rho0 of index k lies
    # in [k pi, (k + 1) pi], and indices of one parity lie exactly 2 pi apart;
    # reference points of indices two or more apart thus differ by at least
    # 2 pi > 1.  Scanning i -> i + 1 upwards meets the qualifying pairs in the
    # same order, and with the same values, as a scan over all pairs.
    for i in range(m - 1):
        if abs(rhos[i] - rhos[i + 1]) < PAIR_GAP and abs(refs[i] - refs[i + 1]) < 1.0:
            rhos[i], rhos[i + 1] = _quadratic_pair_refine(g, refs[i], refs[i + 1], tol)
    return rhos * rhos


def _spectrum_degenerate(w: Potential, config: FrozenConfig, alpha: AlphaParam, m: int):
    gamma = config.gamma
    _, wts, v = _half_profile(w)
    integral, cofactor = _cofactor(w, gamma)

    def inner_lam(lam: complex) -> complex:
        rho = np.sqrt(complex(lam))
        return cofactor(rho, integral(rho))

    def g(rho: complex) -> complex:
        return inner_lam(rho * rho)

    # the integral at every reference point from the FFT sums: a window accepted
    # there is one that the first check of _newton_rho accepts at rho0
    plus, minus, slack = _reference_sums(wts * v, w.n, alpha, m)
    lams = np.empty(m, dtype=complex)
    for idx in range(m):
        rho0 = reference_rho(idx, alpha)
        if idx % 2 == 1:
            lams[idx] = rho0 * rho0  # degenerate half of the spectrum, emitted exactly
            continue
        tol = 1e-11 * (1.0 + 2.0 * abs(rho0))
        if abs(rho0) < 0.5:
            lam, ok = _newton_lambda(inner_lam, rho0 * rho0, tol)
            if not ok:
                raise RootIsolationError(idx)
            lams[idx] = lam
            continue
        rho = np.sqrt(complex(rho0 * rho0))  # the point g(rho0) evaluates at
        if gamma == 1:
            part, bound = -(plus[idx] + minus[idx]) / 2.0, slack[idx]
        else:
            part, bound = (plus[idx] - minus[idx]) / (2j * rho0), slack[idx] / abs(rho0)
        if abs(cofactor(rho, part)) + bound + _ROUNDING_SLACK * tol < tol:
            lams[idx] = rho0 * rho0
        else:
            rho = _solve_window(g, rho0, tol, idx)
            lams[idx] = rho * rho
    return lams


def compute_spectrum(q: Potential, config: FrozenConfig, m: int) -> Spectrum:
    """First m eigenvalues of the frozen-argument problem, indexed by window.

    Each index n is solved by Newton on Delta(rho^2) started from its
    reference zero; for gamma = +-1 the characteristic function is factored,
    the odd-indexed (information-free) eigenvalues are emitted exactly at
    their reference positions and only the cofactor is solved numerically.
    For every gamma, two FFTs check Delta (or the cofactor) at every reference
    point first, and a window that passes there is not iterated.
    """
    if m < 1:
        raise ConfigError("eigenvalue count m must be positive")
    alpha = compute_alpha(config.gamma)
    w = build_w(q, config)
    if config.gamma in (1, -1):
        values = _spectrum_degenerate(w, config, alpha, m)
    else:
        values = _spectrum_generic(w, config, alpha, m)
    return Spectrum(values=values, config=config, alpha=alpha)


def verify_asymptotics(spec: Spectrum) -> AsymptoticResidues:
    """Residuals against the reference sequence plus an l2-tail diagnostic."""
    alpha = spec.alpha
    m = len(spec)
    kappa = np.empty(m, dtype=complex)
    eps = np.empty(m, dtype=complex)
    for idx, lam in enumerate(spec.values):
        rho0 = reference_rho(idx, alpha)
        root = np.sqrt(complex(lam))
        if abs(-root - rho0) < abs(root - rho0):
            root = -root
        kappa[idx] = lam - rho0 * rho0
        eps[idx] = root - rho0
    quarter = max(1, m // 4)
    first = float(np.sum(np.abs(kappa[:quarter]) ** 2))
    last = float(np.sum(np.abs(kappa[m - quarter :]) ** 2))
    return AsymptoticResidues(
        kappa=kappa, eps=eps, first_quarter_energy=first, last_quarter_energy=last
    )
