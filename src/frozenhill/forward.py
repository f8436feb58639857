"""Forward solver: characteristic function evaluation and eigenvalue location.

Two independent evaluation routes are provided for the characteristic
function Delta(lambda): the 2x2 boundary determinant built from the
fundamental solutions, and the integral representation
Delta = 1 + gamma^2 - 2 gamma cos(rho) - int_0^1 w(x) sin(rho x)/rho dx
driven by the kernel w produced from q by the main functional equation.
Their agreement is the central consistency check of the whole package.

On grid samples of w the integral form has one implementation, _SampledDelta,
shared by eval_delta_fundrep and compute_spectrum (as the cofactor of Delta at
gamma = +-1).  compute_spectrum runs one window loop for every gamma: an FFT
check at every reference point, Newton in lambda near rho = 0, else Newton in
rho on the kernel's exact slope.  Every value it returns has passed one rule,
_accepted: a residual under tol, and a root within WINDOW_RADIUS of its
reference point; else it raises.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=64)
def _simpson_grid(span: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes j/n for j = 0..span, their Simpson weights scaled by 1/n and the
    weights times the nodes, read-only."""
    xs = np.linspace(0.0, span / n, span + 1)
    wts = simpson_weights(span) / n
    wxs = wts * xs
    for arr in (xs, wts, wxs):
        arr.setflags(write=False)
    return xs, wts, wxs


@lru_cache(maxsize=64)
def _baby_giant_steps(size: int) -> tuple[int, np.ndarray]:
    """b = ceil(sqrt(size)) and the exponents of the baby steps r = 0..b-1
    followed by those of the giant steps b m, m < ceil(size/b); read-only."""
    b = math.isqrt(size - 1) + 1
    steps = np.concatenate((np.arange(b), b * np.arange(-(-size // b)))).astype(float)
    steps.setflags(write=False)
    return b, steps


def _exp_sums(c: np.ndarray, rho: complex, anchor: float, n: int) -> tuple[complex, complex]:
    """fwd, bwd = sum_k c_k e^{+-i rho (anchor - k/n)} from O(sqrt(len(c))) exponentials.

    Baby-step/giant-step (Paterson & Stockmeyer, SIAM J. Comput. 1973): with
    b = ceil(sqrt(L)) and k = b m + r, e^{-i rho k/n} = G_m B_r, so over c
    zero-padded to a ceil(L/b) x b matrix C the sum is (G C) B.  The + sign
    takes the reciprocals of the same b + ceil(L/b) exponentials.
    """
    size = len(c)
    b, steps = _baby_giant_steps(size)
    padded = np.zeros((len(steps) - b) * b, dtype=complex)
    padded[:size] = c
    blocks = padded.reshape(-1, b)
    minus = np.exp(steps * (-1j * rho / n))
    plus = np.reciprocal(minus)
    down = complex(np.dot(np.dot(minus[b:], blocks), minus[:b]))
    up = complex(np.dot(np.dot(plus[b:], blocks), plus[:b]))
    e_anchor = cmath.exp(1j * rho * anchor)
    return e_anchor * down, up / e_anchor


def fundamental_solutions(
    x: float, lam: complex, q: Potential, config: FrozenConfig
) -> FundamentalSolutions:
    """Evaluate C, C', S, S' and the Wronski-type W at a grid node x.

    For |rho| >= 1/2 the three integrals over the segment between a and x come
    from the two sums of _exp_sums, and the scalar rest runs in cmath.
    """
    n = q.n
    j_x = snap_index(x, n)
    j_a = config.snap(n)
    rho = cmath.sqrt(complex(lam))
    a = config.a
    lo, hi = min(j_a, j_x), max(j_a, j_x)
    sign = 1.0 if j_x >= j_a else -1.0
    arg = rho * (x - a)
    exp_kernel = abs(rho) >= _EXP_KERNEL_MIN_RHO
    if j_x == j_a:
        i_phi = i_cos = i_w = 0.0 + 0.0j
    elif not exp_kernel:
        # W(x) = 1 + int_a^x q(t) phi(rho, a - t) dt, the unrolled form of
        # 1 - int_0^{a-x} q(a - t) phi(rho, t) dt
        ts = np.linspace(lo / n, hi / n, hi - lo + 1)
        wts = simpson_weights(hi - lo) / n
        qseg = q.samples[lo : hi + 1]
        i_phi = sign * np.dot(wts, qseg * phi(rho, x - ts))
        i_cos = sign * np.dot(wts, qseg * np.cos(rho * (x - ts)))
        i_w = sign * np.dot(wts, qseg * phi(rho, a - ts))
    else:
        # the same three integrals from fwd/bwd = int q(t) e^{+-i rho (a-t)} dt:
        # sin/cos rho(x-t) split into e^{+-i rho (x-a)} times e^{+-i rho (a-t)}
        c_seg = simpson_weights(hi - lo) / n * q.samples[lo : hi + 1]
        fwd, bwd = _exp_sums(c_seg, rho, a - lo / n, n)
        e_xa = cmath.exp(1j * arg)
        i_phi = sign * (e_xa * fwd - bwd / e_xa) / (2j * rho)
        i_cos = sign * (e_xa * fwd + bwd / e_xa) / 2.0
        i_w = sign * (fwd - bwd) / (2j * rho)
    cos_xa, sin_xa = cmath.cos(arg), cmath.sin(arg)
    return FundamentalSolutions(
        x=float(x),
        lam=complex(lam),
        c=complex(cos_xa + i_phi),
        c_prime=complex(-rho * sin_xa + i_cos),
        s=sin_xa / rho if exp_kernel else phi(rho, x - a),  # phi: a series near rho = 0
        s_prime=cos_xa,
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

    Accepts w either as grid samples (composite Simpson, the solver's own Delta)
    or as a finite sine series (exact termwise integrals).
    """
    if isinstance(w, Potential):
        return _SampledDelta(w, gamma)(lam)
    if not isinstance(w, SineSeries):
        raise ConfigError("w must be a Potential or a SineSeries")
    rho = np.sqrt(complex(lam))
    total = 0.0 + 0.0j
    for k, bk in enumerate(w.coeffs, start=1):
        if bk != 0:
            total += bk * _sine_phi_integral(k, rho)
    return delta0(lam, gamma) - total


class _SampledDelta:
    """Delta, or at gamma = +-1 its cofactor, on Simpson-weighted samples of w.

    Built once per (w, gamma).  The value at lambda = rho^2 is a closed-form
    head and an integral I(rho):
      Delta:       Delta0(lambda) - I,  I = int_0^1 w(x) sin(rho x)/rho dx;
      gamma = +1:  2 rho sin(rho/2) + I,  I = -int_0^{1/2} w(1/2-x) cos(rho x) dx;
      gamma = -1:  2 cos(rho/2) + I,  I = int_0^{1/2} w(1/2-x) sin(rho x)/rho dx.
    The cofactors (factored=True) solve Delta = lead(rho) * cofactor, where the
    zeros of lead = (2/rho) sin(rho/2) or 2 cos(rho/2) are the degenerate half
    of the spectrum.  They need w(x) = +-w(1-x), which build_w makes exact.
    """

    def __init__(self, w: Potential, gamma: complex, factored: bool = False):
        self.gamma, self.factored, self.n = gamma, factored, w.n
        self.cosine = factored and gamma == 1
        span = w.n // 2 if factored else w.n
        self.xs, self.wts, self.wxs = _simpson_grid(span, w.n)
        self.samples = w.samples[span::-1] if factored else w.samples
        self._last = None, None, None  # (lambda, rho, I) of the latest call, for slope

    def __call__(self, lam: complex) -> complex:
        rho = np.sqrt(complex(lam))
        if self.cosine:
            part = -np.dot(self.wts, self.samples * np.cos(rho * self.xs))
        else:
            part = np.dot(self.wts, self.samples * phi(rho, self.xs))
        self._last = lam, rho, part
        return self._value(lam, rho, part)

    def slope(self, rho: complex) -> complex:
        """Exact d/drho of the value at lambda = rho^2, reusing I of the latest
        call when it was at that lambda.

        With c_j = weight * sample and r = sqrt(rho^2), where the kernel runs:
          Delta:       2 gamma sin r - (sum c_j x_j cos(r x_j) - I) / r;
          gamma = +1:  2 sin(r/2) + r cos(r/2) + sum c_j x_j sin(r x_j);
          gamma = -1:  -sin(r/2) + (sum c_j x_j cos(r x_j) - I) / r.
        Each is odd in r, and r can be -rho, so the result takes that sign.
        """
        lam = rho * rho
        if self._last[0] != lam:
            self(lam)
        _, r, part = self._last
        if r == 0:
            return 0j  # the value is even in rho
        if self.cosine:
            sums = np.dot(self.wxs, self.samples * np.sin(r * self.xs))
            der = 2.0 * np.sin(r / 2.0) + r * np.cos(r / 2.0) + sums
        else:
            odd = (np.dot(self.wxs, self.samples * np.cos(r * self.xs)) - part) / r
            der = odd - np.sin(r / 2.0) if self.factored else 2.0 * self.gamma * np.sin(r) - odd
        return complex(der if (r * np.conj(rho)).real >= 0 else -der)

    def _value(self, lam: complex, rho: complex, part: complex) -> complex:
        if not self.factored:
            return complex(delta0(lam, self.gamma) - part)
        head = 2.0 * rho * np.sin(rho / 2.0) if self.cosine else 2.0 * np.cos(rho / 2.0)
        return complex(head + part)

    def tol(self, rho0: complex) -> float:
        """Newton's bound on |value| in the window of rho0."""
        if self.factored:
            return 1e-11 * (1.0 + 2.0 * abs(rho0))
        return 1e-11 * (1.0 + (1.0 + abs(self.gamma)) ** 2)

    def passes_at(self, rho0: complex, plus, minus, slack: float, tol: float) -> bool:
        """Whether Newton's first check accepts rho0, judged from _reference_sums.

        The value is taken at sqrt(rho0^2), where that check evaluates, and
        passes only with the sums' rounding bound to spare.
        """
        lam = rho0 * rho0
        if self.cosine:
            part, bound = -(plus + minus) / 2.0, slack
        else:
            part, bound = (plus - minus) / (2j * rho0), slack / abs(rho0)
        value = self._value(lam, np.sqrt(complex(lam)), part)
        return abs(value) + bound + _ROUNDING_SLACK * tol < tol


class _InRho:
    """g(rho) = the value of a _SampledDelta at lambda = rho^2, with its exact slope."""

    def __init__(self, delta: _SampledDelta):
        self.delta, self.slope = delta, delta.slope

    def __call__(self, rho: complex) -> complex:
        return self.delta(rho * rho)


def _slope(g, z: complex) -> complex:
    """Central-difference derivative of g at z."""
    h = 1e-6 * (1.0 + abs(z))
    return (g(z + h) - g(z - h)) / (2.0 * h)


def _newton(g, z0: complex, tol: float, fence: float = math.inf, slope=None):
    """Newton from z0: the last iterate and whether |g| < tol there; an
    iterate further than fence from z0 fails.  slope(z) is g' at the z where g
    was just evaluated; without it, a central difference of g."""
    z = z0
    for _ in range(NEWTON_MAX_ITER):
        val = g(z)
        if abs(val) < tol:
            return z, True
        der = _slope(g, z) if slope is None else slope(z)
        if der == 0:
            return z, False
        z = z - val / der
        if abs(z - z0) > fence:
            return z, False
    return z, abs(g(z)) < tol


def _accepted(rho: complex, ok: bool, rho0: complex) -> bool:
    """The one acceptance rule: a residual under tol (ok) and rho in the window of rho0."""
    return ok and abs(rho - rho0) <= WINDOW_RADIUS


def _root_near(lam: complex, rho0: complex) -> complex:
    """The square root of lam nearer to rho0."""
    root = np.sqrt(complex(lam))
    return root if abs(root - rho0) <= abs(root + rho0) else -root


def _solve_window(g, rho0: complex, tol: float):
    """Newton on g(rho), with g.slope its derivative, from rho0, then from the
    least |g| of a 17x17 scan of the window: the first try that _accepted
    passes, else the last try."""
    rho, ok = _newton(g, rho0, tol, fence=2.0 * PI, slope=g.slope)
    if _accepted(rho, ok, rho0):
        return rho, ok
    offs = np.linspace(-WINDOW_RADIUS, WINDOW_RADIUS, 17)
    cand_grid = rho0 + offs[:, None] + 1j * offs[None, :]
    seed = cand_grid.flat[np.argmin(np.abs([g(c) for c in cand_grid.flat]))]
    return _newton(g, complex(seed), tol, fence=2.0 * PI, slope=g.slope)


def _quadratic_pair_refine(g, rho0_i, rho0_j, tol):
    """Resolve a nearly merged root pair of g(rho), with g.slope its
    derivative, from a local quadratic model of g."""
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
            der = g.slope(own)
            gap = own - other
            deflated = der - (val / gap if gap != 0 else 0.0)
            polished.append(own - val / deflated if deflated != 0 else own)
        roots = polished
    # assign by proximity to the two reference points
    direct = abs(roots[0] - rho0_i) + abs(roots[1] - rho0_j)
    swapped = abs(roots[1] - rho0_i) + abs(roots[0] - rho0_j)
    return (roots[1], roots[0]) if swapped < direct else (roots[0], roots[1])


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


def compute_spectrum(q: Potential, config: FrozenConfig, m: int) -> Spectrum:
    """First m eigenvalues of the frozen-argument problem, indexed by window.

    Index n is a root of Delta(rho^2) found from its reference zero.  At
    gamma = +-1 the odd (information-free) indices are emitted exactly at their
    reference positions, and the even ones are roots of the cofactor.
    """
    if m < 1:
        raise ConfigError("eigenvalue count m must be positive")
    gamma, alpha = config.gamma, compute_alpha(config.gamma)
    factored = gamma in (1, -1)
    delta = _SampledDelta(build_w(q, config), gamma, factored)
    g = _InRho(delta)
    plus, minus, slack = _reference_sums(delta.wts * delta.samples, delta.n, alpha, m)
    # lambda at gamma = +-1; rho otherwise, squared once at the end
    out = np.empty(m, dtype=complex)
    refs = np.empty(m, dtype=complex)
    for idx in range(m):
        rho0 = refs[idx] = reference_rho(idx, alpha)
        if factored and idx % 2 == 1:
            out[idx] = rho0 * rho0  # degenerate half of the spectrum, emitted exactly
            continue
        tol, lam = delta.tol(rho0), None
        if abs(rho0) < 0.5:
            # g is even in rho, so Newton in rho stalls near the origin
            lam, ok = _newton(delta, rho0 * rho0, tol)
            rho = _root_near(lam, rho0)
        elif delta.passes_at(rho0, plus[idx], minus[idx], slack[idx], tol):
            rho, ok = rho0, True
        else:
            rho, ok = _solve_window(g, rho0, tol)
        if not _accepted(rho, ok, rho0):
            raise RootIsolationError(idx)
        out[idx] = (rho * rho if lam is None else lam) if factored else rho
    if factored:
        return Spectrum(values=out, config=config, alpha=alpha)
    # re-refine nearly coincident converged pairs (near-degenerate gamma).  Only
    # neighbours can qualify: Re alpha lies in [0, 1], so Re rho0 of index k lies
    # in [k pi, (k + 1) pi], and indices of one parity lie exactly 2 pi apart;
    # reference points of indices two or more apart thus differ by at least
    # 2 pi > 1.  Scanning i -> i + 1 upwards meets the qualifying pairs in the
    # same order, and with the same values, as a scan over all pairs.  Both
    # refined values pass the acceptance rule, their residuals evaluated afresh.
    for i in range(m - 1):
        if abs(out[i] - out[i + 1]) < PAIR_GAP and abs(refs[i] - refs[i + 1]) < 1.0:
            out[i], out[i + 1] = _quadratic_pair_refine(g, refs[i], refs[i + 1], delta.tol(0))
            for k in (i, i + 1):
                if not _accepted(out[k], abs(g(out[k])) < delta.tol(0), refs[k]):
                    raise RootIsolationError(k)
    return Spectrum(values=out * out, config=config, alpha=alpha)


def verify_asymptotics(spec: Spectrum) -> AsymptoticResidues:
    """Residuals against the reference sequence plus an l2-tail diagnostic."""
    alpha = spec.alpha
    m = len(spec)
    kappa = np.empty(m, dtype=complex)
    eps = np.empty(m, dtype=complex)
    for idx, lam in enumerate(spec.values):
        rho0 = reference_rho(idx, alpha)
        kappa[idx] = lam - rho0 * rho0
        eps[idx] = _root_near(lam, rho0) - rho0
    quarter = max(1, m // 4)
    first = float(np.sum(np.abs(kappa[:quarter]) ** 2))
    last = float(np.sum(np.abs(kappa[m - quarter :]) ** 2))
    return AsymptoticResidues(
        kappa=kappa, eps=eps, first_quarter_energy=first, last_quarter_energy=last
    )
