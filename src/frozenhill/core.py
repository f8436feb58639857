"""Problem parameters, reference eigenvalues and scalar kernels.

Everything here is shared by the forward and inverse solvers: the coupling
parameter alpha, the unperturbed characteristic function and its zeros, the
shift/reflection reductions of the frozen point, and numerically stable
evaluation of sin(rho*x)/rho together with composite Simpson quadrature on
the uniform sample grid.

All functions are pure and all types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError

PI = np.pi

#: below this |rho| the sin(rho*x)/rho quotient switches to its power series
SERIES_CUTOFF = 1e-3

#: relative slack allowed when snapping a*N to an integer grid index
SNAP_TOL = 1e-9


def phi(rho: complex, x) -> complex | np.ndarray:
    """Stable sin(rho*x)/rho for x in [-1, 1] (entire in rho**2).

    For |rho| >= 1e-3 the quotient is evaluated directly; below the cutoff a
    three-term series x - rho**2 x**3/6 + rho**4 x**5/120 is used, whose
    truncation error (~|rho|**6/5040) is far under 1e-13 relative accuracy.
    """
    x = np.asarray(x, dtype=float)
    if abs(rho) >= SERIES_CUTOFF:
        out = np.sin(rho * x) / rho
    else:
        r2 = rho * rho
        out = x - r2 * x**3 / 6.0 + r2 * r2 * x**5 / 120.0
    if out.ndim == 0:
        return complex(out)
    return out


def sinc_entire(z: np.ndarray) -> np.ndarray:
    """Elementwise sin(z)/z with the removable singularity handled."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    direct = np.sin(safe) / safe
    z2 = z * z
    series = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return np.where(small, series, direct)


@lru_cache(maxsize=64)
def simpson_weights(n_intervals: int) -> np.ndarray:
    """Composite Simpson weights for n_intervals uniform steps of unit size.

    Even counts use the plain composite rule; odd counts >= 3 finish with a
    Simpson 3/8 panel so the order stays O(h^4); a single interval falls back
    to the trapezoid.
    """
    n = n_intervals
    if n < 0:
        raise ConfigError("negative interval count")
    if n == 0:
        w = np.zeros(1)
    elif n == 1:
        w = np.array([0.5, 0.5])
    elif n % 2 == 0:
        w = np.empty(n + 1)
        w[0] = w[-1] = 1.0 / 3.0
        w[1:-1:2] = 4.0 / 3.0
        w[2:-1:2] = 2.0 / 3.0
    else:
        w = np.zeros(n + 1)
        head = simpson_weights(n - 3)
        w[: n - 2] += head
        w[n - 3 :] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    w.setflags(write=False)
    return w


def simpson(values: np.ndarray, h: float) -> complex:
    """Integrate uniformly sampled values with step h."""
    values = np.asarray(values)
    return complex(h * np.dot(simpson_weights(len(values) - 1), values))


def snap_index(a: float, n: int) -> int:
    """Map the frozen point a onto its grid index, rejecting misaligned values."""
    j = a * n
    k = round(j)
    if abs(j - k) > SNAP_TOL * max(1.0, n):
        raise ConfigError(f"frozen point a={a} does not align with the n={n} grid")
    return int(k)


@dataclass(frozen=True)
class FrozenConfig:
    """Problem parameters: frozen-argument point a and boundary coupling gamma."""

    a: float
    gamma: complex

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "a", float(self.a))
        if self.gamma == 0:
            raise ConfigError("boundary coupling gamma must be nonzero")
        if not (0.0 <= self.a <= 1.0) or not np.isfinite(self.a):
            raise ConfigError(f"frozen point a={self.a} must lie in [0, 1]")
        if not np.isfinite(self.gamma):
            raise ConfigError("gamma must be finite")

    def snap(self, n_grid: int) -> int:
        return snap_index(self.a, n_grid)


@dataclass(frozen=True)
class AlphaParam:
    """The coupling exponent alpha with cos(pi*alpha) = (1 + gamma^2)/(2*gamma)."""

    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))


def _in_alpha_region(alpha: complex) -> bool:
    re, im = alpha.real, alpha.imag
    if im >= 0:
        return 0.0 <= re <= 1.0
    return 0.0 < re < 1.0


def compute_alpha(gamma: complex) -> AlphaParam:
    """Solve cos(pi*alpha) = (1 + gamma^2)/(2*gamma) on the canonical strip.

    The principal arccos lands in Re in [0, 1]; if its branch-cut side puts a
    negative imaginary part on the strip boundary, the equivalent preimages
    -alpha and 2 - alpha are tried until the canonical region
    {Re in [0,1], Im >= 0} u {Re in (0,1), Im < 0} is hit.
    """
    gamma = complex(gamma)
    if gamma == 0:
        raise ConfigError("gamma must be nonzero")
    target = (1.0 + gamma * gamma) / (2.0 * gamma)
    base = complex(np.arccos(complex(target))) / PI
    base = complex(base.real + 0.0, base.imag + 0.0)  # normalise signed zeros
    for cand in (base, -base, 2.0 - base):
        cand = complex(cand.real + 0.0, cand.imag + 0.0)
        if _in_alpha_region(cand):
            check = complex(np.cos(PI * cand))
            if abs(check - target) > 1e-12 * max(1.0, abs(target)):
                raise ConfigError("alpha branch selection failed the cosine check")
            return AlphaParam(cand)
    raise ConfigError(f"no canonical alpha found for gamma={gamma}")


def _alpha_value(alpha) -> complex:
    if isinstance(alpha, AlphaParam):
        return alpha.alpha
    return complex(alpha)


def reference_rho(n: int, alpha) -> complex:
    """Unperturbed rho-plane zero for index n: (2k+alpha)pi / (2k-alpha)pi."""
    if n < 0:
        raise ConfigError("eigenvalue index must be nonnegative")
    al = _alpha_value(alpha)
    if n % 2 == 0:
        return (n + al) * PI
    return (n + 1 - al) * PI


def reference_rho_array(count: int, alpha) -> np.ndarray:
    """reference_rho for n < count, bit-identical: (n + al)*PI and
    (n + 1 - al)*PI as Python's complex-times-float multiply rounds them."""
    al = _alpha_value(alpha)
    n = np.arange(count)
    even = n % 2 == 0
    re = np.where(even, n + al.real, (n + 1) - al.real)
    im = np.where(even, 0.0 + al.imag, 0.0 - al.imag)
    out = np.empty(count, dtype=complex)
    out.real, out.imag = re * PI - im * 0.0, re * 0.0 + im * PI
    return out


def reference_lambda_array(count: int, alpha) -> np.ndarray:
    """Unperturbed eigenvalues reference_rho(n, alpha)**2, n < count, squared in
    real arithmetic as Python's complex multiply rounds them (numpy's may not)."""
    out = reference_rho_array(count, alpha)
    x, y = out.real, out.imag
    out.real, out.imag = x * x - y * y, x * y + y * x
    return out


def delta0(lam: complex, gamma: complex) -> complex:
    """Unperturbed characteristic function 1 + gamma^2 - 2*gamma*cos(sqrt(lam))."""
    rho = np.sqrt(complex(lam))
    return complex(1.0 + gamma * gamma - 2.0 * gamma * np.cos(rho))


def delta0_d1(lam: complex, gamma: complex) -> complex:
    """d/dlam of delta0; equals gamma * sin(rho)/rho."""
    rho = np.sqrt(complex(lam))
    return gamma * phi(rho, 1.0)


def delta0_d2(lam: complex, gamma: complex) -> complex:
    """Second lambda-derivative of delta0: gamma*(rho cos rho - sin rho)/(2 rho^3)."""
    rho = np.sqrt(complex(lam))
    if abs(rho) < 1e-2:
        r2 = rho * rho
        return gamma * (-1.0 / 6.0 + r2 / 60.0 - r2 * r2 / 1680.0)
    return gamma * (rho * np.cos(rho) - np.sin(rho)) / (2.0 * rho**3)


@dataclass(frozen=True)
class Potential:
    """Complex samples of a potential on the uniform grid x_j = j/N over [0, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=complex)
        if arr.ndim != 1:
            raise ConfigError("potential samples must be one-dimensional")
        n = len(arr) - 1
        if n < 16 or n % 2 != 0:
            raise ConfigError(f"grid size N={n} must be even and at least 16")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("potential samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return len(self.samples) - 1

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @classmethod
    def zeros(cls, n: int) -> "Potential":
        return cls(np.zeros(n + 1, dtype=complex))

    def l2_norm(self) -> float:
        return float(np.sqrt(simpson(np.abs(self.samples) ** 2, 1.0 / self.n).real))


def rel_l2_error(p: Potential, q: Potential) -> float:
    """Relative L2 distance between two potentials on a common grid."""
    if p.n != q.n:
        raise ConfigError("potentials live on different grids")
    num = np.sqrt(simpson(np.abs(p.samples - q.samples) ** 2, 1.0 / p.n).real)
    den = np.sqrt(simpson(np.abs(q.samples) ** 2, 1.0 / q.n).real)
    return float(num / den) if den > 0 else float(num)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues listed with multiplicity in the even/odd window indexing."""

    values: np.ndarray
    config: FrozenConfig
    alpha: AlphaParam

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AsymptoticResidues:
    """lambda-plane residuals kappa_n and rho-plane residuals eps_n."""

    kappa: np.ndarray
    eps: np.ndarray
    first_quarter_energy: float = field(default=0.0)
    last_quarter_energy: float = field(default=0.0)

    @property
    def tail_ok(self) -> bool:
        """Square-summability proxy: trailing-quarter energy below leading-quarter."""
        floor = 1e-18 * (1.0 + self.first_quarter_energy + self.last_quarter_energy)
        return self.last_quarter_energy < max(self.first_quarter_energy, floor)


def unshift(q_a: Potential, config: FrozenConfig) -> Potential:
    """Move the frozen point from 0 back to a, keeping the spectrum:
    q(x) = gamma*q_a(x - a + 1) on (0, a), q_a(x - a) on (a, 1)."""
    n = q_a.n
    j_a = config.snap(n)
    s = q_a.samples
    gamma = config.gamma
    if j_a == 0:
        return Potential(s.copy())
    if j_a == n:
        return Potential(gamma * s)
    out = np.empty(n + 1, dtype=complex)
    js = np.arange(0, j_a)
    out[js] = gamma * s[js + n - j_a]
    js = np.arange(j_a, n + 1)
    out[js] = s[js - j_a]
    return Potential(out)


def reflect_problem(q: Potential, config: FrozenConfig) -> tuple[Potential, FrozenConfig]:
    """Mirror the problem: (q(1-x), 1-a, 1/gamma) has the same spectrum."""
    flipped = Potential(q.samples[::-1].copy())
    return flipped, FrozenConfig(a=1.0 - config.a, gamma=1.0 / config.gamma)
