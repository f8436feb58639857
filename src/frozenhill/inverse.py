"""Inverse solver: potential reconstruction from one or two spectra.

The pipeline is always: rebuild Delta from its zeros as the ratio
Delta0(lambda) * prod (lambda_n - lambda)/(lambda_n^0 - lambda) truncated at
n_trunc, read off the sine coefficients of the kernel w by sampling at
lambda = (pi k)^2, then solve the main functional equation for q.  The
non-degenerate coupling inverts a 2x2 system; the periodic/antiperiodic and
two-spectra cases take an auxiliary operator that pins down the part of the
potential the spectra cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PI,
    FrozenConfig,
    Potential,
    Spectrum,
    delta0_d1,
    delta0_d2,
    reference_lambda_array,
    snap_index,
    unshift,
)
from .errors import (
    ConfigError,
    DegenerateCaseError,
    GrowthConditionError,
    InconsistentSpectrumError,
    OperatorError,
    PoleInTailError,
)
from .forward import SineSeries

#: collision tolerance between an evaluation point and a reference zero
_COLLISION_RTOL = 1e-8

#: relative gap of an odd-indexed eigenvalue from its reference that check_degeneration allows
_DEGENERATION_RTOL = 1e-9

#: evaluation points per block of the zero product
_BLOCK = 16

#: numerical singularity threshold for I + gamma*K and I + P
_SINGULAR_TOL = 1e-10

#: relative ceiling for degeneration / symmetry / support residuals
_CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class OperatorSpec:
    """Auxiliary operator on sub-interval grid samples.

    kind 'constant' ignores its input and returns a fixed profile (a-priori
    specification of the hidden half of the potential), 'scalar' multiplies
    by a constant, 'matrix' applies a dense matrix to the sample vector.
    """

    kind: str
    domain_length: float
    scalar_value: complex = 0j
    profile: np.ndarray | None = None
    matrix_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "scalar", "matrix"):
            raise ConfigError(f"unknown operator kind {self.kind!r}")
        if not (0.0 < self.domain_length <= 1.0):
            raise ConfigError("operator domain length must lie in (0, 1]")
        if self.kind == "constant":
            if self.profile is None:
                raise ConfigError("constant operator needs a sample profile")
            arr = np.ascontiguousarray(self.profile, dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, "profile", arr)
        if self.kind == "matrix":
            if self.matrix_values is None:
                raise ConfigError("matrix operator needs a matrix")
            arr = np.ascontiguousarray(self.matrix_values, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ConfigError("operator matrix must be square")
            arr.setflags(write=False)
            object.__setattr__(self, "matrix_values", arr)

    @classmethod
    def constant(cls, profile, domain_length: float) -> "OperatorSpec":
        return cls(kind="constant", domain_length=domain_length, profile=np.asarray(profile))

    @classmethod
    def scalar(cls, value: complex, domain_length: float) -> "OperatorSpec":
        return cls(kind="scalar", domain_length=domain_length, scalar_value=complex(value))

    @classmethod
    def matrix(cls, values, domain_length: float) -> "OperatorSpec":
        return cls(kind="matrix", domain_length=domain_length, matrix_values=np.asarray(values))

    def _check_size(self, m: int):
        if self.kind == "constant" and len(self.profile) != m:
            raise ConfigError(
                f"constant operator profile has {len(self.profile)} samples, grid needs {m}"
            )
        if self.kind == "matrix" and self.matrix_values.shape[0] != m:
            raise ConfigError(
                f"operator matrix is {self.matrix_values.shape[0]}x..., grid needs {m}"
            )

    def ensure_invertible(self, coupling: complex, m: int):
        """Reject operators with numerically singular I + coupling*K."""
        self._check_size(m)
        if self.kind == "scalar":
            if abs(1.0 + coupling * self.scalar_value) <= _SINGULAR_TOL:
                raise OperatorError(
                    f"I + ({coupling})*K is singular for scalar K = {self.scalar_value}"
                )
        elif self.kind == "matrix":
            shifted = np.eye(m, dtype=complex) + coupling * self.matrix_values
            smin = np.linalg.svd(shifted, compute_uv=False)[-1]
            if smin <= _SINGULAR_TOL:
                raise OperatorError(
                    f"I + ({coupling})*K has smallest singular value {smin:.3e}"
                )
        # constant K: I + coupling*K is an invertible affine map, nothing to check

    def apply(self, f: np.ndarray) -> np.ndarray:
        self._check_size(len(f))
        if self.kind == "constant":
            return self.profile.copy()
        if self.kind == "scalar":
            return self.scalar_value * np.asarray(f, dtype=complex)
        return self.matrix_values @ np.asarray(f, dtype=complex)

    def solve_shifted(self, coupling: complex, rhs: np.ndarray) -> np.ndarray:
        """Solve (I + coupling*K) u = rhs."""
        rhs = np.asarray(rhs, dtype=complex)
        self._check_size(len(rhs))
        if self.kind == "constant":
            return rhs - coupling * self.profile
        if self.kind == "scalar":
            return rhs / (1.0 + coupling * self.scalar_value)
        shifted = np.eye(len(rhs), dtype=complex) + coupling * self.matrix_values
        return np.linalg.solve(shifted, rhs)


@dataclass(frozen=True)
class TwoSpectra:
    """Periodic (gamma = 1) and antiperiodic (gamma = -1) spectra of one potential."""

    spec0: Spectrum
    spec1: Spectrum
    a: float

    def __post_init__(self):
        if self.spec0.config.gamma != 1:
            raise ConfigError("spec0 must belong to the periodic problem (gamma = 1)")
        if self.spec1.config.gamma != -1:
            raise ConfigError("spec1 must belong to the antiperiodic problem (gamma = -1)")
        if not (0.0 <= self.a <= 1.0):
            raise ConfigError("frozen point a must lie in [0, 1]")


@dataclass(frozen=True)
class GrowthReport:
    """Support check of w0 + w1 on (1-a, 1)."""

    max_violation: float
    scale: float
    passed: bool


def delta_from_spectrum(
    spec: Spectrum, lam: complex | np.ndarray, n_trunc: int
) -> complex | np.ndarray:
    """Rebuild Delta(lambda) from eigenvalues by the truncated ratio product.

    Delta0(lambda) * prod_{n < n_trunc} (lambda_n - lambda)/(lambda_n^0 - lambda);
    omitted tail factors are exactly 1 in the limit, so truncation cannot
    drift the overall constant.  Evaluation points that collide with a
    reference zero are handled analytically: a matching degenerate eigenvalue
    turns its factor into 1, otherwise the pole is cancelled against the zero
    of Delta0 of the corresponding multiplicity.

    Collision rule: a point within 1e-8 (1 + |lambda|) of lambda_p^0 whose
    eigenvalue lambda_p also lies within that tolerance returns exactly 0,
    even where lambda_p != lambda_p^0 and the truncated product's limit,
    -Delta0'(lambda_p^0) (lambda_p - lambda_p^0) prod_{n != p}(...), is not 0.

    lam is a scalar (a complex comes back) or a 1-D array of K points (an
    array of K values comes back); the ratios are formed _BLOCK points at a
    time, and each value is bit-identical to the call with that point alone.
    A point without a collision skips the factors of eigenvalues stored
    exactly at their reference: each is exactly 1 + 0j, which changes no
    finite product with nonzero parts (other products take every factor).
    """
    return _delta_and_delta0(spec, lam, n_trunc)[0]


def _delta_and_delta0(spec: Spectrum, lam, n_trunc: int):
    """delta_from_spectrum's values and Delta0 at the same points, same shape."""
    check_reconstruct(len(spec), None, n_trunc)
    pts = np.asarray(lam, dtype=complex)
    if pts.ndim > 1:
        raise ConfigError("evaluation points must be a scalar or a 1-D array")
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    if not np.all(np.isfinite(pts)):
        raise ConfigError("evaluation points must be finite")
    gamma = spec.config.gamma
    alpha = spec.alpha
    mag = np.hypot(pts.real, pts.imag)  # rounds exactly as abs() of a complex
    tol = _COLLISION_RTOL * (1.0 + mag)
    n_scan = np.maximum(n_trunc, (np.sqrt(mag) / PI).astype(int) + 3)

    refs_all = reference_lambda_array(int(n_scan.max(initial=n_trunc)), alpha)
    refs = refs_all[:n_trunc]
    lams = spec.values[:n_trunc]
    rows, cols = _collisions(refs, pts, mag, tol)
    pole_factors = lams[cols] - pts[rows]
    z_mult = np.bincount(rows, minlength=len(pts))
    poles = np.bincount(rows[np.abs(pole_factors) > tol[rows]], minlength=len(pts))
    # rows free of collisions and of all-real factors skip the factor 1 + 0j of
    # an eigenvalue at its reference, and fold again where that may move a bit
    moved, lone = lams != refs, z_mult == 0  # a NaN eigenvalue counts as moved
    lm, rm = lams[moved], refs[moved]
    skip = lone & (np.any(lm.imag) or np.any(rm.imag) or pts.imag != 0)
    bufs = np.empty((2, _BLOCK * n_trunc), dtype=complex)
    prods = np.zeros(len(pts), dtype=complex)
    _fold(prods, pts, np.flatnonzero(skip), lm, rm, bufs)
    skip &= np.isfinite(prods) & (prods.real != 0) & (prods.imag != 0)
    _fold(prods, pts, np.flatnonzero(lone & ~skip), lams, refs, bufs, ones=~moved)
    _fold(prods, pts, np.flatnonzero(~lone), lams, refs, bufs, (rows, cols, pole_factors))
    zero = poles < z_mult  # an uncancelled zero of Delta0 survives

    # A collision beyond the truncation is fatal unless a degenerate head
    # collision already pins the value to zero (then extra reference zeros
    # cannot change it).
    for i in np.flatnonzero((n_scan > n_trunc) & ~zero):
        hits = np.flatnonzero(np.abs(refs_all[n_trunc : n_scan[i]] - pts[i]) <= tol[i])
        if len(hits):
            raise PoleInTailError(n_trunc + int(hits[0]))

    # delta0 as the scalar call rounds it: (2 gamma)*cos(rho) as numpy's scalar multiply
    c, g, h = np.cos(np.sqrt(pts)), 2.0 * gamma, 1.0 + gamma * gamma
    free = np.empty(len(pts), dtype=complex)
    free.real = h.real - (g.real * c.real - g.imag * c.imag)
    free.imag = h.imag - (g.real * c.imag + g.imag * c.real)
    # rows free of collisions: free * prods rounded as the scalar multiply below,
    # which may set other NaN signs, so rows with non-finite factors stay there
    plain = (z_mult == 0) & np.isfinite(free) & np.isfinite(prods)
    f, p = free[plain], prods[plain]
    out = np.zeros(len(pts), dtype=complex)
    out.real[plain] = f.real * p.real - f.imag * p.imag
    out.imag[plain] = f.real * p.imag + f.imag * p.real
    for i in np.flatnonzero(~zero & ~plain):
        lam_i = complex(pts[i])
        if z_mult[i] == 0:
            limit = free[i]
        elif poles[i] == 1:
            limit = -delta0_d1(lam_i, gamma)
        elif poles[i] == 2:
            limit = delta0_d2(lam_i, gamma)
        else:  # pragma: no cover - reference zeros are at most double
            raise ConfigError("reference zero of multiplicity > 2 encountered")
        # a scalar multiply: numpy's array complex multiply may round
        # differently, and the per-point value must not depend on K
        out[i] = limit * prods[i]
    if scalar:
        return complex(out[0]), complex(free[0])
    return out, free


def _fold(prods, pts, idx, lams, refs, bufs, hits=None, ones=None):
    """prods[idx] = prod (lams - lam)/(refs - lam) at lam = pts[idx], _BLOCK rows at a time.

    Row-wise products are sequential: each is the scalar product of its point
    alone.  hits = (rows, cols, factors), ordered by row, replace their ratios,
    and the columns ones get exactly 1, where complex z/z could be 1 ulp off.
    """
    for lo in range(0, len(idx), _BLOCK):
        blk = idx[lo : lo + _BLOCK]
        diff, ratios = (b[: len(blk) * len(lams)].reshape(len(blk), len(lams)) for b in bufs)
        np.subtract(refs, pts[blk, None], out=diff)
        np.subtract(lams, pts[blk, None], out=ratios)
        with np.errstate(divide="ignore", invalid="ignore"):  # poles are overwritten below
            np.divide(ratios, diff, out=ratios)
        if hits is not None:
            rows, cols, factors = hits
            at = slice(*np.searchsorted(rows, (blk[0], blk[-1] + 1)))
            ratios[np.searchsorted(blk, rows[at]), cols[at]] = factors[at]
        if ones is not None:
            ratios[:, ones] = 1.0
        prods[blk] = np.prod(ratios, axis=1)


def _collisions(refs, pts, mag, tol):
    """(point, reference) index pairs with |ref - lam| <= tol, ordered by point.

    Only moduli within 2 tol of |lam| are tested; they round at ~1e-16
    relative.  An overflowing |lam| has tol = inf and hits every reference.
    """
    order = np.argsort(np.abs(refs), kind="stable")
    ref_mag = np.abs(refs[order])
    lo = np.searchsorted(ref_mag, np.where(tol < np.inf, mag - 2.0 * tol, -np.inf))
    counts = np.searchsorted(ref_mag, mag + 2.0 * tol, side="right") - lo
    rows = np.repeat(np.arange(len(pts)), counts)
    cols = order[np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    hit = np.abs(refs[cols] - pts[rows]) <= tol[rows]
    return rows[hit], cols[hit]


def check_reconstruct(length: int, k_terms: int | None, n_trunc: int, gamma=None, op=None):
    """Raise the ConfigError that reconstruct raises on a spectrum of this length and gamma.

    recover_w checks k_terms and the zero product n_trunc here; a caller that
    still has to solve the spectrum can reject a bad request first.
    """
    if gamma in (1, -1) and op is None:
        raise ConfigError(
            "gamma = +-1 is the degenerate case: supply --op with the operator "
            "coupling the two halves of the shifted potential"
        )
    if k_terms is not None and k_terms < 1:
        raise ConfigError("k_terms must be positive")
    if n_trunc < 1 or n_trunc > length:
        raise ConfigError("n_trunc must be between 1 and the spectrum length")


def _sample_points(k_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices k = 1..K and the interleaved sample points lambda = (pi k)^2.

    The points use Python's float power, which numpy's square does not
    match bit for bit on every k.
    """
    ks = np.arange(1, k_terms + 1)
    return ks, np.array([(PI * k) ** 2 for k in range(1, k_terms + 1)])


def recover_w(spec: Spectrum, k_terms: int, n_trunc: int) -> SineSeries:
    """Sine coefficients of w read off Delta at the interleaved points (pi k)^2."""
    check_reconstruct(len(spec), k_terms, n_trunc)
    ks, lams = _sample_points(k_terms)
    delta, free = _delta_and_delta0(spec, lams, n_trunc)
    return SineSeries(2.0 * PI * ks * (free - delta))


def check_degeneration(spec: Spectrum) -> bool:
    """True iff every odd-indexed eigenvalue sits on its reference to _DEGENERATION_RTOL.

    A NaN eigenvalue fails.  np.hypot rounds as abs() of a complex does.
    """
    gamma = spec.config.gamma
    if gamma not in (1, -1):
        raise ConfigError("degeneration check applies to gamma = +-1 only")
    refs = reference_lambda_array(len(spec), spec.alpha)[1::2]
    gap = spec.values[1::2] - refs
    bound = _DEGENERATION_RTOL * (1.0 + np.hypot(refs.real, refs.imag))
    return bool(np.all(np.hypot(gap.real, gap.imag) <= bound))


def _symmetry_residual(ws: np.ndarray, gamma: complex) -> float:
    sign = 1.0 if gamma == 1 else -1.0
    return float(np.max(np.abs(ws - sign * ws[::-1])))


def algorithm1(
    spec: Spectrum,
    config: FrozenConfig,
    k_terms: int,
    n_trunc: int,
    grid_n: int = 1024,
) -> Potential:
    """One-spectrum reconstruction for non-degenerate coupling (gamma != +-1).

    Recovers w, solves the 2x2 main-equation system
    q_a(x) = (gamma w(x) - w(1-x)) / (gamma^3 - gamma) and transports the
    frozen point back from the origin.
    """
    gamma = config.gamma
    if gamma in (1, -1):
        raise DegenerateCaseError(
            "gamma = +-1 leaves half the spectrum uninformative; use algorithm2 "
            "with an auxiliary operator"
        )
    ws = recover_w(spec, k_terms, n_trunc).sample_grid(grid_n)
    q_a = (gamma * ws - ws[::-1]) / (gamma**3 - gamma)
    return unshift(Potential(q_a), config)


def _degenerate_kernel(
    spec: Spectrum,
    config: FrozenConfig,
    k_op: OperatorSpec,
    k_terms: int,
    n_trunc: int,
    grid_n: int,
) -> np.ndarray:
    """Check a gamma = +-1 problem and its operator K, then sample w on the grid."""
    gamma = config.gamma
    if gamma not in (1, -1):
        raise ConfigError("algorithm2 requires gamma = 1 or gamma = -1")
    if grid_n % 2 != 0:
        raise ConfigError("grid_n must be even")
    if abs(k_op.domain_length - 0.5) > 1e-12:
        raise ConfigError("operator for the one-spectrum problem acts on (0, 1/2)")
    if not check_degeneration(spec):
        raise InconsistentSpectrumError(
            "odd-indexed eigenvalues violate the exact degeneration required for gamma = +-1"
        )
    k_op.ensure_invertible(gamma, grid_n // 2 + 1)

    ws = recover_w(spec, k_terms, n_trunc).sample_grid(grid_n)
    asym = _symmetry_residual(ws, gamma)
    if asym > _CONSISTENCY_TOL * max(1.0, float(np.max(np.abs(ws)))):
        raise InconsistentSpectrumError(
            f"recovered w violates its gamma = {gamma} symmetry by {asym:.3e}"
        )
    return ws


def _solve_halves(
    ws: np.ndarray, config: FrozenConfig, k_op: OperatorSpec, grid_n: int
) -> Potential:
    """The operator solve of algorithm2 on a sampled kernel w."""
    gamma = config.gamma
    half = grid_n // 2
    v = gamma * ws[half::-1]  # gamma * w(1/2 - x) on the half grid
    u = k_op.solve_shifted(gamma, v)
    left = k_op.apply(u)  # q_a(1/2 - x)
    q_a = np.empty(grid_n + 1, dtype=complex)
    q_a[: half + 1] = left[::-1]
    idx = np.arange(1, half + 1)
    q_a[half + idx] = v[idx] - gamma * left[idx]
    return unshift(Potential(q_a), config)


def algorithm2(
    spec: Spectrum,
    config: FrozenConfig,
    k_op: OperatorSpec,
    k_terms: int,
    n_trunc: int,
    grid_n: int = 1024,
) -> Potential:
    """One-spectrum reconstruction for gamma = +-1 given the operator K.

    K couples the two halves of the shifted potential:
    q_a(1/2 - x) = K(q_a(1/2 + x)).  With bijective I + gamma*K the hidden
    half follows from w via q_a(1/2-x) = K((I + gamma K)^{-1}(gamma w(1/2-x))).
    """
    ws = _degenerate_kernel(spec, config, k_op, k_terms, n_trunc, grid_n)
    return _solve_halves(ws, config, k_op, grid_n)


def _check_pair_degeneration(two: TwoSpectra):
    for spec in (two.spec0, two.spec1):
        if not check_degeneration(spec):
            raise InconsistentSpectrumError(
                "two-spectra data must carry exactly degenerate odd-indexed eigenvalues"
            )


def _pair_kernels(
    two: TwoSpectra, k_terms: int, n_trunc: int, grid_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """w0 and w1 sampled on the grid, each recovered from its own spectrum."""
    return (
        recover_w(two.spec0, k_terms, n_trunc).sample_grid(grid_n),
        recover_w(two.spec1, k_terms, n_trunc).sample_grid(grid_n),
    )


def _support_report(wsum: np.ndarray, j_start: int) -> GrowthReport:
    """Largest |w0 + w1| on the open window between node j_start and x = 1."""
    window = wsum[j_start + 1 : len(wsum) - 1]
    viol = float(np.max(np.abs(window))) if len(window) else 0.0
    scale = float(np.max(np.abs(wsum)))
    return GrowthReport(
        max_violation=viol, scale=scale, passed=viol <= _CONSISTENCY_TOL * max(1.0, scale)
    )


def algorithm3(two: TwoSpectra, k_terms: int, n_trunc: int, grid_n: int = 1024) -> Potential:
    """Two-spectra reconstruction at a frozen endpoint (a = 0 or a = 1).

    Both kernels are recovered independently and the potential is their mean,
    q = (w0 + w1)/2; for a = 1 the result is the mirror image of the a = 0
    reconstruction.
    """
    if two.a not in (0.0, 1.0):
        raise ConfigError("algorithm3 handles the endpoint cases a = 0 and a = 1")
    _check_pair_degeneration(two)
    w0, w1 = _pair_kernels(two, k_terms, n_trunc, grid_n)
    q = (w0 + w1) / 2.0
    if two.a == 1.0:
        q = q[::-1].copy()
    return Potential(q)


def check_growth(two: TwoSpectra, n_trunc: int, grid_n: int = 512) -> GrowthReport:
    """Support test of w0 + w1 on (1-a, 1), the computable growth condition.

    The sum kernel is rebuilt through Delta0 + Delta1 and must vanish beyond
    x = 1 - a for the pair of spectra to come from a common potential.  For
    a > 1/2 the mirrored problem applies and the window becomes (a, 1); both
    cases are the nodes right of max(a, 1-a).
    """
    ks, lams = _sample_points(n_trunc)
    total = delta_from_spectrum(two.spec0, lams, n_trunc) + delta_from_spectrum(
        two.spec1, lams, n_trunc
    )
    wsum = SineSeries(2.0 * PI * ks * (4.0 - total)).sample_grid(grid_n)
    j_a = snap_index(two.a, grid_n)
    return _support_report(wsum, max(j_a, grid_n - j_a))


def _interior_kernels(
    two: TwoSpectra, p_op: OperatorSpec, k_terms: int, n_trunc: int, grid_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Check an interior two-spectra problem and its operator P, then sample w0, w1."""
    a = two.a
    if not (0.0 < a <= 0.5):
        raise ConfigError("algorithm4 requires a in (0, 1/2]; mirror the problem for a > 1/2")
    j_a = snap_index(a, grid_n)
    _check_pair_degeneration(two)
    if abs(p_op.domain_length - a) > 1e-12:
        raise ConfigError(f"operator domain length {p_op.domain_length} must equal a = {a}")
    p_op.ensure_invertible(1.0, j_a + 1)

    w0, w1 = _pair_kernels(two, k_terms, n_trunc, grid_n)
    report = _support_report(w0 + w1, grid_n - j_a)
    if not report.passed:
        raise GrowthConditionError(
            f"w0 + w1 reaches {report.max_violation:.3e} on (1-a, 1); "
            "the spectra do not share a potential"
        )
    return w0, w1


def _solve_interior(
    w0: np.ndarray, w1: np.ndarray, a: float, p_op: OperatorSpec, grid_n: int
) -> Potential:
    """The operator solve of algorithm4 on sampled kernels w0, w1."""
    j_a = snap_index(a, grid_n)
    q = np.empty(grid_n + 1, dtype=complex)
    rhs = w0[: j_a + 1]
    u = p_op.solve_shifted(1.0, rhs)
    left = p_op.apply(u)  # q(a - x)
    q[: j_a + 1] = left[::-1]
    idx = np.arange(1, j_a + 1)
    q[j_a + idx] = rhs[idx] - left[idx]
    tail = np.arange(2 * j_a + 1, grid_n + 1)
    q[tail] = (w0[tail - j_a] + w1[tail - j_a]) / 2.0
    return Potential(q)


def algorithm4(
    two: TwoSpectra,
    p_op: OperatorSpec,
    k_terms: int,
    n_trunc: int,
    grid_n: int = 1024,
) -> Potential:
    """Two-spectra reconstruction for an interior frozen point a in (0, 1/2].

    The operator P pins the potential left of the frozen point through
    q(a - x) = P(q(a + x)); the rest follows from w0 on (0, 2a) and from the
    p-independent mean (w0 + w1)/2 on (2a, 1).  reconstruct mirrors a > 1/2.
    """
    w0, w1 = _interior_kernels(two, p_op, k_terms, n_trunc, grid_n)
    return _solve_interior(w0, w1, two.a, p_op, grid_n)


def reconstruct(
    data: Spectrum | TwoSpectra,
    k_terms: int,
    n_trunc: int,
    grid_n: int = 1024,
    op: OperatorSpec | None = None,
) -> Potential:
    """Reconstruct the potential from one spectrum or from a TwoSpectra pair.

    A spectrum goes to algorithm1, or to algorithm2 with the operator K when
    gamma = +-1.  A pair goes to algorithm3 at a frozen endpoint, else to
    algorithm4 with the operator P; for a > 1/2 the mirrored pair (1 - a) is
    solved and its samples reversed.  op is ignored where no operator is needed.
    """
    if isinstance(data, Spectrum):
        config = data.config
        check_reconstruct(len(data), k_terms, n_trunc, config.gamma, op)
        if config.gamma not in (1, -1):
            return algorithm1(data, config, k_terms, n_trunc, grid_n)
        return algorithm2(data, config, op, k_terms, n_trunc, grid_n)
    if data.a in (0.0, 1.0):
        return algorithm3(data, k_terms, n_trunc, grid_n)
    if op is None:
        raise ConfigError(
            "interior frozen point needs --op: the spectra pair determines the "
            "potential only up to its profile on one side of a"
        )
    if data.a <= 0.5:
        return algorithm4(data, op, k_terms, n_trunc, grid_n)
    mirrored = TwoSpectra(spec0=data.spec0, spec1=data.spec1, a=1.0 - data.a)
    q = algorithm4(mirrored, op, k_terms, n_trunc, grid_n)
    return Potential(q.samples[::-1].copy())


def isospectral_family(
    spec: Spectrum,
    config: FrozenConfig,
    p_list,
    k_terms: int,
    n_trunc: int,
    grid_n: int = 1024,
) -> list[Potential]:
    """All-iso-spectral construction: one potential per constant-operator profile.

    w is recovered and sampled once; the members differ only in the solve.
    """
    k_ops = [OperatorSpec.constant(np.asarray(p, dtype=complex), 0.5) for p in p_list]
    if not k_ops:
        return []
    ws = _degenerate_kernel(spec, config, k_ops[0], k_terms, n_trunc, grid_n)
    return [_solve_halves(ws, config, k_op, grid_n) for k_op in k_ops]


def isobispectral_family(
    two: TwoSpectra,
    p_list,
    k_terms: int,
    n_trunc: int,
    grid_n: int = 1024,
) -> list[Potential]:
    """Iso-bispectral potentials sharing both spectra, one per profile on (0, a).

    w0 and w1 are recovered and sampled once; the members differ only in the solve.
    """
    p_ops = [OperatorSpec.constant(np.asarray(p, dtype=complex), two.a) for p in p_list]
    if not p_ops:
        return []
    w0, w1 = _interior_kernels(two, p_ops[0], k_terms, n_trunc, grid_n)
    return [_solve_interior(w0, w1, two.a, p_op, grid_n) for p_op in p_ops]
