"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line per
criterion.  Random draws are seeded, so the suite is deterministic.
"""

import time

import numpy as np

from conftest import (
    flat_sine_coeffs,
    gram_entry_by_quadrature,
    half_ratio_potential,
    potential_from_w_coeffs,
    reference_lambda,
    shift_to_zero,
    sine_poly_potential,
    trig_poly_potential,
    window_flat_potential,
)
from frozenhill import (
    FrozenConfig,
    OperatorError,
    OperatorSpec,
    Potential,
    Spectrum,
    TwoSpectra,
    algorithm1,
    algorithm2,
    algorithm4,
    build_w,
    check_growth,
    compute_alpha,
    compute_spectrum,
    delta_from_spectrum,
    eval_delta_det,
    eval_delta_fundrep,
    frame_bounds,
    isobispectral_family,
    isospectral_family,
    recover_w,
    rel_l2_error,
    verify_asymptotics,
)
from frozenhill.basis import gram_matrix
from frozenhill.core import reference_rho

PI = np.pi


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status}  {detail}")
    assert passed, f"criterion {num} [{name}] failed: {detail}"


def _forward_pair(q, a, m):
    s0 = compute_spectrum(q, FrozenConfig(a=a, gamma=1.0), m)
    s1 = compute_spectrum(q, FrozenConfig(a=a, gamma=-1.0), m)
    return TwoSpectra(spec0=s0, spec1=s1, a=a)


def test_criterion_1_delta_consistency():
    rng = np.random.default_rng(101)
    n_grid = 2048
    gammas = (2.0 + 0j, 0.5 + 0.5j, 1.0 + 0j, -1.0 + 0j)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        q = trig_poly_potential(rng, n_grid, degree=6, scale=1.0)
        for a in (0.0, 0.25, 0.5):
            for gamma in gammas:
                cfg = FrozenConfig(a=a, gamma=gamma)
                w = build_w(q, cfg)
                for _ in range(20):
                    r = 200.0 * np.sqrt(rng.uniform())
                    th = rng.uniform(0, 2 * PI)
                    lam = r * np.exp(1j * th)
                    d_det = eval_delta_det(lam, q, cfg)
                    d_int = eval_delta_fundrep(lam, w, gamma)
                    rel = abs(d_det - d_int) / (1.0 + abs(d_det))
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "two-route Delta consistency",
        worst <= 1e-7 and elapsed < 10.0,
        f"worst {worst:.2e} (tol 1e-7), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_asymptotics_and_degeneration():
    rng = np.random.default_rng(102)
    q = trig_poly_potential(rng, 1024, degree=3, scale=0.35)
    worst_eps = 0.0
    for gamma in (2.0 + 0j, 0.5 + 0.5j):
        for a in (0.0, 0.25):
            spec = compute_spectrum(q, FrozenConfig(a=a, gamma=gamma), 40)
            res = verify_asymptotics(spec)
            worst_eps = max(worst_eps, float(np.max(np.abs(res.eps[4:]))))
    window_ok = worst_eps < PI / 2
    worst_deg = 0.0
    for gamma in (1.0, -1.0):
        spec = compute_spectrum(q, FrozenConfig(a=0.0, gamma=gamma), 40)
        for n in range(1, 40, 2):
            ref = reference_lambda(n, spec.alpha)
            worst_deg = max(
                worst_deg, abs(spec.values[n] - ref) / (1.0 + abs(spec.values[n]))
            )
    deg_ok = worst_deg <= 1e-8
    _report(
        2,
        "spectrum windows and degeneration",
        window_ok and deg_ok,
        f"max |eps_n| (n>=4) {worst_eps:.3f} (< pi/2), degeneration {worst_deg:.1e} (<= 1e-8)",
    )


def test_criterion_3_shift_reduction():
    rng = np.random.default_rng(103)
    q = sine_poly_potential(rng, 1024, degree=4, scale=0.6)
    gamma = 2.0
    worst = 0.0
    for a in (0.25, 0.5):
        cfg = FrozenConfig(a=a, gamma=gamma)
        spec_a = compute_spectrum(q, cfg, 30)
        q_a = shift_to_zero(q, cfg)
        spec_0 = compute_spectrum(q_a, FrozenConfig(a=0.0, gamma=gamma), 30)
        worst = max(worst, float(np.max(np.abs(spec_a.values - spec_0.values))))
    _report(3, "shift reduction invariance", worst <= 1e-7, f"worst {worst:.2e} (tol 1e-7)")


def test_criterion_4_one_spectrum_round_trip():
    rng = np.random.default_rng(104)
    worst = 0.0
    worst_case_time = 0.0
    for gamma in (2.0 + 0j, 1.0 + 1.0j):
        for a in (0.0, 0.25):
            cfg = FrozenConfig(a=a, gamma=gamma)
            for _ in range(5):
                t0 = time.perf_counter()
                q = potential_from_w_coeffs(flat_sine_coeffs(rng, degree=12), cfg, 1024)
                spec = compute_spectrum(q, cfg, 60)
                q_rec = algorithm1(spec, cfg, 60, 60, grid_n=1024)
                worst = max(worst, rel_l2_error(q_rec, q))
                worst_case_time = max(worst_case_time, time.perf_counter() - t0)
    _report(
        4,
        "one-spectrum round trip (M=K=NT=60)",
        worst <= 1e-3 and worst_case_time < 30.0,
        f"worst rel L2 {worst:.2e} (tol 1e-3), slowest case {worst_case_time:.1f}s (< 30s)",
    )


def test_criterion_5_degenerate_round_trip():
    rng = np.random.default_rng(105)
    cfg = FrozenConfig(a=0.0, gamma=1.0)
    worst = 0.0
    for c in (1.0, 0.5):
        q, _ = half_ratio_potential(rng, c, 1024)
        spec = compute_spectrum(q, cfg, 120)
        k_op = OperatorSpec.scalar(c, 0.5)
        q_rec = algorithm2(spec, cfg, k_op, 60, 120, grid_n=1024)
        worst = max(worst, rel_l2_error(q_rec, q))
    rejected = False
    try:
        algorithm2(
            Spectrum(
                values=np.array([reference_lambda(n, compute_alpha(1.0)) for n in range(40)]),
                config=cfg,
                alpha=compute_alpha(1.0),
            ),
            cfg,
            OperatorSpec.scalar(-1.0, 0.5),
            40,
            40,
            grid_n=256,
        )
    except OperatorError:
        rejected = True
    _report(
        5,
        "degenerate round trip + ineligible operator",
        worst <= 1e-3 and rejected,
        f"worst rel L2 {worst:.2e} (tol 1e-3), Scalar(-gamma) rejected: {rejected}",
    )


def test_criterion_6_two_spectra_endpoint():
    rng = np.random.default_rng(106)
    from frozenhill import algorithm3

    q = sine_poly_potential(rng, 1024, degree=4, scale=0.7)
    two = _forward_pair(q, 0.0, 120)
    q_rec = algorithm3(two, 60, 120, grid_n=1024)
    rt_err = rel_l2_error(q_rec, q)

    # hand-checkable case q(x) = x: w0 = 1, w1 = 2x - 1 in L2 (as 60-term projections)
    q_lin = Potential(np.linspace(0, 1, 1025).astype(complex))
    two_lin = _forward_pair(q_lin, 0.0, 120)
    b0 = recover_w(two_lin.spec0, 60, 120).coeffs
    b1 = recover_w(two_lin.spec1, 60, 120).coeffs
    ks = np.arange(1, 61)
    b0_true = np.where(ks % 2 == 1, 4.0 / (PI * ks), 0.0)
    b1_true = np.where(ks % 2 == 0, -4.0 / (PI * ks), 0.0)
    w0_err = float(np.sqrt(np.sum(np.abs(b0 - b0_true) ** 2) / 2))
    w1_err = float(np.sqrt(np.sum(np.abs(b1 - b1_true) ** 2) / 2))
    _report(
        6,
        "two-spectra endpoint case",
        rt_err <= 1e-3 and w0_err <= 1e-3 and w1_err <= 1e-3,
        f"round trip {rt_err:.2e}, w0 {w0_err:.2e}, w1 {w1_err:.2e} (all <= 1e-3)",
    )


def test_criterion_7_two_spectra_interior():
    rng = np.random.default_rng(107)
    a = 0.25
    q = window_flat_potential(rng, a, 1024)
    two = _forward_pair(q, a, 120)
    j_a = 256
    p_op = OperatorSpec.constant(q.samples[j_a::-1], a)
    q_rec = algorithm4(two, p_op, 60, 120, grid_n=1024)
    rt_err = rel_l2_error(q_rec, q)

    matched = check_growth(two, 120, grid_n=512)
    ref1 = compute_spectrum(Potential.zeros(64), FrozenConfig(a=a, gamma=-1.0), 120)
    broken = TwoSpectra(spec0=two.spec0, spec1=ref1, a=a)
    mismatched = check_growth(broken, 120, grid_n=512)
    _report(
        7,
        "two-spectra interior case + growth check",
        rt_err <= 1e-3
        and matched.passed
        and (not mismatched.passed)
        and mismatched.max_violation > 1e-2,
        f"round trip {rt_err:.2e} (tol 1e-3), matched viol {matched.max_violation:.2e}, "
        f"mismatched viol {mismatched.max_violation:.2e} (> 1e-2)",
    )


def test_criterion_8_isospectral_structure():
    rng = np.random.default_rng(108)
    # one-spectrum family (gamma = 1)
    base, _ = half_ratio_potential(rng, 1.0, 1024)
    cfg = FrozenConfig(a=0.0, gamma=1.0)
    spec = compute_spectrum(base, cfg, 120)
    xs_half = np.linspace(0, 0.5, 513)
    p2 = (0.8 - 0.3j) * np.sin(2 * PI * xs_half)
    m_iso = isospectral_family(
        spec, cfg, [np.zeros(513, complex), p2], 60, 120, grid_n=1024
    )
    sep_iso = rel_l2_error(m_iso[0], m_iso[1])
    norms = [m.l2_norm() for m in m_iso]
    distinct_iso = (
        np.sqrt(
            np.abs(
                np.trapezoid(np.abs(m_iso[0].samples - m_iso[1].samples) ** 2, dx=1 / 1024)
            )
        )
        > 0.1 * max(norms)
    )
    s_a = compute_spectrum(m_iso[0], cfg, 30)
    s_b = compute_spectrum(m_iso[1], cfg, 30)
    iso_agree = float(np.max(np.abs(s_a.values - s_b.values)))

    # two-spectra family (interior a)
    a = 0.25
    q = window_flat_potential(rng, a, 1024)
    two = _forward_pair(q, a, 120)
    xs_a = np.linspace(0, a, 257)
    pb = (0.6 + 0.2j) * np.sin(PI * xs_a / a)
    m_bis = isobispectral_family(two, [np.zeros(257, complex), pb], 60, 120, grid_n=1024)
    tail = slice(2 * 256 + 1, None)
    tail_coincide = float(np.max(np.abs(m_bis[0].samples[tail] - m_bis[1].samples[tail])))
    pair_a = _forward_pair(m_bis[0], a, 30)
    pair_b = _forward_pair(m_bis[1], a, 30)
    bis_agree = max(
        float(np.max(np.abs(pair_a.spec0.values - pair_b.spec0.values))),
        float(np.max(np.abs(pair_a.spec1.values - pair_b.spec1.values))),
    )
    _report(
        8,
        "iso-spectral / iso-bispectral structure",
        distinct_iso and iso_agree <= 1e-6 and bis_agree <= 1e-6 and tail_coincide <= 1e-9,
        f"member sep {sep_iso:.2f}, spectra agree {iso_agree:.1e}/{bis_agree:.1e} (<= 1e-6), "
        f"(2a,1) coincide {tail_coincide:.1e} (<= 1e-9)",
    )


def test_criterion_9_riesz_frame_proxy():
    start = time.perf_counter()
    ok = True
    details = []
    for alpha in (0.25, 0.5, 0.3 + 0.1j):
        a1_16, _ = frame_bounds(alpha, 16)
        a1_64, _ = frame_bounds(alpha, 64)
        ratio = a1_64 / a1_16
        ok = ok and a1_16 > 0 and a1_64 > 0 and ratio >= 0.5
        details.append(f"A1(64)/A1(16)={ratio:.2f}")
    for alpha in (0.0, 1.0):
        a1_16, _ = frame_bounds(alpha, 16)
        ok = ok and abs(a1_16) <= 1e-10
    worst_quad = 0.0
    for alpha in (0.25, 0.3 + 0.1j):
        g = gram_matrix(alpha, 6, cross_check=True)
        for m in (-2, 0, 2):
            for n in (-1, 1):
                worst_quad = max(
                    worst_quad, abs(g[m + 6, n + 6] - gram_entry_by_quadrature(alpha, m, n))
                )
    elapsed = time.perf_counter() - start
    ok = ok and worst_quad <= 1e-10 and elapsed < 5.0
    _report(
        9,
        "Riesz frame-bound proxy",
        ok,
        f"{'; '.join(details)}; quad err {worst_quad:.1e} (<= 1e-10); {elapsed:.1f}s (< 5s)",
    )


def test_criterion_10_product_truncation_stability():
    rng = np.random.default_rng(110)
    q = sine_poly_potential(rng, 1024, degree=4, scale=0.7)
    cfg = FrozenConfig(a=0.0, gamma=2.0)
    spec = compute_spectrum(q, cfg, 200)
    worst = 0.0
    for _ in range(10):
        if rng.uniform() < 0.5:
            lam = complex(-rng.uniform(5.0, 400.0), 0.0)
        else:
            lam = complex(rng.uniform(-200, 200), rng.uniform(5.0, 120.0))
        d100 = delta_from_spectrum(spec, lam, 100)
        d200 = delta_from_spectrum(spec, lam, 200)
        worst = max(worst, abs(d200 - d100) / (1.0 + abs(d200)))
    _report(
        10,
        "product reconstruction stability",
        worst <= 1e-5,
        f"worst relative change NT 100 -> 200: {worst:.2e} (tol 1e-5)",
    )
