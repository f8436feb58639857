"""The four benchmark workloads.

Every workload builds its inputs from the seed in ``setup``, lists its jobs in
a fixed order of job kinds (one "deck" at a time), runs one job through the
package's public API in ``run``, and decides in ``check`` whether the job's
output is right.  ``probe`` runs only in the traced run: it calls the public
functions that the job's entry point uses internally, on the same inputs, so
that their cost can be reported layer by layer.

The seed decides the potentials and the random points; the order of job
kinds, sizes and parameter cycles are fixed, so every seed gives the same
mix of work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from frozenhill import (
    FrozenConfig,
    FrozenHillError,
    OperatorSpec,
    Potential,
    RootIsolationError,
    TwoSpectra,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    build_w,
    check_growth,
    compute_alpha,
    compute_spectrum,
    delta_from_spectrum,
    eval_delta_det,
    eval_delta_fundrep,
    frame_bounds,
    gram_matrix,
    isobispectral_family,
    isospectral_family,
    phi,
    recover_w,
    riesz_report,
    verify_asymptotics,
)
from frozenhill import io as fio
from frozenhill.cli import main as cli_main
from frozenhill.core import reference_lambda_array

import inputs
from tracing import Tracer

PI = np.pi
NON_DEGENERATE_GAMMAS = (2.0, 0.5 + 0.5j, complex(np.exp(1j * PI / 4)), -1.05, 1.02)

#: smallest error used when turning an error into digits of margin
MARGIN_FLOOR = 1e-12

#: relative distance below which two returned eigenvalues count as the same root
DUPLICATE_RTOL = 1e-9

#: largest distance in rho of eigenvalue n from its reference rho0(n), the solver's window
WINDOW_RADIUS = PI / 2 * (1 + 1e-12)

#: rounding of a returned eigenvalue, in ulps of lambda, that the residual gate allows
LAMBDA_ULPS = 4
SLOPE_STEP = 1e-7


@dataclass(frozen=True)
class Job:
    kind: str
    slot: int
    #: True for the stiff share of forward-sweep, where the root finder is known
    #: to fail; its failures are counted but do not make the run incorrect
    known_defect: bool = False


@dataclass
class Gate:
    """Per-job correctness verdict with the margin by which it passed."""

    ok: bool = True
    margin: float = math.inf
    acc: dict = field(default_factory=dict)

    def within(self, err: float, tol: float, typical: float | None = None) -> None:
        """Pass only if err <= tol; the margin is log10(tol / typical), typical = err by default."""
        err = float(err)
        if not err <= tol:
            self.ok = False
        typical = err if typical is None else float(typical)
        self.margin = min(self.margin, math.log10(tol / max(typical, tol * MARGIN_FLOOR)))

    def require(self, cond: bool) -> None:
        self.ok = self.ok and bool(cond)

    def note(self, key: str, value: float) -> None:
        self.acc.setdefault(key, []).append(float(value))


@dataclass
class State:
    jobs: list
    deck_size: int
    data: dict


def _solver_tol(gamma: complex) -> float:
    return 1e-11 * (1.0 + (1.0 + abs(gamma)) ** 2)


def _reference_rho(n: int, alpha: complex) -> complex:
    return (n + alpha) * PI if n % 2 == 0 else (n + 1 - alpha) * PI


def check_spectrum(values, m: int, q: Potential, config: FrozenConfig, gate: Gate) -> None:
    """m values, value n in window n, each a root of Delta to the solver's tolerance, no repeats.

    Value n must have a square root within WINDOW_RADIUS of its reference
    rho0(n), so a spectrum with a dropped or shifted root fails even when
    every value left is a root.  Delta is evaluated by the integral route on
    build_w(q).  For gamma = +-1 the solver works on the cofactor of Delta
    with tolerance 1e-11 (1 + 2|rho0|) and emits the odd-indexed half exactly
    at the reference points; those values must sit on their reference and
    are exempt from the repeat test.  A residual over the tolerance is
    allowed the change of Delta across LAMBDA_ULPS ulps of lambda, the
    rounding of handing a root over as rho^2.
    """
    values = np.asarray(values, dtype=complex)
    if len(values) != m:
        gate.require(False)
        return
    gamma = config.gamma
    alpha = compute_alpha(gamma).alpha
    idx = np.arange(m)
    rho0 = np.array([_reference_rho(n, alpha) for n in idx])
    rho = np.sqrt(values)
    rho = np.where(np.abs(rho - rho0) <= np.abs(-rho - rho0), rho, -rho)
    gate.require(np.all(np.abs(rho - rho0) <= WINDOW_RADIUS))
    w = build_w(q, config)
    res = np.array([abs(eval_delta_fundrep(lam, w, gamma)) for lam in values])
    if gamma in (1, -1):
        lead = np.abs(2.0 * np.sin(rho / 2.0) / np.where(rho == 0, 1.0, rho)) if gamma == 1 \
            else np.abs(2.0 * np.cos(rho / 2.0))
        tol = 1e-11 * (1.0 + 2.0 * np.abs(rho0)) * np.maximum(lead, 1.0)
        odd = idx % 2 == 1
        ref = rho0[odd] ** 2
        gate.require(np.all(np.abs(values[odd] - ref) <= 1e-12 * (1.0 + np.abs(ref))))
        distinct = values[~odd]
    else:
        tol = np.full(len(values), _solver_tol(gamma))
        distinct = values
    ratio = res / tol
    for i in np.flatnonzero(ratio > 1.0):
        # The solver accepts at its own rho; rounding lambda = rho^2 moves Delta
        # by |lambda Delta'| per ulp, enough to lift a root accepted at 0.999 tol
        # over 1.  Allow LAMBDA_ULPS ulps of that before calling it a miss.
        lam = values[i]
        slope = abs(eval_delta_fundrep(lam * (1 + SLOPE_STEP), w, gamma)
                    - eval_delta_fundrep(lam * (1 - SLOPE_STEP), w, gamma)) / (2 * SLOPE_STEP)
        ratio[i] = res[i] / (tol[i] + LAMBDA_ULPS * np.finfo(float).eps * slope)
    worst = float(np.max(ratio))
    # Newton stops just under the tolerance on some roots, so the worst root
    # always sits near 1; the margin uses the median root instead
    gate.within(worst, 1.0, typical=float(np.median(ratio)))
    gate.note("resid_log10", math.log10(max(worst, 1e-300)))
    gap = np.abs(distinct[:, None] - distinct[None, :])
    np.fill_diagonal(gap, np.inf)
    gate.require(np.all(gap > DUPLICATE_RTOL * (1.0 + np.abs(distinct)[:, None])))


def _reconstruction(gate: Gate, got: np.ndarray, truth: np.ndarray, tol: float) -> None:
    err = inputs.rel_l2(got, truth)
    gate.within(err, tol)
    gate.note("rec_err_log10", math.log10(max(err, 1e-300)))


class Workload:
    name = ""
    why = ""
    #: the package module whose cold import counts in set-up
    module = "frozenhill"

    def setup(self, seed: int, tr: Tracer, tiny: bool) -> State:
        raise NotImplementedError

    def run(self, state: State, job: Job, tr: Tracer):
        raise NotImplementedError

    def check(self, state: State, job: Job, out) -> Gate:
        raise NotImplementedError

    def probe(self, state: State, job: Job, out, ok: bool, tr: Tracer, job_s: float) -> None:
        """Traced run only: time the calls a job makes inside the package."""

    def close(self, state: State) -> None:
        """Release what setup created outside memory."""


class ForwardSweep(Workload):
    name = "forward-sweep"
    why = "compute_spectrum alone at N=4096; core.phi dominates, the inverse is idle"
    #: R: regular job at the small M, L: regular job at the large M, S: stiff share.
    #: With seven R the median falls near the 80th percentile of the R jobs;
    #: with three L and the failing S, the tail percentile (ten jobs beyond
    #: it) falls among the L jobs: mid-way with 4 decks, two thirds with 5.
    DECK = "RRLRRSRLRLR"
    POOL_DECKS = 8
    A_VALUES = (0.0, 0.25, 0.5, 0.75)

    def setup(self, seed, tr, tiny):
        n, (m_small, m_large) = (256, (20, 40)) if tiny else (4096, (200, 800))
        rng = np.random.default_rng(seed)
        xs = inputs.grid(n)
        items, regular, stiff = [], 0, 0
        for _ in range(self.POOL_DECKS):
            for ch in self.DECK:
                if ch == "S":
                    # stratified draw over 30..100, so every run sees the whole range
                    scale = 30.0 + 70.0 * ((stiff % 5) + rng.uniform()) / 5.0
                    f = inputs.stiff_trig(rng, scale)
                    gamma = NON_DEGENERATE_GAMMAS[stiff % 5]
                    a = self.A_VALUES[(stiff // 5) % 4]
                    m, stiff = m_small, stiff + 1
                else:
                    f = inputs.generic_trig(rng)
                    gamma = NON_DEGENERATE_GAMMAS[regular % 5]
                    a = self.A_VALUES[(regular // 5) % 4]
                    m, regular = (m_small if ch == "R" else m_large), regular + 1
                items.append((Potential(f(xs)), FrozenConfig(a=a, gamma=gamma), m))
        jobs = [
            Job("stiff" if ch == "S" else f"m{m}", i, known_defect=ch == "S")
            for i, (ch, (_, _, m)) in enumerate(zip(self.DECK * self.POOL_DECKS, items))
        ]
        return State(jobs=jobs, deck_size=len(self.DECK), data={"items": items})

    def run(self, state, job, tr):
        q, cfg, m = state.data["items"][job.slot]
        try:
            return tr.call("forward.compute_spectrum", compute_spectrum, q, cfg, m)
        except RootIsolationError:
            tr.count("forward.root_failures")
            raise

    def check(self, state, job, out):
        q, cfg, m = state.data["items"][job.slot]
        gate = Gate()
        check_spectrum(out.values, m, q, cfg, gate)
        return gate

    def probe(self, state, job, out, ok, tr, job_s):
        q, cfg, m = state.data["items"][job.slot]
        if out is not None:
            tr.count("forward.eigs_solved", len(out))
            if not ok:
                tr.count("forward.uncertified")
        tr.call("forward.build_w", build_w, q, cfg)
        tr.call("core.phi", phi, complex(PI * m / 2 + 0.25j), q.grid())


class InverseDeep(Workload):
    name = "inverse-deep"
    why = "reconstructions from spectra made in set-up (N=1024, M=NT=800): recover_w dominates"
    #: s: algorithm1 at the small K, l: at the large K, 2: algorithm2, f: isospectral family.
    #: The six cheap jobs (s, 2) hold the median; the two families, the
    #: slowest kind, hold the tail percentile with about twenty per run.
    DECK = "s2lfss2lfs"
    POOL_DECKS = 64
    GENERIC_GAMMAS = (2.0, 0.5 + 0.5j, complex(np.exp(1j * PI / 4)))
    #: relative L2 tolerance per potential family, about 100x the error reached today
    TOL = {"trig": 0.25, "flat": 1e-5, "deg-trig": 0.25, "deg-flat": 1e-4}

    def setup(self, seed, tr, tiny):
        if tiny:
            n, nt, grid, ks, k_deg = 256, 80, 512, (20, 40), 20
        else:
            n, nt, grid, ks, k_deg = 1024, 800, 4096, (200, 400), 200
        rng = np.random.default_rng(seed)
        fine = inputs.grid(grid)
        generic = []
        for i in range(6):
            kind = ("trig", "flat")[i % 2]
            gamma = self.GENERIC_GAMMAS[i % 3]
            a = (0.0, 0.25, 0.5)[(i // 2) % 3]
            f = inputs.generic_trig(rng) if kind == "trig" else inputs.flat_generic(rng, a, gamma)
            generic.append(self._entry(tr, kind, f, a, gamma, n, nt, fine))
        degenerate = []
        for kind, gamma, a in (("trig", 1.0, 0.0), ("flat", 1.0, 0.25),
                               ("trig", -1.0, 0.25), ("flat", -1.0, 0.0)):
            c = complex(0.5 * np.exp(2j * PI * rng.uniform()))
            f, q_a = inputs.degenerate(rng, kind, a, gamma, c)
            entry = self._entry(tr, "deg-" + kind, f, a, gamma, n, nt, fine)
            half = fine[: grid // 2 + 1]
            entry["truth_a"] = q_a(fine)
            true_profile = entry["truth_a"][grid // 2 :: -1]
            other = inputs.random_complex(rng, 2, 0.5)
            entry["op"] = OperatorSpec.scalar(c, 0.5)
            entry["profiles"] = [
                true_profile,
                0.5 * true_profile,
                other[0] * np.sin(PI * half) + other[1] * np.cos(PI * half),
            ]
            degenerate.append(entry)
        jobs, counters = [], {"s": 0, "l": 0, "2": 0, "f": 0}
        for _ in range(self.POOL_DECKS):
            for ch in self.DECK:
                pool = len(generic) if ch in "sl" else len(degenerate)
                kind = {"s": f"alg1-k{ks[0]}", "l": f"alg1-k{ks[1]}", "2": "alg2", "f": "family"}[ch]
                jobs.append(Job(kind, counters[ch] % pool))
                counters[ch] += 1
        data = {"generic": generic, "degenerate": degenerate, "nt": nt, "grid": grid,
                "ks": ks, "k_deg": k_deg, "fine": fine}
        return State(jobs=jobs, deck_size=len(self.DECK), data=data)

    @staticmethod
    def _entry(tr, kind, f, a, gamma, n, nt, fine):
        cfg = FrozenConfig(a=a, gamma=gamma)
        spec = tr.call("forward.compute_spectrum", compute_spectrum,
                       Potential(f(inputs.grid(n))), cfg, nt)
        tr.count("forward.eigs_solved", nt)
        return {"kind": kind, "cfg": cfg, "spec": spec, "truth": f(fine)}

    def _params(self, state, job):
        d = state.data
        if job.kind.startswith("alg1"):
            return d["generic"][job.slot], int(job.kind.split("-k")[1]), 1
        entry = d["degenerate"][job.slot]
        return entry, d["k_deg"], len(entry["profiles"]) if job.kind == "family" else 1

    def run(self, state, job, tr):
        d = state.data
        entry, k, members = self._params(state, job)
        spec, cfg, nt, grid = entry["spec"], entry["cfg"], d["nt"], d["grid"]
        tr.count("inverse.product_factors", members * k * nt)
        if job.kind.startswith("alg1"):
            return tr.call("inverse.algorithm1", algorithm1, spec, cfg, k, nt, grid)
        if job.kind == "alg2":
            return tr.call("inverse.algorithm2", algorithm2, spec, cfg, entry["op"], k, nt, grid)
        return tr.call("inverse.isospectral_family", isospectral_family,
                       spec, cfg, entry["profiles"], k, nt, grid)

    def check(self, state, job, out):
        entry, _, _ = self._params(state, job)
        tol = self.TOL[entry["kind"]]
        gate = Gate()
        if job.kind != "family":
            _reconstruction(gate, out.samples, entry["truth"], tol)
            return gate
        _reconstruction(gate, out[0].samples, entry["truth"], tol)
        gate.require(len(out) == len(entry["profiles"]))
        for member, profile in zip(out, entry["profiles"]):
            expected = self._family_member(entry, profile)
            gate.within(inputs.rel_l2(member.samples, expected), tol)
        return gate

    @staticmethod
    def _family_member(entry, profile):
        """The member for a constant-operator profile, built from the truth.

        Its shifted form takes the profile as q_a(1/2 - x); the right half
        keeps v = gamma w(1/2 - x), so it moves by gamma (p_true - p).
        """
        truth_a, gamma, a = entry["truth_a"], entry["cfg"].gamma, entry["cfg"].a
        half = (len(truth_a) - 1) // 2
        shift = profile - entry["profiles"][0]
        q_a = truth_a.copy()
        q_a[: half + 1] = profile[::-1]
        q_a[half + 1 :] -= gamma * shift[1:]
        return inputs.unshift_samples(q_a, a, gamma)

    def probe(self, state, job, out, ok, tr, job_s):
        d = state.data
        entry, k, members = self._params(state, job)
        spec, nt = entry["spec"], d["nt"]
        t0 = perf_counter()
        w = tr.call("inverse.recover_w", recover_w, spec, k, nt)
        t1 = perf_counter()
        tr.call("forward.sine_evaluate", w.evaluate, d["fine"])
        t2 = perf_counter()
        tr.call("core.reference_lambda_array", reference_lambda_array, nt, spec.alpha)
        tr.call("inverse.delta_from_spectrum", delta_from_spectrum, spec, (PI * (k // 2)) ** 2, nt)
        tr.sample("inverse.s_per_factor", (t1 - t0) / (k * nt))
        per_member = job_s / members
        tr.sample("inverse.solve_self_s", per_member - (t2 - t0))
        if job.kind == "family":
            tr.sample("inverse.family_member_s", per_member)


# The CLI workload's input files are written here, not by frozenhill.io, so
# the inputs do not change when the program's writer does.
def _g(x) -> str:
    return f"{float(x):.17g}"


def _write_potential(path: Path, samples: np.ndarray, a: float) -> None:
    n = len(samples) - 1
    lines = [f"# potential n={n} a={_g(a)} gamma=1,0"]
    lines += [f"{_g(j / n)} {_g(v.real)} {_g(v.imag)}" for j, v in enumerate(samples)]
    path.write_text("\n".join(lines) + "\n")


def _write_constant_op(path: Path, profile: np.ndarray, domain: float) -> None:
    lines = ["kind=constant", f"domain={_g(domain)}", f"count={len(profile)}"]
    lines += [f"{_g(v.real)} {_g(v.imag)}" for v in profile]
    path.write_text("\n".join(lines) + "\n")


def _read_values(path: Path) -> np.ndarray:
    """Complex column pair of a spectrum or potential data file."""
    rows = np.loadtxt(path, comments="#", ndmin=2)
    return rows[:, 1] + 1j * rows[:, 2]


def invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run one frozenhill command in this process and return (exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            cli_main.main(args=args, prog_name="frozenhill", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class TwoSpectraCli(Workload):
    name = "two-spectra-cli"
    why = "CLI commands in-process on files: degenerate forward, growthcheck, inverse2, families"
    module = "frozenhill.cli"
    POOL = 4
    A_VALUES = (0.25, 0.5)
    TOL = 1e-4

    def __init__(self, workdir: Path, src: Path):
        self.workdir = workdir
        self.src = src

    def setup(self, seed, tr, tiny):
        if tr.enabled:
            tr.sample("cli.import_s", cold_import_s(self.src))
        n, m, k = (256, 80, 40) if tiny else (2048, 200, 100)
        rng = np.random.default_rng(seed)
        xs = inputs.grid(n)
        self.workdir.mkdir(parents=True, exist_ok=True)
        entries = []
        for i in range(self.POOL):
            a = self.A_VALUES[i % 2]
            truth = inputs.window_flat(rng, a)(xs)
            j_a = round(a * n)
            pot = self.workdir / f"q{i}.pot"
            _write_potential(pot, truth, a)
            true_profile = truth[j_a::-1]
            other = inputs.random_complex(rng, 1, 0.5)[0]
            profiles = [true_profile, 0.5 * true_profile, other * np.sin(PI * xs[: j_a + 1] / a)]
            ops = []
            for p, profile in enumerate(profiles):
                ops.append(self.workdir / f"p{i}_{p}.op")
                _write_constant_op(ops[-1], profile, a)
            entries.append({"a": a, "truth": truth, "pot": pot, "ops": ops})
        data = {"entries": entries, "n": n, "m": m, "k": k}
        jobs = [Job("cli", i % self.POOL) for i in range(self.POOL)]
        return State(jobs=jobs, deck_size=len(jobs), data=data)

    def _commands(self, state, job):
        d, e, w = state.data, state.data["entries"][job.slot], self.workdir
        a, m, k, n = _g(e["a"]), str(d["m"]), str(d["k"]), str(d["n"])
        pot = str(e["pot"])
        sizes = ["--kterms", k, "--ntrunc", m, "--grid", n]
        ops = [x for op in e["ops"] for x in ("--op", str(op))]
        return [
            ["forward", "--in", pot, "--gamma", "1", "--m", m, "--out", str(w / "s0.spec")],
            ["forward", "--in", pot, "--gamma", "-1", "--m", m, "--out", str(w / "s1.spec")],
            ["forward", "--in", pot, "--a", "0", "--gamma", "1", "--m", m, "--out", str(w / "z0.spec")],
            ["forward", "--in", pot, "--a", "0", "--gamma", "-1", "--m", m, "--out", str(w / "z1.spec")],
            ["growthcheck", "--in", str(w / "s0.spec"), "--in2", str(w / "s1.spec"), "--a", a,
             "--ntrunc", m],
            ["inverse2", "--in", str(w / "s0.spec"), "--in2", str(w / "s1.spec"), "--a", a, *sizes,
             "--op", str(e["ops"][0]), "--out", str(w / "r.pot")],
            ["inverse2", "--in", str(w / "z0.spec"), "--in2", str(w / "z1.spec"), "--a", "0", *sizes,
             "--out", str(w / "r0.pot")],
            ["isobispectral", "--in", str(w / "s0.spec"), "--in2", str(w / "s1.spec"), "--a", a,
             *ops, *sizes, "--out", str(w / "fam")],
        ]

    OUTPUTS = ("s0.spec", "s1.spec", "z0.spec", "z1.spec", "r.pot", "r0.pot",
               "fam.0.pot", "fam.1.pot", "fam.2.pot")

    def run(self, state, job, tr):
        outputs = [self.workdir / name for name in self.OUTPUTS]
        for p in outputs:  # a failed command must not leave the last job's file behind
            p.unlink(missing_ok=True)
        results = []
        for args in self._commands(state, job):
            t0 = perf_counter()
            results.append(tr.call(f"cli.{args[0]}", invoke_cli, args) + (perf_counter() - t0,))
        m, k = state.data["m"], state.data["k"]
        members = len(state.data["entries"][job.slot]["ops"])
        # growthcheck: two products at NT points; inverse2 twice and each member: two kernels
        tr.count("inverse.product_factors", 2 * m * m + (2 + members) * 2 * k * m)
        tr.count("io.bytes_written", sum(p.stat().st_size for p in outputs if p.exists()))
        return results

    def check(self, state, job, out):
        e, w = state.data["entries"][job.slot], self.workdir
        gate = Gate()
        gate.require(all(code == 0 for code, _, _ in out))
        gate.require("[PASS]" in out[4][1])
        if not gate.ok:
            return gate
        q = Potential(e["truth"])
        for name, a, gamma in (("s0", e["a"], 1.0), ("s1", e["a"], -1.0),
                               ("z0", 0.0, 1.0), ("z1", 0.0, -1.0)):
            check_spectrum(_read_values(w / f"{name}.spec"), state.data["m"], q,
                           FrozenConfig(a=a, gamma=gamma), gate)
        for name in ("r.pot", "r0.pot", "fam.0.pot"):
            _reconstruction(gate, _read_values(w / name), e["truth"], self.TOL)
        gate.require(all((w / f"fam.{i}.pot").exists() for i in range(len(e["ops"]))))
        return gate

    def probe(self, state, job, out, ok, tr, job_s):
        """Re-run each command's library calls directly to split library from CLI time."""
        d, e, w = state.data, state.data["entries"][job.slot], self.workdir
        m, k, n, a = d["m"], d["k"], d["n"], e["a"]
        scratch = w / "probe.out"

        def timed(fn):
            t0 = perf_counter()
            try:
                fn()
            except FrozenHillError:  # the command met the same error
                return None
            return perf_counter() - t0

        def forward_lib(a_, gamma):
            q, cfg = tr.call("io.read_potential", fio.read_potential, e["pot"])
            cfg = FrozenConfig(a=cfg.a if a_ is None else a_, gamma=gamma)
            spec = tr.call("forward.compute_spectrum", compute_spectrum, q, cfg, m)
            tr.count("forward.eigs_solved", len(spec))
            tr.call("forward.verify_asymptotics", verify_asymptotics, spec)
            tr.call("io.write_spectrum", fio.write_spectrum, scratch, spec)

        def pair(x, y, a_):
            s0 = tr.call("io.read_spectrum", fio.read_spectrum, w / x, a=a_)
            s1 = tr.call("io.read_spectrum", fio.read_spectrum, w / y, a=a_)
            return TwoSpectra(spec0=s0, spec1=s1, a=a_)

        def growth_lib():
            tr.call("inverse.check_growth", check_growth, pair("s0.spec", "s1.spec", a), m)

        def inverse2_lib():
            two = pair("s0.spec", "s1.spec", a)
            p_op = tr.call("io.read_operator", fio.read_operator, e["ops"][0])
            q = tr.call("inverse.algorithm4", algorithm4, two, p_op, k, m, n)
            tr.call("io.write_potential", fio.write_potential, scratch, q,
                    FrozenConfig(a=a, gamma=1.0))

        def inverse2_end():
            q = tr.call("inverse.algorithm3", algorithm3, pair("z0.spec", "z1.spec", 0.0), k, m, n)
            tr.call("io.write_potential", fio.write_potential, scratch, q,
                    FrozenConfig(a=0.0, gamma=1.0))

        def family_lib():
            two = pair("s0.spec", "s1.spec", a)
            profiles = [tr.call("io.read_operator", fio.read_operator, p).profile for p in e["ops"]]
            t0 = perf_counter()
            members = tr.call("inverse.isobispectral_family", isobispectral_family,
                              two, profiles, k, m, n)
            tr.sample("inverse.family_member_s", (perf_counter() - t0) / len(members))
            for member in members:
                tr.call("io.write_potential", fio.write_potential, scratch, member,
                        FrozenConfig(a=a, gamma=1.0))

        libs = [
            lambda: forward_lib(None, 1.0), lambda: forward_lib(None, -1.0),
            lambda: forward_lib(0.0, 1.0), lambda: forward_lib(0.0, -1.0),
            growth_lib, inverse2_lib, inverse2_end, family_lib,
        ]
        for (_, _, cmd_s), lib in zip(out, libs):
            lib_s = timed(lib)
            if lib_s is not None:
                tr.sample("cli.overhead_s", cmd_s - lib_s)
        spec = fio.read_spectrum(w / "s0.spec", a=a)
        t0 = perf_counter()
        wk = tr.call("inverse.recover_w", recover_w, spec, k, m)
        tr.sample("inverse.s_per_factor", (perf_counter() - t0) / (k * m))
        tr.call("forward.sine_evaluate", wk.evaluate, inputs.grid(n))
        tr.call("core.reference_lambda_array", reference_lambda_array, m, spec.alpha)
        tr.call("inverse.delta_from_spectrum", delta_from_spectrum, spec, (PI * (k // 2)) ** 2, m)
        scratch.unlink(missing_ok=True)

    def close(self, state):
        if self.workdir.exists():
            for p in self.workdir.iterdir():
                p.unlink()
            self.workdir.rmdir()
        with contextlib.suppress(OSError):  # shared with concurrent runs, so only if empty
            self.workdir.parent.rmdir()


def cold_import_s(src: Path, module: str = "frozenhill.cli", repeats: int = 3) -> float:
    """Median wall time of starting a fresh interpreter that imports `module`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True,
                       timeout=60)
        times.append(perf_counter() - t0)
    return float(np.median(times))


class Diagnostics(Workload):
    name = "diagnostics"
    why = "two Delta routes at random lambda plus Gram frame bounds: only load for basis and det"
    GAMMAS = (2.0, 0.5 + 0.5j, 1.0, -1.0)
    BASIS_GAMMAS = (2.0, 0.5 + 0.5j, complex(np.exp(1j * PI / 4)))
    POOL = 12
    DECK_SIZE = 4
    ROUTE_TOL = 1e-7

    def setup(self, seed, tr, tiny):
        n, n_lam, n_half = (256, 10, 16) if tiny else (2048, 200, 256)
        rng = np.random.default_rng(seed)
        xs = inputs.grid(n)
        entries = []
        for i in range(self.POOL):
            q = Potential(inputs.generic_trig(rng)(xs))
            cfg = FrozenConfig(a=(0.0, 0.25, 0.5)[i % 3], gamma=self.GAMMAS[i % 4])
            r = 200.0 * np.sqrt(rng.uniform(size=n_lam))
            lams = r * np.exp(2j * PI * rng.uniform(size=n_lam))
            alpha = compute_alpha(self.BASIS_GAMMAS[i % 3]).alpha
            entries.append({"q": q, "cfg": cfg, "lams": lams, "alpha": alpha})
        sizes = [s for s in (4, 8, 16, 32, 64, 128, 256) if s <= n_half]
        data = {"entries": entries, "sizes": sizes, "n_half": n_half}
        jobs = [Job("diag", i) for i in range(self.POOL)]
        return State(jobs=jobs, deck_size=self.DECK_SIZE, data=data)

    def run(self, state, job, tr):
        e, d = state.data["entries"][job.slot], state.data
        q, cfg = e["q"], e["cfg"]
        w = tr.call("forward.build_w", build_w, q, cfg)
        pairs = [
            (tr.call("forward.eval_delta_det", eval_delta_det, lam, q, cfg),
             tr.call("forward.eval_delta_fundrep", eval_delta_fundrep, lam, w, cfg.gamma))
            for lam in e["lams"]
        ]
        report = tr.call("basis.riesz_report", riesz_report, e["alpha"], d["sizes"])
        tr.call("basis.gram_matrix", gram_matrix, e["alpha"], d["n_half"], cross_check=True)
        tr.sample("basis.gram_dim", 2 * d["n_half"] + 1)
        return pairs, report

    def check(self, state, job, out):
        pairs, report = out
        gate = Gate()
        gap = max(abs(det - rep) / (1.0 + abs(det)) for det, rep in pairs)
        gate.within(gap, self.ROUTE_TOL)
        gate.note("route_gap_log10", math.log10(max(gap, 1e-300)))
        gate.require(report.lower_nonincreasing and report.upper_nondecreasing)
        return gate

    def probe(self, state, job, out, ok, tr, job_s):
        e, d = state.data["entries"][job.slot], state.data
        tr.call("basis.frame_bounds", frame_bounds, e["alpha"], d["n_half"])


def make(name: str, workdir: Path, src: Path) -> Workload:
    table = {
        ForwardSweep.name: ForwardSweep,
        InverseDeep.name: InverseDeep,
        TwoSpectraCli.name: lambda: TwoSpectraCli(workdir, src),
        Diagnostics.name: Diagnostics,
    }
    return table[name]()

