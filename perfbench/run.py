"""frozenhill benchmark: one workload, one seed, one closed-loop client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload forward-sweep --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout and nothing else;
without it the benchmark exits with code 2.  The process caps its own BLAS
threads at the number of CPUs it may run on.  Set-up time is the median time
a fresh interpreter takes to import the package, plus the median of five
set-ups (input generation, precomputed spectra and one untimed warm-up job).
Then jobs run one at a time, deck by deck, until ``--seconds`` of job time
has been measured.  Every job's output goes through the workload's
correctness gate.  The timed end-to-end metrics are scaled to a reference
host speed around each job and over set-up (see HostSpeed); raw values are
printed and recorded too.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` every job runs twice, once plain
and once inside spans, and the result holds the per-layer metrics and the
tracing overhead.  A run record and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from tracing import JOB_LAYERS, Tracer

T_START = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_tmp"

#: set-ups per run, and fresh-interpreter imports per run; set-up time is the median of each
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
#: no job starts after this many seconds of wall time, so a run ends inside 180 s
WALL_LIMIT_S = 140.0
#: jobs that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: value reported for a percentile that falls on failed jobs (slower than any limit)
FAILED_JOB_S = 1e9
#: host-kernel time that the timed end-to-end metrics are scaled to (see HostSpeed)
REFERENCE_KERNEL_S = 0.008
#: the host kernel runs after a job once this much time has passed since its last run
HOST_SAMPLE_EVERY_S = 0.25

WORKLOAD_NAMES = ("forward-sweep", "inverse-deep", "two-spectra-cli", "diagnostics")

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "pass_frac": "frac",
    "margin_digits": "digits",
    "peak_rss_mb": "MB",
}

#: per-layer metrics that are the median duration of one kind of span
SPAN_MEDIANS = {
    "core.phi_grid_s": "core.phi",
    "core.reference_lambda_array_s": "core.reference_lambda_array",
    "forward.compute_spectrum_s": "forward.compute_spectrum",
    "forward.build_w_s": "forward.build_w",
    "forward.sine_evaluate_s": "forward.sine_evaluate",
    "forward.eval_delta_det_s": "forward.eval_delta_det",
    "forward.eval_delta_fundrep_s": "forward.eval_delta_fundrep",
    "inverse.delta_from_spectrum_s": "inverse.delta_from_spectrum",
    "inverse.recover_w_s": "inverse.recover_w",
    "inverse.algorithm1_s": "inverse.algorithm1",
    "inverse.algorithm2_s": "inverse.algorithm2",
    "inverse.algorithm3_s": "inverse.algorithm3",
    "inverse.algorithm4_s": "inverse.algorithm4",
    "inverse.check_growth_s": "inverse.check_growth",
    "basis.gram_matrix_s": "basis.gram_matrix",
    "basis.frame_bounds_s": "basis.frame_bounds",
    "basis.riesz_report_s": "basis.riesz_report",
    "cli.forward_s": "cli.forward",
    "cli.growthcheck_s": "cli.growthcheck",
    "cli.inverse2_s": "cli.inverse2",
    "cli.isobispectral_s": "cli.isobispectral",
}
#: per-layer metrics that are the median of a value derived per job
SAMPLE_MEDIANS = (
    "inverse.s_per_factor",
    "inverse.solve_self_s",
    "inverse.family_member_s",
    "cli.overhead_s",
    "cli.import_s",
    "basis.gram_dim",
)
COUNTS = (
    "forward.eigs_solved",
    "forward.root_failures",
    "forward.uncertified",
    "inverse.product_factors",
    "io.bytes_written",
)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_MEDIANS}
    units.update({name: "s" for name in SAMPLE_MEDIANS})
    units.update({name: "count" for name in COUNTS})
    units.update({
        "basis.gram_dim": "count",
        "forward.s_per_eig": "s",
        "io.read_s": "s",
        "io.write_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "bench.jobs": "count",
    })
    for layer in JOB_LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes for the benchmark's self-test, not for measurement")
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Limit this process's BLAS pools to the CPUs it may use; numpy is not loaded yet."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, nproc: int, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


class HostSpeed:
    """How fast the shared host runs around each job, from a fixed kernel.

    The 2-CPU hosts this benchmark runs on change speed by 20% and more
    within a run and from one run to the next, uniformly over all job kinds.
    The kernel mixes the jobs' kinds of work (complex sin and dot on a grid,
    a real sin table, scalar Python arithmetic) and never calls frozenhill,
    so a change to the program cannot move it.  It holds no threaded BLAS or
    LAPACK call: a 200x200 eigvalsh on two threads ran 2 ms on a quiet host
    and 40 ms when a neighbour held a CPU, while the jobs barely slowed.  It
    runs between jobs, outside job times, and between set-ups.
    A job's time is scaled by REFERENCE_KERNEL_S / (median of the NEAREST
    kernel times closest to the job); set-up time by the same ratio over the
    kernel times taken during set-up.  On five seeds of diagnostics this
    local factor cut the spread of job_p50_s from 0.095 (raw) and 0.063 (one
    factor per run) to 0.027, and on forward-sweep the spread of jobs_per_s
    from 0.052 and 0.037 to 0.006.  steadiness.json holds raw and scaled
    spreads side by side.
    """

    #: kernel times that a job's factor is taken from
    NEAREST = 4

    def __init__(self, np):
        rng = np.random.default_rng(12345)
        self.np = np
        self.z = rng.uniform(-3, 3, 4097) + 1j * rng.uniform(-1, 1, 4097)
        self.xs = np.linspace(0.0, 1.0, 1025)
        self.ks = np.arange(1, 101) * np.pi
        #: (start on the perf_counter clock, kernel seconds)
        self.samples: list[tuple[float, float]] = []
        self.last = perf_counter()

    def sample(self) -> None:
        np = self.np
        t0 = perf_counter()
        for _ in range(10):
            np.dot(np.sin(self.z), self.z)
        np.sin(np.multiply.outer(self.xs, self.ks)).sum()
        acc = 0j
        for k in range(3000):
            acc += complex(k, 1.0) / (k + 1.5j)
        self.last = perf_counter()
        self.samples.append((t0, self.last - t0))

    def sample_if_due(self) -> None:
        if perf_counter() - self.last >= HOST_SAMPLE_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a time measured from t0 to t1: the kernel times inside it,
        or the NEAREST ones to its middle when fewer lie inside."""
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        if len(inside) < self.NEAREST:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda tk: abs(tk[0] - mid))[: self.NEAREST]
            inside = [k for _, k in near]
        return REFERENCE_KERNEL_S / statistics.median(inside)

    def median_kernel_s(self) -> float:
        return statistics.median(k for _, k in self.samples)


def tail_percentile(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND jobs beyond it, and its value."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND
    return 100.0 * k / n, ordered[k - 1]


def finite(value: float) -> float:
    return FAILED_JOB_S if math.isinf(value) else value


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (SRC / "frozenhill" / "__init__.py").is_file():
        print(f"error: no frozenhill sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import frozenhill
    import workloads

    if Path(frozenhill.__file__).resolve().parent != SRC / "frozenhill":
        print(f"error: frozenhill imported from {frozenhill.__file__}", file=sys.stderr)
        return 2

    traced = args.trace == 1
    tr = Tracer(traced)
    off = Tracer(False)
    wl = workloads.make(args.workload, WORK_DIR / str(os.getpid()), SRC)
    record = run_record(args, nproc, np)
    host = HostSpeed(np)
    host.sample()  # first BLAS call
    host.samples.clear()
    state = None
    try:
        setup_start = perf_counter()
        host.sample()
        import_s = workloads.cold_import_s(SRC, wl.module, IMPORT_REPEATS)
        host.sample()
        setups = []
        for rep in range(SETUP_REPEATS):
            if state is not None:
                wl.close(state)
            t0 = perf_counter()
            # trace only the last repetition, whose state the jobs use
            tr.job = "setup"
            state = wl.setup(args.seed, tr if rep == SETUP_REPEATS - 1 else off, args.tiny)
            warm = state.jobs[0]
            try:
                wl.check(state, warm, wl.run(state, warm, off))
            except Exception:  # the measured jobs count and report this failure
                pass
            setups.append(perf_counter() - t0)
            host.sample()
        setup_factor = host.factor(setup_start, perf_counter())
        jobs = measure(wl, state, args.seconds, tr, off, traced, host)
    finally:
        if state is not None:
            wl.close(state)

    raw_setup_s = import_s + statistics.median(setups)
    for j in jobs:
        j["scaled_seconds"] = j["seconds"] * host.factor(j["start"], j["start"] + j["seconds"])
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    if traced:
        metrics = layer_metrics(tr, jobs)
        tr.write(OUT_DIR / f"{stem}_spans.json")
        report = {}
    else:
        metrics, report = end_to_end_metrics(jobs, raw_setup_s, setup_factor)
    attempted = len(jobs)
    failed = sum(1 for j in jobs if not j["ok"])
    correct = all(j["ok"] or j["known_defect"] for j in jobs)

    print(f"workload {args.workload}: {wl.why}")
    print(f"raw set-up {raw_setup_s:.4f} s (cold import of {wl.module} {import_s:.4f} s, median "
          f"of {SETUP_REPEATS} set-ups {', '.join(f'{s:.3f}' for s in setups)} s); host kernel "
          f"median {host.median_kernel_s() * 1e3:.3f} ms over {len(host.samples)} runs, "
          f"set-up time factor {setup_factor:.4f}")
    for kind in sorted({j["kind"] for j in jobs}):
        group = [j for j in jobs if j["kind"] == kind]
        ok = [j["seconds"] for j in group if j["ok"]]
        med = f"{statistics.median(ok):.4f} s" if ok else "-"
        print(f"  {kind:>12}: {len(group)} jobs, {len(group) - len(ok)} failed, median {med}")
    errors = sorted({j["error"] for j in jobs if j["error"]})
    for err in errors[:5]:
        print(f"  error: {err}")
    for name, value in report.items():
        print(f"  {name} = {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    record["setup"] = {"cold_import_s": import_s, "setups_s": setups, "factor": setup_factor}
    record["host_kernel_s"] = host.samples
    record["report"] = report
    print("record " + json.dumps(record))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"record": record, "result": result, "jobs": jobs}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def measure(wl, state, seconds: float, tr, off, traced: bool, host) -> list[dict]:
    """Closed loop, one client: whole decks of jobs until `seconds` of job time."""
    deadline = T_START + WALL_LIMIT_S
    jobs, timed, pos = [], 0.0, 0

    def once(tracer, job, tag):
        tracer.job = tag
        with tracer.span("bench.job"):
            t0 = perf_counter()
            try:
                out, err = wl.run(state, job, tracer), None
            except Exception as exc:  # a failed job, not a failed benchmark
                out, err = None, f"{type(exc).__name__}: {exc}"
            return out, err, t0, perf_counter() - t0

    while True:
        for _ in range(state.deck_size):
            if perf_counter() > deadline:
                break
            job = state.jobs[pos % len(state.jobs)]
            tag = f"{pos}:{job.kind}"
            plain_s = None
            if traced and pos % 2 == 0:
                plain_s = once(off, job, tag)[3]
            out, err, start, job_s = once(tr, job, tag)
            if traced and plain_s is None:
                plain_s = once(off, job, tag)[3]
            gate = None
            if err is None:
                try:
                    gate = wl.check(state, job, out)
                except Exception as exc:
                    err = f"check: {type(exc).__name__}: {exc}"
            ok = gate is not None and gate.ok
            if traced:
                tr.job = tag
                with tr.span("bench.probe"):
                    wl.probe(state, job, out, ok, tr, job_s)
            jobs.append({
                "kind": job.kind,
                "known_defect": job.known_defect,
                "seconds": job_s,
                "start": start,
                "plain_seconds": plain_s,
                "ok": ok,
                "margin": gate.margin if ok else None,
                "acc": gate.acc if gate is not None else {},
                "error": err,
            })
            timed += job_s + (plain_s or 0.0)
            pos += 1
            host.sample_if_due()
        if timed >= seconds or perf_counter() > deadline:
            return jobs


def end_to_end_metrics(jobs: list[dict], raw_setup_s: float, setup_factor: float):
    """End-to-end metrics with times scaled to reference host speed, and a raw report."""
    passed = [j for j in jobs if j["ok"]]

    def timing(key):
        times = [j[key] if j["ok"] else math.inf for j in jobs]
        pct, tail = tail_percentile(times)
        return statistics.median(times), tail, pct, len(passed) / sum(j[key] for j in jobs)

    p50, tail, pct, rate = timing("scaled_seconds")
    raw_p50, raw_tail, _, raw_rate = timing("seconds")
    margins = [j["margin"] for j in passed]
    values = {
        "setup_s": raw_setup_s * setup_factor,
        "job_p50_s": finite(p50),
        "job_tail_s": finite(tail),
        "jobs_per_s": rate,
        "pass_frac": len(passed) / len(jobs),
        "margin_digits": statistics.fmean(margins) if margins else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def pooled(key):
        return [v for j in passed for v in j["acc"].get(key, [])]

    report = {
        "job_tail_percentile": round(pct, 2),
        "jobs": len(jobs),
        "fail_frac": 1.0 - len(passed) / len(jobs),
        "raw setup_s": raw_setup_s,
        "raw job_p50_s": finite(raw_p50),
        "raw job_tail_s": finite(raw_tail),
        "raw jobs_per_s": raw_rate,
    }
    if pooled("resid_log10"):
        report["resid_log10 (worst, passing spectra)"] = max(pooled("resid_log10"))
    if pooled("rec_err_log10"):
        report["rec_err_log10 (median)"] = statistics.median(pooled("rec_err_log10"))
    if pooled("route_gap_log10"):
        report["route_gap_log10 (worst)"] = max(pooled("route_gap_log10"))
    return metrics, report


def layer_metrics(tr, jobs: list[dict]) -> dict:
    units = per_layer_units()
    values = {}

    def median_or_zero(xs):
        return float(statistics.median(xs)) if xs else 0.0

    for name, span in SPAN_MEDIANS.items():
        values[name] = median_or_zero(tr.durations(span))
    for name in SAMPLE_MEDIANS:
        values[name] = median_or_zero(tr.samples.get(name, []))
    for name in COUNTS:
        values[name] = float(tr.counts.get(name, 0))
    solves = tr.durations("forward.compute_spectrum")
    eigs = tr.counts.get("forward.eigs_solved", 0)
    values["forward.s_per_eig"] = sum(solves) / eigs if eigs else 0.0
    reads = [s["end"] - s["start"] for s in tr.spans if s["name"].startswith("io.read_")]
    writes = [s["end"] - s["start"] for s in tr.spans if s["name"].startswith("io.write_")]
    values["io.read_s"] = median_or_zero(reads)
    values["io.write_s"] = median_or_zero(writes)
    for layer, (self_s, calls) in tr.layer_totals().items():
        values[f"{layer}.self_s"] = self_s / len(jobs)
        values[f"{layer}.calls"] = float(calls)
    values["trace.overhead_s"] = statistics.median(
        j["seconds"] - j["plain_seconds"] for j in jobs)
    values["trace.spans"] = float(len(tr.spans))
    values["bench.jobs"] = float(len(jobs))
    return {name: {"value": values[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())
