"""Self-test of the benchmark itself (not of frozenhill).

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, plain and traced, prints every metric
   named in BENCHMARK.json with its unit and nothing else.
2. The correctness gate bites: a spectrum with one nudged eigenvalue, a
   spectrum with its last eigenvalue dropped, and a reconstruction made with
   the wrong frozen point each count as failed jobs, while the same jobs
   pass untouched.
3. A failed job sorts after every finished one in the percentiles.
4. Without ``src/`` next to it the benchmark exits non-zero and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
run.cap_blas_threads()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
from frozenhill import FrozenConfig, Spectrum, algorithm1  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def bench_cmd(workload: str, trace: int, cwd: Path, tiny=True) -> subprocess.CompletedProcess:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(args + (["--tiny"] if tiny else []), cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def check_tiny_runs(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            proc = bench_cmd(w["name"], trace, ROOT)
            if proc.returncode != 0:
                expect(False, f"{w['name']} trace {trace}: exit {proc.returncode}: {proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            numbers = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                          for v in result["metrics"].values())
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and got == wanted and numbers and result["attempted"] >= 1,
                   f"{w['name']} trace {trace}: every {key} metric with its unit")


def one_deck(wl, state) -> list[dict]:
    off = Tracer(False)
    return run.measure(wl, state, 0.0, off, off, traced=False, host=run.HostSpeed(np))


class NudgedForward(workloads.ForwardSweep):
    """Moves one eigenvalue by one part in a million."""

    def run(self, state, job, tr):
        spec = super().run(state, job, tr)
        values = spec.values.copy()
        values[len(values) // 2] *= 1.0 + 1e-6
        return Spectrum(values=values, config=spec.config, alpha=spec.alpha)


class TruncatedForward(workloads.ForwardSweep):
    """Drops the last eigenvalue, as a solver that skipped an uncertified root would."""

    def run(self, state, job, tr):
        spec = super().run(state, job, tr)
        return Spectrum(values=spec.values[:-1], config=spec.config, alpha=spec.alpha)


class WrongA(workloads.InverseDeep):
    """Reconstructs algorithm1 jobs with a frozen point that is not the spectrum's."""

    def run(self, state, job, tr):
        if not job.kind.startswith("alg1"):
            return super().run(state, job, tr)
        entry, k, _ = self._params(state, job)
        a = entry["cfg"].a
        wrong = FrozenConfig(a=0.25 if a == 0.5 else 0.5, gamma=entry["cfg"].gamma)
        return algorithm1(entry["spec"], wrong, k, state.data["nt"], state.data["grid"])


def check_gate_bites() -> None:
    off = Tracer(False)
    for clean, broken, sabotaged in (
        (workloads.ForwardSweep(), NudgedForward(), lambda j: not j.known_defect),
        (workloads.ForwardSweep(), TruncatedForward(), lambda j: not j.known_defect),
        (workloads.InverseDeep(), WrongA(), lambda j: j.kind.startswith("alg1")),
    ):
        state = clean.setup(3, off, tiny=False)
        pairs = list(zip(state.jobs, one_deck(clean, state), one_deck(broken, state)))
        hit = [(g["ok"], b["ok"]) for job, g, b in pairs if sabotaged(job)]
        rest = [(g["ok"], b["ok"]) for job, g, b in pairs if not sabotaged(job)]
        expect(bool(hit) and all(g and not b for g, b in hit),
               f"{type(broken).__name__}: {len(hit)} sabotaged jobs pass clean and fail sabotaged")
        expect(all(g == b for g, b in rest),
               f"{type(broken).__name__}: the other jobs keep their verdict")


def check_failed_sort_last() -> None:
    times = [0.1] * 30 + [math.inf] * 10 + [0.5]
    pct, tail = run.tail_percentile(times)
    expect(tail == 0.5 and abs(pct - 100 * 31 / 41) < 1e-9,
           "failed jobs sort after the slowest finished job")


def check_no_sources() -> None:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_cmd("forward-sweep", 0, bare, tiny=False)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without src/ the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tiny_runs(bench)
    check_gate_bites()
    check_failed_sort_last()
    check_no_sources()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
