"""Run-to-run spread of the end-to-end metrics, over two sets of ten seeds.

    python3 perfbench/steadiness.py

Runs every workload once per seed, one process at a time: first seeds 1-10
(set_a), then seeds 11-20 (set_b).  For each set, workload and end-to-end
metric it records the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json.  The timed metrics are reported scaled to reference host
speed; their raw values get the same summary under "raw", so the two spreads
can be compared.  "b_against_a" gives, for every metric, how much worse the
median of set_b is than that of set_a.  Everything is written to
perfbench/steadiness.json and a table is printed.  Takes about an hour.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETS = {"set_a": range(1, 11), "set_b": range(11, 21)}


def run_once(command, workload, seed, seconds) -> tuple[dict, dict]:
    """The result line and the run record of one plain run."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(x[len("record "):]) for x in lines if x.startswith("record "))
    return json.loads(lines[-1]), record


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med), "values": values}


def measure_set(bench: dict, seeds) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = {}
    for w in bench["workloads"]:
        runs = []
        for seed in seeds:
            t0 = perf_counter()
            runs.append(run_once(bench["command"], w["name"], seed, bench["run_seconds"]))
            result = runs[-1][0]
            print(f"{w['name']} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall {perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
        table[w["name"]] = {"correct": all(result["correct"] for result, _ in runs)}
        for metric, bound in bounds.items():
            s = summarise([result["metrics"][metric]["value"] for result, _ in runs])
            s["bound"] = bound
            raw = [record["report"].get(f"raw {metric}") for _, record in runs]
            if None not in raw:
                s["raw"] = summarise(raw)
            table[w["name"]][metric] = s
    return table


def compare(bench: dict, a: dict, b: dict) -> dict:
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = {}
    for w, metrics in a.items():
        out[w] = {}
        for m, bound in ((m["name"], m["bound"]) for m in bench["end_to_end"]):
            ma, mb = metrics[m]["median"], b[w][m]["median"]
            worse = (mb - ma) / ma if better[m] == "lower" else (ma - mb) / ma
            out[w][m] = {"median_a": ma, "median_b": mb, "b_worse_by": worse,
                         "within_bound": worse <= bound}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = {name: measure_set(bench, seeds) for name, seeds in SETS.items()}
    cmp = compare(bench, sets["set_a"], sets["set_b"])
    about = ("Two ten-seed sets of the same code, run one after the other with "
             "python3 perfbench/steadiness.py: set_a is seeds 1-10, set_b seeds 11-20. "
             "spread = (Q3 - Q1) / median; raw = the timed metric before host-speed scaling.")
    (ROOT / "perfbench" / "steadiness.json").write_text(
        json.dumps({"about": about, **sets, "b_against_a": cmp}, indent=1) + "\n")
    for w, metrics in cmp.items():
        for m, c in metrics.items():
            sa, sb = sets["set_a"][w][m], sets["set_b"][w][m]
            raw = (f"  raw {sa['raw']['spread']:.3f}/{sb['raw']['spread']:.3f}"
                   if "raw" in sa else "")
            print(f"{w:>16} {m:>14}: spread {sa['spread']:.3f}/{sb['spread']:.3f}{raw}  "
                  f"bound {sa['bound']}  b worse by {c['b_worse_by']:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
