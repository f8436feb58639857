"""Tolerance mutation check: does tier-1 notice when one constant moves?

Each mutant scales one module-level constant of ``src/frozenhill`` by a
factor, in a copy of the source tree in a temporary directory, and runs the
tier-1 tests there with ``-x``.  A mutant is *killed* when a test fails and
*survives* when all pass; a surviving tolerance is one no test pins.  The
unmutated copy runs first and must pass, or no verdict means anything.

    python3 tools/mutate_tolerances.py                      # every mutant
    python3 tools/mutate_tolerances.py _SINGULAR_TOL SNAP_TOL

Exit status: 0 when every chosen mutant is killed, 1 when one survives, 2
when the unmutated copy fails.  Standard library only.  It takes about as
long as one tier-1 run per mutant, so CI runs it only on the constants of
the forward root search; add a row to MUTANTS for every new tolerance.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (module under src/frozenhill, constant, factor); an integer constant is rounded
MUTANTS = [
    ("forward", "PAIR_GAP", 1e-3),
    ("forward", "WINDOW_RADIUS", 2.0),
    ("forward", "NEWTON_MAX_ITER", 0.16),
    ("forward", "_ROUNDING_SLACK", 0.0),
    ("forward", "_EXP_KERNEL_MIN_RHO", 0.1),
    ("inverse", "_COLLISION_RTOL", 1e-2),
    ("inverse", "_DEGENERATION_RTOL", 1e4),
    ("inverse", "_SINGULAR_TOL", 1e-4),
    ("inverse", "_CONSISTENCY_TOL", 1e3),
    ("io", "_A_MATCH_TOL", 1e6),
    ("io", "_X_MATCH_TOL", 1e6),
    ("io", "_ALPHA_MATCH_RTOL", 1e8),
    ("core", "SNAP_TOL", 1e5),
    ("basis", "_QUAD_CHECK_TOL", 1e8),
]

#: what the copy leaves out: history, caches and benchmark output
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
    ".perfbench_out", ".perfbench_tmp",
)


def mutate(source: str, name: str, factor: float) -> tuple[str, str, str]:
    """source with `name = expr` scaled by factor, plus the old and new right-hand sides."""
    pattern = re.compile(rf"^{re.escape(name)} = ([^#\n]*[^#\s])", re.MULTILINE)
    found = pattern.findall(source)
    if len(found) != 1:
        raise SystemExit(f"{name}: expected one module-level assignment, found {len(found)}")
    old = found[0]
    new = f"({old}) * {factor!r}"
    if re.fullmatch(r"\d+", old):
        new = str(round(int(old) * factor))
    return pattern.sub(lambda _: f"{name} = {new}", source), old, new


def run_tests(tree: Path) -> tuple[bool, str]:
    """Tier-1 with -x in tree: (passed, the first failure's summary line)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines() or [""]
    first = next((ln for ln in lines if ln.startswith(("FAILED", "ERROR"))), lines[-1])
    return proc.returncode == 0, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="constants to mutate (default: all)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m[1] in args.names]
    unknown = set(args.names) - {m[1] for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant for {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        passed, summary = run_tests(tree)
        if not passed:
            print(f"unmutated tree fails, no verdicts: {summary}")
            return 2
        survivors = 0
        for module, name, factor in chosen:
            path = tree / "src" / "frozenhill" / f"{module}.py"
            original = path.read_text()
            mutated, old, new = mutate(original, name, factor)
            path.write_text(mutated)
            try:
                passed, summary = run_tests(tree)
            finally:
                path.write_text(original)
            survivors += passed
            verdict = "survived" if passed else f"killed   {summary}"
            print(f"{module}.{name}: {old} -> {new}: {verdict}", flush=True)
        print(f"{len(chosen) - survivors} killed, {survivors} survived of {len(chosen)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
