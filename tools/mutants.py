"""Mutation gate: break one line of the package on a copy of the repository
and check that the tests named for it then fail.

Each entry names a file, the exact text to replace (it must occur once), the
mutated text and the test file or node id that must kill the mutant.  The
tool copies the repository to a temporary directory, runs every target once
unmutated (a target that fails there kills nothing), then for each mutant
patches the copy, runs ``python -m pytest -x -q TARGET`` and restores the file.

Run from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

Exit status 0 when every mutant is killed; 1 when one survives, its old text
is missing or ambiguous, or a target fails unmutated.  New mutants are added
to MUTANTS, not only described elsewhere.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

# name: (file, old text, new text, target)
MUTANTS = {
    "power-plus-one-dropped": (
        "src/decycling/bounds.py",
        "return report.window_bound + 1\n",
        "return report.window_bound\n",
        "tests/test_bounds.py"),
    "power-plus-one-at-k-1": (
        "src/decycling/bounds.py",
        "spec.n % (spec.power + 1) == 0",
        "spec.n % (spec.power + 1) == 1",
        "tests/test_bounds.py"),
    "pow2-tags-swapped": (
        "src/decycling/bounds.py",
        '"ceil((n+1)/3), n = 1 mod 3",\n           "ceil((n+1)/3)+1, n = 2 mod 3"',
        '"ceil((n+1)/3)+1, n = 2 mod 3",\n           "ceil((n+1)/3), n = 1 mod 3"',
        "tests/test_bounds.py"),
    "forced-pair-tries-v-first": (
        "src/decycling/solver.py",
        "forced = (v,) if v in nbrs else (*nbrs, v)",
        "forced = (v,) if v in nbrs else (v, *nbrs)",
        "tests/test_solver.py"),
    "forced-pick-k-guard-dropped": (
        "src/decycling/solver.py",
        "if pick is None or k <= 0:",
        "if pick is None:",
        # The whole file hangs: min_fvs_exact keeps asking below an oversized set.
        "tests/test_solver.py::test_reduction_forces_one_end_of_a_parallel_pair"),
    "clique-prune-subtracts-1": (
        "src/decycling/solver.py",
        "sum(map(adj.__contains__, q)) - 2)",
        "sum(map(adj.__contains__, q)) - 1)",
        "tests/test_solver.py"),
    "rank-refutation-keeps-blocked-gains": (
        "src/decycling/solver.py",
        "            gains.remove(gain)\n",
        "",
        "tests/test_solver.py::test_parent_side_rank_refutation_node_counts"),
    "rank-refutation-counts-own-gain-twice": (
        "src/decycling/solver.py",
        "gain + sum(top) - max(gain, top[-1])",
        "gain + sum(gains[:k - 1])",
        "tests/test_solver.py::test_parent_side_rank_refutation_node_counts"),
    "rank-refutation-on-equality": (
        "src/decycling/solver.py",
        ">= rank:",
        "> rank:",
        "tests/test_solver.py::test_a_child_whose_gains_exactly_cover_the_rank_is_built"),
    "rank-gains-include-forbidden": (
        "src/decycling/solver.py",
        "if d > 1 and v not in forbidden",
        "if d > 1",
        "tests/test_solver.py::test_the_parent_refutes_a_child_the_rank_bound_rules_out"),
    "close-cycle-joint-climb-dropped": (
        "src/decycling/verify.py",
        "    while up[-1] != down[-1]:\n"
        "        up.append(parent[up[-1]])\n"
        "        down.append(parent[down[-1]])\n",
        "",
        "tests/test_verify.py"),
    "branching-walk-arguments-swapped": (
        "src/decycling/solver.py",
        "_close_cycle(parent, dist, v, u)",
        "_close_cycle(parent, dist, u, v)",
        "tests/test_solver.py"),
    "sweep-reads-bit-r-and-3": (
        "src/decycling/verify.py",
        "if code >> r & 1 else -1",
        "if code >> (r & 3) & 1 else -1",
        "tests/test_verify.py"),
    "cn2-without-last-label": (
        "src/decycling/construct.py",
        "members = {*range(0, n, 3), n - 1}",
        "members = {*range(0, n, 3)}",
        "tests/test_construct.py"),
    "c4xn-base-choice-flipped": (
        "src/decycling/construct.py",
        "base_n = 4 + n % 2",
        "base_n = 5 - n % 2",
        "tests/test_construct.py"),
    "gadget-search-without-cardinality-check": (
        "src/decycling/construct.py",
        "if s.cardinality != nabla_formula(spec) or not residual(spec, s).is_forest:",
        "if not residual(spec, s).is_forest:",
        "tests/test_construct.py"),
}


def _pytest(copy: Path, target: str) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for one pytest run in the copy, and its time."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", target],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start


def main() -> int:
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for target in dict.fromkeys(target for *_, target in MUTANTS.values()):
            outcome, seconds = _pytest(copy, target)
            print(f"baseline  {outcome:7} {seconds:6.1f}s  {target}", flush=True)
            bad += outcome != "pass"
        for name, (path, old, new, target) in MUTANTS.items():
            source = (copy / path).read_text(encoding="utf-8")
            if source.count(old) != 1:
                found = "missing" if old not in source else "ambiguous"
                print(f"{found:9} old text in {path}  {name}", flush=True)
                bad += 1
                continue
            (copy / path).write_text(source.replace(old, new), encoding="utf-8")
            try:
                outcome, seconds = _pytest(copy, target)
            finally:
                (copy / path).write_text(source, encoding="utf-8")
            survived = outcome == "pass"
            verdict = "SURVIVED" if survived else "killed"
            print(f"{verdict:9} {outcome:7} {seconds:6.1f}s  {name} -> {target}", flush=True)
            bad += survived
    print(f"{len(MUTANTS)} mutants, {bad} problem(s), {time.perf_counter() - start:.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
