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
        "sum(max(0, a - 2) for a in alive)",
        "sum(max(0, a - 1) for a in alive)",
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
    "packing-refutation-without-tightness": (
        "src/decycling/solver.py",
        "if (need < k or live) and",
        "if live and",
        "tests/test_solver.py::test_the_parent_refutes_a_child_a_tight_packing_rules_out"),
    "two-survivor-clique-counted-live": (
        "src/decycling/solver.py",
        "alive[self._clique_of[v]] >= 3",
        "alive[self._clique_of[v]] >= 2",
        "tests/test_solver.py::test_the_parent_refutes_a_child_a_tight_packing_rules_out"),
    "girth-stop-without-triangle-test": (
        "src/decycling/solver.py",
        "root = next((v for v in roots",
        "root = None if True else next((v for v in roots",
        "tests/test_solver.py::test_the_branching_cycle_runs_from_the_scanned_vertex"),
    "triangle-test-skips-the-next-root": (
        "src/decycling/solver.py",
        "if v >= root for u in adj[v]",
        "if v > root for u in adj[v]",
        "tests/test_solver.py::test_the_branching_cycle_runs_from_the_scanned_vertex"),
    "girth-stop-never-taken": (
        "src/decycling/solver.py",
        "if best_len == 4:",
        "if False:",
        "tests/test_solver.py::test_the_cycle_scan_ends_at_a_four_cycle_on_a_triangle_free_graph"),
    "jump-to-first-triangle-not-least": (
        "src/decycling/solver.py",
        "(v for v in roots if v >= root",
        "(v for v in adj if v >= root",
        "tests/test_solver.py::test_the_branching_cycle_runs_from_the_scanned_vertex"),
    "anchor-not-a-forced-pick": (
        "src/decycling/solver.py",
        "[0] * anchor",
        "[]",
        # Sets found without 0 leave a cycle through it: min_fvs_exact raises.
        "tests/test_solver.py::test_anchored_family_minima_agree_with_subset_enumeration"),
    "root-reduction-skipped": (
        "src/decycling/solver.py",
        "            self._reduce(self.root, frozenset(), self.forced, len(self.root))\n",
        "            pass\n",
        "tests/test_solver.py::test_the_root_is_reduced_once_before_any_probe"),
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
    "run-memo-records-running-total": (
        "src/decycling/verify.py",
        "hit = jump[run] = (s, r, jp, e8, m8)",
        "hit = jump[run] = (s, r, jp, edges + e8, m8)",
        "tests/test_verify.py::test_the_run_memo_of_the_sweep_agrees_with_the_union_find"),
    "sweep-tail-dropped": (
        "src/decycling/verify.py",
        "codes[end:]",
        "codes[end:end]",
        "tests/test_verify.py::test_the_run_memo_of_the_sweep_agrees_with_the_union_find"),
    "kept-edge-mask-tests-lower-end-only": (
        "src/decycling/graphs.py",
        '(int.from_bytes(keep[a:a + size], "little") & int.from_bytes(\n'
        '                    keep[a + d:a + d + size], "little")).to_bytes(size, "little")',
        "keep[a:a + size]",
        "tests/test_graphs.py::test_family_edges_given_keep_are_the_kept_edges_in_order"),
    "arcs-keep-both-signs-at-half-n": (
        "src/decycling/graphs.py",
        "*((0, -d) for d in span if 2 * d != n)",
        "*((0, -d) for d in span)",
        "tests/test_graphs.py::test_order_and_degree_match_the_realized_graph"),
    "arcs-reach-not-clamped": (
        "src/decycling/graphs.py",
        "span = range(1, min(self.power, n // 2) + 1)",
        "span = range(1, self.power + 1)",
        "tests/test_graphs.py::test_family_spec_validation"),
    "edge-cuts-without-the-far-end": (
        "src/decycling/graphs.py",
        "ends = sorted({*range(reach + 1), *range(n - reach, n)})",
        "ends = sorted({*range(reach + 1)})",
        "tests/test_graphs.py::test_family_edges_list_every_edge_once"),
    "torus-ring-skips-a-row": (
        "src/decycling/graphs.py",
        "((r + 1) % rows, 0)",
        "((r + 2) % rows, 0)",
        "tests/test_graphs.py::test_realize_examples"),
    "strip-forward-keeps-column-arcs": (
        "src/decycling/verify.py",
        "tuple(a for a in flat if a[1] > 0)",
        "tuple(a for a in flat if a[1] >= 0)",
        "tests/test_verify.py::test_residual_of_a_spec_equals_residual_of_its_realized_graph"),
    "strip-width-one-column": (
        "src/decycling/verify.py",
        "b, arcs = spec.power or 1, spec.arcs",
        "b, arcs = 1, spec.arcs",
        "tests/test_verify.py::test_verify_certificate_accepts_valid_claim"),
    "ascending-check-accepts-duplicates": (
        "src/decycling/certio.py",
        "if len(frozen) != len(members) or members != sorted(members):",
        "if members != sorted(members):",
        "tests/test_certio.py::test_malformed_documents_are_rejected"),
    "cn2-without-last-label": (
        "src/decycling/construct.py",
        "members = {*range(0, n, 3), n - 1}",
        "members = {*range(0, n, 3)}",
        "tests/test_construct.py"),
    "cn3-pairs-start-by-n-3-mod-4": (
        "src/decycling/construct.py",
        "s = 4 + (n % 4 == 1)",
        "s = 4 + (n % 4 == 3)",
        "tests/test_construct.py::test_cn3_case_sets_and_paths"),
    "cn3-even-picks-end-at-n-2": (
        "src/decycling/construct.py",
        "range(4, n - 1, 2)",
        "range(4, n - 2, 2)",
        "tests/test_construct.py::test_cn3_case_sets_and_paths"),
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
