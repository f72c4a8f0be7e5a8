"""Benchmark of the decycling package, driven through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one fresh interpreter with one thread.  It imports the package
from `src/` of the checkout it sits in, writes the workload's inputs from
`--seed` into `.perfbench_work/`, and then calls `decycling.cli.main(argv)`
in-process as a closed loop with one caller: the next command starts only
after the previous one returns.  Stdout and stderr of every command are
captured, and every command's output is checked after its timer stops.
Whole passes over the workload's command set run until `--seconds` have
passed (at least one pass).

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it alternates an untraced pass and a traced pass over the
same inputs, and reports the per-layer metrics of the traced passes (see
tracing.py), per pass, plus the tracing overhead.  The last line of stdout
is one JSON object; the lines before it say what ran and why.

`--size tiny` shrinks every workload for the smoke test (test_smoke.py).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# --seed defaults to DEFAULT_SEED, the seed whose oracle-random minima are
# stored in random_minima.json.  HELD_OUT_SEED is kept for confirming a
# claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 7

SIZES = {
    "full": {
        "families": (("c3xc", 13), ("c4xc", 9), ("pow2", 48), ("pow3", 24)),
        # G(n, m) graphs: per pass, sets of this many; distinct sets per pass.
        "random": {"n": 40, "m": 60, "graphs": 100, "sets": 12},
        "certify_n": 100_000,
    },
    "tiny": {
        "families": (("c3xc", 5), ("c4xc", 5), ("pow2", 10), ("pow3", 9)),
        "random": {"n": 12, "m": 18, "graphs": 5, "sets": 2},
        "certify_n": 200,
    },
}
CERTIFY_FAMILIES = ("c3xc", "c4xc", "pow2", "pow3")
MODULES = ("cli", "graphs", "verify", "bounds", "construct", "solver", "certio")


class SetupError(Exception):
    pass


@dataclass
class Command:
    """One CLI call.  check(rc, stdout) returns a problem or None; prepare
    runs before the timer starts."""

    stage: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    prepare: Callable[[], None] | None = None


# -- the package --------------------------------------------------------------


def import_package() -> dict:
    """Import the package afresh from src/ and return its modules by layer."""
    if not (SRC / "decycling" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'decycling'}")
    for name in [m for m in sys.modules if m.split(".")[0] == "decycling"]:
        del sys.modules[name]
    modules = {m: importlib.import_module(f"decycling.{m}") for m in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"decycling imported from outside {SRC}")
    return modules


def parse_oracle(stdout: str) -> tuple[int, list[int], int]:
    """(minimum, witness, nodes) from `decycling oracle` output."""
    lines = stdout.splitlines()
    minimum = int(lines[0].removeprefix("minimum "))
    witness = [int(v) for v in lines[1].removeprefix("witness").split()]
    nodes = int(lines[2].split()[1])
    return minimum, witness, nodes


def check_oracle(pkg: dict, graph, expected: int | None):
    """Exit 0 (the CLI exits 5 when a closed form is refuted), the witness
    decycles the graph, and its size is the printed minimum."""
    verify = pkg["verify"]

    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        minimum, witness, _ = parse_oracle(stdout)
        if len(witness) != minimum:
            return f"witness has {len(witness)} vertices, minimum says {minimum}"
        g = graph()
        vs = verify.VertexSet.of(g.n_vertices, witness)
        if not verify.residual(g, vs).is_forest:
            return "witness leaves a cycle"
        if expected is not None and minimum != expected:
            return f"minimum {minimum}, stored value {expected}"
        return None

    return check


# -- workloads ----------------------------------------------------------------


class OracleFamily:
    """`oracle F n` on four family instances: solver branching seeded by
    bound_report; no input files."""

    def __init__(self, pkg, size, seed, workdir):
        self.commands = []
        for family, n in size["families"]:
            spec = pkg["graphs"].FamilySpec(family, n)
            graph = functools.cache(lambda spec=spec: pkg["graphs"].realize(spec))
            self.commands.append(
                Command("solve", ["oracle", family, str(n)], check_oracle(pkg, graph, None))
            )

    def pass_commands(self, index: int) -> list[Command]:
        return self.commands


def random_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform G(n, m): m distinct edges out of all n(n-1)/2 pairs."""
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


class OracleRandom:
    """`oracle --edges` on seeded G(n, m) edge lists; pass i runs set i mod
    `sets`.  Set-up writes set 0; each later set is written before its pass,
    outside the timers, so set-up time is not spent on file-system writes of
    inputs the run may never reach, and only one set is held at a time, so
    peak memory does not grow with the number of passes."""

    def __init__(self, pkg, size, seed, workdir):
        self.pkg, self.cfg, self.seed, self.workdir = pkg, size["random"], seed, workdir
        self.stored = None
        if seed == DEFAULT_SEED and size is SIZES["full"]:
            self.stored = json.loads((HERE / "random_minima.json").read_text())
        self.current = (0, self._write_set(0))

    def _write_set(self, s: int) -> list[Command]:
        n, m = self.cfg["n"], self.cfg["m"]
        rng = random.Random(f"{self.seed}:{s}")
        commands = []
        for i in range(self.cfg["graphs"]):
            edges = random_graph(rng, n, m)
            path = self.workdir / f"g{s:02d}-{i:03d}.txt"
            path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            graph = functools.cache(
                lambda edges=edges: self.pkg["graphs"].Graph.from_edges(n, edges)
            )
            expected = self.stored[s][i] if self.stored else None
            commands.append(Command("solve", ["oracle", "--edges", str(path)],
                                    check_oracle(self.pkg, graph, expected)))
        return commands

    def pass_commands(self, index: int) -> list[Command]:
        s = index % self.cfg["sets"]
        if s != self.current[0]:
            self.current = None  # release the old set before building the next
            self.current = (s, self._write_set(s))
        return self.current[1]


def adjacent(family: str, n: int, u: int, v: int) -> bool:
    """Edge test for the four families, written here from their definitions
    so that witness cycles are checked without the package."""
    if family in ("c3xc", "c4xc"):
        rows = 3 if family == "c3xc" else 4
        (ru, cu), (rv, cv) = divmod(u, n), divmod(v, n)
        if ru == rv:
            return (cu - cv) % n in (1, n - 1)
        return cu == cv and (ru - rv) % rows in (1, rows - 1)
    power = 2 if family == "pow2" else 3
    d = (u - v) % n
    return 0 < min(d, n - d) <= power


class CertifyLarge:
    """construct, verify and verify-tampered for each family at large n."""

    def __init__(self, pkg, size, seed, workdir):
        n = size["certify_n"]
        rng = random.Random(seed)
        self.commands = []
        for family in CERTIFY_FAMILIES:
            cert = workdir / f"{family}.json"
            tampered = workdir / f"{family}-tampered.json"
            # Which member the tampered copy drops, as a share of the set.
            drop = rng.random()
            self.commands += [
                Command("certify", ["construct", family, str(n), "-o", str(cert)],
                        self._check_construct),
                Command("verify", ["verify", str(cert)], self._check_verified),
                Command("reject", ["verify", str(tampered)],
                        self._check_rejected(family, n, tampered),
                        prepare=self._tamper(cert, tampered, drop)),
            ]

    @staticmethod
    def _tamper(cert: Path, tampered: Path, drop: float):
        """Write a copy of cert without one member, cardinality adjusted.
        Every member of the constructed sets is needed, so the copy leaves
        a cycle."""

        def prepare():
            if tampered.exists():
                return
            doc = json.loads(cert.read_text())
            del doc["set"][int(drop * len(doc["set"]))]
            doc["cardinality"] -= 1
            tampered.write_text(json.dumps(doc))

        return prepare

    @staticmethod
    def _check_construct(rc: int, stdout: str) -> str | None:
        if rc != 0 or "status=verified" not in stdout:
            return f"construct exit {rc}: {stdout.strip()[:200]}"
        return None

    @staticmethod
    def _check_verified(rc: int, stdout: str) -> str | None:
        if rc != 0 or not stdout.startswith("verified:"):
            return f"verify exit {rc}: {stdout.strip()[:200]}"
        return None

    @staticmethod
    def _check_rejected(family: str, n: int, tampered: Path):
        def check(rc: int, stdout: str) -> str | None:
            if rc != 5:
                return f"tampered certificate: exit {rc}, expected 5"
            lines = [l for l in stdout.splitlines() if "residual cycle:" in l]
            if not lines:
                return "tampered certificate: no residual cycle printed"
            cycle = [int(v) for v in lines[0].split(":", 1)[1].split()]
            removed = set(json.loads(tampered.read_text())["set"])
            order = {"c3xc": 3 * n, "c4xc": 4 * n}.get(family, n)
            if (
                len(cycle) < 3
                or not all(0 <= v < order for v in cycle)
                or len(set(cycle)) != len(cycle)
                or removed.intersection(cycle)
                or not all(adjacent(family, n, a, b)
                           for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            ):
                return f"printed cycle is not a cycle of the residual graph: {cycle[:12]}"
            return None

        return check

    def pass_commands(self, index: int) -> list[Command]:
        return self.commands


WORKLOADS = {
    "oracle-family": OracleFamily,
    "oracle-random": OracleRandom,
    "certify-large": CertifyLarge,
}


# -- running ------------------------------------------------------------------


@dataclass
class PassResult:
    times: list[float]
    ran: list[tuple[str, tuple[str, ...]]]  # (stage, argv) of each command
    nodes: int
    failures: list[str]

    @property
    def total(self) -> float:
        return sum(self.times)


def run_pass(cli, commands: list[Command], tracer=None) -> PassResult:
    result = PassResult([], [], 0, [])
    for cmd in commands:
        if cmd.prepare:
            cmd.prepare()
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.stage, tracer.recording = cmd.stage, True
        start = time.perf_counter()
        problem = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(cmd.argv)
        except SystemExit as exit_:
            rc = exit_.code if isinstance(exit_.code, int) else 2
        except Exception as exc:  # a traceback out of the CLI is a failure
            problem = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.recording = False
        if problem is None:
            problem = cmd.check(rc, out.getvalue())
        if cmd.argv[0] == "oracle" and problem is None:
            result.nodes += parse_oracle(out.getvalue())[2]
        if problem is not None:
            result.failures.append(f"{' '.join(cmd.argv)}: {problem} {err.getvalue().strip()[:200]}")
        result.times.append(elapsed)
        result.ran.append((cmd.stage, tuple(cmd.argv)))
    return result


def setup(workload: str, size: dict, seed: int, workdir: Path):
    """Import the package and write the inputs; SETUP_REPEATS times, so the
    reported setup time is a median.  Returns the last repeat's objects."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        pkg = import_package()
        bench = WORKLOADS[workload](pkg, size, seed, workdir)
        times.append(time.perf_counter() - start)
    return pkg, bench, times


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (q = 5 is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def command_latencies(passes: list[PassResult], stage: str | None = None) -> list[float]:
    """Each distinct command's median wall time over its repeats in the run.

    Percentiles are taken over these, so that on a workload of a few unlike
    commands a percentile stays on the same command from run to run."""
    repeats: dict[tuple[str, ...], list[float]] = {}
    for p in passes:
        for t, (ran_stage, argv) in zip(p.times, p.ran):
            if stage is None or ran_stage == stage:
                repeats.setdefault(argv, []).append(t)
    return [statistics.median(ts) for ts in repeats.values()]


def stage_report(passes: list[PassResult]) -> dict[str, tuple[float | None, str]]:
    """The workload-specific figures: per-stage pass time and, for oracle
    commands, latency percentiles.  Stages a workload lacks read n/a."""
    report = {}
    for name, stage in (("solve_s", "solve"), ("certify_s", "certify"),
                        ("verify_s", "verify"), ("reject_s", "reject")):
        sums = [sum(t for t, (s, _) in zip(p.times, p.ran) if s == stage) for p in passes]
        present = any(s == stage for s, _ in passes[0].ran)
        report[name] = (statistics.median(sums) if present else None, "s")
    solve = command_latencies(passes, "solve")
    report["solve_p50_ms"] = (1000 * quantile(solve, 5) if solve else None, "ms")
    report["solve_p90_ms"] = (1000 * quantile(solve, 9) if solve else None, "ms")
    return report


def commit_id() -> str:
    """The checked-out commit when there is a .git directory, else a digest
    of the package source (the driver's checkouts carry no .git)."""
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip().removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = git / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "decycling").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"unknown (src sha256 {digest.hexdigest()[:16]})"


def workload_reason(workload: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return "(BENCHMARK.json not readable)"
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), "")


def traced_metrics(tracer, traced: list[PassResult], untraced: list[PassResult]):
    """The per-layer metrics, per traced pass, and the span summary."""
    summary = tracer.summary()
    per = 1 / len(traced)
    total, own, calls = summary["total"], summary["self"], summary["calls"]
    counts = tracer.counts
    nodes = counts["solver.nodes"]
    metrics = {}
    for layer, seconds in summary["layer_self"].items():
        metrics[f"{layer}.self_s"] = (seconds * per, "s")
    metrics.update({
        "graphs.realize_calls": (calls["graphs.realize"] * per, "count"),
        "graphs.realize_s": (total["graphs.realize"] * per, "s"),
        "graphs.from_edges_s": (total["graphs.from_edges"] * per, "s"),
        "verify.residual_calls": (calls["verify.residual"] * per, "count"),
        "verify.residual_s": (total["verify.residual"] * per, "s"),
        "verify.verify_certificate_self_s": (own["verify.verify_certificate"] * per, "s"),
        "construct.build_certificate_self_s": (own["construct.build_certificate"] * per, "s"),
        "certio.save_s": (total["certio.save"] * per, "s"),
        "certio.load_s": (total["certio.load"] * per, "s"),
        "certio.bytes": (counts["certio.bytes"] * per, "B"),
        "bounds.bound_report_calls": (calls["bounds.bound_report"] * per, "count"),
        "bounds.bound_report_s": (total["bounds.bound_report"] * per, "s"),
        "bounds.seed_gap": ((counts["seeded_minimum"] - counts["seed_bound"]) * per, "count"),
        "solver.nodes": (nodes * per, "count"),
        "solver.min_fvs_exact_s": (total["solver.min_fvs_exact"] * per, "s"),
        "solver.us_per_node": (1e6 * own["solver.min_fvs_exact"] / nodes if nodes else 0.0, "us"),
        "solver.greedy_s": (total["solver.greedy_decycling"] * per, "s"),
    })
    for layer in summary["layer_self"]:
        metrics[f"{layer}.errors"] = (counts[f"{layer}.errors"] * per, "count")
    traced_s = statistics.median(p.total for p in traced)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(p.total for p in untraced), "s")
    metrics["trace.gap_s"] = ((sum(p.total for p in traced) - summary["roots"]) * per, "s")
    metrics["trace.spans"] = (len(tracer.spans) * per, "count")
    return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    sys.path.insert(0, str(SRC))
    workdir = WORK / str(os.getpid())
    try:
        pkg, bench, setup_times = setup(args.workload, size, args.seed, workdir)
        return measure(args, pkg, bench, setup_times)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, pkg: dict, bench, setup_times: list[float]) -> int:
    cli = pkg["cli"]
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} (default seed {DEFAULT_SEED}, "
          f"held-out seed {HELD_OUT_SEED})")
    print(f"# why: {workload_reason(args.workload)}")
    print(f"# python {sys.version.split()[0]}  commit {commit_id()}  "
          f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})  "
          f"closed loop, 1 caller, 1 thread")
    print(f"# setup {SETUP_REPEATS}x: " + " ".join(f"{t:.4f}" for t in setup_times) + " s")

    passes: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracing import Tracer

        tracer = Tracer(pkg)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        # Traced runs repeat pass 0, so every traced pass does the same work.
        index = 0 if tracer else len(passes)
        passes.append(run_pass(cli, bench.pass_commands(index)))
        if tracer:
            tracer.install()
            try:
                traced.append(run_pass(cli, bench.pass_commands(index), tracer))
            finally:
                tracer.uninstall()

    everything = passes + traced
    attempted = sum(len(p.times) for p in everything)
    failures = [f for p in everything for f in p.failures]
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    latencies = command_latencies(passes)
    print(f"# passes {len(passes)} untraced + {len(traced)} traced, commands {attempted}, "
          f"failed {len(failures)}; distinct commands {len(latencies)}")
    print(f"# solver nodes per pass (from CLI output): untraced {passes[0].nodes}"
          + (f", traced {traced[0].nodes}" if traced else ""))
    for name, (value, unit) in stage_report(passes).items():
        print(f"stage {name} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    print(f"stage failed_share {len(failures) / attempted:g} 1")

    if tracer:
        metrics, summary = traced_metrics(tracer, traced, passes)
        per = 1 / len(traced)
        print(f"# mean traced pass {sum(p.total for p in traced) * per:.4f} s = layer self "
              f"times {sum(summary['layer_self'].values()) * per:.4f} s "
              f"+ gap {metrics['trace.gap_s'][0]:.4f} s (benchmark loop)")
        per_stage = {}
        for (name, stage), n in summary["stage_calls"].items():
            if name == "graphs.realize":
                per_stage[stage] = n / summary["stage_calls"]["cli.main", stage]
        if per_stage:
            print("# realize calls per command: "
                  + " ".join(f"{s} {v:g}" for s, v in sorted(per_stage.items())))
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        print(f"# spans written to {spans_file.relative_to(ROOT)}")
    else:
        metrics = {
            "pass_s": (statistics.median(p.total for p in passes), "s"),
            "cmd_p50_ms": (1000 * quantile(latencies, 5), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
