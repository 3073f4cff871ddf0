"""toricstab benchmark: seeded workloads, exact checks, end-to-end and per-layer metrics.

Usage, from the root of a source checkout (the program is imported from
``src/``, nothing needs installing):

    python3 bench/run.py --workload delta-search --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --seed 3 --seconds 20 --trace 1
    python3 bench/run.py --workload curve-functionals --smoke

Workloads are ``delta-search``, ``curve-functionals`` and ``cli``; see
``bench/README.md`` for what each one exercises and bypasses.  A run repeats
a fixed number of whole cycles of its workload, ``round(seconds / CYCLE_S)``,
so the same seed and seconds always measure the same inputs; every unit of a
cycle runs in a fresh interpreter, so the program's lru caches start cold each
time, as they do for a user.  Every result is compared exactly with the
reference recorded in ``bench/reference.json``.  Every timed operation,
set-up and start-up probe is timed right after a speed reference and reported
at the reference machine speed (see ``bench/speed.py``), so the machine's
drift does not read as a change of the program; the raw medians are in the
metadata.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, in which each
cycle runs once untraced and once traced.  The line before it holds run
metadata.  ``--smoke`` runs one reduced cycle, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s
SAFETY_STOP_S = RUN_LIMIT_S / 2  # no further cycle starts after this
TAIL_MIN_BEYOND = 10
IMPORT_PROBES = 5
POOL_PROBE_RADIUS = 3
SHARE_KEYS = (
    "toric.intersection_number",
    "toric.is_nef",
    "filtrations.filtration_curve",
    "volume_fn.chamber_volume_polynomial",
    "volume_fn.positive_pairing",
)


class Runner:
    """Launches workers from the checkout root and keeps the run's deadline."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.start = time.monotonic()
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.failures: list[str] = []
        # (seconds, bare interpreter start timed just before) pairs
        self.startup: list[tuple[float, float]] = []
        self.setups: list[tuple[float, float]] = []
        self._workers = itertools.count()
        self.reference = wl.load_reference()
        self.version = self.reference["cli"]["fixed"]["version"]
        self.picks: list[list[int]] = []

    def plan(self, cycles: int) -> None:
        """Fix the inputs of a run of ``cycles`` cycles (curve-functionals draws them)."""
        if self.workload == "curve-functionals":
            self.picks = wl.curve_picks(self.seed, cycles,
                                        self.reference["curve-functionals"]["pool"])

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, unit: str, trace: bool, cycle: int = 0, **extra) -> dict | None:
        work_dir = self.work / f"w{next(self._workers)}"
        work_dir.mkdir()
        spec = dict(workload=self.workload, unit=unit, trace=trace, smoke=self.smoke,
                    pool_index=wl.pool_index(self.seed + cycle), work_dir=str(work_dir),
                    picks=self.picks[cycle] if self.picks else None, **extra)
        bare = self.bare_start()
        spec["launch"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, capture_output=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{unit}: worker timed out")
            return None
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.decode().strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{unit}: worker exited {proc.returncode}: {tail[0]}")
            return None
        out = json.loads(lines[-1])
        out["setup_bare"] = bare
        self.failures.extend(f"{unit}: {e}" for e in out.get("errors", []))
        return out

    def command(self, args: list[str]) -> tuple[float, bytes]:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, check=True,
                              timeout=60)
        return time.perf_counter() - start, proc.stdout

    def bare_start(self) -> float:
        """Seconds of a bare interpreter start, the reference for start-up times."""
        return self.command(["-c", "pass"])[0]

    def startup_probes(self) -> None:
        """Time fresh processes that import the program (cli: `toricstab --version`)."""
        for _ in range(1 if self.smoke else wl.STARTUP_PROBES[self.workload]):
            try:
                bare = self.bare_start()
                seconds, out = self.command(wl.STARTUP_ARGS[self.workload])
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
                self.failures.append(f"startup probe: {type(exc).__name__}")
                continue
            if self.workload == "cli" and wl.cli_result(0, out) != self.version:
                self.failures.append("startup probe: wrong --version output")
            self.startup.append((seconds, bare))

    def setup_probes(self, unit: str, cycle: int) -> None:
        """Workers that stop after set-up, for more set-up samples (cli only)."""
        for _ in range(0 if self.smoke else wl.SETUP_PROBES[self.workload]):
            out = self.worker(unit, False, cycle, setup_only=True)
            if out is not None:
                self.setups.append((out["setup_s"], out["setup_bare"]))


def run_cycle(runner: Runner, trace: bool, cycle: int, probe: bool) -> list[dict | None]:
    """One cycle of fresh workers on the inputs the run planned for cycle ``cycle``."""
    outs = []
    for unit in wl.units(runner.workload, runner.smoke):
        outs.append(runner.worker(unit, trace, cycle))
        if probe:
            runner.startup_probes()
            runner.setup_probes(unit, cycle)
    return outs


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least TAIL_MIN_BEYOND samples above it.

    Runs too short to have one at or above the median report their maximum.
    """
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, rank
    return 100, n


def count_ops(outs: list[dict | None]) -> tuple[int, int, int]:
    attempted = failed = gaps = 0
    for out in outs:
        if out is None:
            attempted += 1
            failed += 1
            continue
        for _s, _sample, ok, gap in out["ops"]:
            attempted += 1
            failed += not ok
            gaps += bool(gap)
    return attempted, failed, gaps


def start_median(pairs: list[tuple[float, float]]) -> float:
    """Median start-up time at the reference speed of a bare interpreter start."""
    return statistics.median(speed.scale(s, bare, speed.REF_START_S) for s, bare in pairs)


def end_to_end(outs: list[dict], startup: list[tuple[float, float]],
               setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Times at the reference speed, each scaled by the reference timed just before it."""
    ops = [(s, sample, out["ref_s"]) for out in outs for s, sample, _ok, _gap in out["ops"]]
    latencies = sorted(speed.scale(*op) for op in ops)
    setups = [(out["setup_s"], out["setup_bare"]) for out in outs] + setups
    pct, rank = tail_rank(len(latencies))
    metrics = {
        "setup_s": (start_median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (latencies[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (max(out["rss_kb"] for out in outs) / 1024, "MB"),
        "startup_ms": (start_median(startup) * 1e3, "ms"),
    }
    samples = [sample for _s, sample, _ref in ops]
    info = {"ops_timed": len(latencies), "tail_percentile": pct, "workers": len(outs),
            "startup_probes": len(startup), "setups": len(setups),
            "reference_ms": statistics.median(samples) * 1e3,
            "raw_op_p50_ms": statistics.median(s for s, _sample, _ref in ops) * 1e3,
            "raw_setup_s": statistics.median(s for s, _sample in setups),
            "raw_startup_ms": statistics.median(s for s, _sample in startup) * 1e3,
            "bare_start_ms": statistics.median(b for _s, b in startup + setups) * 1e3}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def planned_cycles(runner: Runner, seconds: float) -> int:
    return 1 if runner.smoke else wl.cycles(runner.workload, seconds)


def plain_run(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    outs: list[dict | None] = []
    planned = planned_cycles(runner, seconds)
    runner.plan(planned)
    cycles = 0
    while cycles < planned and (cycles == 0 or runner.elapsed() < SAFETY_STOP_S):
        outs += run_cycle(runner, False, cycles, probe=True)
        cycles += 1
    good = [o for o in outs if o is not None]
    metrics, info = (end_to_end(good, runner.startup, runner.setups)
                     if good and runner.startup else ({}, {}))
    info.update(cycles=cycles, cycles_planned=planned)
    return metrics, outs, info


def per_layer(trace: dict, traced_s: float, overhead: float,
              pool_speedup: float, import_ms: float) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    for key in tracing.span_keys():
        metrics[f"{key}.calls"] = (trace["calls"].get(key, 0), "count")
        metrics[f"{key}.total_s"] = (trace["total"].get(key, 0.0), "s")
        metrics[f"{key}.self_s"] = (trace["self"].get(key, 0.0), "s")
    counts = trace["counts"]
    cvp_calls = trace["calls"].get("volume_fn.chamber_volume_polynomial", 0)
    metrics["geometry.polytopes_built"] = (counts.get("geometry.polytopes_built", 0), "count")
    metrics["geometry.vertices_of.bases_tried"] = (
        counts.get("geometry.vertices_of.bases_tried", 0), "count")
    metrics["geometry.chambers_built"] = (counts.get("geometry.chambers_built", 0), "count")
    metrics["volume_fn.polytopes_per_chamber"] = (
        counts.get("volume_fn.polytopes_under_chamber_polynomial", 0) / cvp_calls
        if cvp_calls else 0.0, "ratio")
    for name, (hits, misses) in trace["caches"].items():
        metrics[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["thresholds.delta_prime_quotient.errors"] = (
        trace["errors"].get("thresholds.delta_prime_quotient", 0), "count")
    for key in SHARE_KEYS:
        metrics[f"{key}.share"] = (trace["total"].get(key, 0.0) / traced_s, "ratio")
    metrics["thresholds.pool_speedup"] = (pool_speedup, "ratio")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def probes(runner: Runner) -> tuple[float, float]:
    """Pool speed-up of one F1 delta_search, and the import cost of toricstab.cli."""
    radius = 1 if runner.smoke else POOL_PROBE_RADIUS
    jobs = os.cpu_count() or 1
    serial, pooled = [], []
    for _ in range(1 if runner.smoke else 2):
        for jobs_n, sink in ((1, serial), (jobs, pooled)):
            out = runner.worker("pool-probe", False, jobs=jobs_n, radius=radius)
            if out is None or not out["ok"]:
                runner.failures.append("pool probe gave a wrong delta")
            else:
                sink.append(out["seconds"])
    bare, loaded = [], []
    for _ in range(1 if runner.smoke else IMPORT_PROBES):
        bare.append(runner.command(["-c", "pass"])[0])
        loaded.append(runner.command(["-c", "import toricstab.cli"])[0])
    speedup = statistics.median(serial) / statistics.median(pooled) if serial and pooled else 0.0
    return speedup, (statistics.median(loaded) - statistics.median(bare)) * 1e3


def op_seconds(outs: list[dict], scaled: bool) -> float:
    """Operation time of a cycle's workers, raw or at the reference speed."""
    return sum(speed.scale(s, sample, out["ref_s"]) if scaled else s
               for out in outs for s, sample, _ok, _gap in out["ops"])


def traced_run(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    """Pairs of an untraced and a traced cycle on the same inputs.

    The per-layer figures describe the first pair, whose inputs the seed fixes,
    so counts repeat exactly for a seed; the overhead ratio uses every pair,
    at the reference speed.
    """
    pool_speedup, import_ms = probes(runner)
    outs: list[dict | None] = []
    first, traced, untraced = None, 0.0, 0.0
    planned = max(1, planned_cycles(runner, seconds) // 2)
    runner.plan(planned)
    pairs = 0
    while pairs < planned and (pairs == 0 or runner.elapsed() < SAFETY_STOP_S):
        order = (False, True) if pairs % 2 == 0 else (True, False)
        by_mode = {}
        for traced_mode in order:
            by_mode[traced_mode] = run_cycle(runner, traced_mode, pairs, probe=False)
            outs += by_mode[traced_mode]
        if all(o is not None for o in by_mode[True] + by_mode[False]):
            if pairs == 0:
                first = (tracing.merge([o["trace"] for o in by_mode[True]]),
                         op_seconds(by_mode[True], scaled=False))
            traced += op_seconds(by_mode[True], scaled=True)
            untraced += op_seconds(by_mode[False], scaled=True)
        pairs += 1
    if first is None:
        return {}, outs, {}
    trace, first_traced_s = first
    metrics = per_layer(trace, first_traced_s, traced / untraced, pool_speedup, import_ms)
    return metrics, outs, {"cycles": pairs, "cycles_planned": planned}


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree; the benchmark's copy is not."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced cycle, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "toricstab" / "__init__.py").is_file():
        print("run from the root of a toricstab source checkout (src/toricstab is missing)",
              file=sys.stderr)
        return 2
    if not wl.REFERENCE.is_file():
        print(f"missing reference results: {wl.REFERENCE}", file=sys.stderr)
        return 2
    work = BENCH_DIR / "_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, args.workload, args.seed, args.smoke)
    try:
        run = traced_run if args.trace else plain_run
        metrics, outs, info = run(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((BENCH_DIR / "_work").iterdir()):
            (BENCH_DIR / "_work").rmdir()
    attempted, failed, gaps = count_ops(outs)
    correct = failed == 0 and not runner.failures and bool(metrics)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "pool_start": wl.pool_index(args.seed),
        "curve_picks": runner.picks or None,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": runner.elapsed(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(root),
        "src_digest": src_digest(root),
        "src_lines": src_lines(root),
        "known_gap_ops": gaps,
        "known_gap_ratio": gaps / attempted if attempted else 0.0,
        "failures": runner.failures[:10],
        **info,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
