"""One measured repetition, in a fresh interpreter so every lru cache starts cold.

Run by ``run.py`` as ``python3 bench/worker.py '<json spec>'`` from the root of
the checkout with ``src`` on ``PYTHONPATH``.  The spec names the workload, the
unit (one search, one curve cycle or one CLI cycle), the pool entry, the
parent's ``time.monotonic()`` just before launch, whether to trace, and a
work directory inside the checkout.  The last stdout line is a JSON object
with the set-up time, one ``[seconds, sample, ok, known_gap]`` row per
operation, the reference time ``ref_s`` that a sample takes at the reference
speed, peak resident memory and, when tracing, the counters.  ``sample`` is
the speed reference timed just before the operation: ``speed.sample()`` for
library work, a bare interpreter start for a CLI process.  A cli spec with
``setup_only`` stops after set-up and reports only its time.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads as wl

CLI_TIMEOUT_S = 60


def timed_search(ts, fan, l, radius: int, timings: list[tuple[float, float]],
                 sampled: bool = True):
    """The program's delta_search with jobs=1, timing each candidate row it evaluates.

    delta_search looks ``_candidate_row`` up in its module at call time, so a
    thin timer bound there sees every row; it appends (seconds, speed sample).
    A traced search samples the speed once, before it starts: a sample between
    rows would fall inside the ``delta_search`` span.
    """
    thresholds = sys.modules["toricstab.thresholds"]
    row = thresholds._candidate_row
    before = None if sampled else statistics.median(speed.sample() for _ in range(5))

    def timed_row(args):
        sample = speed.sample() if sampled else before
        start = time.perf_counter()
        try:
            return row(args)
        finally:
            timings.append((time.perf_counter() - start, sample))

    thresholds._candidate_row = timed_row
    try:
        return ts.delta_search(fan, l, radius, jobs=1)
    finally:
        thresholds._candidate_row = row


def search_unit(ts, tracer, unit: str, inputs: dict, want: dict, errors: list[str]) -> tuple:
    """One delta_search: (setup done, ops rows)."""
    fan, l, radius = wl.search_setup(ts, unit, inputs)
    if tracer is not None:
        tracer.reset()
    first = time.monotonic()
    timings: list[tuple[float, float]] = []
    try:
        got = wl.search_result(timed_search(ts, fan, l, radius, timings, tracer is None))
    except Exception as exc:  # an unexpected raise fails every row of the search
        got = None
        errors.append(f"{type(exc).__name__}: {exc}")
    n = len(want["rows"])
    if got is None or len(got["rows"]) != n or len(timings) != n:
        if got is not None:
            errors.append("search returned another number of candidate rows")
        timings += [(0.0, speed.REF_S)] * (n - len(timings))  # rows never evaluated fail too
        return first, [[s, c, False, False] for s, c in timings]
    rows = [[s, c, g == w, False] for (s, c), g, w in zip(timings, got["rows"], want["rows"])]
    if (got["delta"], got["minimizer"]) != (want["delta"], want["minimizer"]) \
            or not wl.frozen_delta_ok(unit, got):
        errors.append("search minimum or minimizer mismatch")
        rows = [[s, c, False, g] for s, c, _ok, g in rows]
    return first, rows


def curve_unit(ts, tracer, inputs: dict, want: list, smoke: bool, errors: list[str]) -> tuple:
    """One cycle of criterion-6 directions: (setup done, ops rows)."""
    ops = wl.curve_setup(ts, inputs)
    if smoke:
        ops = ops[:1]  # P2 along H
    if tracer is not None:
        tracer.reset()
    first = time.monotonic()
    results, timings, samples = [], [], []
    for op in ops:
        samples.append(speed.sample())
        start = time.perf_counter()
        try:
            result = wl.curve_op(ts, op)
        except Exception as exc:  # an unexpected raise is a failed operation
            result = None
            errors.append(f"{type(exc).__name__}: {exc}")
        timings.append(time.perf_counter() - start)
        results.append(result)
    rows = []
    for seconds, sample, got, expect in zip(timings, samples, results, want):
        ok, gap = (False, False) if got is None else wl.curve_check(got, expect)
        rows.append([seconds, sample, ok, gap])
    if results[0] is None or not wl.p2_h_ok(results[0]):
        errors.append("frozen value mismatch")  # every operation of the unit fails
        rows = [[s, c, False, g] for s, c, _ok, g in rows]
    return first, rows


def run_library(spec: dict, launch: float) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = tracing.install()
    import toricstab as ts

    ref = wl.load_reference()[spec["workload"]]
    unit = spec["unit"]
    errors: list[str] = []
    if spec["workload"] == "delta-search":
        entry = ref["pool"][spec["pool_index"]]
        want = entry["expect"].get(unit) or ref["fixed"][unit]
        first, rows = search_unit(ts, tracer, unit, entry["inputs"], want, errors)
    else:
        inputs, want = wl.curve_cycle(ref["pool"], spec["picks"])
        first, rows = curve_unit(ts, tracer, inputs, want, spec["smoke"], errors)
    return {
        "setup_s": first - launch,
        "ops": rows,
        "ref_s": speed.REF_S,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None if tracer is None else tracer.snapshot(),
        "errors": errors[:5],
    }


def run_cli(spec: dict, launch: float) -> dict:
    import toricstab.cli as cli

    root = Path.cwd()
    work = Path(spec["work_dir"])
    ref = wl.load_reference()["cli"]
    entry = ref["pool"][spec["pool_index"]]
    paths = wl.write_problems(entry["inputs"], work)
    for path in paths.values():
        cli.ProblemFile.load(str(path))  # build and validate the model
    commands = wl.cli_commands(entry["inputs"], paths, smoke=spec["smoke"])
    expect = entry["expect"]["cli"]
    runner = ([sys.executable, str(wl.BENCH_DIR / "traced_cli.py")] if spec["trace"]
              else [sys.executable, "-m", "toricstab.cli"])
    snapshots, errors = [], []
    counter = itertools.count()

    def call(args: list[str]) -> tuple[float, int, bytes]:
        env = dict(os.environ)
        if spec["trace"]:
            trace_dir = work / f"trace-{next(counter)}"
            trace_dir.mkdir()
            env["BENCH_TRACE_DIR"] = str(trace_dir)
        start = time.perf_counter()
        proc = subprocess.run(runner + args, cwd=root, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if spec["trace"]:
            snap = trace_dir / "trace.json"
            if snap.is_file():
                snapshots.append(json.loads(snap.read_text(encoding="utf-8")))
        return seconds, proc.returncode, proc.stdout

    def bare_start() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, stdin=subprocess.DEVNULL,
                       capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - start

    rows = []
    setup_s = time.monotonic() - launch
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    for args, want in zip(commands, expect):
        sample = bare_start()
        try:
            seconds, code, out = call(args)
            ok = wl.cli_result(code, out) == want and wl.cli_frozen_ok(args, out)
        except subprocess.TimeoutExpired:
            seconds, ok = CLI_TIMEOUT_S, False
        except (ValueError, KeyError, IndexError):  # output the frozen check cannot parse
            ok = False
        if not ok:
            errors.append(f"{' '.join(args)}: unexpected exit code or output")
        rows.append([seconds, sample, ok, False])
    return {
        "setup_s": setup_s,
        "ops": rows,
        "ref_s": speed.REF_START_S,
        "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": tracing.merge(snapshots) if spec["trace"] else None,
        "errors": errors[:5],
    }


def run_pool_probe(spec: dict) -> dict:
    """One delta_search on F1 with the given jobs, timed in a fresh process."""
    import toricstab as ts

    fan, anti, _k = wl.build_fan(ts, "f1")
    start = time.perf_counter()
    report = ts.delta_search(fan, anti, spec["radius"], jobs=spec["jobs"])
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "ok": wl.q(report.delta_estimate) == "6/7"}


def main() -> int:
    spec = json.loads(sys.argv[1])
    launch = spec["launch"]
    if spec["unit"] == "pool-probe":
        out = run_pool_probe(spec)
    elif spec["workload"] == "cli":
        out = run_cli(spec, launch)
    else:
        out = run_library(spec, launch)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
