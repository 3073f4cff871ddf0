"""Record the benchmark's inputs and reference results into ``reference.json``.

    python3 bench/record.py                       # every workload
    python3 bench/record.py --workload cli        # re-record one workload

Run from the root of a source checkout.  Entry ``i`` of a workload is drawn
from ``random.Random("<workload>:<i>")``; its results are the exact outputs of
the program at the recorded commit, after the frozen values of the acceptance
suite have been checked.  A curve-functionals entry also records the cost of
each seeded direction (median of ``COST_PASSES`` cold-cache passes, at the
reference speed of ``speed.py``); runs use it only to stratify their choice of
directions.  Re-record only in a change that alters the benchmark,
never in one that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import toricstab as ts  # noqa: E402
from toricstab.toric import is_strictly_ample  # noqa: E402
from toricstab.test_curves import truncated_curve  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

COST_PASSES = 3
COEFFS = [0, 1, 1, 2, 3, "1/2", "3/2"]
KNOWN_GAP = "NotNefAndNotDecomposable"


def random_ample(fan, rng: random.Random) -> list:
    while True:
        coeffs = [rng.choice(COEFFS) for _ in fan.rays]
        if is_strictly_ample(fan, ts.divisor(fan, [Fraction(c) for c in coeffs])):
            return coeffs


def random_effective(fan, rng: random.Random) -> list[str]:
    """The direction generator of acceptance criterion 6."""
    while True:
        coeffs = [Fraction(rng.choice([0, 0, 1, 1, 2, 3]), rng.choice([1, 2, 3]))
                  for _ in fan.rays]
        if any(coeffs):
            return [wl.q(c) for c in coeffs]


def search(unit: str, inputs: dict) -> dict:
    fan, l, radius = wl.search_setup(ts, unit, inputs)
    return wl.search_result(ts.delta_search(fan, l, radius, jobs=1))


def record_delta() -> dict:
    fixed = {}
    for unit in ("p3", "f1_anti"):
        fixed[unit] = search(unit, {})
        assert wl.frozen_delta_ok(unit, fixed[unit]), unit
    pool = []
    for i in range(wl.POOL):
        rng = random.Random(f"delta-search:{i}")
        inputs = {unit: random_ample(wl.build_fan(ts, model)[0], rng)
                  for unit, (model, pol, _r) in wl.SEARCHES.items() if pol == "seeded"}
        expect = {unit: search(unit, inputs) for unit in inputs}
        pool.append({"inputs": inputs, "expect": expect})
        print(f"delta-search {i}: {inputs}", file=sys.stderr)
    return {"fixed": fixed, "pool": pool}


def prime_oracle(op, k_rel) -> Fraction:
    """The unit-interval quotient of a surface, its numerator from the surface form."""
    _model, fan, l, _k, d = op
    _vol, tau_plus = ts.volume_curve(fan, l, d)
    if tau_plus < 1:
        d = d.scale(tau_plus / 2)
    curve = ts.extended_curve(fan, l, d, k_rel=k_rel)
    denominator = ts.big_volume(fan, l) * ts.jtilde(truncated_curve(curve))
    # (K_rel . -D) + 2 (G_1(L, D) . Red D) with G_1(L, D) = L - D/2 on a surface
    red = d.reduced()
    numerator = wl.surface_intersection(fan, k_rel, -d) + 2 * (
        wl.surface_intersection(fan, l, red) - wl.surface_intersection(fan, d, red) / 2
    )
    return numerator / denominator


def check_oracle() -> None:
    """The surface form and the quotient assembly agree with the program where it works."""
    fan, l, _k = wl.build_fan(ts, "f1r")
    rays = [ts.ray_divisor(fan, i) for i in range(len(fan.rays))]
    agreed = 0
    for a in rays:
        for b in rays:
            try:
                want = ts.intersection_number(fan, [a, b], ample_ref=l)
            except ts.NotNefAndNotDecomposable:
                continue
            assert wl.surface_intersection(fan, a, b) == want
            agreed += 1
    assert agreed >= len(rays), agreed
    f1, anti, _k = wl.build_fan(ts, "f1")
    for i, j in ((3, 0), (0, 1), (3, 3)):
        k_rel, d = ts.ray_divisor(f1, i), ts.ray_divisor(f1, j)
        op = ("f1", f1, anti, k_rel, d)
        assert prime_oracle(op, k_rel) == ts.delta_prime_quotient(f1, anti, d, k_rel=k_rel)


def clear_caches() -> None:
    for module, attr in tracer.CACHES.values():
        getattr(sys.modules[f"toricstab.{module}"], attr).cache_clear()


def timed_pass(ops) -> tuple[list[dict], list[float]]:
    """One cycle's results and milliseconds per operation, from cold caches as in a worker."""
    clear_caches()
    results, costs = [], []
    for op in ops:
        sample = speed.sample()
        start = time.perf_counter()
        results.append(wl.curve_op(ts, op))
        costs.append(speed.scale(time.perf_counter() - start, sample) * 1e3)
    return results, costs


def record_curves() -> dict:
    check_oracle()
    pool = []
    for i in range(wl.POOL):
        rng = random.Random(f"curve-functionals:{i}")
        directions = []
        for model, count in wl.CURVE_MODELS.items():
            fan = wl.build_fan(ts, model)[0]
            directions += [[model, random_effective(fan, rng)] for _ in range(count)]
        inputs = {"directions": directions}
        ops = wl.curve_setup(ts, inputs)
        passes = [timed_pass(ops) for _ in range(COST_PASSES)]
        results = passes[0][0]
        assert all(p[0] == results for p in passes)
        costs = [statistics.median(c) for c in zip(*(p[1] for p in passes))]
        expect = []
        for op, result in zip(ops, results):
            assert result["jtilde_identity"], op
            if result["prime"] == {"error": KNOWN_GAP}:
                value = prime_oracle(op, op[3])
                result["prime"] = {"value": wl.q(value), "known_gap": KNOWN_GAP}
            expect.append(result)
        assert wl.p2_h_ok(expect[0])
        pool.append({"inputs": inputs, "expect": {"curve": expect},
                     "cost_ms": [round(c, 1) for c in costs[1:]]})
        print(f"curve-functionals {i}: {directions}", file=sys.stderr)
    return {"fixed": {}, "pool": pool}


def run_cli(args: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    proc = subprocess.run([sys.executable, "-m", "toricstab.cli", *args], env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def record_cli(work: Path) -> dict:
    code, out = run_cli(["--version"])
    fixed = {"version": wl.cli_result(code, out)}
    pool = []
    for i in range(wl.POOL):
        rng = random.Random(f"cli:{i}")
        problems, names, u = {}, {}, {}
        for name, base in wl.CLI_SEEDED_BASES.items():
            fan = wl.build_fan(ts, base)[0]
            rays, cones = wl.FANS[base]
            problems[name] = {
                "fan": {"rays": rays, "cones": cones},
                "polarization": {"coeffs": random_ample(fan, rng)},
                "divisors": {label: {"coeffs": random_effective(fan, rng)}
                             for label in ("A", "B")},
            }
            names[name] = ["A", "B"]
            while True:
                v = [rng.randint(-2, 2), rng.randint(-2, 2)]
                if any(v):
                    break
            u[name] = f"{v[0]},{v[1]}"
        inputs = {"problems": problems, "names": names, "u": u}
        expect = []
        for args in wl.cli_commands(inputs, wl.write_problems(inputs, work)):
            code, out = run_cli(args)
            assert wl.cli_frozen_ok(args, out), args
            expect.append(wl.cli_result(code, out))
            if code != (2 if "bad_fan" in args[-1] else 0):
                print(f"cli {i}: exit {code} for {args}", file=sys.stderr)
        pool.append({"inputs": inputs, "expect": {"cli": expect}})
        print(f"cli {i}: {problems}", file=sys.stderr)
    return {"fixed": fixed, "pool": pool}


def dump(reference: dict) -> str:
    """JSON with one line per pool entry, so a re-recording diffs by entry."""
    sections = []
    for workload, section in sorted(reference.items()):
        entries = ",\n".join("   " + json.dumps(e, sort_keys=True) for e in section["pool"])
        sections.append(f' "{workload}": {{\n'
                        f'  "fixed": {json.dumps(section["fixed"], sort_keys=True)},\n'
                        f'  "pool": [\n{entries}\n  ]\n }}')
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description="record benchmark references")
    parser.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    args = parser.parse_args()
    reference = wl.load_reference() if wl.REFERENCE.is_file() else {}
    work = wl.BENCH_DIR / "_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in args.workload or wl.WORKLOADS:
            if workload == "delta-search":
                reference[workload] = record_delta()
            elif workload == "curve-functionals":
                reference[workload] = record_curves()
            else:
                reference[workload] = record_cli(work)
            wl.REFERENCE.write_text(dump(reference), encoding="utf-8")
    finally:
        for p in work.iterdir():
            p.unlink()
        work.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
