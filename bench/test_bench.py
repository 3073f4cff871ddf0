"""Tests of the benchmark itself: smoke runs, metric names, tracer and oracle.

    python3 -m pytest bench -q        # from the root of the checkout
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def test_smoke_runs_are_correct_and_print_every_end_to_end_metric():
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        out = result(bench("--workload", workload, "--seed", "5", "--smoke"))
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == names
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    out = result(bench("--workload", "curve-functionals", "--seed", "1", "--smoke",
                       "--trace", "1"))
    assert out["correct"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert out["metrics"]["toric.intersection_number.calls"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = BENCH / "_work" / f"bare-{time.monotonic_ns()}"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "cli", "--seed", "0", cwd=bare)
        assert proc.returncode != 0 and proc.stdout == b""
    finally:
        shutil.rmtree(bare)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()


def test_cycle_count_depends_only_on_workload_and_seconds():
    assert [wl.cycles(w, SPEC["run_seconds"]) for w in wl.WORKLOADS] == [1, 6, 3]
    assert wl.cycles("delta-search", 1) == 1


def test_curve_picks_take_one_entry_from_each_cost_stratum():
    pool = wl.load_reference()["curve-functionals"]["pool"]
    picks = wl.curve_picks(7, 4, pool)
    assert picks == wl.curve_picks(7, 4, pool) != wl.curve_picks(8, 4, pool)
    slots = sum(wl.CURVE_MODELS.values())
    assert len(picks) == 4 and all(len(p) == slots for p in picks)
    for slot in range(slots):
        order = sorted(range(wl.POOL), key=lambda e: (pool[e]["cost_ms"][slot], e))
        ranks = sorted(order.index(p[slot]) for p in picks)
        assert [r * 4 // wl.POOL for r in ranks] == [0, 1, 2, 3]
    inputs, want = wl.curve_cycle(pool, picks[0])
    assert len(inputs["directions"]) == slots and len(want) == slots + 1
    assert inputs["directions"][0] == pool[picks[0][0]]["inputs"]["directions"][0]


def test_timed_search_times_every_row_of_the_programs_search():
    import toricstab as ts

    fan, l, _radius = wl.search_setup(ts, "f1_anti", {})
    timings: list[tuple[float, float]] = []
    got = wl.search_result(worker.timed_search(ts, fan, l, 2, timings))
    assert len(timings) == len(got["rows"]) == 16 and all(s > 0 for s, _sample in timings)
    assert wl.frozen_delta_ok("f1_anti", got)
    assert ts.thresholds._candidate_row.__name__ == "_candidate_row"  # timer removed


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_rank(100) == (90, 90)
    assert run.tail_rank(408) == (97, 396)


def test_tracer_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda: time.sleep(0.02))
    outer = t.wrap("m.outer", lambda: (time.sleep(0.01), inner(), inner()))
    outer()
    assert t.calls == {"m.outer": 1, "m.inner": 2}
    assert t.total["m.outer"] >= t.total["m.inner"] >= 0.04
    assert abs(t.self_time["m.outer"] - (t.total["m.outer"] - t.total["m.inner"])) < 1e-6


def test_surface_form_matches_the_program_on_f1():
    import toricstab as ts

    fan, anti, _k = wl.build_fan(ts, "f1")
    rays = [ts.ray_divisor(fan, i) for i in range(len(fan.rays))]
    for a in rays + [anti]:
        for b in rays + [anti]:
            assert wl.surface_intersection(fan, a, b) == ts.intersection_number(fan, [a, b])
